//! Property-based tests for the uniform word problem for lattices.
//!
//! Five families of properties:
//!
//! 1. the two strategies of algorithm ALG (the paper's fixpoint and the
//!    engine) compute the same entailment relation;
//! 2. with `E = ∅`, ALG agrees with the free-lattice order `≤_id`
//!    (Lemma 8.2 / Lemma 9.2);
//! 3. **soundness against finite models**: if every equation of `E` holds in
//!    a concrete finite lattice under a concrete assignment, then every
//!    equation ALG derives from `E` also holds there (Theorem 8, the
//!    "only lattices that satisfy E matter" direction);
//! 4. the cached [`ImplicationEngine`] — fresh builds, incremental
//!    extension, and batched queries alike — is pinned to the
//!    [`DerivedOrder`] reference on random equation sets;
//! 5. the term/equation printers round-trip through the parser onto the
//!    same hash-consed [`TermId`]s;
//! 6. on collapsing sets (random full and partial FPD cycles, where whole
//!    classes of terms become equivalent and every new goal term gains arcs
//!    to most of `V`), the engine extended one goal at a time keeps the
//!    reference's verdicts and arc count after every extension.

use proptest::prelude::*;
use std::collections::HashMap;

use ps_base::{Attribute, Universe};
use ps_lattice::{
    free_order, parse_equation, parse_term, word_problem, DerivedOrder, Equation, FiniteLattice,
    ImplicationEngine, TermArena, TermId,
};

/// A small fixed universe of four attributes shared by all generated terms.
fn universe() -> (Universe, Vec<Attribute>) {
    let mut u = Universe::new();
    let attrs = u.attrs(["A", "B", "C", "D"]);
    (u, attrs)
}

/// Eight attributes, for the FPD cycles.
fn cycle_attributes() -> Vec<Attribute> {
    Universe::new().attrs(["A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"])
}

/// A strategy producing random term *shapes*: 0 = atom, 1 = meet, 2 = join,
/// encoded as a recursive tree.
#[derive(Debug, Clone)]
enum Shape {
    Atom(u8),
    Meet(Box<Shape>, Box<Shape>),
    Join(Box<Shape>, Box<Shape>),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    arb_shape_over(4)
}

/// Shapes whose atoms index `atoms` attributes (reduced modulo the slice
/// [`build`] is given).
fn arb_shape_over(atoms: u8) -> impl Strategy<Value = Shape> {
    let leaf = (0u8..atoms).prop_map(Shape::Atom);
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Shape::Meet(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Shape::Join(Box::new(l), Box::new(r))),
        ]
    })
}

/// `E ⊨ goal` by the paper's fixpoint, the reference the engine is pinned to.
fn naive_entails(arena: &TermArena, equations: &[Equation], goal: Equation) -> bool {
    DerivedOrder::build(arena, equations, &[goal.lhs, goal.rhs])
        .entails(goal)
        .expect("the goal's sides are in V")
}

fn build(shape: &Shape, attrs: &[Attribute], arena: &mut TermArena) -> TermId {
    match shape {
        Shape::Atom(i) => arena.atom(attrs[*i as usize % attrs.len()]),
        Shape::Meet(l, r) => {
            let lt = build(l, attrs, arena);
            let rt = build(r, attrs, arena);
            arena.meet(lt, rt)
        }
        Shape::Join(l, r) => {
            let lt = build(l, attrs, arena);
            let rt = build(r, attrs, arena);
            arena.join(lt, rt)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_and_worklist_agree(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal in (arb_shape(), arb_shape()),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goal = Equation::new(build(&goal.0, &attrs, &mut arena), build(&goal.1, &attrs, &mut arena));
        let naive = naive_entails(&arena, &equations, goal);
        let fast = word_problem::entails_many(&arena, &equations, &[goal])[0];
        prop_assert_eq!(naive, fast);
    }

    #[test]
    fn empty_e_matches_the_free_order(lhs in arb_shape(), rhs in arb_shape()) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        let expected = free_order::leq_id(&arena, l, r);
        prop_assert_eq!(DerivedOrder::build(&arena, &[], &[l, r]).leq(l, r), Some(expected));
        prop_assert_eq!(word_problem::entails_leq(&arena, &[], l, r), expected);
    }

    #[test]
    fn derived_equations_hold_in_finite_models_satisfying_e(
        term_shapes in prop::collection::vec(arb_shape(), 2..6),
        goal_pair in (0usize..6, 0usize..6),
        assignment_seed in prop::collection::vec(0usize..5, 4),
        lattice_choice in 0usize..3,
    ) {
        let (u, attrs) = universe();
        let mut arena = TermArena::new();
        let lattice = match lattice_choice {
            0 => FiniteLattice::m3(),
            1 => FiniteLattice::n5(),
            _ => FiniteLattice::chain(5),
        };
        // A concrete assignment of lattice elements to the four attributes.
        let assignment: HashMap<Attribute, usize> = attrs
            .iter()
            .zip(assignment_seed.iter())
            .map(|(&a, &v)| (a, v % lattice.len()))
            .collect();
        // Build terms and evaluate them in the model.
        let terms: Vec<TermId> = term_shapes.iter().map(|s| build(s, &attrs, &mut arena)).collect();
        let values: Vec<usize> = terms
            .iter()
            .map(|&t| lattice.evaluate(&arena, t, &assignment, &u).unwrap())
            .collect();
        // E consists of every equation between generated terms that happens
        // to hold in the model, so the model satisfies E by construction.
        let mut equations = Vec::new();
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                if values[i] == values[j] {
                    equations.push(Equation::new(terms[i], terms[j]));
                }
            }
        }
        // Pick a goal among the generated terms; if ALG derives it from E it
        // must hold in the model (soundness).
        let gi = goal_pair.0 % terms.len();
        let gj = goal_pair.1 % terms.len();
        let goal = Equation::new(terms[gi], terms[gj]);
        let derived = [
            naive_entails(&arena, &equations, goal),
            word_problem::entails_many(&arena, &equations, &[goal])[0],
        ];
        for derived in derived {
            if derived {
                prop_assert!(
                    lattice.satisfies(&arena, goal, &assignment, &u).unwrap(),
                    "ALG derived an equation that fails in a model satisfying E"
                );
            }
        }
    }

    #[test]
    fn engine_fresh_build_matches_naive_fixpoint(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal_shapes in prop::collection::vec((arb_shape(), arb_shape()), 1..5),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goals: Vec<Equation> = goal_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let mut engine = ImplicationEngine::new(&arena, &equations);
        for &goal in &goals {
            let reference = naive_entails(&arena, &equations, goal);
            prop_assert_eq!(engine.entails_goal(&arena, goal), reference);
        }
        // The engine's arc count over the final V matches a reference order
        // built over the same V, and its firing counter saw every arc once.
        let goal_terms: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        let order = DerivedOrder::build(&arena, &equations, &goal_terms);
        prop_assert_eq!(engine.num_arcs(), order.num_arcs());
        prop_assert_eq!(engine.rule_firings(), engine.num_arcs());
    }

    #[test]
    fn engine_incremental_and_batched_queries_match_naive_fixpoint(
        eq_shapes in prop::collection::vec((arb_shape(), arb_shape()), 0..4),
        goal_shapes in prop::collection::vec((arb_shape(), arb_shape()), 1..5),
    ) {
        let (_, attrs) = universe();
        let mut arena = TermArena::new();
        let equations: Vec<Equation> = eq_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let goals: Vec<Equation> = goal_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, &attrs, &mut arena), build(r, &attrs, &mut arena)))
            .collect();
        let reference: Vec<bool> = goals
            .iter()
            .map(|&g| naive_entails(&arena, &equations, g))
            .collect();
        // Batched: one engine, one V extension covering every goal.
        let mut batched = ImplicationEngine::new(&arena, &equations);
        prop_assert_eq!(batched.entails_many(&arena, &goals), reference.clone());
        // Incremental: extend V goal by goal; earlier verdicts must survive
        // later extensions (Lemma 9.2: enlarging V never changes Γ on old
        // terms).
        let mut incremental = ImplicationEngine::new(&arena, &equations);
        for (i, &goal) in goals.iter().enumerate() {
            prop_assert_eq!(incremental.entails_goal(&arena, goal), reference[i]);
            for j in 0..=i {
                prop_assert_eq!(incremental.entails(goals[j]), Some(reference[j]));
            }
        }
        // Both routes land in the same closure.
        prop_assert_eq!(incremental.num_arcs(), batched.num_arcs());
        // And the reference batched entry point agrees as well.
        let module_batched = word_problem::entails_many(&arena, &equations, &goals);
        prop_assert_eq!(module_batched, reference);
    }

    #[test]
    fn display_and_parse_round_trip_to_the_same_hash_consed_terms(
        lhs in arb_shape(),
        rhs in arb_shape(),
    ) {
        let (mut u, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        // Term round trip: display inserts only the parentheses needed for
        // the output to re-parse, and hash-consing maps the re-parse onto
        // the *same* TermId.
        let l_text = arena.display(l, &u);
        let reparsed = parse_term(&l_text, &mut u, &mut arena).unwrap();
        prop_assert_eq!(reparsed, l, "{}", l_text);
        // Equation round trip.
        let eq = Equation::new(l, r);
        let eq_text = eq.display(&arena, &u);
        let reparsed_eq = parse_equation(&eq_text, &mut u, &mut arena).unwrap();
        prop_assert_eq!(reparsed_eq, eq, "{}", eq_text);
    }

    #[test]
    fn identities_hold_in_every_finite_model(lhs in arb_shape(), rhs in arb_shape()) {
        // If e = e' is recognized as an identity (Theorem 10 machinery), it
        // must hold in every finite lattice under every assignment.
        let (u, attrs) = universe();
        let mut arena = TermArena::new();
        let l = build(&lhs, &attrs, &mut arena);
        let r = build(&rhs, &attrs, &mut arena);
        if free_order::eq_id(&arena, l, r) {
            let eq = Equation::new(l, r);
            for lattice in [FiniteLattice::m3(), FiniteLattice::n5(), FiniteLattice::chain(4)] {
                prop_assert!(lattice.satisfies_identity(&arena, eq, &u).unwrap());
            }
        }
    }

    #[test]
    fn engine_extended_goal_by_goal_matches_the_fixpoint_on_fpd_cycles(
        len in 2usize..9,
        full in 0u8..2,
        dropped in prop::collection::vec(0usize..8, 1..3),
        extra_shapes in prop::collection::vec((arb_shape_over(8), arb_shape_over(8)), 0..2),
        goal_shapes in prop::collection::vec((arb_shape_over(8), arb_shape_over(8)), 8..12),
    ) {
        let attrs = cycle_attributes();
        let attrs = &attrs[..len];
        let mut arena = TermArena::new();
        // Link i is the FPD A_i = A_i * A_{i+1 mod len}: a full cycle
        // collapses every atom into one class; a partial one drops links.
        let mut equations = Vec::new();
        for i in 0..len {
            if full == 0 && dropped.iter().any(|&d| d % len == i) {
                continue;
            }
            let (a, b) = (arena.atom(attrs[i]), arena.atom(attrs[(i + 1) % len]));
            let ab = arena.meet(a, b);
            equations.push(Equation::new(a, ab));
        }
        for (l, r) in &extra_shapes {
            equations.push(Equation::new(build(l, attrs, &mut arena), build(r, attrs, &mut arena)));
        }
        let goals: Vec<Equation> = goal_shapes
            .iter()
            .map(|(l, r)| Equation::new(build(l, attrs, &mut arena), build(r, attrs, &mut arena)))
            .collect();

        let mut engine = ImplicationEngine::new(&arena, &equations);
        let mut goal_terms = Vec::new();
        for (i, &goal) in goals.iter().enumerate() {
            let verdict = engine.entails_goal(&arena, goal);
            if full == 1 {
                prop_assert!(verdict, "a full FPD cycle entails every goal over its atoms");
            }
            goal_terms.extend([goal.lhs, goal.rhs]);
            let order = DerivedOrder::build(&arena, &equations, &goal_terms);
            for &g in &goals[..=i] {
                prop_assert_eq!(engine.entails(g), order.entails(g));
            }
            prop_assert_eq!(engine.terms().len(), order.terms().len());
            prop_assert_eq!(engine.num_arcs(), order.num_arcs());
            prop_assert_eq!(engine.rule_firings(), engine.num_arcs());
        }
    }
}
