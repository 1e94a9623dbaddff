//! Algorithm `ALG`: the uniform word problem for lattices (Section 5.2).
//!
//! Given a finite set of equations `E` between lattice terms and a goal
//! equation `e = e′`, decide whether every lattice with constants satisfying
//! `E` also satisfies the goal.  By Theorem 8 this single relation captures
//! implication of partition dependencies over lattices, over all relations,
//! and over finite relations alike.
//!
//! The algorithm constructs the set `V` of all subexpressions of `E`, `e`
//! and `e′`, and saturates a set `Γ ⊆ V × V` of arcs `(p, q)` meaning
//! "`p ≤_E q` is derivable" under the rules:
//!
//! 1. reflexivity `(v, v)`;
//! 2. `(p,s), (q,s) ⟹ (p+q, s)` when `p+q ∈ V`;
//! 3. `(p,s) or (q,s) ⟹ (p*q, s)` when `p*q ∈ V`;
//! 4. `(s,p), (s,q) ⟹ (s, p*q)` when `p*q ∈ V`;
//! 5. `(s,p) or (s,q) ⟹ (s, p+q)` when `p+q ∈ V`;
//! 6. `(p,q), (q,p)` for every equation `p = q` in `E`;
//! 7. transitivity.
//!
//! Lemma 9.2 shows that for `p, q ∈ V`, `p ≤_E q` iff `(p, q)` ends up in
//! `Γ`.  Crucially, the restriction of the saturated `Γ` to any subset of
//! `V` depends only on `E` — enlarging `V` never changes the verdict on
//! terms already present.  That independence is what makes the closure
//! *cacheable* and *incrementally extendable*, and this module exploits it
//! at two levels:
//!
//! * [`ImplicationEngine`] — the production engine.  Built **once** per
//!   constraint set `E`, it owns the arena-dense subexpression universe `V`
//!   and the saturated `Γ` (stored as a [`BitMatrix`] pair: successor rows
//!   and their transpose), answers arbitrarily many [`ImplicationEngine::leq`]
//!   / [`ImplicationEngine::entails`] queries without re-saturating, and
//!   grows on demand: [`ImplicationEngine::add_goal_terms`] appends new
//!   subterms to `V` and propagates only the arcs that involve them.
//!   Saturation is semi-naive — each arc is propagated once — and
//!   transitivity fires as word-parallel row ORs
//!   ([`BitMatrix::or_row_into_delta`]) instead of per-pair probes, and a
//!   rule-firing counter ([`ImplicationEngine::rule_firings`]) exposes the
//!   work done so the benchmark suite can assert that build-once-query-many
//!   does strictly less work than rebuilding per goal.
//! * [`DerivedOrder`] — the reference implementation, rebuilt from scratch
//!   per instance by the paper's literal repeat-until-no-change fixpoint
//!   (`O(n⁴)` with the straightforward implementation).  Property tests pin
//!   the engine to it.
//!
//! The one-shot conveniences ([`entails`], [`entails_many`], [`leq_many`],
//! [`entails_leq`]) take an [`Algorithm`] naming which of the two answers.

use std::collections::HashMap;

use ps_base::Universe;

use crate::{BitMatrix, Equation, TermArena, TermId, TermNode};

/// Saturation strategy for algorithm `ALG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The paper's literal "repeat until no new arcs are added" loop, scanning
    /// all rule instances each round ([`DerivedOrder`]).  Straightforward
    /// `O(n⁴)`.
    NaiveFixpoint,
    /// Semi-naive propagation ([`ImplicationEngine`]): each newly inserted
    /// arc is propagated once and fires only the rule instances it can
    /// participate in, with transitivity as word-parallel row operations.
    /// Same closure, lower constant and better asymptotics in practice.
    #[default]
    Worklist,
}

/// The saturated derived order `≤_E` restricted to the subexpression set `V`.
///
/// Build it once per constraint set (plus any goal terms of interest) with
/// [`DerivedOrder::build`], then query arbitrarily many pairs with
/// [`DerivedOrder::leq`] / [`DerivedOrder::entails`].
#[derive(Debug, Clone)]
pub struct DerivedOrder {
    /// The terms making up `V`, in dense order.
    terms: Vec<TermId>,
    /// Map from term id to dense index in `terms`.
    dense: HashMap<TermId, usize>,
    /// `gamma[i][j]` iff `terms[i] ≤_E terms[j]` is derivable.
    gamma: BitMatrix,
}

impl DerivedOrder {
    /// Runs algorithm `ALG` for the equations `E = equations`, making sure
    /// every term in `extra_terms` (e.g. the two sides of a goal equation)
    /// is included in the subexpression set `V`.
    pub fn build(arena: &TermArena, equations: &[Equation], extra_terms: &[TermId]) -> Self {
        // --- Collect V: all subterms of E and the extra terms. ---
        let mut terms: Vec<TermId> = Vec::new();
        let mut dense: HashMap<TermId, usize> = HashMap::new();
        let add_subterms =
            |root: TermId, terms: &mut Vec<TermId>, dense: &mut HashMap<TermId, usize>| {
                for t in arena.subterms(root) {
                    dense.entry(t).or_insert_with(|| {
                        terms.push(t);
                        terms.len() - 1
                    });
                }
            };
        for eq in equations {
            add_subterms(eq.lhs, &mut terms, &mut dense);
            add_subterms(eq.rhs, &mut terms, &mut dense);
        }
        for &t in extra_terms {
            add_subterms(t, &mut terms, &mut dense);
        }

        let n = terms.len();
        let mut gamma = BitMatrix::new(n);

        // Seed rule 1 (reflexivity) and rule 6 (the equations of E).
        for i in 0..n {
            gamma.set(i, i);
        }
        for eq in equations {
            let (i, j) = (dense[&eq.lhs], dense[&eq.rhs]);
            gamma.set(i, j);
            gamma.set(j, i);
        }
        saturate_naive(arena, &terms, &dense, &mut gamma);

        DerivedOrder {
            terms,
            dense,
            gamma,
        }
    }

    /// Whether `lhs ≤_E rhs` is derivable.
    ///
    /// # The `Option` contract
    ///
    /// Both terms must be members of the subexpression set `V` this order
    /// was built over (pass them as `extra_terms` to [`DerivedOrder::build`]).
    /// A foreign term yields `None` — which means "not a member of `V`",
    /// **not** "not entailed".  Callers must not collapse `None` into
    /// `false`: a `None` is a construction bug (the goal was forgotten when
    /// the order was built), and treating it as a negative verdict silently
    /// turns that bug into a wrong answer.  Debug builds therefore assert
    /// membership; use [`DerivedOrder::contains_term`] to query membership
    /// explicitly.
    pub fn leq(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        debug_assert!(
            self.dense.contains_key(&lhs) && self.dense.contains_key(&rhs),
            "DerivedOrder::leq queried with a term outside V — \
             include goal terms via `extra_terms` when building"
        );
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.gamma.get(i, j))
    }

    /// Whether the equation `goal` is entailed: both `lhs ≤_E rhs` and
    /// `rhs ≤_E lhs`.
    ///
    /// Shares the [`Option` contract](DerivedOrder::leq) of `leq`: `None`
    /// means a goal term is outside `V` (asserted in debug builds), never
    /// "not entailed".
    pub fn entails(&self, goal: Equation) -> Option<bool> {
        Some(self.leq(goal.lhs, goal.rhs)? && self.leq(goal.rhs, goal.lhs)?)
    }

    /// Whether `term` is a member of the subexpression set `V`, i.e. whether
    /// [`DerivedOrder::leq`] can answer queries about it.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.dense.contains_key(&term)
    }

    /// The subexpression set `V` (dense order).
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Number of derived arcs in `Γ`.
    pub fn num_arcs(&self) -> usize {
        self.gamma.count_ones()
    }

    /// Number of rule firings performed while saturating `Γ`.
    ///
    /// A *firing* is a rule application that actually inserted a new arc
    /// (rules 1–7; each arc is inserted exactly once, whichever rule gets
    /// there first, so the count is strategy-independent).
    /// [`ImplicationEngine::rule_firings`] counts the same unit, which is
    /// what lets the ps-bench fixtures compare build-once-query-many against
    /// rebuild-per-goal by counter.
    pub fn rule_firings(&self) -> usize {
        self.gamma.count_ones()
    }

    /// All pairs of *atoms* `(A, B)` with `A ≤_E B`; used by the consistency
    /// pipeline of Section 6.2 to compute the closure `E⁺`.
    pub fn atom_consequences(&self, arena: &TermArena) -> Vec<(TermId, TermId)> {
        atom_consequence_pairs(&self.terms, &self.gamma, arena)
    }

    /// Renders the derived order as a list of `p ≤ q` lines (for debugging
    /// and the examples).
    pub fn render(&self, arena: &TermArena, universe: &Universe) -> String {
        let mut lines = Vec::new();
        for (i, &p) in self.terms.iter().enumerate() {
            for j in self.gamma.iter_row(i) {
                if i == j {
                    continue;
                }
                let q = self.terms[j];
                lines.push(format!(
                    "{} <= {}",
                    arena.display(p, universe),
                    arena.display(q, universe)
                ));
            }
        }
        lines.join("\n")
    }
}

/// The paper's repeat-until-stable saturation: the pinned reference for
/// [`ImplicationEngine`]'s semi-naive saturator (`saturate`).
pub(crate) fn saturate_naive(
    arena: &TermArena,
    terms: &[TermId],
    dense: &HashMap<TermId, usize>,
    gamma: &mut BitMatrix,
) {
    let n = terms.len();
    // Pre-resolve the children of every composite term in V.
    let composites: Vec<(usize, usize, usize, bool)> = terms
        .iter()
        .enumerate()
        .filter_map(|(i, &t)| match arena.node(t) {
            TermNode::Meet(l, r) => Some((i, dense[&l], dense[&r], true)),
            TermNode::Join(l, r) => Some((i, dense[&l], dense[&r], false)),
            TermNode::Atom(_) => None,
        })
        .collect();

    loop {
        let before = gamma.count_ones();

        // Rules 2–5: scan every composite against every s ∈ V.
        for &(c, l, r, is_meet) in &composites {
            for s in 0..n {
                if is_meet {
                    // rule 3: (l,s) or (r,s) ⟹ (c,s)
                    if gamma.get(l, s) || gamma.get(r, s) {
                        gamma.set(c, s);
                    }
                    // rule 4: (s,l) and (s,r) ⟹ (s,c)
                    if gamma.get(s, l) && gamma.get(s, r) {
                        gamma.set(s, c);
                    }
                } else {
                    // rule 2: (l,s) and (r,s) ⟹ (c,s)
                    if gamma.get(l, s) && gamma.get(r, s) {
                        gamma.set(c, s);
                    }
                    // rule 5: (s,l) or (s,r) ⟹ (s,c)
                    if gamma.get(s, l) || gamma.get(s, r) {
                        gamma.set(s, c);
                    }
                }
            }
        }

        // Rule 7: transitivity.
        gamma.transitive_closure();

        if gamma.count_ones() == before {
            return;
        }
    }
}

/// Collects all `(A, B)` atom pairs with an `A ≤_E B` arc in `gamma` —
/// shared by [`DerivedOrder::atom_consequences`] and
/// [`ImplicationEngine::atom_consequences`] so the two engines cannot drift
/// apart on the atom-pair semantics the Section 6.2 closure relies on.
fn atom_consequence_pairs(
    terms: &[TermId],
    gamma: &BitMatrix,
    arena: &TermArena,
) -> Vec<(TermId, TermId)> {
    let mut out = Vec::new();
    for (i, &p) in terms.iter().enumerate() {
        if !arena.is_atom(p) {
            continue;
        }
        for j in gamma.iter_row(i) {
            let q = terms[j];
            if i != j && arena.is_atom(q) {
                out.push((p, q));
            }
        }
    }
    out
}

/// For one term, the composites of `V` it occurs in as a direct child,
/// together with the dense index of the sibling child.
#[derive(Debug, Default, Clone)]
struct Occurrences {
    /// `(composite, sibling)` pairs where the composite is a meet.
    meets: Vec<(usize, usize)>,
    /// `(composite, sibling)` pairs where the composite is a join.
    joins: Vec<(usize, usize)>,
}

/// The cached, incrementally extendable implication engine for algorithm
/// `ALG` — build once per constraint set `E`, query many goals.
///
/// The engine owns the subexpression universe `V` (every subterm of `E`,
/// plus whatever goal terms have been added) and the saturated derived order
/// `Γ`, stored twice for word-parallelism: `succ` holds successor rows
/// (`succ[i][j]` iff `terms[i] ≤_E terms[j]`) and `pred` its transpose.
/// Transitivity, and the first firing of rules 2–5 for a new composite,
/// are row OR / AND-OR operations on one of the two matrices, so they move
/// 64 arcs per word instead of probing pairs:
///
/// * rule 3 (meet `c = l*r`): `succ[c] |= succ[l]` (and symmetrically `r`);
/// * rule 2 (join `c = l+r`): `succ[c] |= succ[l] & succ[r]`;
/// * rule 5 (join `c = l+r`): `pred[c] |= pred[l]` (and symmetrically `r`);
/// * rule 4 (meet `c = l*r`): `pred[c] |= pred[l] & pred[r]`;
/// * rule 7 (transitivity), for each new arc `(x, w)`: `pred[w] |= pred[x]`
///   and `succ[x] |= succ[w]`.
///
/// Saturation is semi-naive: every newly inserted arc `(x, w)` is queued
/// once and propagated once, against the full rows of its endpoints —
/// transitivity runs `pred[w] |= pred[x]` and `succ[x] |= succ[w]`, and
/// rules 2–5 fire per arc against the composites `x` and `w` are children
/// of (rule 3 sets `(c, w)` for a meet `c = x*sib`, rule 2 does so for a
/// join when `(sib, w)` holds; rules 5 and 4 are the mirror images on `w`'s
/// side).  Whichever of two premises is propagated second sees the other
/// already in `Γ`, so no pair is missed, and no row is ever re-ORed for an
/// arc it has already absorbed.  [`ImplicationEngine::add_goal_terms`]
/// reuses exactly that machinery for incremental extension: new subterms get
/// fresh (reflexive) rows, the rules of the new composites are seeded once
/// against the already-saturated rows of their children, and only the arcs
/// this inserts are propagated — the closure over the old `V` is never
/// recomputed (by Lemma 9.2 it cannot change), so an extension costs about
/// its new arcs times the words per row.
///
/// ```
/// use ps_base::Universe;
/// use ps_lattice::{parse_equation, parse_term, ImplicationEngine, TermArena};
///
/// let mut universe = Universe::new();
/// let mut arena = TermArena::new();
/// let e = vec![
///     parse_equation("A = A*B", &mut universe, &mut arena).unwrap(),
///     parse_equation("B = B*C", &mut universe, &mut arena).unwrap(),
/// ];
/// // Build once…
/// let mut engine = ImplicationEngine::new(&arena, &e);
/// // …query many goals; V grows on demand, propagating only the new arcs.
/// let goal = parse_equation("A = A*C", &mut universe, &mut arena).unwrap();
/// let converse = parse_equation("C = C*A", &mut universe, &mut arena).unwrap();
/// assert_eq!(engine.entails_many(&arena, &[goal, converse]), vec![true, false]);
/// let (a, c) = (
///     parse_term("A", &mut universe, &mut arena).unwrap(),
///     parse_term("C", &mut universe, &mut arena).unwrap(),
/// );
/// assert!(engine.leq_goal(&arena, a, c));
/// ```
#[derive(Debug, Clone)]
pub struct ImplicationEngine {
    /// The constraint set `E` the engine was built for.
    equations: Vec<Equation>,
    /// The terms making up `V`, in dense order (append-only).
    terms: Vec<TermId>,
    /// Map from term id to dense index in `terms`.
    dense: HashMap<TermId, usize>,
    /// `succ[i][j]` iff `terms[i] ≤_E terms[j]` is derivable.
    succ: BitMatrix,
    /// Transpose of `succ`: `pred[j][i]` iff `terms[i] ≤_E terms[j]`.
    pred: BitMatrix,
    /// Child → parent-composite occurrence lists.
    occ: Vec<Occurrences>,
    /// Semi-naive deltas: the arcs `(u, v)` inserted but not yet
    /// propagated.  Empty, with no capacity, whenever `saturate` returns, so
    /// a frozen copy of the engine carries none of it.
    pending: Vec<(u32, u32)>,
    /// Scratch buffer for row-operation deltas (reused across firings).
    scratch: Vec<usize>,
    /// Arcs inserted by rule applications (same unit as
    /// [`DerivedOrder::rule_firings`]).
    rule_firings: usize,
    /// Word-parallel row operations executed.
    row_ops: usize,
}

impl ImplicationEngine {
    /// Builds and saturates the engine for the constraint set `equations`.
    ///
    /// `V` starts as the subexpression set of `E`; extend it afterwards with
    /// [`ImplicationEngine::add_goal_terms`] (or implicitly through the
    /// `*_goal` / `*_many` query methods).
    pub fn new(arena: &TermArena, equations: &[Equation]) -> Self {
        let mut engine = ImplicationEngine {
            equations: equations.to_vec(),
            terms: Vec::new(),
            dense: HashMap::new(),
            succ: BitMatrix::new(0),
            pred: BitMatrix::new(0),
            occ: Vec::new(),
            pending: Vec::new(),
            scratch: Vec::new(),
            rule_firings: 0,
            row_ops: 0,
        };
        let roots: Vec<TermId> = equations.iter().flat_map(|eq| [eq.lhs, eq.rhs]).collect();
        engine.add_terms(arena, &roots);
        // Rule 6: the equations of E, in both directions.
        for eq in equations {
            let (i, j) = (engine.dense[&eq.lhs], engine.dense[&eq.rhs]);
            engine.insert_arc(i, j);
            engine.insert_arc(j, i);
        }
        engine.saturate();
        engine
    }

    /// Builds the engine and immediately extends `V` with `extra_terms` —
    /// the drop-in replacement for [`DerivedOrder::build`].
    pub fn with_goal_terms(
        arena: &TermArena,
        equations: &[Equation],
        extra_terms: &[TermId],
    ) -> Self {
        let mut engine = Self::new(arena, equations);
        engine.add_goal_terms(arena, extra_terms);
        engine
    }

    /// Extends `V` with every subterm of `terms` that is not yet present and
    /// re-saturates incrementally: only the arcs the new rows/columns bring
    /// are propagated, never the already-saturated closure.
    /// Returns the number of terms actually added (0 is a no-op).
    pub fn add_goal_terms(&mut self, arena: &TermArena, terms: &[TermId]) -> usize {
        let added = self.add_terms(arena, terms);
        if added > 0 {
            self.saturate();
        }
        added
    }

    /// Appends `new_equations` to the constraint set `E` and re-saturates
    /// incrementally: each new equation's subterms join `V`, its rule-6 arcs
    /// are seeded against the already-saturated closure, and only the arcs
    /// they derive are propagated.  Saturation is monotone in `E`
    /// (adding an equation can only grow `Γ`), so the closure over the old
    /// set is reused, never recomputed — the same discipline
    /// [`ImplicationEngine::add_goal_terms`] applies to `V` growth.
    ///
    /// Returns the number of arcs the extension inserted (the incremental
    /// re-saturation delta, in the same unit as
    /// [`ImplicationEngine::rule_firings`]); `0` means every new equation
    /// was already entailed.  Compare the delta against a fresh
    /// [`ImplicationEngine::new`] over the grown set to see the saving: the
    /// fresh build re-fires every old arc, the extension fires only new
    /// ones.
    pub fn add_equations(&mut self, arena: &TermArena, new_equations: &[Equation]) -> usize {
        let before = self.rule_firings;
        let roots: Vec<TermId> = new_equations
            .iter()
            .flat_map(|eq| [eq.lhs, eq.rhs])
            .collect();
        self.add_terms(arena, &roots);
        for eq in new_equations {
            self.equations.push(*eq);
            let (i, j) = (self.dense[&eq.lhs], self.dense[&eq.rhs]);
            self.insert_arc(i, j);
            self.insert_arc(j, i);
        }
        self.saturate();
        self.rule_firings - before
    }

    /// Retracts equations from `E` (matched modulo orientation) by
    /// rebuilding.  Retraction is non-monotone: an arc contributed by a
    /// removed equation cannot be identified after the fact (other equations
    /// may independently re-derive it), so the only sound path is a fresh
    /// saturation of the remaining set.  The rebuild also keeps `V` minimal
    /// again — goal terms added by earlier queries are dropped together with
    /// every arc that mentions them — and restarts the
    /// [`ImplicationEngine::rule_firings`] / [`ImplicationEngine::row_ops`]
    /// counters with it.
    ///
    /// Returns the number of equations removed; `0` leaves the engine (and
    /// its counters) untouched.
    pub fn retract_equations(&mut self, arena: &TermArena, removed: &[Equation]) -> usize {
        let matches = |eq: &Equation, r: &Equation| {
            (eq.lhs == r.lhs && eq.rhs == r.rhs) || (eq.lhs == r.rhs && eq.rhs == r.lhs)
        };
        let remaining: Vec<Equation> = self
            .equations
            .iter()
            .copied()
            .filter(|eq| !removed.iter().any(|r| matches(eq, r)))
            .collect();
        let removed_count = self.equations.len() - remaining.len();
        if removed_count > 0 {
            *self = ImplicationEngine::new(arena, &remaining);
        }
        removed_count
    }

    /// Whether `lhs ≤_E rhs` is derivable.  Same [`Option`
    /// contract](DerivedOrder::leq) as the reference order: `None` means the
    /// term is outside `V` (asserted in debug builds) — extend `V` first with
    /// [`ImplicationEngine::add_goal_terms`], or use the auto-extending
    /// [`ImplicationEngine::leq_goal`].
    pub fn leq(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        debug_assert!(
            self.dense.contains_key(&lhs) && self.dense.contains_key(&rhs),
            "ImplicationEngine::leq queried with a term outside V — \
             add goal terms via `add_goal_terms` first"
        );
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.succ.get(i, j))
    }

    /// Whether the equation `goal` is entailed (both `≤` directions).  Same
    /// [`Option` contract](DerivedOrder::leq) as [`ImplicationEngine::leq`].
    pub fn entails(&self, goal: Equation) -> Option<bool> {
        Some(self.leq(goal.lhs, goal.rhs)? && self.leq(goal.rhs, goal.lhs)?)
    }

    /// Whether `term` is a member of the current subexpression set `V`.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.dense.contains_key(&term)
    }

    /// Read-only `lhs ≤_E rhs` for *frozen* (shared, immutable) engines.
    ///
    /// Identical to [`ImplicationEngine::leq`] except that a term outside
    /// `V` is an *expected* outcome, not a caller bug: `None` means "outside
    /// the frozen vocabulary" (never "false") and there is no debug
    /// assertion.  Snapshot layers that pre-extend `V` with a batch's goal
    /// subterms use this to answer each goal without `&mut` access; a `None`
    /// surfaces as an outside-vocabulary error instead of silently mutating.
    pub fn leq_frozen(&self, lhs: TermId, rhs: TermId) -> Option<bool> {
        let (&i, &j) = (self.dense.get(&lhs)?, self.dense.get(&rhs)?);
        Some(self.succ.get(i, j))
    }

    /// Read-only entailment for frozen engines: both `≤` directions of
    /// `goal` via [`ImplicationEngine::leq_frozen`].  `None` means a goal
    /// term is outside the frozen vocabulary `V`, never "false".
    pub fn entails_frozen(&self, goal: Equation) -> Option<bool> {
        Some(self.leq_frozen(goal.lhs, goal.rhs)? && self.leq_frozen(goal.rhs, goal.lhs)?)
    }

    /// `lhs ≤_E rhs`, extending `V` with both terms first if necessary.
    pub fn leq_goal(&mut self, arena: &TermArena, lhs: TermId, rhs: TermId) -> bool {
        self.add_goal_terms(arena, &[lhs, rhs]);
        self.leq(lhs, rhs).expect("goal terms were just added to V")
    }

    /// Does `E` entail `goal`, extending `V` with the goal terms first if
    /// necessary?
    pub fn entails_goal(&mut self, arena: &TermArena, goal: Equation) -> bool {
        self.add_goal_terms(arena, &[goal.lhs, goal.rhs]);
        self.entails(goal).expect("goal terms were just added to V")
    }

    /// Batched entailment: one `V` extension covering every goal, then one
    /// lookup per goal.
    pub fn entails_many(&mut self, arena: &TermArena, goals: &[Equation]) -> Vec<bool> {
        let roots: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        self.add_goal_terms(arena, &roots);
        goals
            .iter()
            .map(|&g| self.entails(g).expect("goal terms were just added to V"))
            .collect()
    }

    /// Batched order queries: one `V` extension covering every pair, then
    /// one lookup per pair.
    pub fn leq_many(&mut self, arena: &TermArena, pairs: &[(TermId, TermId)]) -> Vec<bool> {
        let roots: Vec<TermId> = pairs.iter().flat_map(|&(l, r)| [l, r]).collect();
        self.add_goal_terms(arena, &roots);
        pairs
            .iter()
            .map(|&(l, r)| self.leq(l, r).expect("goal terms were just added to V"))
            .collect()
    }

    /// The constraint set `E` the engine was built for.
    pub fn equations(&self) -> &[Equation] {
        &self.equations
    }

    /// The current subexpression set `V` (dense order, append-only).
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Number of derived arcs in `Γ`.
    pub fn num_arcs(&self) -> usize {
        self.succ.count_ones()
    }

    /// Number of rule firings (arc insertions) performed so far, cumulative
    /// across the initial build and every incremental extension.  Same unit
    /// as [`DerivedOrder::rule_firings`], so `k` independent rebuilds can be
    /// compared against one cached engine answering `k` goals.
    pub fn rule_firings(&self) -> usize {
        self.rule_firings
    }

    /// Number of word-parallel row operations executed so far (each OR /
    /// AND-OR pass over a row pair counts once, whether or not it fired).
    pub fn row_ops(&self) -> usize {
        self.row_ops
    }

    /// All pairs of *atoms* `(A, B)` with `A ≤_E B`; used by the consistency
    /// pipeline of Section 6.2 to compute the closure `E⁺`.
    pub fn atom_consequences(&self, arena: &TermArena) -> Vec<(TermId, TermId)> {
        atom_consequence_pairs(&self.terms, &self.succ, arena)
    }

    // --- Internals -----------------------------------------------------

    /// Appends every not-yet-present subterm of `roots` to `V`, growing the
    /// matrices and occurrence lists, setting reflexive arcs for the new
    /// rows, seeding the rules of the new composites against the rows of
    /// their children and propagating what that inserts.  Callers follow
    /// up with [`ImplicationEngine::saturate`].
    fn add_terms(&mut self, arena: &TermArena, roots: &[TermId]) -> usize {
        let old_n = self.terms.len();
        for &root in roots {
            for t in arena.subterms(root) {
                if !self.dense.contains_key(&t) {
                    self.dense.insert(t, self.terms.len());
                    self.terms.push(t);
                }
            }
        }
        let new_n = self.terms.len();
        if new_n == old_n {
            return 0;
        }
        self.succ.grow(new_n);
        self.pred.grow(new_n);
        self.occ.resize_with(new_n, Occurrences::default);

        // One term at a time, children first: its reflexive arc (rule 1),
        // then, for a composite, its occurrence entries and one firing of its
        // rules against the current rows of its children.  The seeding is
        // needed because the children may be *old* terms, whose arcs were
        // propagated before the composite existed and never will be again.
        // The one-premise rules (3 and 5) take both children in a single
        // batched row union, so the composite row is walked once.  What a
        // term inserts is propagated before the next term, so the pending
        // queue holds about two rows of arcs at a time.
        for i in old_n..new_n {
            self.insert_arc(i, i);
            match arena.node(self.terms[i]) {
                TermNode::Meet(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.occ[dl].meets.push((i, dr));
                    self.occ[dr].meets.push((i, dl));
                    // Rule 3 (either child), then rule 4 (both children).
                    self.grow_succ(i, 2, |m, d| m.union_rows_into_delta(&[dl, dr], i, d));
                    self.grow_pred(i, 1, |m, d| m.or_and_rows_into_delta(dl, dr, i, d));
                }
                TermNode::Join(l, r) => {
                    let (dl, dr) = (self.dense[&l], self.dense[&r]);
                    self.occ[dl].joins.push((i, dr));
                    self.occ[dr].joins.push((i, dl));
                    // Rule 2 (both children), then rule 5 (either child).
                    self.grow_succ(i, 1, |m, d| m.or_and_rows_into_delta(dl, dr, i, d));
                    self.grow_pred(i, 2, |m, d| m.union_rows_into_delta(&[dl, dr], i, d));
                }
                TermNode::Atom(_) => {}
            }
            self.propagate_pending();
        }
        new_n - old_n
    }

    /// Inserts the arc `terms[u] ≤_E terms[v]` if it is new, mirroring it
    /// into the transpose and queueing it for propagation.
    fn insert_arc(&mut self, u: usize, v: usize) {
        if self.succ.set(u, v) {
            self.pred.set(v, u);
            self.book_arc(u, v);
        }
    }

    /// Counts the arc `(u, v)`, just set in both matrices, and queues it.
    fn book_arc(&mut self, u: usize, v: usize) {
        self.rule_firings += 1;
        self.pending.push((dense_u32(u), dense_u32(v)));
    }

    /// One row operation on `succ` that may grow row `dst` (`ops` counts
    /// the source rows it reads); every new successor `w` is mirrored into
    /// `pred` and booked as the arc `(dst, w)`.
    fn grow_succ(
        &mut self,
        dst: usize,
        ops: usize,
        op: impl FnOnce(&mut BitMatrix, &mut Vec<usize>) -> bool,
    ) {
        self.row_ops += ops;
        let mut delta = std::mem::take(&mut self.scratch);
        delta.clear();
        op(&mut self.succ, &mut delta);
        for &w in &delta {
            self.pred.set(w, dst);
            self.book_arc(dst, w);
        }
        self.scratch = delta;
    }

    /// The mirror image of [`ImplicationEngine::grow_succ`]: every new
    /// predecessor `u` of `dst` is mirrored into `succ` and booked as the
    /// arc `(u, dst)`.
    fn grow_pred(
        &mut self,
        dst: usize,
        ops: usize,
        op: impl FnOnce(&mut BitMatrix, &mut Vec<usize>) -> bool,
    ) {
        self.row_ops += ops;
        let mut delta = std::mem::take(&mut self.scratch);
        delta.clear();
        op(&mut self.pred, &mut delta);
        for &u in &delta {
            self.succ.set(u, dst);
            self.book_arc(u, dst);
        }
        self.scratch = delta;
    }

    /// Propagates every pending arc to the fixpoint and releases the
    /// queue's capacity (frozen copies clone the engine).
    pub(crate) fn saturate(&mut self) {
        self.propagate_pending();
        self.pending = Vec::new();
        debug_assert_eq!(
            self.rule_firings,
            self.succ.count_ones(),
            "every arc is inserted (and counted) exactly once"
        );
    }

    /// Drains the pending queue.  Each arc is propagated exactly once; an
    /// arc it derives is queued in turn.
    fn propagate_pending(&mut self) {
        while let Some((x, w)) = self.pending.pop() {
            self.propagate_arc(x as usize, w as usize);
        }
    }

    /// Fires every rule the new arc `x ≤ w` is a premise of, against the
    /// current rows.  A rule whose other premise is not in `Γ` yet fires
    /// when that premise is propagated.
    fn propagate_arc(&mut self, x: usize, w: usize) {
        if x != w {
            // Rule 7: (u, x) and (x, w) give (u, w); (x, w) and (w, v) give
            // (x, v).
            self.grow_pred(w, 1, |m, d| m.or_row_into_delta(x, w, d));
            self.grow_succ(x, 1, |m, d| m.or_row_into_delta(w, x, d));
        }
        // `w` is a new upper bound of `x`, hence of the composites built on
        // `x`: rule 3 for meets c = x*sib (either child suffices) and rule 2
        // for joins c = x+sib (the sibling must lie below `w` too).
        for k in 0..self.occ[x].meets.len() {
            let (c, _sibling) = self.occ[x].meets[k];
            self.insert_arc(c, w);
        }
        for k in 0..self.occ[x].joins.len() {
            let (c, sibling) = self.occ[x].joins[k];
            if self.succ.get(sibling, w) {
                self.insert_arc(c, w);
            }
        }
        // Mirror image: `x` is a new lower bound of `w`: rule 5 for joins
        // c = w+sib and rule 4 for meets c = w*sib.
        for k in 0..self.occ[w].joins.len() {
            let (c, _sibling) = self.occ[w].joins[k];
            self.insert_arc(x, c);
        }
        for k in 0..self.occ[w].meets.len() {
            let (c, sibling) = self.occ[w].meets[k];
            if self.succ.get(x, sibling) {
                self.insert_arc(x, c);
            }
        }
    }
}

/// A dense index as stored in the pending-arc queue.
fn dense_u32(i: usize) -> u32 {
    u32::try_from(i).expect("V has fewer than 2^32 terms")
}

/// `≤_E` over `V` = the subterms of `E` and of some extra terms, saturated
/// by the engine an [`Algorithm`] names — the one-shot conveniences below
/// and the countermodel search build their order through this.
pub(crate) enum SaturatedOrder {
    /// The paper's fixpoint.
    Fixpoint(DerivedOrder),
    /// The production engine.
    Engine(Box<ImplicationEngine>),
}

impl SaturatedOrder {
    pub(crate) fn build(
        arena: &TermArena,
        equations: &[Equation],
        extra_terms: &[TermId],
        algorithm: Algorithm,
    ) -> Self {
        match algorithm {
            Algorithm::NaiveFixpoint => {
                SaturatedOrder::Fixpoint(DerivedOrder::build(arena, equations, extra_terms))
            }
            Algorithm::Worklist => SaturatedOrder::Engine(Box::new(
                ImplicationEngine::with_goal_terms(arena, equations, extra_terms),
            )),
        }
    }

    /// `lhs ≤_E rhs` for two terms the order was built over.
    pub(crate) fn leq(&self, lhs: TermId, rhs: TermId) -> bool {
        match self {
            SaturatedOrder::Fixpoint(order) => order.leq(lhs, rhs),
            SaturatedOrder::Engine(engine) => engine.leq(lhs, rhs),
        }
        .expect("queried terms are in V by construction")
    }
}

/// Batched convenience: builds one order whose `V` covers every goal and
/// answers them all.  (The cached counterpart is
/// [`ImplicationEngine::entails_many`].)
pub fn entails_many(
    arena: &TermArena,
    equations: &[Equation],
    goals: &[Equation],
    algorithm: Algorithm,
) -> Vec<bool> {
    let extra: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
    let order = SaturatedOrder::build(arena, equations, &extra, algorithm);
    goals
        .iter()
        .map(|&g| order.leq(g.lhs, g.rhs) && order.leq(g.rhs, g.lhs))
        .collect()
}

/// Batched convenience for `≤` queries.  (The cached counterpart is
/// [`ImplicationEngine::leq_many`].)
pub fn leq_many(
    arena: &TermArena,
    equations: &[Equation],
    pairs: &[(TermId, TermId)],
    algorithm: Algorithm,
) -> Vec<bool> {
    let extra: Vec<TermId> = pairs.iter().flat_map(|&(l, r)| [l, r]).collect();
    let order = SaturatedOrder::build(arena, equations, &extra, algorithm);
    pairs.iter().map(|&(l, r)| order.leq(l, r)).collect()
}

/// Convenience: does `E` entail the equation `goal` (the uniform word
/// problem / PD implication, Theorem 8)?
pub fn entails(
    arena: &TermArena,
    equations: &[Equation],
    goal: Equation,
    algorithm: Algorithm,
) -> bool {
    entails_many(arena, equations, &[goal], algorithm)[0]
}

/// Convenience: does `E` entail `lhs ≤ rhs`?
pub fn entails_leq(
    arena: &TermArena,
    equations: &[Equation],
    lhs: TermId,
    rhs: TermId,
    algorithm: Algorithm,
) -> bool {
    leq_many(arena, equations, &[(lhs, rhs)], algorithm)[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{free_order, parse_equation, parse_term};
    use ps_base::Universe;

    struct Fixture {
        universe: Universe,
        arena: TermArena,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                universe: Universe::new(),
                arena: TermArena::new(),
            }
        }
        fn eq(&mut self, s: &str) -> Equation {
            parse_equation(s, &mut self.universe, &mut self.arena).unwrap()
        }
        fn t(&mut self, s: &str) -> TermId {
            parse_term(s, &mut self.universe, &mut self.arena).unwrap()
        }
    }

    const BOTH: [Algorithm; 2] = [Algorithm::NaiveFixpoint, Algorithm::Worklist];

    #[test]
    fn frozen_queries_agree_with_mutable_and_report_outside_v() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal = f.eq("A=A*C");
        let non_goal = f.eq("C=C*A");
        let outside = f.eq("A=A*D"); // D never added to V.
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        engine.add_goal_terms(&f.arena, &[goal.lhs, goal.rhs, non_goal.lhs, non_goal.rhs]);
        let firings = engine.rule_firings();
        // Read-only path answers pre-extended goals without &mut…
        let frozen: &ImplicationEngine = &engine;
        assert_eq!(frozen.entails_frozen(goal), Some(true));
        assert_eq!(frozen.entails_frozen(non_goal), Some(false));
        assert_eq!(frozen.leq_frozen(goal.lhs, goal.rhs), Some(true));
        // …reports outside-V as None (never false, and no debug assert)…
        assert_eq!(frozen.entails_frozen(outside), None);
        assert_eq!(frozen.leq_frozen(outside.lhs, outside.rhs), None);
        // …and fires no rules.
        assert_eq!(engine.rule_firings(), firings);
        // A saturated engine is shareable across threads.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&engine);
    }

    #[test]
    fn empty_e_entails_exactly_the_identities() {
        let mut f = Fixture::new();
        let identity = f.eq("A*(A+B)=A");
        let non_identity = f.eq("A*(B+C)=(A*B)+(A*C)");
        for algo in BOTH {
            assert!(entails(&f.arena, &[], identity, algo));
            assert!(!entails(&f.arena, &[], non_identity, algo));
        }
    }

    #[test]
    fn fd_style_transitivity() {
        // A=A*B (A→B) and B=B*C (B→C) entail A=A*C (A→C).
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal = f.eq("A=A*C");
        let non_goal = f.eq("C=C*A");
        for algo in BOTH {
            assert!(entails(&f.arena, &e, goal, algo));
            assert!(!entails(&f.arena, &e, non_goal, algo));
        }
    }

    #[test]
    fn fpd_duality_meet_and_join_forms() {
        // A = A*B is equivalent to B = B+A: each entails the other.
        let mut f = Fixture::new();
        let meet_form = f.eq("A=A*B");
        let join_form = f.eq("B=B+A");
        for algo in BOTH {
            assert!(entails(&f.arena, &[meet_form], join_form, algo));
            assert!(entails(&f.arena, &[join_form], meet_form, algo));
        }
    }

    #[test]
    fn sum_dependency_consequences() {
        // From C = A + B we get A ≤ C and B ≤ C, i.e. A = A*C and B = B*C.
        let mut f = Fixture::new();
        let e = vec![f.eq("C=A+B")];
        let a_leq_c = f.eq("A=A*C");
        let b_leq_c = f.eq("B=B*C");
        let c_leq_a = f.eq("C=C*A");
        for algo in BOTH {
            assert!(entails(&f.arena, &e, a_leq_c, algo));
            assert!(entails(&f.arena, &e, b_leq_c, algo));
            assert!(!entails(&f.arena, &e, c_leq_a, algo));
        }
    }

    #[test]
    fn example_f_product_equation_decomposition() {
        // Example f: X = Y*Z is equivalent to {X = X*(Y*Z), Y*Z = Y*Z*X}.
        let mut f = Fixture::new();
        let original = f.eq("X=Y*Z");
        let dec1 = f.eq("X=X*(Y*Z)");
        let dec2 = f.eq("Y*Z=Y*Z*X");
        for algo in BOTH {
            assert!(entails(&f.arena, &[original], dec1, algo));
            assert!(entails(&f.arena, &[original], dec2, algo));
            assert!(entails(&f.arena, &[dec1, dec2], original, algo));
        }
    }

    #[test]
    fn theorem4_remark_sum_equation_decomposes_into_fpds() {
        // C = A+B entails A=A*C, B=B*C and C=C*(A+B);
        // and conversely {A=A*C, B=B*C, C=C*(A+B)} entails C=A+B.
        let mut f = Fixture::new();
        let sum_eq = f.eq("C=A+B");
        let fpd_a = f.eq("A=A*C");
        let fpd_b = f.eq("B=B*C");
        let c_below = f.eq("C=C*(A+B)");
        for algo in BOTH {
            assert!(entails(&f.arena, &[sum_eq], fpd_a, algo));
            assert!(entails(&f.arena, &[sum_eq], fpd_b, algo));
            assert!(entails(&f.arena, &[sum_eq], c_below, algo));
            assert!(entails(&f.arena, &[fpd_a, fpd_b, c_below], sum_eq, algo));
        }
    }

    #[test]
    fn equations_propagate_through_contexts() {
        // From A = B we should get A+C = B+C and A*C = B*C.
        let mut f = Fixture::new();
        let e = vec![f.eq("A=B")];
        let joins = f.eq("A+C=B+C");
        let meets = f.eq("A*C=B*C");
        for algo in BOTH {
            assert!(entails(&f.arena, &e, joins, algo));
            assert!(entails(&f.arena, &e, meets, algo));
        }
    }

    #[test]
    fn naive_and_worklist_agree_on_random_style_inputs() {
        let mut f = Fixture::new();
        let e = vec![
            f.eq("A=A*B"),
            f.eq("C=B+D"),
            f.eq("D=D*(A+C)"),
            f.eq("E=A*C"),
        ];
        let goals = vec![
            f.eq("A=A*C"),
            f.eq("B=B*C"),
            f.eq("D=D*C"),
            f.eq("E=E*B"),
            f.eq("A+D=C+A"),
            f.eq("E=A"),
        ];
        for goal in goals {
            let naive = entails(&f.arena, &e, goal, Algorithm::NaiveFixpoint);
            let fast = entails(&f.arena, &e, goal, Algorithm::Worklist);
            assert_eq!(naive, fast, "{}", goal.display(&f.arena, &f.universe));
        }
    }

    #[test]
    fn derived_order_exposes_atom_consequences() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let a = f.t("A");
        let b = f.t("B");
        let c = f.t("C");
        let order = DerivedOrder::build(&f.arena, &e, &[a, b, c]);
        let consequences = order.atom_consequences(&f.arena);
        assert!(consequences.contains(&(a, b)));
        assert!(consequences.contains(&(a, c)));
        assert!(consequences.contains(&(b, c)));
        assert!(!consequences.contains(&(c, a)));
        assert!(order.num_arcs() > 0);
        assert!(!order.render(&f.arena, &f.universe).is_empty());
        assert_eq!(order.leq(a, b), Some(true));
        assert_eq!(order.leq(c, a), Some(false));
    }

    #[test]
    fn entailment_is_sound_with_respect_to_the_free_order() {
        // With E = ∅, ≤_E coincides with ≤_id on the terms of V.
        let mut f = Fixture::new();
        let pairs = [
            ("A*(B+C)", "(A*B)+(A*C)"),
            ("(A*B)+(A*C)", "A*(B+C)"),
            ("A*B*C", "A+B"),
            ("A+B", "A*B*C"),
            ("(A+B)*(A+C)", "A+(B*C)"),
            ("A+(B*C)", "(A+B)*(A+C)"),
        ];
        for (l, r) in pairs {
            let lt = f.t(l);
            let rt = f.t(r);
            for algo in BOTH {
                assert_eq!(
                    entails_leq(&f.arena, &[], lt, rt, algo),
                    free_order::leq_id(&f.arena, lt, rt),
                    "{l} <= {r}"
                );
            }
        }
    }

    #[test]
    fn goal_terms_outside_v_are_detectable() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B")];
        let a = f.t("A");
        let stranger = f.t("X+Y");
        let order = DerivedOrder::build(&f.arena, &e, &[]);
        assert!(order.contains_term(a));
        assert!(!order.contains_term(stranger));
        let engine = ImplicationEngine::new(&f.arena, &e);
        assert!(engine.contains_term(a));
        assert!(!engine.contains_term(stranger));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside V")]
    fn leq_on_foreign_terms_panics_in_debug_builds() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B")];
        let a = f.t("A");
        let stranger = f.t("X+Y");
        let order = DerivedOrder::build(&f.arena, &e, &[]);
        let _ = order.leq(a, stranger);
    }

    #[test]
    fn engine_agrees_with_references_on_the_fixture_suite() {
        let mut f = Fixture::new();
        let e = vec![
            f.eq("A=A*B"),
            f.eq("C=B+D"),
            f.eq("D=D*(A+C)"),
            f.eq("E=A*C"),
        ];
        let goals = vec![
            f.eq("A=A*C"),
            f.eq("B=B*C"),
            f.eq("D=D*C"),
            f.eq("E=E*B"),
            f.eq("A+D=C+A"),
            f.eq("E=A"),
            f.eq("A*(A+B)=A"),
        ];
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        for &goal in &goals {
            let reference = entails(&f.arena, &e, goal, Algorithm::NaiveFixpoint);
            assert_eq!(
                engine.entails_goal(&f.arena, goal),
                reference,
                "{}",
                goal.display(&f.arena, &f.universe)
            );
        }
        // Batched queries agree with one-by-one queries.
        let batched = entails_many(&f.arena, &e, &goals, Algorithm::Worklist);
        let mut engine2 = ImplicationEngine::new(&f.arena, &e);
        assert_eq!(engine2.entails_many(&f.arena, &goals), batched);
    }

    #[test]
    fn incremental_extension_matches_a_fresh_build() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let goal1 = f.eq("A=A*C");
        let goal2 = f.eq("C=C*(A+D)");
        // Incremental: build on E alone, extend twice.
        let mut incremental = ImplicationEngine::new(&f.arena, &e);
        let build_firings = incremental.rule_firings();
        assert!(incremental.entails_goal(&f.arena, goal1));
        assert!(!incremental.entails_goal(&f.arena, goal2));
        // Fresh: one engine with all goal terms from the start.
        let fresh = ImplicationEngine::with_goal_terms(
            &f.arena,
            &e,
            &[goal1.lhs, goal1.rhs, goal2.lhs, goal2.rhs],
        );
        assert_eq!(incremental.num_arcs(), fresh.num_arcs());
        assert_eq!(incremental.terms().len(), fresh.terms().len());
        // Every arc is inserted exactly once, so the cumulative firing count
        // matches the fresh build and each extension only paid its delta.
        assert_eq!(incremental.rule_firings(), fresh.rule_firings());
        assert!(build_firings < incremental.rule_firings());
        assert!(incremental.row_ops() > 0);
        // Re-adding known terms is a no-op.
        let firings_before = incremental.rule_firings();
        assert_eq!(incremental.add_goal_terms(&f.arena, &[goal1.lhs]), 0);
        assert_eq!(incremental.rule_firings(), firings_before);
    }

    #[test]
    fn engine_exposes_atom_consequences_and_metadata() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C")];
        let a = f.t("A");
        let b = f.t("B");
        let c = f.t("C");
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        engine.add_goal_terms(&f.arena, &[a, b, c]);
        let consequences = engine.atom_consequences(&f.arena);
        assert!(consequences.contains(&(a, b)));
        assert!(consequences.contains(&(a, c)));
        assert!(consequences.contains(&(b, c)));
        assert!(!consequences.contains(&(c, a)));
        assert_eq!(engine.equations(), &e[..]);
        assert_eq!(
            engine.leq_many(&f.arena, &[(a, c), (c, a)]),
            vec![true, false]
        );
        // Counters line up with the derived arcs.
        assert_eq!(engine.rule_firings(), engine.num_arcs());
        // And agree with the reference order over the same V.
        let order = DerivedOrder::build(&f.arena, &e, &[a, b, c]);
        assert_eq!(order.num_arcs(), engine.num_arcs());
        assert_eq!(order.rule_firings(), order.num_arcs());
    }

    #[test]
    fn add_equations_matches_a_fresh_build_and_pays_only_the_delta() {
        let mut f = Fixture::new();
        let base = vec![f.eq("A=A*B"), f.eq("C=A+B")];
        let extra = vec![f.eq("B=B*D"), f.eq("D=D*E")];
        let goals = vec![
            f.eq("A=A*D"), // needs both extras on top of the base.
            f.eq("A=A*E"), // transitivity through the extras.
            f.eq("A+B=C"), // already held before the extension.
            f.eq("E=E*A"), // never holds.
        ];

        let mut incremental = ImplicationEngine::new(&f.arena, &base);
        // Warm the engine with goal terms first, as a live session would.
        let warm_verdicts = incremental.entails_many(&f.arena, &goals);
        assert_eq!(warm_verdicts, vec![false, false, true, false]);
        let build_firings = incremental.rule_firings();
        let delta = incremental.add_equations(&f.arena, &extra);
        assert_eq!(incremental.rule_firings(), build_firings + delta);

        let mut grown = base.clone();
        grown.extend_from_slice(&extra);
        let mut fresh = ImplicationEngine::new(&f.arena, &grown);
        assert_eq!(
            incremental.entails_many(&f.arena, &goals),
            fresh.entails_many(&f.arena, &goals),
        );
        assert_eq!(incremental.equations(), &grown[..]);
        // The extension pays strictly less than the fresh build, which
        // re-fires every old arc on top of the delta.
        assert!(
            delta < fresh.rule_firings(),
            "extension delta {delta} must undercut the fresh build's {}",
            fresh.rule_firings()
        );
        // An already-entailed equation inserts nothing new.
        let noop = f.eq("A*B=A");
        assert_eq!(incremental.add_equations(&f.arena, &[noop]), 0);
    }

    /// The FPD cycle `A0 ≤ A1 ≤ … ≤ A15 ≤ A0`: every term over its atoms
    /// lands in one `≡_E` class, so each new term gains an arc to and from
    /// every term of `V`.
    fn fpd_cycle(f: &mut Fixture, n: usize) -> Vec<Equation> {
        (0..n)
            .map(|i| f.eq(&format!("A{i} = A{i}*A{}", (i + 1) % n)))
            .collect()
    }

    /// A goal with three atom occurrences a side, drawn by an LCG seeded
    /// with `k`.
    fn cycle_goal(f: &mut Fixture, n: usize, k: usize) -> Equation {
        let mut state = k as u64;
        let mut atom = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            format!("A{}", (state >> 33) as usize % n)
        };
        let (a, b, c, d, e, g) = (atom(), atom(), atom(), atom(), atom(), atom());
        f.eq(&format!("({a}*{b})+{c} = {d}*({e}+{g})"))
    }

    #[test]
    fn warm_extension_pays_row_ops_per_new_arc_not_per_row() {
        let mut f = Fixture::new();
        let e = fpd_cycle(&mut f, 16);
        let warm: Vec<Equation> = (0..20).map(|k| cycle_goal(&mut f, 16, k)).collect();
        let fresh = cycle_goal(&mut f, 16, 20);
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        assert!(engine.entails_many(&f.arena, &warm).iter().all(|&v| v));

        let (arcs0, ops0) = (engine.num_arcs(), engine.row_ops());
        assert!(engine.entails_goal(&f.arena, fresh));
        let arcs = engine.num_arcs() - arcs0;
        let ops = engine.row_ops() - ops0;
        assert!(arcs > 0, "the fresh goal must add terms to V");
        // Each new arc is propagated once (two row ops), plus a few seeding
        // ops per new composite; re-ORing whole rows into every neighbour
        // costs dozens of row ops per arc here.
        assert!(
            ops <= 4 * arcs,
            "{ops} row ops for {arcs} new arcs: the warm extension re-propagated old arcs"
        );
        assert_eq!(engine.rule_firings(), engine.num_arcs());
    }

    #[test]
    fn saturate_matches_saturate_naive_bit_for_bit() {
        let mut f = Fixture::new();
        let cycle = fpd_cycle(&mut f, 6);
        let cycle_goals: Vec<Equation> = (0..4).map(|k| cycle_goal(&mut f, 6, k)).collect();
        let mixed = vec![
            f.eq("A=A*B"),
            f.eq("C=B+D"),
            f.eq("D=D*(A+C)"),
            f.eq("E=A*C"),
        ];
        let mixed_goals = vec![f.eq("A+D=C+A"), f.eq("E*(B+D)=A"), f.eq("A*(A+B)=A")];
        for (e, goals) in [(cycle, cycle_goals), (mixed, mixed_goals)] {
            // Extend goal by goal so the comparison covers warm extensions.
            let mut engine = ImplicationEngine::new(&f.arena, &e);
            for &g in &goals {
                engine.entails_goal(&f.arena, g);
            }
            let mut gamma = BitMatrix::new(engine.terms.len());
            for i in 0..engine.terms.len() {
                gamma.set(i, i);
            }
            for eq in &e {
                let (i, j) = (engine.dense[&eq.lhs], engine.dense[&eq.rhs]);
                gamma.set(i, j);
                gamma.set(j, i);
            }
            saturate_naive(&f.arena, &engine.terms, &engine.dense, &mut gamma);
            assert!(gamma == engine.succ, "engine and fixpoint disagree on Γ");
            assert_eq!(engine.rule_firings(), gamma.count_ones());
        }
    }

    #[test]
    fn retract_equations_rebuilds_to_the_remaining_set() {
        let mut f = Fixture::new();
        let e = vec![f.eq("A=A*B"), f.eq("B=B*C"), f.eq("D=A+C")];
        let goal_through_b = f.eq("A=A*C");
        let mut engine = ImplicationEngine::new(&f.arena, &e);
        assert!(engine.entails_goal(&f.arena, goal_through_b));

        // Retract matches modulo orientation and drops goal-term growth.
        let flipped = Equation::new(e[1].rhs, e[1].lhs);
        assert_eq!(engine.retract_equations(&f.arena, &[flipped]), 1);
        assert_eq!(engine.equations(), &[e[0], e[2]][..]);
        let mut reference = ImplicationEngine::new(&f.arena, &[e[0], e[2]]);
        assert_eq!(engine.num_arcs(), reference.num_arcs());
        assert!(!engine.entails_goal(&f.arena, goal_through_b));
        assert!(!reference.entails_goal(&f.arena, goal_through_b));

        // Retracting something absent is a free no-op.
        let absent = f.eq("A=A*E");
        let arcs = engine.num_arcs();
        assert_eq!(engine.retract_equations(&f.arena, &[absent]), 0);
        assert_eq!(engine.num_arcs(), arcs);
    }
}
