//! Experiment F3 / E6: Figure 3 and Theorem 11 — consistency under CAD + EAP
//! is NP-complete; the reduction from NOT-ALL-EQUAL-3SAT is correct.

use partition_semantics::core::cad::{
    consistent_with_cad_eap, decode_assignment, nae3sat_via_cad, reduce_nae3sat, reduction_size,
    witness_respects_cad,
};
use partition_semantics::core::weak_bridge::satisfiable_with_fpds;
use partition_semantics::prelude::*;
use partition_semantics::sat::{nae_satisfiable_brute_force, Clause, Literal};

#[test]
fn figure3_shape_matches_the_paper() {
    // n = 4 variables, the single clause c1 = x1 ∨ x2 ∨ ¬x3 (0-based: 0,1,¬2).
    let formula = Formula::figure3_example();
    let reduction = reduce_nae3sat(&formula);
    let size = reduction_size(&reduction);
    // R0 plus one clause relation (plus the variable gadgets documented in
    // `ps_core::cad`); attributes A, A0..A3, B0..B3.
    assert_eq!(size.attributes, 9);
    assert_eq!(size.fpds, 4 + 1);
    // R0 has two tuples over A A0..A3.
    let r0 = reduction.database.relation_named("R0").unwrap();
    assert_eq!(r0.len(), 2);
    assert_eq!(r0.scheme().arity(), 5);
    // The clause relation drops the A_i of its three variables.
    let r1 = reduction.database.relation_named("R1").unwrap();
    assert_eq!(r1.len(), 1);
    assert_eq!(r1.scheme().arity(), 1 + 1 + 4); // A, A3, B0..B3

    // Its single tuple pins B0 = a0, B1 = a1, B2 = b2 (positive, positive,
    // negated) exactly as in the figure.
    let tuple = r1.row(0);
    let b0 = tuple.get(reduction.b_attrs[0]).unwrap();
    let b1 = tuple.get(reduction.b_attrs[1]).unwrap();
    let b2 = tuple.get(reduction.b_attrs[2]).unwrap();
    assert_eq!(b0, reduction.true_symbols[0]);
    assert_eq!(b1, reduction.true_symbols[1]);
    assert_eq!(b2, reduction.false_symbols[2]);
}

#[test]
fn figure3_instance_is_consistent_and_decodes_to_a_nae_assignment() {
    let formula = Formula::figure3_example();
    let reduction = reduce_nae3sat(&formula);
    let outcome = consistent_with_cad_eap(&reduction.database, &reduction.fpds).unwrap();
    assert!(outcome.consistent);
    let witness = outcome.witness.unwrap();
    assert!(witness_respects_cad(&reduction.database, &witness));
    assert!(reduction.database.has_weak_instance(&witness));
    let fds: Vec<Fd> = reduction.fpds.iter().map(Fpd::to_fd).collect();
    assert!(witness.satisfies_all_fds(&fds));
    let assignment = decode_assignment(&reduction, &witness);
    assert!(formula.nae_satisfied(&assignment));
    // The witnessing interpretation satisfies d, E, CAD and EAP (Theorem 6b).
    let interpretation = outcome.interpretation.unwrap();
    assert!(interpretation
        .satisfies_database(&reduction.database)
        .unwrap());
    assert!(interpretation.satisfies_cad(&reduction.database).unwrap());
    assert!(interpretation.satisfies_eap());
}

#[test]
fn reduction_is_equivalent_to_brute_force_on_random_formulas() {
    let mut satisfiable = 0usize;
    let mut unsatisfiable = 0usize;
    for seed in 0..25 {
        let formula = random_formula(4, 6, seed);
        let expected = nae_satisfiable_brute_force(&formula);
        let (via_cad, assignment) = nae3sat_via_cad(&formula).unwrap();
        assert_eq!(via_cad, expected, "seed {seed}: {formula}");
        match expected {
            true => {
                satisfiable += 1;
                assert!(formula.nae_satisfied(&assignment.unwrap()), "seed {seed}");
            }
            false => unsatisfiable += 1,
        }
    }
    // The seed range was chosen to exercise both outcomes.
    assert!(satisfiable > 0, "no satisfiable instance in the sample");
    assert!(unsatisfiable > 0, "no unsatisfiable instance in the sample");
}

#[test]
fn reduction_handles_structured_corner_cases() {
    // All-positive and all-negative occurrences of a variable, and a formula
    // whose only clause repeats across permutations.
    let tricky = Formula::new(
        5,
        vec![
            Clause([Literal::pos(0), Literal::pos(1), Literal::pos(2)]),
            Clause([Literal::pos(2), Literal::pos(1), Literal::pos(0)]),
            Clause([Literal::neg(2), Literal::neg(3), Literal::neg(4)]),
        ],
    );
    let expected = nae_satisfiable_brute_force(&tricky);
    let reduction = reduce_nae3sat(&tricky);
    // The permuted duplicate clause is removed.
    assert_eq!(reduction.formula.clauses.len(), 2);
    let (via_cad, _) = nae3sat_via_cad(&tricky).unwrap();
    assert_eq!(via_cad, expected);
}

#[test]
fn open_world_consistency_is_strictly_weaker_than_cad() {
    // Every reduction instance is open-world consistent (fresh nulls always
    // work when only the B→A FPDs matter), so the hardness really lives in
    // the CAD restriction — the point of Section 6.1 vs 6.2.
    for seed in [1u64, 5, 9] {
        let formula = random_formula(4, 5, seed);
        let mut reduction = reduce_nae3sat(&formula);
        let open_world =
            satisfiable_with_fpds(&reduction.database, &reduction.fpds, &mut reduction.symbols)
                .unwrap();
        assert!(open_world.satisfiable, "seed {seed}");
    }
}

#[test]
fn cad_consistency_is_antitone_in_the_constraint_and_clause_sets() {
    // Removing FPDs can only help, and adding clauses to the formula can only
    // hurt — the two monotonicity properties the NP-hardness argument relies
    // on implicitly.
    for seed in [2u64, 4, 8] {
        let formula = random_formula(4, 4, seed);
        let reduction = reduce_nae3sat(&formula);
        let full = consistent_with_cad_eap(&reduction.database, &reduction.fpds).unwrap();
        // Drop the clause FPDs, keeping only the B_i → A_i ones: at least as
        // consistent as before.
        let weakened: Vec<Fpd> = reduction.fpds[..formula.num_vars].to_vec();
        let relaxed = consistent_with_cad_eap(&reduction.database, &weakened).unwrap();
        if full.consistent {
            assert!(
                relaxed.consistent,
                "seed {seed}: removing constraints broke consistency"
            );
        }

        // Add one more clause: the extended reduction can only be less often
        // consistent.
        let mut extended_clauses = formula.clauses.clone();
        extended_clauses.push(Clause([Literal::pos(0), Literal::neg(1), Literal::pos(3)]));
        let extended = Formula::new(formula.num_vars, extended_clauses);
        let (extended_consistent, _) = nae3sat_via_cad(&extended).unwrap();
        if extended_consistent {
            assert!(
                nae3sat_via_cad(&formula).unwrap().0,
                "seed {seed}: adding a clause made the instance consistent"
            );
        }
    }
}

#[test]
fn witness_cad_check_rejects_foreign_symbols() {
    // witness_respects_cad is the Theorem 6b condition w[A] = d[A]; a witness
    // using a symbol the database never mentions must be rejected.
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let db = DatabaseBuilder::new()
        .relation(
            &mut universe,
            &mut symbols,
            "R",
            &["A", "B"],
            &[&["a", "b"]],
        )
        .unwrap()
        .build();
    let mut witness = db.relations()[0].clone();
    let foreign = symbols.symbol("zzz");
    let a = universe.lookup("A").unwrap();
    let b = universe.lookup("B").unwrap();
    let scheme = witness.scheme().clone();
    let mut values = vec![foreign; 2];
    values[scheme.position(a).unwrap()] = foreign;
    values[scheme.position(b).unwrap()] = symbols.lookup("b").unwrap();
    witness.insert_values(&values).unwrap();
    assert!(!witness_respects_cad(&db, &witness));
    assert!(witness_respects_cad(&db, &db.relations()[0].clone()));
}

#[test]
fn unsatisfiable_core_is_rejected() {
    // A classical NAE-unsatisfiable core on three variables: all four clauses
    // with an even number of negations over {x0,x1,x2} force all-equal.
    let formula = Formula::new(
        3,
        vec![
            Clause([Literal::pos(0), Literal::pos(1), Literal::pos(2)]),
            Clause([Literal::pos(0), Literal::neg(1), Literal::neg(2)]),
            Clause([Literal::neg(0), Literal::pos(1), Literal::neg(2)]),
            Clause([Literal::neg(0), Literal::neg(1), Literal::pos(2)]),
        ],
    );
    assert!(!nae_satisfiable_brute_force(&formula));
    let (via_cad, assignment) = nae3sat_via_cad(&formula).unwrap();
    assert!(!via_cad);
    assert!(assignment.is_none());
}
