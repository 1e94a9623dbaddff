//! # ps-session
//!
//! A session-oriented facade over the paper's decision procedures.
//!
//! The rest of the workspace exposes each result of Cosmadakis–Kanellakis–
//! Spyratos as a free function that takes `&mut Universe`, `&mut TermArena`
//! and `&mut SymbolTable` by hand.  That shape is right for the algorithmic
//! substrate but wrong for a long-lived service: the interners should be
//! owned in one place, each constraint set should be normalized once, and
//! the saturated ALG [`ps_lattice::ImplicationEngine`] — which is 13–40×
//! cheaper to reuse than to rebuild — should be cached behind a handle and
//! shared by every query against that set.
//!
//! [`Session`] is that owner.  It covers all five decision procedures:
//!
//! | Paper result | Session query |
//! |---|---|
//! | Theorems 8, 9 — PD/FD implication | [`Session::implies`], [`Session::implies_many`], [`Session::implies_fd`], [`Session::implies_fds`], [`Session::implies_fpd`] |
//! | Theorem 10 — PD identities | [`Session::identity`] |
//! | Theorem 12 — polynomial consistency | [`Session::consistent`] with [`ConsistencyMode::Polynomial`] |
//! | Theorem 11 — exact CAD+EAP consistency | [`Session::consistent`] with [`ConsistencyMode::ExactCadEap`] |
//! | Theorems 6, 7 — weak-instance satisfiability | [`Session::weak_instance`] |
//! | Example e / Theorem 4 — connectivity | [`Session::connected_components`] |
//!
//! Registered sets are *live*: [`Session::add_pd`] / [`Session::add_pds`] /
//! [`Session::remove_pd`] mutate a set behind its handle.  Each mutation
//! bumps the set's [`Epoch`] and a dependency tracker invalidates only the
//! cached artifacts that consumed the edited PD — additions re-saturate the
//! cached engine incrementally instead of rebuilding it.
//!
//! Every query returns an [`Outcome`] carrying the typed answer plus
//! strategy-independent [`Counters`] (rule firings, row visits, engine
//! cache hits/misses, and the [`Epoch`] the query ran at), and every
//! failure is the single unified [`Error`].
//!
//! For parallel fan-out, [`Session::snapshot`] /
//! [`Session::snapshot_with_goals`] freeze a registered set at its current
//! epoch into an immutable, `Send + Sync` [`SetSnapshot`], and the
//! [`ParallelExecutor`] — a dependency-free scoped worker pool — answers
//! `implies_many_par` / `consistent_many_par` / `weak_instance_many_par`
//! batches against it with deterministically merged counters (see
//! [`parallel`](crate::ParallelExecutor)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod outcome;
mod parallel;
mod session;

pub use error::{Error, Result};
pub use outcome::{Counters, Epoch, Outcome};
pub use parallel::{ParallelExecutor, SetSnapshot};
pub use session::{
    ConsistencyAnswer, ConsistencyMode, ConstraintSetId, Session, SessionDatabaseBuilder,
};

// Re-exported so downstream code can name the witness type without a
// ps-core dependency.
pub use ps_core::weak_bridge::SatisfiabilityWitness;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_answers_all_five_procedures() {
        let mut session = Session::new();
        let set = session
            .register_texts(&["A = A*B", "B = B*C", "D = A+C"])
            .unwrap();

        // Implication (Theorems 8/9), batched and single.
        let goals = vec![
            session.equation("A = A*C").unwrap(),
            session.equation("C = C*A").unwrap(),
            session.equation("A+D = D").unwrap(),
        ];
        let batch = session.implies_many(set, &goals).unwrap();
        assert_eq!(batch.value, vec![true, false, true]);
        assert_eq!(batch.counters.engine_misses, 1, "cold engine build");
        let single = session.implies(set, goals[0]).unwrap();
        assert!(single.value);
        assert_eq!(single.counters.engine_hits, 1, "engine reused");

        // Identity (Theorem 10).
        let absorption = session.equation("A*(A+B) = A").unwrap();
        assert!(session.identity(absorption).unwrap().value);
        let distributivity = session.equation("A*(B+C) = (A*B)+(A*C)").unwrap();
        assert!(!session.identity(distributivity).unwrap().value);

        // Consistency (Theorem 12) and weak instances (Theorem 7).
        let db = session
            .database()
            .relation(
                "R",
                &["A", "B", "C"],
                &[&["a", "b", "c"], &["a", "b", "c2"]],
            )
            .unwrap()
            .build();
        let outcome = session
            .consistent(set, &db, ConsistencyMode::Polynomial)
            .unwrap();
        // A → B, B → C with equal (a, b) but different c: inconsistent.
        assert!(!outcome.value.consistent);
        assert!(outcome.counters.row_visits > 0);
        let witness = session.weak_instance(set, &db).unwrap();
        assert!(!witness.value.satisfiable);

        // Connectivity (Example e).
        let mut graph = ps_graph::UndirectedGraph::new(4);
        graph.add_edge(0, 1);
        graph.add_edge(2, 3);
        let (relation, encoding) = session.component_relation(&graph, "G");
        let components = session.connected_components(&relation, &encoding).unwrap();
        assert_eq!(components.value[0], components.value[1]);
        assert_eq!(components.value[2], components.value[3]);
        assert_ne!(components.value[0], components.value[2]);

        // Exact CAD mode (Theorem 11) over an FPD-only set.
        let fpd_set = session.register_texts(&["B = B*C"]).unwrap();
        let cad_db = session
            .database()
            .relation("R1", &["A", "B"], &[&["a", "b"]])
            .unwrap()
            .relation("R2", &["B", "C"], &[&["b", "c"]])
            .unwrap()
            .build();
        let cad = session
            .consistent(fpd_set, &cad_db, ConsistencyMode::ExactCadEap)
            .unwrap();
        assert!(cad.value.consistent);
        assert!(cad.value.witness.is_some());
        assert!(cad.value.interpretation.is_some());
        // The FPD view keeps only the non-trivial FD direction B → C of
        // `B = B*C` (the reverse {B,C} → {B} is trivial and would inflate
        // the exponential search and the reported FD set).
        assert_eq!(cad.value.fds.len(), 1);
        // A set with a sum is rejected in CAD mode with the typed error.
        let err = session
            .consistent(set, &cad_db, ConsistencyMode::ExactCadEap)
            .unwrap_err();
        assert!(matches!(err, Error::CadRequiresFpds { .. }));

        // Cumulative counters saw the engine miss and subsequent hits.
        let totals = session.counters();
        assert!(totals.engine_misses >= 1);
        assert!(totals.engine_hits >= 1);
        assert!(totals.rule_firings > 0);
    }

    /// `R(A) = {a}` under the FD `B → A`, and the database made of its
    /// snapshot-minted witness `{(a, ⊥0, …)}` plus `S(A) = {a2}`.  The
    /// snapshot that minted the witness is returned too; it was frozen
    /// before any constant was interned.
    pub(crate) fn witness_fed_back_as_input() -> (
        Session,
        ConstraintSetId,
        ps_relation::Database,
        std::sync::Arc<SetSnapshot>,
    ) {
        let mut session = Session::new();
        let set = session.register_texts(&["B = B*A"]).unwrap();
        let snapshot = session.snapshot(set).unwrap();
        let r = session
            .database()
            .relation("R", &["A"], &[&["a"]])
            .unwrap()
            .build();
        let s = session
            .database()
            .relation("S", &["A"], &[&["a2"]])
            .unwrap()
            .build();
        let pool = ParallelExecutor::new(1);
        let witness = pool
            .weak_instance_many_par(&snapshot, &[r])
            .unwrap()
            .value
            .remove(0)
            .weak_instance
            .expect("R alone is satisfiable");
        assert!(witness
            .iter()
            .any(|row| row.values().any(|sym| session.symbols().is_fresh(sym))));
        let mut db = ps_relation::Database::new();
        db.add(witness);
        db.add(s.relations()[0].clone());
        (session, set, db, snapshot)
    }

    /// The padded `B` cell of `S` must be a new null: if it reused the
    /// witness's `⊥0`, `B → A` would equate `a` with `a2`.
    #[test]
    fn snapshot_padding_avoids_nulls_already_in_the_input() {
        let (mut session, set, db, _) = witness_fed_back_as_input();
        let snapshot = session.snapshot(set).unwrap();
        let outcome = ParallelExecutor::new(1)
            .consistent_many_par(&snapshot, &[db])
            .unwrap();
        assert!(outcome.value[0].consistent);
    }

    /// [`snapshot_padding_avoids_nulls_already_in_the_input`] on the
    /// session path, whose table never saw the snapshot's nulls.
    #[test]
    fn session_padding_avoids_nulls_already_in_the_input() {
        let (mut session, set, db, _) = witness_fed_back_as_input();
        let outcome = session
            .consistent(set, &db, ConsistencyMode::Polynomial)
            .unwrap();
        assert!(outcome.value.consistent);
    }

    /// Session outputs are session-unique: two witnesses never share a
    /// null, so one can be fed back next to the other.
    #[test]
    fn session_weak_instance_witnesses_share_no_null() {
        let mut session = Session::new();
        let set = session.register_texts(&["B = B*A", "C = A+B"]).unwrap();
        let db = session
            .database()
            .relation("R", &["A"], &[&["a"], &["a2"]])
            .unwrap()
            .build();
        let nulls = |session: &mut Session| -> std::collections::HashSet<ps_base::Symbol> {
            let witness = session.weak_instance(set, &db).unwrap().value;
            let relation = witness.weak_instance.expect("satisfiable");
            relation
                .iter()
                .flat_map(|row| row.values().collect::<Vec<_>>())
                .filter(|&sym| session.symbols().is_fresh(sym))
                .collect()
        };
        let first = nulls(&mut session);
        let second = nulls(&mut session);
        assert!(!first.is_empty() && !second.is_empty());
        assert!(first.is_disjoint(&second), "{first:?} / {second:?}");
    }

    #[test]
    fn registration_is_keyed_by_the_normalized_set() {
        let mut session = Session::new();
        let a = session.register_texts(&["A = A*B", "C = A+B"]).unwrap();
        // Same set: different order, flipped orientation, duplicated entry.
        let b = session
            .register_texts(&["C = A+B", "A*B = A", "A = A*B"])
            .unwrap();
        assert_eq!(a, b, "equal sets share one handle");
        assert_eq!(session.num_constraint_sets(), 1);
        let c = session.register_texts(&["A = A*B"]).unwrap();
        assert_ne!(a, c);
        assert_eq!(session.num_constraint_sets(), 2);
    }

    #[test]
    fn foreign_handles_and_terms_are_rejected() {
        let mut session = Session::new();
        let goal = session.equation("A = A*B").unwrap();
        let err = session
            .implies(ConstraintSetId::from_index(3), goal)
            .unwrap_err();
        assert!(matches!(err, Error::UnknownConstraintSet(_)));

        // A term minted by a different arena is caught when its id falls
        // outside this arena (the best-effort bounds check; in-bounds
        // foreign ids are indistinguishable from legitimate ones).
        let mut other = Session::new();
        let foreign = other.equation("X0*X1*X2*X3 = X4+X5+X6+X7+X8+X9").unwrap();
        let set = session.register(&[goal]).unwrap();
        let err = session.implies(set, foreign).unwrap_err();
        assert!(matches!(
            err,
            Error::Lattice(ps_lattice::LatticeError::ForeignTerm(_))
        ));
    }

    #[test]
    fn empty_inputs_flow_through_without_panicking() {
        let mut session = Session::new();
        let set = session.register_texts(&["A = A*B"]).unwrap();
        // A database whose only relation has zero rows (an empty
        // population) is handled by every query.
        let db = session
            .database()
            .relation("R", &["A", "B"], &[])
            .unwrap()
            .build();
        let outcome = session
            .consistent(set, &db, ConsistencyMode::Polynomial)
            .unwrap();
        assert!(outcome.value.consistent);
        let witness = session.weak_instance(set, &db).unwrap();
        assert!(witness.value.satisfiable);
        // The empty constraint set also works (identities only).
        let empty = session.register(&[]).unwrap();
        let goal = session.equation("A*(A+B) = A").unwrap();
        assert!(session.implies(empty, goal).unwrap().value);
        let not_implied = session.equation("A = A*B").unwrap();
        assert!(!session.implies(empty, not_implied).unwrap().value);
    }
}
