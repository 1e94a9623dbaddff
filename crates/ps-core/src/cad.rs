//! Consistency under the complete-atomic-data and equal-atomic-population
//! assumptions (Section 6.1, Theorem 11, Figure 3).
//!
//! Theorem 6b reduces the question "is there a partition interpretation
//! satisfying `d`, the FPDs `E`, CAD and EAP?" to the existence of a weak
//! instance `w` for `d` satisfying `E_F` with `w[A] = d[A]` for every
//! attribute.  [`consistent_with_cad_eap`] decides it with the exact
//! backtracking solver of `ps-relation` and, when satisfiable, materializes
//! the witnessing interpretation `I(w)` and verifies CAD and EAP.
//!
//! Theorem 11 shows the problem is NP-complete by reduction from
//! NOT-ALL-EQUAL-3SAT; [`reduce_nae3sat`] builds the Figure 3 database and
//! FPD set for an arbitrary formula, and [`decode_assignment`] reads a
//! NAE-satisfying assignment back off a CAD witness.
//!
//! ### Deviation from the paper's padding
//!
//! The paper pads the formula with a clause `x_{n+1} ∨ ¬x_{n+1}` so that
//! every variable misses some clause; the soundness argument additionally
//! needs both constants `a_i` and `b_i` to occur in the `B_i` column.  We
//! achieve both at once with one *variable gadget* relation `V_i[B_i]`
//! containing the two single-column tuples `(a_i)` and `(b_i)`: the gadget
//! adds exactly the missing symbols without constraining anything else, so
//! the reduction below is correct for every 3CNF formula with pairwise
//! distinct clause variables (duplicated clauses are removed first).
//! `tests/figure3_np.rs` pins the resulting shape for the Figure 3 formula.

use std::collections::HashMap;

use ps_base::{AttrSet, Attribute, Symbol, SymbolTable, Universe};
use ps_relation::{cad_consistent, CadOutcome, Database, DatabaseBuilder, Relation};
use ps_sat::Formula;

use crate::canonical::canonical_interpretation;
use crate::dependency::{fds_of_fpds, Fpd};
use crate::{PartitionInterpretation, Result};

/// The outcome of a CAD + EAP consistency test (Theorem 6b / Theorem 11).
#[derive(Debug, Clone)]
pub struct CadEapOutcome {
    /// Whether a satisfying interpretation with CAD and EAP exists.
    pub consistent: bool,
    /// The witnessing weak instance (`w[A] = d[A]` for every attribute).
    pub witness: Option<Relation>,
    /// The interpretation `I(w)` constructed from the witness.
    pub interpretation: Option<PartitionInterpretation>,
    /// Search statistics of the exact solver.
    pub stats: ps_relation::CadSearchStats,
}

/// Decides whether there is a partition interpretation satisfying `db`, the
/// FPDs `fpds`, CAD and EAP (Theorem 6b).  Exponential in the worst case
/// (Theorem 11); intended for the small instances of the Figure 3 reduction
/// and the experiment E6 benchmark.
pub fn consistent_with_cad_eap(db: &Database, fpds: &[Fpd]) -> Result<CadEapOutcome> {
    let fds = fds_of_fpds(fpds);
    let CadOutcome {
        consistent,
        witness,
        stats,
    } = cad_consistent(db, &fds);
    let interpretation = match &witness {
        Some(w) if !w.is_empty() => Some(canonical_interpretation(w)?),
        _ => None,
    };
    Ok(CadEapOutcome {
        consistent,
        witness,
        interpretation,
        stats,
    })
}

/// The Figure 3 reduction from NOT-ALL-EQUAL-3SAT to CAD + EAP consistency.
#[derive(Debug, Clone)]
pub struct Nae3SatReduction {
    /// The constructed database `d`.
    pub database: Database,
    /// The constructed FPD set `E`.
    pub fpds: Vec<Fpd>,
    /// Attribute universe used by the reduction.
    pub universe: Universe,
    /// Symbol table used by the reduction.
    pub symbols: SymbolTable,
    /// The clause attribute `A`.
    pub attr_a: Attribute,
    /// The variable attributes `A_i` (one per variable).
    pub var_attrs: Vec<Attribute>,
    /// The literal attributes `B_i` (one per variable).
    pub b_attrs: Vec<Attribute>,
    /// Symbols `a_i` ("variable `i` is true").
    pub true_symbols: Vec<Symbol>,
    /// Symbols `b_i` ("variable `i` is false").
    pub false_symbols: Vec<Symbol>,
    /// The formula the reduction was built from (deduplicated clauses).
    pub formula: Formula,
}

/// Builds the Figure 3 database and FPD set for a 3CNF formula.
///
/// The reduction guarantees: the database is consistent with the FPDs under
/// CAD and EAP **iff** the formula is NAE-satisfiable (Theorem 11).
///
/// # Panics
/// Panics if some clause mentions the same variable twice (the Figure 3
/// construction needs three distinct variables per clause).
pub fn reduce_nae3sat(formula: &Formula) -> Nae3SatReduction {
    let mut universe = Universe::new();
    let mut symbols = SymbolTable::new();
    let n = formula.num_vars;

    // Deduplicate clauses *as literal sets*: two clause rows built from the
    // same literals (in any order) would agree on the three B-columns of
    // their shared FD and force their distinct `b_j` constants to be equal.
    let mut clauses: Vec<ps_sat::Clause> = Vec::new();
    let mut seen: Vec<Vec<(usize, bool)>> = Vec::new();
    for &clause in &formula.clauses {
        assert!(
            clause
                .literals()
                .iter()
                .map(|l| l.var)
                .collect::<std::collections::HashSet<_>>()
                .len()
                == 3,
            "Figure 3 requires three distinct variables per clause"
        );
        let mut key: Vec<(usize, bool)> = clause
            .literals()
            .iter()
            .map(|l| (l.var, l.positive))
            .collect();
        key.sort_unstable();
        if !seen.contains(&key) {
            seen.push(key);
            clauses.push(clause);
        }
    }

    let attr_a = universe.attr("A");
    let var_attrs: Vec<Attribute> = (0..n).map(|i| universe.attr(&format!("A{i}"))).collect();
    let b_attrs: Vec<Attribute> = (0..n).map(|i| universe.attr(&format!("B{i}"))).collect();

    let true_symbols: Vec<Symbol> = (0..n).map(|i| symbols.symbol(&format!("a{i}"))).collect();
    let false_symbols: Vec<Symbol> = (0..n).map(|i| symbols.symbol(&format!("b{i}"))).collect();

    let mut builder = DatabaseBuilder::new();

    // R0[A, A_0 … A_{n-1}] with the two tuples  a u_0 … u_{n-1}  and
    // a v_0 … v_{n-1}.
    {
        let names: Vec<String> = std::iter::once("A".to_string())
            .chain((0..n).map(|i| format!("A{i}")))
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let row_u: Vec<String> = std::iter::once("a".to_string())
            .chain((0..n).map(|i| format!("u{i}")))
            .collect();
        let row_v: Vec<String> = std::iter::once("a".to_string())
            .chain((0..n).map(|i| format!("v{i}")))
            .collect();
        let row_u_refs: Vec<&str> = row_u.iter().map(String::as_str).collect();
        let row_v_refs: Vec<&str> = row_v.iter().map(String::as_str).collect();
        builder = builder
            .relation(
                &mut universe,
                &mut symbols,
                "R0",
                &name_refs,
                &[&row_u_refs, &row_v_refs],
            )
            .expect("well-formed R0");
    }

    // One relation per clause:  R_j[A, A_i (i ∉ c_j), B_0 … B_{n-1}]  with a
    // single tuple  b_j  y_{j,i} …  and B_i = a_i / b_i / z_{j,i}.
    for (j, clause) in clauses.iter().enumerate() {
        let clause_vars: Vec<usize> = clause.literals().iter().map(|l| l.var).collect();
        let mut names: Vec<String> = vec!["A".to_string()];
        let mut row: Vec<String> = vec![format!("bb{j}")];
        for i in 0..n {
            if !clause_vars.contains(&i) {
                names.push(format!("A{i}"));
                row.push(format!("y{j}_{i}"));
            }
        }
        for i in 0..n {
            names.push(format!("B{i}"));
            match clause.literals().iter().find(|l| l.var == i) {
                Some(literal) if literal.positive => row.push(format!("a{i}")),
                Some(_) => row.push(format!("b{i}")),
                None => row.push(format!("z{j}_{i}")),
            }
        }
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let row_refs: Vec<&str> = row.iter().map(String::as_str).collect();
        builder = builder
            .relation(
                &mut universe,
                &mut symbols,
                &format!("R{}", j + 1),
                &name_refs,
                &[&row_refs],
            )
            .expect("well-formed clause relation");
    }

    // Variable gadgets V_i[B_i] = {(a_i), (b_i)}: put both polarities of every
    // variable into the B_i active domain (see module docs).
    for i in 0..n {
        let column = format!("B{i}");
        let a_row = format!("a{i}");
        let b_row = format!("b{i}");
        builder = builder
            .relation(
                &mut universe,
                &mut symbols,
                &format!("V{i}"),
                &[column.as_str()],
                &[&[a_row.as_str()], &[b_row.as_str()]],
            )
            .expect("well-formed variable gadget");
    }

    let database = builder.build();

    // The FPDs:  B_i = B_i · A_i  for every variable, and for every clause
    // over variables {p, q, r}:  B_p·B_q·B_r = B_p·B_q·B_r·A.
    let mut fpds: Vec<Fpd> = (0..n)
        .map(|i| {
            Fpd::new(
                AttrSet::singleton(b_attrs[i]),
                AttrSet::singleton(var_attrs[i]),
            )
        })
        .collect();
    for clause in &clauses {
        let lhs: AttrSet = clause
            .literals()
            .iter()
            .map(|l| b_attrs[l.var])
            .collect::<Vec<_>>()
            .into();
        fpds.push(Fpd::new(lhs, AttrSet::singleton(attr_a)));
    }

    Nae3SatReduction {
        database,
        fpds,
        universe,
        symbols,
        attr_a,
        var_attrs,
        b_attrs,
        true_symbols,
        false_symbols,
        formula: Formula::new(n, clauses),
    }
}

/// Runs the Theorem 11 decision procedure end to end: reduce, solve, and (on
/// the satisfiable side) decode the assignment.
pub fn nae3sat_via_cad(formula: &Formula) -> Result<(bool, Option<Vec<bool>>)> {
    let reduction = reduce_nae3sat(formula);
    let outcome = consistent_with_cad_eap(&reduction.database, &reduction.fpds)?;
    if !outcome.consistent {
        return Ok((false, None));
    }
    let witness = outcome
        .witness
        .expect("consistent searches return a witness");
    let assignment = decode_assignment(&reduction, &witness);
    Ok((true, Some(assignment)))
}

/// Reads a truth assignment off a CAD witness: variable `x_i` is true iff the
/// `R0` row for `u…` takes the value `a_i` in column `B_i` (the convention of
/// the Theorem 11 proof).
///
/// The exact CAD solver keeps the witness rows in database order, so the
/// first row is exactly the `R0` tuple `a u_0 … u_{n-1}`; this is asserted.
pub fn decode_assignment(reduction: &Nae3SatReduction, witness: &Relation) -> Vec<bool> {
    assert!(!witness.is_empty(), "the witness contains the R0 rows");
    let t1 = witness.row(0);
    let a_symbol = reduction
        .symbols
        .lookup("a")
        .expect("the reduction interns the constant a");
    debug_assert_eq!(t1.get(reduction.attr_a).ok(), Some(a_symbol));
    for (i, &var_attr) in reduction.var_attrs.iter().enumerate() {
        let u_i = reduction
            .symbols
            .lookup(&format!("u{i}"))
            .expect("the reduction interns every u_i");
        debug_assert_eq!(t1.get(var_attr).ok(), Some(u_i), "row 0 is the u-row");
    }
    reduction
        .b_attrs
        .iter()
        .enumerate()
        .map(|(i, &b)| t1.get(b).ok() == Some(reduction.true_symbols[i]))
        .collect()
}

/// Sizes of a reduction instance, used by the experiment E6 benchmark
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionSize {
    /// Number of relations in the constructed database.
    pub relations: usize,
    /// Total number of tuples.
    pub tuples: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Number of FPDs.
    pub fpds: usize,
}

/// Measures a reduction instance.
pub fn reduction_size(reduction: &Nae3SatReduction) -> ReductionSize {
    ReductionSize {
        relations: reduction.database.len(),
        tuples: reduction.database.total_tuples(),
        attributes: reduction.database.all_attributes().len(),
        fpds: reduction.fpds.len(),
    }
}

/// Checks CAD explicitly on a witness: every attribute's active domain in the
/// witness equals the database's (`w[A] = d[A]`), the Theorem 6b condition.
pub fn witness_respects_cad(db: &Database, witness: &Relation) -> bool {
    let mut domains: HashMap<Attribute, Vec<Symbol>> = HashMap::new();
    for attr in db.all_attributes().iter() {
        domains.insert(attr, db.active_domain(attr));
    }
    for attr in witness.scheme().attrs().iter() {
        let w_domain = witness
            .active_domain(attr)
            .expect("attribute belongs to the witness scheme");
        match domains.get(&attr) {
            None => return false,
            Some(d_domain) => {
                if !w_domain.iter().all(|s| d_domain.contains(s))
                    || !d_domain.iter().all(|s| w_domain.contains(s))
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_relation::DatabaseBuilder;
    use ps_sat::{nae_satisfiable_brute_force, random_formula, Clause, Literal};

    #[test]
    fn cad_eap_outcome_carries_an_interpretation() {
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b"]],
            )
            .unwrap()
            .relation(
                &mut universe,
                &mut symbols,
                "R2",
                &["B", "C"],
                &[&["b", "c"]],
            )
            .unwrap()
            .build();
        let b = universe.lookup("B").unwrap();
        let c = universe.lookup("C").unwrap();
        let fpds = vec![Fpd::new(AttrSet::singleton(b), AttrSet::singleton(c))];
        let outcome = consistent_with_cad_eap(&db, &fpds).unwrap();
        assert!(outcome.consistent);
        let witness = outcome.witness.unwrap();
        assert!(witness_respects_cad(&db, &witness));
        assert!(db.has_weak_instance(&witness));
        let interp = outcome.interpretation.unwrap();
        assert!(interp.satisfies_database(&db).unwrap());
        assert!(interp.satisfies_cad(&db).unwrap());
        assert!(interp.satisfies_eap());
        // And the FPD holds in the interpretation (Theorem 3b route).
        let mut arena = ps_lattice::TermArena::new();
        let pd = fpds[0].as_meet_equation(&mut arena);
        assert!(interp.satisfies_pd(&arena, pd).unwrap());
    }

    #[test]
    fn figure3_example_reduces_and_is_consistent() {
        let formula = Formula::figure3_example();
        let reduction = reduce_nae3sat(&formula);
        let size = reduction_size(&reduction);
        // R0 + one clause relation + four variable gadgets.
        assert_eq!(size.relations, 6);
        assert_eq!(size.tuples, 2 + 1 + 8);
        // A, A0..A3, B0..B3.
        assert_eq!(size.attributes, 9);
        // Four B_i → A_i FPDs plus one clause FPD.
        assert_eq!(size.fpds, 5);

        let (consistent, assignment) = nae3sat_via_cad(&formula).unwrap();
        assert!(consistent);
        let assignment = assignment.unwrap();
        assert!(formula.nae_satisfied(&assignment));
    }

    #[test]
    fn unsatisfiable_formulas_reduce_to_inconsistent_instances() {
        // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1 ∨ ¬x2) ∧ … forcing all-equal patterns:
        // the classic unsatisfiable NAE core needs a few clauses; build one by
        // brute force search over random formulas instead.
        let mut found_unsat = false;
        for seed in 0..64 {
            let formula = random_formula(4, 10, seed);
            let expected = nae_satisfiable_brute_force(&formula);
            if !expected {
                found_unsat = true;
                let (consistent, _) = nae3sat_via_cad(&formula).unwrap();
                assert!(!consistent, "seed {seed}");
                break;
            }
        }
        assert!(
            found_unsat,
            "no unsatisfiable instance found in the seed range"
        );
    }

    #[test]
    fn reduction_agrees_with_the_brute_force_solver() {
        for seed in 0..10 {
            let formula = random_formula(4, 5, seed);
            let expected = nae_satisfiable_brute_force(&formula);
            let (via_cad, assignment) = nae3sat_via_cad(&formula).unwrap();
            assert_eq!(via_cad, expected, "seed {seed}: {formula}");
            if let Some(assignment) = assignment {
                assert!(formula.nae_satisfied(&assignment), "seed {seed}");
            }
        }
    }

    #[test]
    fn duplicate_clauses_are_collapsed() {
        let clause = Clause([Literal::pos(0), Literal::pos(1), Literal::neg(2)]);
        let formula = Formula::new(4, vec![clause, clause]);
        let reduction = reduce_nae3sat(&formula);
        assert_eq!(reduction.formula.clauses.len(), 1);
        let (consistent, _) = nae3sat_via_cad(&formula).unwrap();
        assert!(consistent);
    }

    #[test]
    #[should_panic(expected = "distinct variables")]
    fn repeated_variables_in_a_clause_are_rejected() {
        let clause = Clause([Literal::pos(0), Literal::neg(0), Literal::pos(1)]);
        let formula = Formula::new(3, vec![clause]);
        let _ = reduce_nae3sat(&formula);
    }

    #[test]
    fn cad_failure_differs_from_open_world_consistency() {
        // The same database can be open-world consistent (weak instance with
        // fresh nulls) but CAD-inconsistent: Theorem 11's source of hardness.
        let mut universe = Universe::new();
        let mut symbols = SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut universe,
                &mut symbols,
                "R1",
                &["A", "B"],
                &[&["a", "b1"], &["a2", "b2"]],
            )
            .unwrap()
            .relation(
                &mut universe,
                &mut symbols,
                "R2",
                &["A", "C"],
                &[&["a", "c"]],
            )
            .unwrap()
            .build();
        let a = universe.lookup("A").unwrap();
        let b = universe.lookup("B").unwrap();
        let c = universe.lookup("C").unwrap();
        let fpds = vec![
            Fpd::new(AttrSet::singleton(c), AttrSet::singleton(a)),
            Fpd::new(AttrSet::singleton(b), AttrSet::singleton(c)),
            Fpd::new(AttrSet::singleton(a), AttrSet::singleton(b)),
        ];
        let outcome = consistent_with_cad_eap(&db, &fpds).unwrap();
        assert!(!outcome.consistent);
        assert!(outcome.witness.is_none());
        assert!(outcome.stats.assignments > 0);
        // Open world (Theorem 6a / chase) says yes.
        let witness = crate::weak_bridge::satisfiable_with_fpds(&db, &fpds, &mut symbols).unwrap();
        assert!(witness.satisfiable);
    }
}
