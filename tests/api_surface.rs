//! API-surface snapshot: pins the facade's `prelude` and `session` exports.
//!
//! The tier-1 gate runs this test, so accidentally dropping, renaming or
//! silently adding a public item to `partition_semantics::prelude` or to the
//! `ps-session` crate root (which the facade re-exports wholesale as
//! `partition_semantics::session`) fails CI with a diff of the two name
//! lists.  Intentional surface changes update the `EXPECTED_*` snapshots
//! below — that edit is the reviewable record of the API change.

use std::collections::BTreeSet;
use std::path::Path;

/// Leaf names `pub use`d by `partition_semantics::prelude`.
const EXPECTED_PRELUDE: &[&str] = &[
    "Algorithm",
    "AttrSet",
    "Attribute",
    "ConsistencyAnswer",
    "ConsistencyMode",
    "ConstraintSetId",
    "Counters",
    "Database",
    "DatabaseBuilder",
    "Epoch",
    "Equation",
    "Error",
    "Fd",
    "FiniteLattice",
    "Formula",
    "Fpd",
    "ImplicationEngine",
    "InterpretationLattice",
    "Mvd",
    "Outcome",
    "ParallelExecutor",
    "Partition",
    "PartitionInterpretation",
    "Pd",
    "Population",
    "Relation",
    "RelationScheme",
    "SatisfiabilityWitness",
    "Session",
    "SetSnapshot",
    "Symbol",
    "SymbolTable",
    "TermArena",
    "TermId",
    "UndirectedGraph",
    "Universe",
    "canonical_interpretation",
    "canonical_relation",
    "component_relation",
    "components_via_partition_semantics",
    "connectivity_pd",
    "consistent_with_cad_eap",
    "consistent_with_pds",
    "fd",
    "fixtures",
    "gnp",
    "interpretation_from_weak_instance",
    "is_identity",
    "nae3sat_via_cad",
    "nae_satisfiable",
    "parse_equation",
    "parse_term",
    "pd_implies",
    "pd_implies_fpd",
    "random_formula",
    "reduce_nae3sat",
    "relation_encodes_components",
    "relation_satisfies_all_pds",
    "relation_satisfies_pd",
    "repair_sum_violations_frozen",
    "satisfiable_with_fpds",
    "weak_instance_from_interpretation",
];

/// Leaf names `pub use`d at the `ps-session` crate root (and therefore by
/// `partition_semantics::session`, which glob-re-exports it).
const EXPECTED_SESSION: &[&str] = &[
    "ConsistencyAnswer",
    "ConsistencyMode",
    "ConstraintSetId",
    "Counters",
    "Epoch",
    "Error",
    "Outcome",
    "ParallelExecutor",
    "Result",
    "SatisfiabilityWitness",
    "Session",
    "SessionDatabaseBuilder",
    "SetSnapshot",
];

/// Extracts the leaf identifiers exported by every `pub use …;` statement in
/// `source` (good enough for this workspace's style: no `as` renames, one
/// level of `{…}` grouping, `//` line comments).
fn exported_names(source: &str) -> BTreeSet<String> {
    let no_comments: String = source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let mut names = BTreeSet::new();
    let mut rest = no_comments.as_str();
    while let Some(start) = rest.find("pub use ") {
        rest = &rest[start + "pub use ".len()..];
        let end = rest.find(';').expect("unterminated pub use");
        let item = rest[..end].split_whitespace().collect::<Vec<_>>().join("");
        rest = &rest[end + 1..];
        if let Some(open) = item.find('{') {
            let inner = item[open + 1..].trim_end_matches('}');
            for leaf in inner.split(',') {
                let leaf = leaf.trim();
                if !leaf.is_empty() {
                    names.insert(leaf.rsplit("::").next().unwrap().to_string());
                }
            }
        } else {
            names.insert(item.rsplit("::").next().unwrap().to_string());
        }
    }
    names
}

/// The body of `pub mod prelude { … }` in the facade's `src/lib.rs`.
fn prelude_block(lib_rs: &str) -> &str {
    let start = lib_rs
        .find("pub mod prelude {")
        .expect("facade must define a prelude module");
    let body = &lib_rs[start..];
    let close = body.find("\n}").expect("unterminated prelude module");
    &body[..close]
}

fn assert_surface(actual: &BTreeSet<String>, expected: &[&str], surface: &str) {
    let expected: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = expected.difference(actual).collect();
    let unexpected: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "the `{surface}` surface changed.\n  removed from the surface: \
         {missing:?}\n  newly exported: {unexpected:?}\nIf the change is \
         intentional, update the snapshot in tests/api_surface.rs."
    );
}

#[test]
fn prelude_surface_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lib_rs = std::fs::read_to_string(root.join("src/lib.rs")).unwrap();
    assert_surface(
        &exported_names(prelude_block(&lib_rs)),
        EXPECTED_PRELUDE,
        "partition_semantics::prelude",
    );
}

#[test]
fn session_surface_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lib_rs = std::fs::read_to_string(root.join("crates/ps-session/src/lib.rs")).unwrap();
    assert_surface(
        &exported_names(&lib_rs),
        EXPECTED_SESSION,
        "partition_semantics::session",
    );
}

/// The snapshots above pin the *names*; this pins that the names still
/// resolve through the facade (a re-export pointing at a moved or deleted
/// item is a compile error here, not a runtime surprise).
#[test]
fn pinned_names_resolve() {
    use partition_semantics::prelude::*;

    // Representative fn items, checked by coercion to fn pointers.
    let _: fn(&str, &mut Universe, &mut TermArena) -> Result<Equation, _> = parse_equation;
    let _: fn(&TermArena, Equation) -> bool = is_identity;

    // Representative types, checked by construction.
    let mut session = Session::new();
    let set: ConstraintSetId = session.register_texts(&["A = A*B"]).unwrap();
    let goal = session.equation("A+B = B").unwrap();
    let outcome: Outcome<bool> = session.implies(set, goal).unwrap();
    let _: Counters = outcome.counters;
    let _: Epoch = outcome.counters.epoch;
    let _: ConsistencyMode = ConsistencyMode::default();
    let _: Result<Equation, Error> = session.equation("(");
}
