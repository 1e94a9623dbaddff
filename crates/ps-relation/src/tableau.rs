//! Tableaux: padded tables over the full attribute universe.
//!
//! The weak-satisfaction test of Honeyman (used throughout Sections 4.3 and
//! 6 of the paper) starts from a *tableau*: one row per database tuple,
//! ranging over the union `U` of all attributes, with the tuple's own
//! columns holding its constants and every other column holding a fresh
//! null.  The chase ([`crate::chase`]) then equates symbols as dictated by
//! the FDs.

use ps_base::{AttrSet, Attribute, FreshSymbols, Symbol};

use crate::Database;

/// A tableau: rows of symbols over a fixed attribute set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    attrs: AttrSet,
    rows: Vec<Vec<Symbol>>,
}

impl Tableau {
    /// Builds the tableau of `db` over the attribute set `attrs` (which must
    /// contain every attribute used by `db`, and may add attributes the
    /// database does not mention), padding missing columns with nulls
    /// minted from `fresh`.
    ///
    /// The padding must be "distinct new values" (Section 6.2), so the
    /// cursor is first moved past every null already in `db` — a witness fed
    /// back as input may carry nulls the source would otherwise reissue.
    /// Only the table's tag bit is ever consulted afterwards, which is what
    /// lets many workers build tableaux against one shared `&SymbolTable`,
    /// each with its own source.
    pub fn from_database_frozen(db: &Database, attrs: &AttrSet, fresh: &mut FreshSymbols) -> Self {
        for relation in db.relations() {
            for pos in 0..relation.scheme().arity() {
                for &sym in relation.column(pos) {
                    fresh.skip_past(sym);
                }
            }
        }
        let mut rows = Vec::with_capacity(db.total_tuples());
        for relation in db.relations() {
            // Resolve each tableau column to the relation's column (or a
            // fresh-null pad) once per relation, then walk the columns.
            let positions: Vec<Option<usize>> = attrs
                .iter()
                .map(|a| relation.scheme().position(a))
                .collect();
            for row in relation.iter() {
                let padded: Vec<Symbol> = positions
                    .iter()
                    .map(|pos| match pos {
                        Some(pos) => row.value_at(*pos),
                        None => fresh.fresh(),
                    })
                    .collect();
                rows.push(padded);
            }
        }
        Tableau {
            attrs: attrs.clone(),
            rows,
        }
    }

    /// Creates a tableau directly from rows (mainly for tests).
    pub fn from_rows(attrs: AttrSet, rows: Vec<Vec<Symbol>>) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == attrs.len()),
            "every row must have one symbol per attribute"
        );
        Tableau { attrs, rows }
    }

    /// The attribute set the tableau ranges over.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Symbol>] {
        &self.rows
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether the tableau has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of `attr`, if it is part of the tableau.
    pub fn position(&self, attr: Attribute) -> Option<usize> {
        self.attrs.as_slice().binary_search(&attr).ok()
    }

    /// The symbol at `(row, attr)`.
    pub fn get(&self, row: usize, attr: Attribute) -> Option<Symbol> {
        Some(self.rows[row][self.position(attr)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DatabaseBuilder;
    use ps_base::{SymbolTable, Universe};

    fn two_relation_db() -> (Universe, SymbolTable, Database) {
        let mut u = Universe::new();
        let mut s = SymbolTable::new();
        let db = DatabaseBuilder::new()
            .relation(
                &mut u,
                &mut s,
                "R1",
                &["A", "B"],
                &[&["a", "b"], &["a2", "b"]],
            )
            .unwrap()
            .relation(&mut u, &mut s, "R2", &["B", "C"], &[&["b", "c"]])
            .unwrap()
            .build();
        (u, s, db)
    }

    fn tableau_of(db: &Database, s: &SymbolTable) -> Tableau {
        Tableau::from_database_frozen(db, &db.all_attributes(), &mut s.fresh_source())
    }

    #[test]
    fn tableau_has_one_row_per_tuple_and_pads_with_nulls() {
        let (u, s, db) = two_relation_db();
        let tableau = tableau_of(&db, &s);
        assert_eq!(tableau.num_rows(), 3);
        assert_eq!(tableau.attrs().len(), 3);
        assert!(!tableau.is_empty());
        let a = u.lookup("A").unwrap();
        let c = u.lookup("C").unwrap();
        // First row comes from R1: constant under A, fresh null under C.
        let a_val = tableau.get(0, a).unwrap();
        let c_val = tableau.get(0, c).unwrap();
        assert!(s.is_constant(a_val));
        assert!(s.is_fresh(c_val));
        // Third row comes from R2: null under A, constant under C.
        assert!(s.is_fresh(tableau.get(2, a).unwrap()));
        assert!(s.is_constant(tableau.get(2, c).unwrap()));
    }

    #[test]
    fn nulls_are_distinct_across_cells() {
        let (_, s, db) = two_relation_db();
        let tableau = tableau_of(&db, &s);
        let mut nulls = Vec::new();
        for row in tableau.rows() {
            for &sym in row {
                if s.is_fresh(sym) {
                    nulls.push(sym);
                }
            }
        }
        let unique: std::collections::HashSet<_> = nulls.iter().collect();
        assert_eq!(unique.len(), nulls.len());
        assert_eq!(nulls.len(), 2 + 1); // R1 rows miss C (2 nulls), R2 row misses A (1 null).
    }

    #[test]
    fn tableau_can_range_over_extra_attributes() {
        let (mut u, s, db) = two_relation_db();
        let d = u.attr("D");
        let mut attrs = db.all_attributes();
        attrs.insert(d);
        let tableau = Tableau::from_database_frozen(&db, &attrs, &mut s.fresh_source());
        assert_eq!(tableau.attrs().len(), 4);
        assert!(s.is_fresh(tableau.get(0, d).unwrap()));
    }

    #[test]
    fn padding_skips_nulls_already_in_the_database() {
        // A chased tableau fed back as a database carries nulls the table
        // never issued; the padding of the next tableau must avoid them.
        let (mut u, mut s, db) = two_relation_db();
        let first = tableau_of(&db, &s);
        let mut again = Database::new();
        let scheme = crate::RelationScheme::new("W", first.attrs().clone());
        let mut witness = crate::Relation::new(scheme);
        for row in first.rows() {
            witness.insert_values(row).unwrap();
        }
        again.add(witness);
        let extra = DatabaseBuilder::new()
            .relation(&mut u, &mut s, "S", &["A"], &[&["a3"]])
            .unwrap()
            .build();
        again.add(extra.relations()[0].clone());
        let second = tableau_of(&again, &s);
        let old: std::collections::HashSet<Symbol> =
            first.rows().iter().flatten().copied().collect();
        let padded = second.rows().last().unwrap();
        for &sym in padded.iter().filter(|&&sym| s.is_fresh(sym)) {
            assert!(!old.contains(&sym), "padding reissued {sym}");
        }
    }

    #[test]
    fn position_and_get_handle_missing_attributes() {
        let (mut u, s, db) = two_relation_db();
        let tableau = tableau_of(&db, &s);
        let z = u.attr("Z");
        assert_eq!(tableau.position(z), None);
        assert_eq!(tableau.get(0, z), None);
    }

    #[test]
    #[should_panic(expected = "one symbol per attribute")]
    fn from_rows_checks_arity() {
        let mut u = Universe::new();
        let attrs: AttrSet = u.attrs(["A", "B"]).into();
        let mut s = SymbolTable::new();
        let _ = Tableau::from_rows(attrs, vec![vec![s.symbol("a")]]);
    }
}
