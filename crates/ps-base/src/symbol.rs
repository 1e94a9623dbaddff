//! Data symbols (the countably infinite set `𝒟` of Section 2.1).
//!
//! Tuple entries in relations are drawn from `𝒟`.  The weak-instance chase
//! additionally needs an endless supply of *fresh* symbols ("nulls" or
//! "unique variables"); [`SymbolTable::fresh`] provides them without ever
//! colliding with interned constants.

use std::fmt;

use crate::{BaseError, Interner, Result};

/// An interned data symbol (an element of `𝒟`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Constructs a symbol from a raw index (see [`SymbolTable`]).
    pub fn from_index(index: u32) -> Self {
        Symbol(index)
    }

    /// The raw dense index of this symbol.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize`, for vector indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// The catalog of data symbols, modelling the countably infinite set `𝒟`.
///
/// Two kinds of symbols are issued:
///
/// * **constants** — interned by name via [`SymbolTable::symbol`]; these are
///   the symbols that appear in user databases;
/// * **fresh symbols** — generated via [`SymbolTable::fresh`]; each call
///   returns a brand-new symbol distinct from every other symbol.  These play
///   the role of the "distinct new values" used when padding weak instances
///   (Section 6.2) and of the unique tuple indices `i_t` of Definition 5.
///
/// ```
/// use ps_base::SymbolTable;
/// let mut t = SymbolTable::new();
/// let a = t.symbol("a");
/// let fresh = t.fresh();
/// assert_ne!(a, fresh);
/// assert!(t.is_constant(a));
/// assert!(!t.is_constant(fresh));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    interner: Interner,
    /// Fresh symbols are allocated above all interned constants, in a
    /// parallel namespace tagged by the high bit.
    fresh_count: u32,
}

/// Fresh symbols are tagged with the high bit so they can never collide with
/// interned constants (which would need more than 2³¹ names to reach it).
const FRESH_TAG: u32 = 1 << 31;

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a named constant.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        let id = self.interner.intern(name);
        assert!(
            id < FRESH_TAG,
            "symbol table overflowed the constant namespace"
        );
        Symbol(id)
    }

    /// Interns several constants at once.
    pub fn symbols<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) -> Vec<Symbol> {
        names.into_iter().map(|n| self.symbol(n)).collect()
    }

    /// Looks up an existing constant by name.
    pub fn lookup(&self, name: &str) -> Result<Symbol> {
        self.interner
            .get(name)
            .map(Symbol)
            .ok_or_else(|| BaseError::UnknownSymbol(name.to_owned()))
    }

    /// Generates a fresh symbol, distinct from every constant and every
    /// previously generated fresh symbol.
    pub fn fresh(&mut self) -> Symbol {
        let id = self.fresh_count;
        self.fresh_count += 1;
        Symbol(FRESH_TAG | id)
    }

    /// Whether `sym` is an interned constant (as opposed to a fresh symbol).
    pub fn is_constant(&self, sym: Symbol) -> bool {
        sym.0 & FRESH_TAG == 0
    }

    /// Whether `sym` was produced by [`SymbolTable::fresh`].
    pub fn is_fresh(&self, sym: Symbol) -> bool {
        !self.is_constant(sym)
    }

    /// The name of a constant symbol, if it was interned here.
    pub fn name(&self, sym: Symbol) -> Option<&str> {
        if self.is_constant(sym) {
            self.interner.resolve(sym.0)
        } else {
            None
        }
    }

    /// Renders a symbol: constants by name, fresh symbols as `⊥k`.
    pub fn render(&self, sym: Symbol) -> String {
        match self.name(sym) {
            Some(n) => n.to_owned(),
            None => format!("⊥{}", sym.0 & !FRESH_TAG),
        }
    }

    /// Number of interned constants (fresh symbols are not counted).
    pub fn num_constants(&self) -> usize {
        self.interner.len()
    }

    /// Number of fresh symbols issued so far.
    pub fn num_fresh(&self) -> usize {
        self.fresh_count as usize
    }

    /// A detached fresh-symbol source starting just above every fresh symbol
    /// this table has issued so far.
    ///
    /// The source mints symbols in the same tagged namespace as
    /// [`SymbolTable::fresh`], so [`SymbolTable::is_constant`] /
    /// [`SymbolTable::is_fresh`] classify them correctly, but it never
    /// touches the table: many workers can each hold their own source and
    /// mint nulls against a shared `&SymbolTable`.  Symbols from two sources
    /// derived from the same table state *may* collide with each other —
    /// callers that need cross-worker distinctness must keep worker outputs
    /// separate, or fold each source back with [`SymbolTable::advance_past`]
    /// before deriving the next.
    pub fn fresh_source(&self) -> FreshSymbols {
        FreshSymbols {
            next: self.fresh_count,
        }
    }

    /// Advances the table past every symbol `source` has minted or skipped,
    /// so later [`SymbolTable::fresh`] calls and sources never reissue them.
    ///
    /// ```
    /// use ps_base::SymbolTable;
    /// let mut t = SymbolTable::new();
    /// let mut source = t.fresh_source();
    /// let minted = source.fresh();
    /// t.advance_past(&source);
    /// assert_ne!(t.fresh_source().fresh(), minted);
    /// ```
    pub fn advance_past(&mut self, source: &FreshSymbols) {
        self.fresh_count = self.fresh_count.max(source.next);
    }
}

/// A cursor minting fresh symbols without mutating the [`SymbolTable`] it
/// was derived from (see [`SymbolTable::fresh_source`]).
///
/// This is what lets the chase pipeline run against a frozen `&SymbolTable`:
/// padding nulls and Lemma-12.1 repair values come from a per-worker
/// `FreshSymbols` instead of `SymbolTable::fresh`.
///
/// ```
/// use ps_base::SymbolTable;
/// let mut t = SymbolTable::new();
/// let minted = t.fresh();
/// let mut source = t.fresh_source();
/// let detached = source.fresh();
/// assert_ne!(minted, detached);
/// assert!(t.is_fresh(detached));
/// ```
#[derive(Debug, Clone)]
pub struct FreshSymbols {
    next: u32,
}

impl FreshSymbols {
    /// Mints the next fresh symbol from this source.
    pub fn fresh(&mut self) -> Symbol {
        let id = self.next;
        self.next += 1;
        Symbol(FRESH_TAG | id)
    }

    /// Moves the cursor past `sym` if it is a fresh symbol at or above it,
    /// so this source never mints a null that already occurs in its input.
    /// Constants are ignored.
    pub fn skip_past(&mut self, sym: Symbol) {
        if sym.0 & FRESH_TAG != 0 {
            self.next = self.next.max((sym.0 & !FRESH_TAG) + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut t = SymbolTable::new();
        let a = t.symbol("a");
        let b = t.symbol("b");
        assert_ne!(a, b);
        assert_eq!(t.symbol("a"), a);
        assert_eq!(t.lookup("b").unwrap(), b);
        assert!(t.lookup("zz").is_err());
        assert_eq!(t.num_constants(), 2);
    }

    #[test]
    fn fresh_symbols_are_all_distinct() {
        let mut t = SymbolTable::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(t.fresh()));
        }
        assert_eq!(t.num_fresh(), 100);
    }

    #[test]
    fn fresh_never_collides_with_constants() {
        let mut t = SymbolTable::new();
        let consts: Vec<_> = (0..50).map(|i| t.symbol(&format!("c{i}"))).collect();
        let fresh: Vec<_> = (0..50).map(|_| t.fresh()).collect();
        for c in &consts {
            assert!(t.is_constant(*c));
            for f in &fresh {
                assert_ne!(c, f);
            }
        }
        for f in &fresh {
            assert!(t.is_fresh(*f));
        }
    }

    #[test]
    fn render_uses_names_and_null_notation() {
        let mut t = SymbolTable::new();
        let a = t.symbol("alice");
        let f = t.fresh();
        assert_eq!(t.render(a), "alice");
        assert_eq!(t.render(f), "⊥0");
        assert_eq!(t.name(f), None);
    }

    #[test]
    fn fresh_source_is_detached_and_tagged() {
        let mut t = SymbolTable::new();
        let before = t.fresh();
        let mut source = t.fresh_source();
        let s1 = source.fresh();
        let s2 = source.fresh();
        assert_ne!(s1, s2);
        assert_ne!(before, s1);
        assert!(t.is_fresh(s1) && t.is_fresh(s2));
        // Minting from the source never advances the table.
        assert_eq!(t.num_fresh(), 1);
        // A second source from the same state restarts at the same cursor.
        let mut again = t.fresh_source();
        assert_eq!(again.fresh(), s1);
        // Folding the first source back moves the table past both nulls.
        t.advance_past(&source);
        assert_eq!(t.num_fresh(), 3);
        assert_ne!(t.fresh(), s2);
    }

    #[test]
    fn skip_past_moves_the_cursor_above_input_nulls() {
        let mut t = SymbolTable::new();
        let constant = t.symbol("a");
        let mut source = t.fresh_source();
        let taken = {
            let mut other = t.fresh_source();
            other.fresh();
            other.fresh()
        };
        source.skip_past(constant);
        source.skip_past(taken);
        let minted = source.fresh();
        assert!(t.is_fresh(minted));
        assert!(minted > taken);
        // Skipping a lower null never moves the cursor back.
        source.skip_past(taken);
        assert!(source.fresh() > minted);
    }

    #[test]
    fn display_is_index_based() {
        let mut t = SymbolTable::new();
        let a = t.symbol("a");
        assert_eq!(format!("{a}"), "$0");
    }
}
