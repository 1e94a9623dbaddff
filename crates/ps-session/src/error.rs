//! The unified error type of the session facade.
//!
//! Every substrate crate keeps its own error enum (`CoreError`,
//! `LatticeError`, `RelationError`, `PartitionError`), but callers of the
//! session API see exactly one [`Error`] with `From` chains from all of
//! them, so `?` works across every layer.

use std::fmt;

use crate::ConstraintSetId;

/// The one error type of the session facade, unifying the per-crate error
/// enums plus the session-specific failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An error from the partition-semantics core (interpretations,
    /// dependencies, consistency).
    Core(ps_core::CoreError),
    /// An error from the lattice machinery (parsing, word problems,
    /// finite lattices).
    Lattice(ps_lattice::LatticeError),
    /// An error from the relational substrate (relations, FDs, the chase).
    Relation(ps_relation::RelationError),
    /// An error from the partition kernel.
    Partition(ps_partition::PartitionError),
    /// A [`ConstraintSetId`] that does not belong to this session (or to
    /// any registered set) was used in a query.
    UnknownConstraintSet(ConstraintSetId),
    /// [`ConsistencyMode::ExactCadEap`](crate::ConsistencyMode) requires
    /// every registered PD to be a functional partition dependency (a meet
    /// equation); the named PD is not one.
    CadRequiresFpds {
        /// The offending PD, rendered in the concrete syntax.
        pd: String,
    },
    /// A goal queried against a frozen [`crate::SetSnapshot`] mentions a
    /// subterm outside the snapshot's vocabulary `V`.  A frozen engine
    /// cannot extend `V` (that would mutate shared state), so the query is
    /// rejected instead of answered `false` — re-freeze with
    /// [`crate::Session::snapshot_with_goals`] covering the batch.
    OutsideVocabulary {
        /// The offending goal.  The snapshot holds no term arena, so the
        /// message names its term ids; [`crate::Session::render`] renders
        /// it in the concrete syntax.
        goal: ps_lattice::Equation,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Lattice(e) => write!(f, "{e}"),
            Error::Relation(e) => write!(f, "{e}"),
            Error::Partition(e) => write!(f, "{e}"),
            Error::UnknownConstraintSet(id) => {
                write!(f, "constraint set {id:?} is not registered in this session")
            }
            Error::CadRequiresFpds { pd } => write!(
                f,
                "CAD+EAP consistency (Theorem 11) is defined for functional \
                 partition dependencies only; `{pd}` contains a sum"
            ),
            Error::OutsideVocabulary { goal } => write!(
                f,
                "goal `{} = {}` mentions a subterm outside the frozen snapshot's \
                 vocabulary V; take the snapshot with `snapshot_with_goals` \
                 covering the batch",
                goal.lhs, goal.rhs
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Lattice(e) => Some(e),
            Error::Relation(e) => Some(e),
            Error::Partition(e) => Some(e),
            Error::UnknownConstraintSet(_)
            | Error::CadRequiresFpds { .. }
            | Error::OutsideVocabulary { .. } => None,
        }
    }
}

impl From<ps_core::CoreError> for Error {
    fn from(e: ps_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<ps_lattice::LatticeError> for Error {
    fn from(e: ps_lattice::LatticeError) -> Self {
        Error::Lattice(e)
    }
}

impl From<ps_relation::RelationError> for Error {
    fn from(e: ps_relation::RelationError) -> Self {
        Error::Relation(e)
    }
}

impl From<ps_partition::PartitionError> for Error {
    fn from(e: ps_partition::PartitionError) -> Self {
        Error::Partition(e)
    }
}

/// Convenient `Result` alias for session operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn from_chains_cover_every_substrate() {
        let core: Error =
            ps_core::CoreError::EmptyPopulation(ps_base::Attribute::from_index(0)).into();
        assert!(core.to_string().contains("empty population"));
        assert!(core.source().is_some());

        let lattice: Error = ps_lattice::LatticeError::NotALattice("no meet".into()).into();
        assert!(lattice.to_string().contains("not a lattice"));

        let relation: Error = ps_relation::RelationError::EmptyAttributeSet("projection").into();
        assert!(relation.to_string().contains("non-empty"));

        let partition: Error = ps_partition::PartitionError::EmptyBlock.into();
        assert!(partition.to_string().contains("empty"));

        let unknown = Error::UnknownConstraintSet(ConstraintSetId::from_index(7));
        assert!(unknown.to_string().contains("not registered"));
        assert!(unknown.source().is_none());

        let cad = Error::CadRequiresFpds { pd: "C=A+B".into() };
        assert!(cad.to_string().contains("contains a sum"));

        let mut session = crate::Session::new();
        let goal = session.equation("A = A*Z").unwrap();
        let outside = Error::OutsideVocabulary { goal };
        let ids = format!("`{} = {}`", goal.lhs, goal.rhs);
        assert!(outside.to_string().contains(&ids));
        assert!(outside.to_string().contains("outside the frozen snapshot"));
        assert!(outside.source().is_none());
    }
}
