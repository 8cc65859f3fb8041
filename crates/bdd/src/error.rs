//! Error type for BDD operations.

use std::error::Error;
use std::fmt;

/// Errors raised by [`crate::Bdd`] operations.
///
/// Most manager methods panic on programmer errors (foreign node ids,
/// out-of-range variables) because those indicate a bug at the call site;
/// `BddError` is reserved for conditions that depend on runtime data, such as
/// restoring a snapshot built for a different variable count.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// A snapshot declared `expected` variables but the manager has `actual`.
    VarCountMismatch {
        /// Variable count recorded in the snapshot.
        expected: usize,
        /// Variable count of the receiving manager.
        actual: usize,
    },
    /// A snapshot refers to a node index that it never defined.
    CorruptSnapshot {
        /// The offending node index.
        index: usize,
    },
    /// A snapshot node is not reduced (its low and high children are equal)
    /// or violates the variable ordering.
    MalformedSnapshot {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A snapshot was restored into a manager that tests the variables in
    /// another order than the snapshot's.
    OrderMismatch,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::VarCountMismatch { expected, actual } => write!(
                f,
                "snapshot was built for {expected} variables but manager has {actual}"
            ),
            BddError::CorruptSnapshot { index } => {
                write!(f, "snapshot refers to undefined node index {index}")
            }
            BddError::MalformedSnapshot { reason } => {
                write!(f, "malformed snapshot: {reason}")
            }
            BddError::OrderMismatch => {
                write!(
                    f,
                    "snapshot and manager test the variables in different orders"
                )
            }
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_counts() {
        let err = BddError::VarCountMismatch {
            expected: 4,
            actual: 8,
        };
        let msg = err.to_string();
        assert!(msg.contains('4') && msg.contains('8'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddError>();
    }
}
