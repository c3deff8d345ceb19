//! The hardware-thread identifier.
//!
//! A newtype is used instead of a bare integer so that a thread index can
//! never be accidentally passed where a bank or row index is expected
//! (C-NEWTYPE).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a hardware thread (one simulated core runs one thread).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a new identifier from its raw index.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// Returns the raw index backing this identifier.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ThreadId {
    fn from(value: usize) -> Self {
        Self(value)
    }
}

impl From<ThreadId> for usize {
    fn from(value: ThreadId) -> Self {
        value.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThreadId({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_through_raw_values() {
        let t = ThreadId::new(7);
        assert_eq!(t.index(), 7);
        assert_eq!(usize::from(t), 7);
        assert_eq!(ThreadId::from(7), t);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = ThreadId::new(1);
        let b = ThreadId::new(2);
        assert!(a < b);
        let set: HashSet<ThreadId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(format!("{}", ThreadId::new(3)), "ThreadId(3)");
        assert_eq!(format!("{}", ThreadId::new(0)), "ThreadId(0)");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ThreadId::default().index(), 0);
    }
}
