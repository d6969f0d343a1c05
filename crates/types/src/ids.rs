//! Identifiers for sites, servers, objects, transactions and log records.
//!
//! Camelot transactions are *nested* in the Moss model: a top-level
//! transaction and all of its descendants form a **transaction family**.
//! The transaction manager keys its principal data structure — a hash
//! table of family descriptors, each with an attached table of
//! transaction descriptors — on these identifiers, and locking inside
//! the transaction manager permits concurrency only among different
//! families (paper §3.4).

use std::fmt;

/// Identifies one Camelot site (one machine running the four Camelot
/// processes plus any number of data servers and applications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Identifies a data server process, addressed by
/// `(SiteId, ServerId)` everywhere (the paper's string-name service is
/// not modelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// Identifies one recoverable object managed by a data server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

crate::wire_struct! {
    /// Identifies a transaction *family*: a top-level transaction together
    /// with all of its nested descendants.
    ///
    /// The family identifier embeds the site at which the top-level
    /// transaction began (the site whose transaction manager will act as
    /// commitment coordinator) and a locally unique sequence number, so
    /// identifiers are globally unique without coordination.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct FamilyId {
        /// Site at which `begin_transaction` was executed; the default
        /// commitment coordinator.
        pub origin: SiteId,
        /// Sequence number unique at the origin site (monotone across
        /// restarts: the high bits carry an incarnation number).
        pub seq: u64,
    }
}

impl fmt::Display for FamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}.{}", self.origin.0, self.seq)
    }
}

/// A Moss-model nested transaction identifier.
///
/// A `Tid` is a family identifier plus the path from the top-level
/// transaction down to this (sub)transaction. The top-level transaction
/// has an empty path; its first child has path `[1]`, that child's
/// second child `[1, 2]`, and so on. Paths give the ancestor relation
/// needed by the lock manager (a transaction may acquire a lock all of
/// whose holders are its ancestors) and by commitment (a subtransaction
/// commit merges state upward into the parent).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid {
    /// The family this transaction belongs to.
    pub family: FamilyId,
    /// Path from the top-level transaction (exclusive) to this
    /// transaction. Empty for the top-level transaction itself.
    pub path: Vec<u32>,
}

impl Tid {
    /// Creates the top-level transaction identifier of a family.
    pub fn top_level(family: FamilyId) -> Self {
        Tid {
            family,
            path: Vec::new(),
        }
    }

    /// Creates the identifier of this transaction's `n`-th child.
    ///
    /// Children are numbered from 1, matching the paper's description
    /// of transaction identifiers assigned by the transaction manager.
    pub fn child(&self, n: u32) -> Self {
        let mut path = self.path.clone();
        path.push(n);
        Tid {
            family: self.family,
            path,
        }
    }

    /// Returns the parent's identifier, or `None` for a top-level
    /// transaction.
    pub fn parent(&self) -> Option<Tid> {
        if self.path.is_empty() {
            None
        } else {
            let mut path = self.path.clone();
            path.pop();
            Some(Tid {
                family: self.family,
                path,
            })
        }
    }

    /// True if this is the family's top-level transaction.
    pub fn is_top_level(&self) -> bool {
        self.path.is_empty()
    }

    /// Nesting depth: 0 for the top-level transaction.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// True if `self` is an ancestor of `other` (proper ancestor:
    /// `self != other`). Both must be in the same family for a `true`
    /// result; the top-level transaction is an ancestor of every other
    /// transaction in its family.
    pub fn is_ancestor_of(&self, other: &Tid) -> bool {
        self.family == other.family
            && self.path.len() < other.path.len()
            && other.path[..self.path.len()] == self.path[..]
    }

    /// True if `self` is `other` or an ancestor of `other`.
    pub fn is_self_or_ancestor_of(&self, other: &Tid) -> bool {
        self == other || self.is_ancestor_of(other)
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.family)?;
        for seg in &self.path {
            write!(f, ":{seg}")?;
        }
        Ok(())
    }
}

/// Log sequence number: the byte offset of a record in the stable log.
///
/// LSNs are totally ordered and dense enough that `lsn_a <= lsn_b`
/// means record `a` was appended no later than record `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fam(n: u64) -> FamilyId {
        FamilyId {
            origin: SiteId(1),
            seq: n,
        }
    }

    #[test]
    fn top_level_has_empty_path() {
        let t = Tid::top_level(fam(7));
        assert!(t.is_top_level());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.parent(), None);
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let t = Tid::top_level(fam(1));
        let c = t.child(1);
        let gc = c.child(2);
        assert_eq!(gc.path, vec![1, 2]);
        assert_eq!(gc.parent(), Some(c.clone()));
        assert_eq!(c.parent(), Some(t.clone()));
        assert_eq!(gc.depth(), 2);
    }

    #[test]
    fn ancestor_relation() {
        let t = Tid::top_level(fam(1));
        let c1 = t.child(1);
        let c2 = t.child(2);
        let gc = c1.child(1);
        assert!(t.is_ancestor_of(&c1));
        assert!(t.is_ancestor_of(&gc));
        assert!(c1.is_ancestor_of(&gc));
        assert!(!c2.is_ancestor_of(&gc));
        assert!(!c1.is_ancestor_of(&c1));
        assert!(c1.is_self_or_ancestor_of(&c1));
        assert!(!gc.is_ancestor_of(&c1));
    }

    #[test]
    fn ancestor_across_families_is_false() {
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2)).child(1);
        assert!(!a.is_ancestor_of(&b));
    }

    #[test]
    fn display_formats() {
        let t = Tid::top_level(fam(9)).child(1).child(3);
        assert_eq!(t.to_string(), "F1.9:1:3");
        assert_eq!(SiteId(4).to_string(), "site4");
        assert_eq!(Lsn(12).to_string(), "lsn:12");
        assert_eq!(ServerId(2).to_string(), "srv2");
        assert_eq!(ObjectId(8).to_string(), "obj8");
    }

    #[test]
    fn tid_ordering_is_prefix_first() {
        let t = Tid::top_level(fam(1));
        let c = t.child(1);
        assert!(t < c, "parent sorts before child");
    }
}
