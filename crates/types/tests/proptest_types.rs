//! Property-based tests of the identifier algebra and the wire codec.

use proptest::prelude::*;

use camelot_types::wire::Wire;
use camelot_types::{FamilyId, Lsn, ObjectId, ServerId, SiteId, Tid};

fn any_tid() -> impl Strategy<Value = Tid> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(1u32..100, 0..6),
    )
        .prop_map(|(origin, seq, path)| Tid {
            family: FamilyId {
                origin: SiteId(origin),
                seq,
            },
            path,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ancestry is a strict partial order.
    #[test]
    fn ancestry_is_a_strict_partial_order(a in any_tid(), b in any_tid(), c in any_tid()) {
        // Irreflexive.
        prop_assert!(!a.is_ancestor_of(&a));
        // Antisymmetric.
        if a.is_ancestor_of(&b) {
            prop_assert!(!b.is_ancestor_of(&a));
        }
        // Transitive.
        if a.is_ancestor_of(&b) && b.is_ancestor_of(&c) {
            prop_assert!(a.is_ancestor_of(&c));
        }
    }

    /// Parent/child relations are consistent with ancestry.
    #[test]
    fn parent_and_child_are_inverse(t in any_tid(), n in 1u32..10) {
        let child = t.child(n);
        prop_assert_eq!(child.parent(), Some(t.clone()));
        prop_assert!(t.is_ancestor_of(&child));
        prop_assert_eq!(child.depth(), t.depth() + 1);
        // The top-level transaction is an ancestor (or self) of every
        // member of the family.
        let top = Tid::top_level(t.family);
        prop_assert!(top.is_self_or_ancestor_of(&child));
    }

    /// Different families never relate.
    #[test]
    fn families_are_disjoint(a in any_tid(), b in any_tid()) {
        if a.family != b.family {
            prop_assert!(!a.is_ancestor_of(&b));
        }
    }

    /// Wire round trips for all id types.
    #[test]
    fn wire_roundtrips(
        t in any_tid(),
        site in any::<u32>(),
        server in any::<u32>(),
        obj in any::<u64>(),
        lsn in any::<u64>(),
    ) {
        prop_assert_eq!(Tid::from_bytes(&t.to_bytes()).unwrap(), t);
        let s = SiteId(site);
        prop_assert_eq!(SiteId::from_bytes(&s.to_bytes()).unwrap(), s);
        let sv = ServerId(server);
        prop_assert_eq!(ServerId::from_bytes(&sv.to_bytes()).unwrap(), sv);
        let o = ObjectId(obj);
        prop_assert_eq!(ObjectId::from_bytes(&o.to_bytes()).unwrap(), o);
        let l = Lsn(lsn);
        prop_assert_eq!(Lsn::from_bytes(&l.to_bytes()).unwrap(), l);
    }

    /// Truncated encodings never decode (no panic, no garbage).
    #[test]
    fn truncation_always_errors(t in any_tid(), cut_frac in 0.0f64..1.0) {
        let bytes = t.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Tid::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
