//! The Communication Manager (CornMan).
//!
//! The communication manager has two functions (paper §2):
//!
//! 1. It forwards inter-site messages from applications to servers and
//!    back, and **spies on the contents**: messages carrying
//!    transaction identifiers are specially marked, and when a reply
//!    leaves a site the sending CornMan stamps it with the list of
//!    sites used to generate the reply. The destination CornMan strips
//!    the list and merges it with lists from earlier replies. "If
//!    every operation responds, the site that begins a transaction
//!    will eventually learn the identity of all other participating
//!    sites; these participants will be the subordinates during
//!    commitment."
//! 2. It is a name service: clients present a string naming a service
//!    and get an address back. **Not modelled**: every host here
//!    addresses a server by `(SiteId, ServerId)` directly, and name
//!    resolution is on no path the paper measures.
//!
//! This module is the bookkeeping; the runtimes charge the latency
//! costs (2 × 1.5 ms IPC hops plus 3.2 ms CPU per site per RPC — the
//! §4.1 decomposition).

use std::collections::{BTreeSet, HashMap};

use camelot_types::{FamilyId, SiteId};

/// Per-site communication manager state.
#[derive(Debug)]
pub struct CommMan {
    site: SiteId,
    /// Sites each local transaction family has spread to (excluding
    /// this site). Ordered for deterministic iteration.
    spread: HashMap<FamilyId, BTreeSet<SiteId>>,
}

impl CommMan {
    pub fn new(site: SiteId) -> Self {
        CommMan {
            site,
            spread: HashMap::new(),
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Called when this site forwards an operation RPC of `family` to
    /// a remote `target` site. The home CornMan learns spread both
    /// from its own outgoing calls and from reply stamps.
    pub fn note_outgoing(&mut self, family: FamilyId, target: SiteId) {
        if target != self.site {
            self.spread.entry(family).or_default().insert(target);
        }
    }

    /// Builds the site-list stamp for a reply leaving this site: this
    /// site plus everything the transaction touched through us.
    pub fn reply_stamp(&self, family: &FamilyId) -> Vec<SiteId> {
        let mut sites = vec![self.site];
        if let Some(s) = self.spread.get(family) {
            sites.extend(s.iter().copied());
        }
        sites
    }

    /// Merges a reply's site-list stamp into local knowledge (the
    /// destination CornMan strips the list and merges it "with lists
    /// sent in previous responses").
    pub fn merge_reply_stamp(&mut self, family: FamilyId, sites: &[SiteId]) {
        let set = self.spread.entry(family).or_default();
        for &s in sites {
            if s != self.site {
                set.insert(s);
            }
        }
    }

    /// All remote participants known for `family` — the subordinate
    /// list the transaction manager uses at commitment.
    pub fn participants(&self, family: &FamilyId) -> Vec<SiteId> {
        self.spread
            .get(family)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Forgets a finished transaction's spread data.
    pub fn forget(&mut self, family: &FamilyId) {
        self.spread.remove(family);
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
    fn outgoing_calls_accumulate_participants() {
        let mut cm = CommMan::new(SiteId(1));
        cm.note_outgoing(fam(1), SiteId(2));
        cm.note_outgoing(fam(1), SiteId(3));
        cm.note_outgoing(fam(1), SiteId(2)); // Duplicate.
        cm.note_outgoing(fam(2), SiteId(4)); // Other family.
        assert_eq!(cm.participants(&fam(1)), vec![SiteId(2), SiteId(3)]);
        assert_eq!(cm.participants(&fam(2)), vec![SiteId(4)]);
    }

    #[test]
    fn local_calls_do_not_count_as_spread() {
        let mut cm = CommMan::new(SiteId(1));
        cm.note_outgoing(fam(1), SiteId(1));
        assert!(cm.participants(&fam(1)).is_empty());
    }

    #[test]
    fn reply_stamps_propagate_transitively() {
        // Site 2 served an operation that itself called site 3; its
        // reply stamp teaches the home site (1) about both.
        let mut home = CommMan::new(SiteId(1));
        let mut remote = CommMan::new(SiteId(2));
        remote.note_outgoing(fam(1), SiteId(3));
        let stamp = remote.reply_stamp(&fam(1));
        assert_eq!(stamp, vec![SiteId(2), SiteId(3)]);
        home.merge_reply_stamp(fam(1), &stamp);
        assert_eq!(home.participants(&fam(1)), vec![SiteId(2), SiteId(3)]);
    }

    #[test]
    fn merge_ignores_own_site() {
        let mut cm = CommMan::new(SiteId(1));
        cm.merge_reply_stamp(fam(1), &[SiteId(1), SiteId(2)]);
        assert_eq!(cm.participants(&fam(1)), vec![SiteId(2)]);
    }

    #[test]
    fn forget_clears_family() {
        let mut cm = CommMan::new(SiteId(1));
        cm.note_outgoing(fam(1), SiteId(2));
        cm.forget(&fam(1));
        assert!(cm.participants(&fam(1)).is_empty());
    }

    #[test]
    fn unknown_family_has_no_participants() {
        let cm = CommMan::new(SiteId(1));
        assert!(cm.participants(&fam(9)).is_empty());
        assert_eq!(cm.reply_stamp(&fam(9)), vec![SiteId(1)]);
    }
}
