//! Datagrams exchanged between transaction managers.
//!
//! One [`Envelope`] is one datagram on the wire. Besides its primary
//! message it can carry piggybacked messages — the delayed-commit
//! optimization sends commit acknowledgements "piggybacked" on later
//! traffic rather than paying a datagram of their own, and message
//! batching is explicitly restricted to messages *not* on the
//! critical path (paper §4.2).
//!
//! Every type here is one `wire_struct!` / `wire_enum!` table: the
//! declaration is the wire layout (tag, then fields in order), and the
//! codec is derived from it.

use camelot_types::{wire_enum, wire_struct, SiteId, Tid};

wire_enum! {
    /// A participant's vote in phase one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Vote {
        /// Update site, willing to commit (prepare record forced).
        0 => Yes,
        /// Refuses; transaction must abort.
        1 => No,
        /// Read-only site: votes and immediately drops locks; it is
        /// excluded from later phases (the read-only optimization).
        2 => ReadOnly,
        _ => "bad vote",
    }
}

wire_enum! {
    /// Final outcome of a transaction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Outcome {
        0 => Committed,
        1 => Aborted,
        _ => "bad outcome",
    }
}

wire_enum! {
    /// A site's protocol state, reported during non-blocking termination.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum NbSiteState {
        /// Never heard of the transaction (or already forgot after
        /// resolution — under presumed abort this reads as aborted).
        0 => Unknown,
        /// Prepared (voted yes) but holds no replicated decision info.
        1 => Prepared,
        /// Holds the forced replication record: counts toward the commit
        /// quorum.
        2 => Replicated,
        3 => Committed,
        4 => Aborted,
        _ => "bad site state",
    }
}

wire_struct! {
    /// The replication information of the non-blocking protocol as it
    /// appears on the wire (mirrors `camelot_wal::record::ReplicationInfo`
    /// but lives here so the net crate stays independent of the log).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct NbInfo {
        pub sites: Vec<SiteId>,
        pub yes_votes: Vec<SiteId>,
        pub commit_quorum: u32,
        pub abort_quorum: u32,
    }
}

wire_enum! {
    /// Messages between transaction managers.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TmMessage {
        // ----- Two-phase commitment (presumed abort) -----
        /// Phase one: coordinator asks a subordinate to prepare.
        1 => Prepare { tid: Tid, coordinator: SiteId },
        /// Subordinate's vote.
        2 => VoteMsg { tid: Tid, from: SiteId, vote: Vote },
        /// Phase two: commit notice.
        3 => Commit { tid: Tid },
        /// Phase two: abort notice (also used by the abort protocol
        /// during execution).
        4 => Abort { tid: Tid },
        /// Subordinate's acknowledgement that its commit record is
        /// durable; until it arrives the coordinator may not forget the
        /// transaction. Piggybackable.
        5 => CommitAck { tid: Tid, from: SiteId },
        /// Recovery inquiry: a prepared subordinate asks the coordinator
        /// for the outcome.
        6 => Inquire { tid: Tid, from: SiteId },
        /// Answer to an inquiry. Under presumed abort, "unknown
        /// transaction" is answered as `Aborted`.
        7 => InquireResp { tid: Tid, outcome: Outcome },

        // ----- Non-blocking commitment -----
        /// Phase one. Carries the full site list and the quorum sizes
        /// (change 1 of §3.3), so any subordinate can later finish the
        /// protocol.
        8 => NbPrepare { tid: Tid, coordinator: SiteId, info: NbInfo },
        /// Subordinate's vote.
        9 => NbVote { tid: Tid, from: SiteId, vote: Vote },
        /// Replication phase: the decision information to be forced into
        /// the subordinate's log.
        10 => NbReplicate { tid: Tid, info: NbInfo },
        /// Subordinate's acknowledgement of the replication record.
        /// `joined` is true when the record was forced (the site now
        /// counts toward the commit quorum); false when the site refused
        /// because it already joined the abort quorum during termination.
        11 => NbReplicateAck { tid: Tid, from: SiteId, joined: bool },
        /// Phase three: the outcome notice.
        12 => NbOutcome { tid: Tid, outcome: Outcome },
        /// Acknowledgement of the outcome (lets every site eventually
        /// forget — change 4 of §3.3).
        13 => NbOutcomeAck { tid: Tid, from: SiteId },
        /// Termination protocol: a timed-out participant, acting as a new
        /// coordinator, asks for states.
        14 => NbStatusReq { tid: Tid, from: SiteId },
        /// Termination protocol: state report, with the replication
        /// information if this site holds it (any prepared site knows the
        /// site list and quorum sizes from the prepare message — change 1
        /// of §3.3).
        15 => NbStatus { tid: Tid, from: SiteId, state: NbSiteState, info: Option<NbInfo> },
        /// Termination protocol: a takeover coordinator recruiting an
        /// abort quorum asks this site to irrevocably join it.
        16 => NbAbortJoinReq { tid: Tid, from: SiteId },
        /// Reply: `joined` is false if the site already belongs to the
        /// commit quorum (a site never joins both — change 4 of §3.3).
        17 => NbAbortJoinResp { tid: Tid, from: SiteId, joined: bool },
        /// Coordinator's final note that every site has resolved the
        /// transaction; receivers may discard their tombstone (change 4:
        /// nobody forgets until all sites have committed or aborted).
        18 => NbForget { tid: Tid },

        // ----- Nested transactions -----
        /// A *nested* transaction resolved at its home site; participant
        /// sites inherit (commit) or undo (abort) the subtree promptly
        /// rather than at family end.
        19 => SubResolved { tid: Tid, outcome: Outcome },
        _ => "unknown message tag",
    }
}

impl TmMessage {
    /// The transaction the message concerns.
    pub fn tid(&self) -> &Tid {
        match self {
            TmMessage::Prepare { tid, .. }
            | TmMessage::VoteMsg { tid, .. }
            | TmMessage::Commit { tid }
            | TmMessage::Abort { tid }
            | TmMessage::CommitAck { tid, .. }
            | TmMessage::Inquire { tid, .. }
            | TmMessage::InquireResp { tid, .. }
            | TmMessage::NbPrepare { tid, .. }
            | TmMessage::NbVote { tid, .. }
            | TmMessage::NbReplicate { tid, .. }
            | TmMessage::NbReplicateAck { tid, .. }
            | TmMessage::NbOutcome { tid, .. }
            | TmMessage::NbOutcomeAck { tid, .. }
            | TmMessage::NbStatusReq { tid, .. }
            | TmMessage::NbStatus { tid, .. }
            | TmMessage::NbAbortJoinReq { tid, .. }
            | TmMessage::NbAbortJoinResp { tid, .. }
            | TmMessage::NbForget { tid }
            | TmMessage::SubResolved { tid, .. } => tid,
        }
    }

    /// True for acknowledgement-class messages that are off the
    /// critical path and therefore eligible for piggybacking / message
    /// batching (§4.2: "Camelot batches only those messages that are
    /// not in the critical path").
    pub fn piggybackable(&self) -> bool {
        matches!(
            self,
            TmMessage::CommitAck { .. } | TmMessage::NbOutcomeAck { .. }
        )
    }
}

wire_struct! {
    /// One datagram: a primary message plus piggybacked off-critical-path
    /// messages, with a per-(src,dst) sequence number for duplicate
    /// detection.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Envelope {
        pub src: SiteId,
        pub dst: SiteId,
        pub seq: u64,
        pub primary: TmMessage,
        pub piggyback: Vec<TmMessage>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::wire::Wire;
    use camelot_types::FamilyId;

    fn tid() -> Tid {
        Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 11,
        })
    }

    fn info() -> NbInfo {
        NbInfo {
            sites: vec![SiteId(1), SiteId(2)],
            yes_votes: vec![SiteId(2)],
            commit_quorum: 2,
            abort_quorum: 1,
        }
    }

    fn all_messages() -> Vec<TmMessage> {
        vec![
            TmMessage::Prepare {
                tid: tid(),
                coordinator: SiteId(1),
            },
            TmMessage::VoteMsg {
                tid: tid(),
                from: SiteId(2),
                vote: Vote::Yes,
            },
            TmMessage::VoteMsg {
                tid: tid(),
                from: SiteId(2),
                vote: Vote::No,
            },
            TmMessage::VoteMsg {
                tid: tid(),
                from: SiteId(2),
                vote: Vote::ReadOnly,
            },
            TmMessage::Commit { tid: tid() },
            TmMessage::Abort { tid: tid() },
            TmMessage::CommitAck {
                tid: tid(),
                from: SiteId(2),
            },
            TmMessage::Inquire {
                tid: tid(),
                from: SiteId(2),
            },
            TmMessage::InquireResp {
                tid: tid(),
                outcome: Outcome::Aborted,
            },
            TmMessage::NbPrepare {
                tid: tid(),
                coordinator: SiteId(1),
                info: info(),
            },
            TmMessage::NbVote {
                tid: tid(),
                from: SiteId(3),
                vote: Vote::Yes,
            },
            TmMessage::NbReplicate {
                tid: tid(),
                info: info(),
            },
            TmMessage::NbReplicateAck {
                tid: tid(),
                from: SiteId(3),
                joined: true,
            },
            TmMessage::NbReplicateAck {
                tid: tid(),
                from: SiteId(3),
                joined: false,
            },
            TmMessage::NbOutcome {
                tid: tid(),
                outcome: Outcome::Committed,
            },
            TmMessage::NbOutcomeAck {
                tid: tid(),
                from: SiteId(3),
            },
            TmMessage::NbStatusReq {
                tid: tid(),
                from: SiteId(3),
            },
            TmMessage::NbStatus {
                tid: tid(),
                from: SiteId(3),
                state: NbSiteState::Replicated,
                info: Some(info()),
            },
            TmMessage::NbStatus {
                tid: tid(),
                from: SiteId(3),
                state: NbSiteState::Unknown,
                info: None,
            },
            TmMessage::NbAbortJoinReq {
                tid: tid(),
                from: SiteId(2),
            },
            TmMessage::NbAbortJoinResp {
                tid: tid(),
                from: SiteId(2),
                joined: true,
            },
            TmMessage::NbForget { tid: tid() },
            TmMessage::SubResolved {
                tid: tid(),
                outcome: Outcome::Committed,
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for m in all_messages() {
            let b = m.to_bytes();
            assert_eq!(TmMessage::from_bytes(&b).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn tid_accessor_consistent() {
        for m in all_messages() {
            assert_eq!(m.tid(), &tid());
        }
    }

    #[test]
    fn piggybackable_is_only_acks() {
        for m in all_messages() {
            let expect = matches!(
                m,
                TmMessage::CommitAck { .. } | TmMessage::NbOutcomeAck { .. }
            );
            assert_eq!(m.piggybackable(), expect, "{m:?}");
        }
    }

    #[test]
    fn envelope_roundtrips_with_piggyback() {
        let env = Envelope {
            src: SiteId(1),
            dst: SiteId(2),
            seq: 99,
            primary: TmMessage::Prepare {
                tid: tid(),
                coordinator: SiteId(1),
            },
            piggyback: vec![TmMessage::CommitAck {
                tid: tid(),
                from: SiteId(1),
            }],
        };
        let b = env.to_bytes();
        assert_eq!(Envelope::from_bytes(&b).unwrap(), env);
    }

    #[test]
    fn truncated_envelope_fails_cleanly() {
        let env = Envelope {
            src: SiteId(1),
            dst: SiteId(2),
            seq: 1,
            primary: TmMessage::Commit { tid: tid() },
            piggyback: vec![],
        };
        let b = env.to_bytes();
        for cut in 0..b.len() {
            assert!(Envelope::from_bytes(&b[..cut]).is_err());
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(TmMessage::from_bytes(&[99]).is_err());
        assert!(Vote::from_bytes(&[7]).is_err());
        assert!(Outcome::from_bytes(&[7]).is_err());
        assert!(NbSiteState::from_bytes(&[7]).is_err());
    }
}
