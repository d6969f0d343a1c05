//! Datagrams exchanged between transaction managers.
//!
//! One [`Envelope`] is one datagram on the wire. Besides its primary
//! message it can carry piggybacked messages — the delayed-commit
//! optimization sends commit acknowledgements "piggybacked" on later
//! traffic rather than paying a datagram of their own, and message
//! batching is explicitly restricted to messages *not* on the
//! critical path (paper §4.2).

use camelot_types::wire::{Reader, Wire, Writer};
use camelot_types::{CamelotError, Result, SiteId, Tid};

/// A participant's vote in phase one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// Update site, willing to commit (prepare record forced).
    Yes,
    /// Refuses; transaction must abort.
    No,
    /// Read-only site: votes and immediately drops locks; it is
    /// excluded from later phases (the read-only optimization).
    ReadOnly,
}

/// Final outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Committed,
    Aborted,
}

/// A site's protocol state, reported during non-blocking termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NbSiteState {
    /// Never heard of the transaction (or already forgot after
    /// resolution — under presumed abort this reads as aborted).
    Unknown,
    /// Prepared (voted yes) but holds no replicated decision info.
    Prepared,
    /// Holds the forced replication record: counts toward the commit
    /// quorum.
    Replicated,
    Committed,
    Aborted,
}

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

impl Wire for NbInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.sites);
        w.put_seq(&self.yes_votes);
        w.put_u32(self.commit_quorum);
        w.put_u32(self.abort_quorum);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(NbInfo {
            sites: r.get_seq()?,
            yes_votes: r.get_seq()?,
            commit_quorum: r.get_u32()?,
            abort_quorum: r.get_u32()?,
        })
    }
}

/// Messages between transaction managers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmMessage {
    // ----- Two-phase commitment (presumed abort) -----
    /// Phase one: coordinator asks a subordinate to prepare.
    Prepare { tid: Tid, coordinator: SiteId },
    /// Subordinate's vote.
    VoteMsg { tid: Tid, from: SiteId, vote: Vote },
    /// Phase two: commit notice.
    Commit { tid: Tid },
    /// Phase two: abort notice (also used by the abort protocol
    /// during execution).
    Abort { tid: Tid },
    /// Subordinate's acknowledgement that its commit record is
    /// durable; until it arrives the coordinator may not forget the
    /// transaction. Piggybackable.
    CommitAck { tid: Tid, from: SiteId },
    /// Recovery inquiry: a prepared subordinate asks the coordinator
    /// for the outcome.
    Inquire { tid: Tid, from: SiteId },
    /// Answer to an inquiry. Under presumed abort, "unknown
    /// transaction" is answered as `Aborted`.
    InquireResp { tid: Tid, outcome: Outcome },

    // ----- Non-blocking commitment -----
    /// Phase one. Carries the full site list and the quorum sizes
    /// (change 1 of §3.3), so any subordinate can later finish the
    /// protocol.
    NbPrepare {
        tid: Tid,
        coordinator: SiteId,
        info: NbInfo,
    },
    /// Subordinate's vote.
    NbVote { tid: Tid, from: SiteId, vote: Vote },
    /// Replication phase: the decision information to be forced into
    /// the subordinate's log.
    NbReplicate { tid: Tid, info: NbInfo },
    /// Subordinate's acknowledgement of the replication record.
    /// `joined` is true when the record was forced (the site now
    /// counts toward the commit quorum); false when the site refused
    /// because it already joined the abort quorum during termination.
    NbReplicateAck {
        tid: Tid,
        from: SiteId,
        joined: bool,
    },
    /// Phase three: the outcome notice.
    NbOutcome { tid: Tid, outcome: Outcome },
    /// Acknowledgement of the outcome (lets every site eventually
    /// forget — change 4 of §3.3).
    NbOutcomeAck { tid: Tid, from: SiteId },
    /// Termination protocol: a timed-out participant, acting as a new
    /// coordinator, asks for states.
    NbStatusReq { tid: Tid, from: SiteId },
    /// Termination protocol: state report, with the replication
    /// information if this site holds it (any prepared site knows the
    /// site list and quorum sizes from the prepare message — change 1
    /// of §3.3).
    NbStatus {
        tid: Tid,
        from: SiteId,
        state: NbSiteState,
        info: Option<NbInfo>,
    },
    /// Termination protocol: a takeover coordinator recruiting an
    /// abort quorum asks this site to irrevocably join it.
    NbAbortJoinReq { tid: Tid, from: SiteId },
    /// Reply: `joined` is false if the site already belongs to the
    /// commit quorum (a site never joins both — change 4 of §3.3).
    NbAbortJoinResp {
        tid: Tid,
        from: SiteId,
        joined: bool,
    },
    /// Coordinator's final note that every site has resolved the
    /// transaction; receivers may discard their tombstone (change 4:
    /// nobody forgets until all sites have committed or aborted).
    NbForget { tid: Tid },

    // ----- Nested transactions -----
    /// A *nested* transaction resolved at its home site; participant
    /// sites inherit (commit) or undo (abort) the subtree promptly
    /// rather than at family end.
    SubResolved { tid: Tid, outcome: Outcome },
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

    /// The message's wire-protocol name (trace events, diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TmMessage::Prepare { .. } => "Prepare",
            TmMessage::VoteMsg { .. } => "VoteMsg",
            TmMessage::Commit { .. } => "Commit",
            TmMessage::Abort { .. } => "Abort",
            TmMessage::CommitAck { .. } => "CommitAck",
            TmMessage::Inquire { .. } => "Inquire",
            TmMessage::InquireResp { .. } => "InquireResp",
            TmMessage::NbPrepare { .. } => "NbPrepare",
            TmMessage::NbVote { .. } => "NbVote",
            TmMessage::NbReplicate { .. } => "NbReplicate",
            TmMessage::NbReplicateAck { .. } => "NbReplicateAck",
            TmMessage::NbOutcome { .. } => "NbOutcome",
            TmMessage::NbOutcomeAck { .. } => "NbOutcomeAck",
            TmMessage::NbStatusReq { .. } => "NbStatusReq",
            TmMessage::NbStatus { .. } => "NbStatus",
            TmMessage::NbAbortJoinReq { .. } => "NbAbortJoinReq",
            TmMessage::NbAbortJoinResp { .. } => "NbAbortJoinResp",
            TmMessage::NbForget { .. } => "NbForget",
            TmMessage::SubResolved { .. } => "SubResolved",
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

impl Wire for Vote {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Vote::Yes => 0,
            Vote::No => 1,
            Vote::ReadOnly => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => Vote::Yes,
            1 => Vote::No,
            2 => Vote::ReadOnly,
            v => return Err(CamelotError::Codec(format!("bad vote {v}"))),
        })
    }
}

impl Wire for Outcome {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Outcome::Committed => 0,
            Outcome::Aborted => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => Outcome::Committed,
            1 => Outcome::Aborted,
            v => return Err(CamelotError::Codec(format!("bad outcome {v}"))),
        })
    }
}

impl Wire for NbSiteState {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            NbSiteState::Unknown => 0,
            NbSiteState::Prepared => 1,
            NbSiteState::Replicated => 2,
            NbSiteState::Committed => 3,
            NbSiteState::Aborted => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => NbSiteState::Unknown,
            1 => NbSiteState::Prepared,
            2 => NbSiteState::Replicated,
            3 => NbSiteState::Committed,
            4 => NbSiteState::Aborted,
            v => return Err(CamelotError::Codec(format!("bad site state {v}"))),
        })
    }
}

const T_PREPARE: u8 = 1;
const T_VOTE: u8 = 2;
const T_COMMIT: u8 = 3;
const T_ABORT: u8 = 4;
const T_COMMIT_ACK: u8 = 5;
const T_INQUIRE: u8 = 6;
const T_INQUIRE_RESP: u8 = 7;
const T_NB_PREPARE: u8 = 8;
const T_NB_VOTE: u8 = 9;
const T_NB_REPLICATE: u8 = 10;
const T_NB_REPLICATE_ACK: u8 = 11;
const T_NB_OUTCOME: u8 = 12;
const T_NB_OUTCOME_ACK: u8 = 13;
const T_NB_STATUS_REQ: u8 = 14;
const T_NB_STATUS: u8 = 15;
const T_NB_ABORT_JOIN_REQ: u8 = 16;
const T_NB_ABORT_JOIN_RESP: u8 = 17;
const T_NB_FORGET: u8 = 18;
const T_SUB_RESOLVED: u8 = 19;

impl Wire for TmMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            TmMessage::Prepare { tid, coordinator } => {
                w.put_u8(T_PREPARE);
                w.put(tid);
                w.put(coordinator);
            }
            TmMessage::VoteMsg { tid, from, vote } => {
                w.put_u8(T_VOTE);
                w.put(tid);
                w.put(from);
                w.put(vote);
            }
            TmMessage::Commit { tid } => {
                w.put_u8(T_COMMIT);
                w.put(tid);
            }
            TmMessage::Abort { tid } => {
                w.put_u8(T_ABORT);
                w.put(tid);
            }
            TmMessage::CommitAck { tid, from } => {
                w.put_u8(T_COMMIT_ACK);
                w.put(tid);
                w.put(from);
            }
            TmMessage::Inquire { tid, from } => {
                w.put_u8(T_INQUIRE);
                w.put(tid);
                w.put(from);
            }
            TmMessage::InquireResp { tid, outcome } => {
                w.put_u8(T_INQUIRE_RESP);
                w.put(tid);
                w.put(outcome);
            }
            TmMessage::NbPrepare {
                tid,
                coordinator,
                info,
            } => {
                w.put_u8(T_NB_PREPARE);
                w.put(tid);
                w.put(coordinator);
                w.put(info);
            }
            TmMessage::NbVote { tid, from, vote } => {
                w.put_u8(T_NB_VOTE);
                w.put(tid);
                w.put(from);
                w.put(vote);
            }
            TmMessage::NbReplicate { tid, info } => {
                w.put_u8(T_NB_REPLICATE);
                w.put(tid);
                w.put(info);
            }
            TmMessage::NbReplicateAck { tid, from, joined } => {
                w.put_u8(T_NB_REPLICATE_ACK);
                w.put(tid);
                w.put(from);
                w.put_bool(*joined);
            }
            TmMessage::NbOutcome { tid, outcome } => {
                w.put_u8(T_NB_OUTCOME);
                w.put(tid);
                w.put(outcome);
            }
            TmMessage::NbOutcomeAck { tid, from } => {
                w.put_u8(T_NB_OUTCOME_ACK);
                w.put(tid);
                w.put(from);
            }
            TmMessage::NbStatusReq { tid, from } => {
                w.put_u8(T_NB_STATUS_REQ);
                w.put(tid);
                w.put(from);
            }
            TmMessage::NbStatus {
                tid,
                from,
                state,
                info,
            } => {
                w.put_u8(T_NB_STATUS);
                w.put(tid);
                w.put(from);
                w.put(state);
                w.put(info);
            }
            TmMessage::NbAbortJoinReq { tid, from } => {
                w.put_u8(T_NB_ABORT_JOIN_REQ);
                w.put(tid);
                w.put(from);
            }
            TmMessage::NbAbortJoinResp { tid, from, joined } => {
                w.put_u8(T_NB_ABORT_JOIN_RESP);
                w.put(tid);
                w.put(from);
                w.put_bool(*joined);
            }
            TmMessage::NbForget { tid } => {
                w.put_u8(T_NB_FORGET);
                w.put(tid);
            }
            TmMessage::SubResolved { tid, outcome } => {
                w.put_u8(T_SUB_RESOLVED);
                w.put(tid);
                w.put(outcome);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            T_PREPARE => TmMessage::Prepare {
                tid: r.get()?,
                coordinator: r.get()?,
            },
            T_VOTE => TmMessage::VoteMsg {
                tid: r.get()?,
                from: r.get()?,
                vote: r.get()?,
            },
            T_COMMIT => TmMessage::Commit { tid: r.get()? },
            T_ABORT => TmMessage::Abort { tid: r.get()? },
            T_COMMIT_ACK => TmMessage::CommitAck {
                tid: r.get()?,
                from: r.get()?,
            },
            T_INQUIRE => TmMessage::Inquire {
                tid: r.get()?,
                from: r.get()?,
            },
            T_INQUIRE_RESP => TmMessage::InquireResp {
                tid: r.get()?,
                outcome: r.get()?,
            },
            T_NB_PREPARE => TmMessage::NbPrepare {
                tid: r.get()?,
                coordinator: r.get()?,
                info: r.get()?,
            },
            T_NB_VOTE => TmMessage::NbVote {
                tid: r.get()?,
                from: r.get()?,
                vote: r.get()?,
            },
            T_NB_REPLICATE => TmMessage::NbReplicate {
                tid: r.get()?,
                info: r.get()?,
            },
            T_NB_REPLICATE_ACK => TmMessage::NbReplicateAck {
                tid: r.get()?,
                from: r.get()?,
                joined: r.get_bool()?,
            },
            T_NB_OUTCOME => TmMessage::NbOutcome {
                tid: r.get()?,
                outcome: r.get()?,
            },
            T_NB_OUTCOME_ACK => TmMessage::NbOutcomeAck {
                tid: r.get()?,
                from: r.get()?,
            },
            T_NB_STATUS_REQ => TmMessage::NbStatusReq {
                tid: r.get()?,
                from: r.get()?,
            },
            T_NB_STATUS => TmMessage::NbStatus {
                tid: r.get()?,
                from: r.get()?,
                state: r.get()?,
                info: r.get()?,
            },
            T_NB_ABORT_JOIN_REQ => TmMessage::NbAbortJoinReq {
                tid: r.get()?,
                from: r.get()?,
            },
            T_NB_ABORT_JOIN_RESP => TmMessage::NbAbortJoinResp {
                tid: r.get()?,
                from: r.get()?,
                joined: r.get_bool()?,
            },
            T_NB_FORGET => TmMessage::NbForget { tid: r.get()? },
            T_SUB_RESOLVED => TmMessage::SubResolved {
                tid: r.get()?,
                outcome: r.get()?,
            },
            v => return Err(CamelotError::Codec(format!("unknown message tag {v}"))),
        })
    }
}

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

impl Wire for Envelope {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.src);
        w.put(&self.dst);
        w.put_u64(self.seq);
        w.put(&self.primary);
        w.put_seq(&self.piggyback);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Envelope {
            src: r.get()?,
            dst: r.get()?,
            seq: r.get_u64()?,
            primary: r.get()?,
            piggyback: r.get_seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
