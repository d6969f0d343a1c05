//! Golden byte vectors for the two formats a site cannot change
//! casually: its log and its protocol.
//!
//! `proptest_wire` and the crates' own unit tests check that every
//! codec round-trips, which a *symmetric* slip passes: two fields
//! swapped in both `encode` and `decode`, or a tag renumbered in both.
//! Such a slip silently changes the WAL's on-disk format and the
//! cross-process protocol. This file pins the bytes: one fixed sample
//! value for every message, record, ctrl request and ctrl reply kind
//! and for every struct they carry, with its encoding written out
//! field by field (little-endian integers, `u32` length prefixes).
//!
//! Rule: a failure here is a format change. An old log must still be
//! readable and an old process must still interoperate, so never edit
//! a vector in a commit that also edits a codec; a new kind adds one
//! vector and one tag to the sets below.

use std::collections::BTreeMap;
use std::fmt::Debug;

use camelot::net::msg::NbInfo;
use camelot::net::{
    encode_frame, Envelope, FaultStats, NbSiteState, Outcome, TmMessage, TransportStats, Vote,
};
use camelot::node::ctrl::RestartEntry;
use camelot::node::{CtrlReply, CtrlRequest, PeerEntry};
use camelot::types::wire::Wire;
use camelot::types::{CamelotError, CrashPoint, FamilyId, ObjectId, ServerId, SiteId, Tid};
use camelot::wal::record::{encode_snapshot, QuorumKind, ReplicationInfo};
use camelot::wal::RecordBody;

/// Parses hex digits, ignoring the whitespace that groups them by
/// field.
fn hex(parts: &[&str]) -> Vec<u8> {
    let digits: Vec<u8> = parts
        .iter()
        .flat_map(|p| p.bytes())
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    assert_eq!(digits.len() % 2, 0, "odd number of hex digits");
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// `value` encodes to exactly `golden`, `golden` decodes to exactly
/// `value`, every proper prefix is a typed error and so is a trailing
/// byte.
fn pin<T: Wire + PartialEq + Debug>(value: T, golden: &[&str]) {
    let bytes = hex(golden);
    assert_eq!(value.to_bytes(), bytes, "encoding of {value:?}");
    assert_eq!(
        T::from_bytes(&bytes).expect("golden bytes decode"),
        value,
        "decoding of {value:?}"
    );
    for cut in 0..bytes.len() {
        match T::from_bytes(&bytes[..cut]) {
            Err(CamelotError::Codec(_)) => {}
            other => panic!("{cut}-byte prefix of {value:?} decoded to {other:?}"),
        }
    }
    let mut long = bytes;
    long.push(0);
    match T::from_bytes(&long) {
        Err(CamelotError::Codec(detail)) => assert_eq!(detail, "1 trailing bytes"),
        other => panic!("{value:?} plus a byte decoded to {other:?}"),
    }
}

/// `bytes` is refused with exactly this `Codec` text.
fn refused<T: Wire + Debug>(bytes: &[&str], text: &str) {
    match T::from_bytes(&hex(bytes)) {
        Err(CamelotError::Codec(detail)) => assert_eq!(detail, text),
        other => panic!("expected `{text}`, got {other:?}"),
    }
}

/// The first bytes `T` accepts: every byte that is not refused as
/// `"{unknown} {byte}"`.
fn tags<T: Wire + Debug>(unknown: &str) -> Vec<u8> {
    (0..=u8::MAX)
        .filter(|t| {
            !matches!(T::from_bytes(&[*t]),
                Err(CamelotError::Codec(detail)) if detail == format!("{unknown} {t}"))
        })
        .collect()
}

/// Family 0x0a0b0c of site 0x0102, nested at path 3.4.
fn tid() -> Tid {
    Tid {
        family: FamilyId {
            origin: SiteId(0x0102),
            seq: 0x0a0b0c,
        },
        path: vec![3, 4],
    }
}

/// origin, seq, path length, path.
const TID: &str = "02010000 0c0b0a0000000000 02000000 03000000 04000000";

/// sites [1, 2, 3], yes_votes [2, 3], commit_quorum 2, abort_quorum 5
/// — the layout `NbInfo` (net) and `ReplicationInfo` (wal) share.
const INFO: &str = "03000000 01000000 02000000 03000000  02000000 02000000 03000000 \
                    02000000  05000000";

fn nb_info() -> NbInfo {
    NbInfo {
        sites: vec![SiteId(1), SiteId(2), SiteId(3)],
        yes_votes: vec![SiteId(2), SiteId(3)],
        commit_quorum: 2,
        abort_quorum: 5,
    }
}

fn replication_info() -> ReplicationInfo {
    ReplicationInfo {
        sites: vec![SiteId(1), SiteId(2), SiteId(3)],
        yes_votes: vec![SiteId(2), SiteId(3)],
        commit_quorum: 2,
        abort_quorum: 5,
    }
}

#[test]
fn vote_outcome_and_site_state_bytes() {
    pin(Vote::Yes, &["00"]);
    pin(Vote::No, &["01"]);
    pin(Vote::ReadOnly, &["02"]);
    assert_eq!(tags::<Vote>("bad vote"), [0, 1, 2]);
    refused::<Vote>(&["07"], "bad vote 7");

    pin(Outcome::Committed, &["00"]);
    pin(Outcome::Aborted, &["01"]);
    assert_eq!(tags::<Outcome>("bad outcome"), [0, 1]);
    refused::<Outcome>(&["07"], "bad outcome 7");

    pin(NbSiteState::Unknown, &["00"]);
    pin(NbSiteState::Prepared, &["01"]);
    pin(NbSiteState::Replicated, &["02"]);
    pin(NbSiteState::Committed, &["03"]);
    pin(NbSiteState::Aborted, &["04"]);
    assert_eq!(tags::<NbSiteState>("bad site state"), [0, 1, 2, 3, 4]);
    refused::<NbSiteState>(&["07"], "bad site state 7");
}

#[test]
fn every_message_kind_bytes() {
    pin(nb_info(), &[INFO]);
    pin(
        TmMessage::Prepare {
            tid: tid(),
            coordinator: SiteId(7),
        },
        &["01", TID, "07000000"],
    );
    pin(
        TmMessage::VoteMsg {
            tid: tid(),
            from: SiteId(8),
            vote: Vote::ReadOnly,
        },
        &["02", TID, "08000000", "02"],
    );
    pin(TmMessage::Commit { tid: tid() }, &["03", TID]);
    pin(TmMessage::Abort { tid: tid() }, &["04", TID]);
    pin(
        TmMessage::CommitAck {
            tid: tid(),
            from: SiteId(9),
        },
        &["05", TID, "09000000"],
    );
    pin(
        TmMessage::Inquire {
            tid: tid(),
            from: SiteId(10),
        },
        &["06", TID, "0a000000"],
    );
    pin(
        TmMessage::InquireResp {
            tid: tid(),
            outcome: Outcome::Aborted,
        },
        &["07", TID, "01"],
    );
    pin(
        TmMessage::NbPrepare {
            tid: tid(),
            coordinator: SiteId(7),
            info: nb_info(),
        },
        &["08", TID, "07000000", INFO],
    );
    pin(
        TmMessage::NbVote {
            tid: tid(),
            from: SiteId(8),
            vote: Vote::No,
        },
        &["09", TID, "08000000", "01"],
    );
    pin(
        TmMessage::NbReplicate {
            tid: tid(),
            info: nb_info(),
        },
        &["0a", TID, INFO],
    );
    pin(
        TmMessage::NbReplicateAck {
            tid: tid(),
            from: SiteId(8),
            joined: true,
        },
        &["0b", TID, "08000000", "01"],
    );
    pin(
        TmMessage::NbOutcome {
            tid: tid(),
            outcome: Outcome::Committed,
        },
        &["0c", TID, "00"],
    );
    pin(
        TmMessage::NbOutcomeAck {
            tid: tid(),
            from: SiteId(8),
        },
        &["0d", TID, "08000000"],
    );
    pin(
        TmMessage::NbStatusReq {
            tid: tid(),
            from: SiteId(8),
        },
        &["0e", TID, "08000000"],
    );
    pin(
        TmMessage::NbStatus {
            tid: tid(),
            from: SiteId(8),
            state: NbSiteState::Replicated,
            info: Some(nb_info()),
        },
        &["0f", TID, "08000000", "02", "01", INFO],
    );
    pin(
        TmMessage::NbStatus {
            tid: tid(),
            from: SiteId(8),
            state: NbSiteState::Unknown,
            info: None,
        },
        &["0f", TID, "08000000", "00", "00"],
    );
    pin(
        TmMessage::NbAbortJoinReq {
            tid: tid(),
            from: SiteId(8),
        },
        &["10", TID, "08000000"],
    );
    pin(
        TmMessage::NbAbortJoinResp {
            tid: tid(),
            from: SiteId(8),
            joined: false,
        },
        &["11", TID, "08000000", "00"],
    );
    pin(TmMessage::NbForget { tid: tid() }, &["12", TID]);
    pin(
        TmMessage::SubResolved {
            tid: tid(),
            outcome: Outcome::Aborted,
        },
        &["13", TID, "01"],
    );

    assert_eq!(
        tags::<TmMessage>("unknown message tag"),
        (1..=19).collect::<Vec<u8>>()
    );
    refused::<TmMessage>(&["63"], "unknown message tag 99");
    refused::<TmMessage>(&["0b", TID, "08000000", "02"], "invalid bool byte 2");
    refused::<TmMessage>(&["0f", TID, "08000000", "02", "02"], "invalid option tag 2");
}

#[test]
fn message_kind_names_are_the_variant_names() {
    let m = TmMessage::NbAbortJoinResp {
        tid: tid(),
        from: SiteId(8),
        joined: false,
    };
    assert_eq!(m.kind_name(), "NbAbortJoinResp");
    assert_eq!(TmMessage::Commit { tid: tid() }.kind_name(), "Commit");
    assert_eq!(m.tid(), &tid());
}

#[test]
fn envelope_and_socket_frame_bytes() {
    let env = Envelope {
        src: SiteId(1),
        dst: SiteId(2),
        seq: 0x63,
        primary: TmMessage::Commit { tid: tid() },
        piggyback: vec![TmMessage::CommitAck {
            tid: tid(),
            from: SiteId(2),
        }],
    };
    // src, dst, seq, primary, piggyback count, piggyback.
    let golden = [
        "01000000 02000000 6300000000000000",
        "03",
        TID,
        "01000000",
        "05",
        TID,
        "02000000",
    ];
    pin(env, &golden);

    // magic "CMLT", version, flags, payload length, crc32, payload.
    assert_eq!(
        encode_frame(b"123456789"),
        hex(&["434d4c54 01 00 09000000 2639f4cb 313233343536373839"])
    );
    // The log's frame: payload length, crc32, payload.
    assert_eq!(
        camelot::wal::codec::frame(b"123456789"),
        hex(&["09000000 2639f4cb 313233343536373839"])
    );
}

#[test]
fn transport_and_fault_stats_bytes() {
    pin(
        TransportStats {
            sends: 1,
            send_failures: 2,
            connects: 3,
            connect_failures: 4,
            enqueued: 5,
            queue_drops: 6,
            queue_depth: 7,
            max_queue_depth: 8,
        },
        &[TRANSPORT_STATS],
    );
    pin(
        FaultStats {
            drops: 1,
            delays: 2,
            duplicates: 3,
            crashes: 4,
            partition_drops: 5,
            skewed_timers: 6,
        },
        &[FAULT_STATS],
    );
}

const TRANSPORT_STATS: &str = "0100000000000000 0200000000000000 0300000000000000 \
     0400000000000000 0500000000000000 0600000000000000 0700000000000000 0800000000000000";

const FAULT_STATS: &str = "0100000000000000 0200000000000000 0300000000000000 \
     0400000000000000 0500000000000000 0600000000000000";

#[test]
fn every_record_kind_bytes() {
    pin(replication_info(), &[INFO]);
    pin(
        RecordBody::Prepared {
            tid: tid(),
            coordinator: SiteId(7),
        },
        &["01", TID, "07000000"],
    );
    pin(
        RecordBody::Commit {
            tid: tid(),
            subs: vec![SiteId(2), SiteId(3)],
        },
        &["02", TID, "02000000 02000000 03000000"],
    );
    pin(RecordBody::Abort { tid: tid() }, &["03", TID]);
    pin(RecordBody::End { tid: tid() }, &["04", TID]);
    pin(
        RecordBody::NbBegin {
            tid: tid(),
            info: replication_info(),
        },
        &["05", TID, INFO],
    );
    pin(
        RecordBody::NbPrepared {
            tid: tid(),
            coordinator: SiteId(7),
            sites: vec![SiteId(1), SiteId(2)],
        },
        &["06", TID, "07000000", "02000000 01000000 02000000"],
    );
    pin(
        RecordBody::NbReplicate {
            tid: tid(),
            info: replication_info(),
        },
        &["07", TID, INFO],
    );
    pin(
        RecordBody::NbQuorum {
            tid: tid(),
            kind: QuorumKind::Commit,
        },
        &["08", TID, "00"],
    );
    pin(
        RecordBody::NbQuorum {
            tid: tid(),
            kind: QuorumKind::Abort,
        },
        &["08", TID, "01"],
    );
    pin(
        RecordBody::ServerJoin {
            tid: tid(),
            server: ServerId(5),
        },
        &["09", TID, "05000000"],
    );
    pin(
        RecordBody::ServerUpdate {
            tid: tid(),
            server: ServerId(5),
            object: ObjectId(0x11),
            old: vec![1, 2],
            new: vec![3, 4, 5],
        },
        &[
            "0a",
            TID,
            "05000000 1100000000000000",
            "02000000 0102",
            "03000000 030405",
        ],
    );
    pin(
        RecordBody::Checkpoint {
            next_family_seq: 0x4d,
        },
        &["0b", "4d00000000000000"],
    );
    pin(
        RecordBody::ServerSnapshot {
            server: ServerId(5),
            objects: vec![(ObjectId(1), vec![9, 9]), (ObjectId(2), vec![])],
        },
        &SNAPSHOT,
    );

    assert_eq!(
        tags::<RecordBody>("unknown record tag"),
        (1..=12).collect::<Vec<u8>>()
    );
    refused::<RecordBody>(&["c8"], "unknown record tag 200");
    refused::<RecordBody>(&["08", TID, "09"], "bad quorum kind 9");
}

/// tag, server, object count, then (object, value length, value) each.
const SNAPSHOT: [&str; 5] = [
    "0c",
    "05000000",
    "02000000",
    "0100000000000000 02000000 0909",
    "0200000000000000 00000000",
];

#[test]
fn a_snapshot_streamed_from_the_map_is_the_snapshot_record() {
    let map = BTreeMap::from([(ObjectId(1), vec![9, 9]), (ObjectId(2), vec![])]);
    let streamed = encode_snapshot(ServerId(5), map.iter());
    assert_eq!(streamed, hex(&SNAPSHOT));
    let record = RecordBody::ServerSnapshot {
        server: ServerId(5),
        objects: map.into_iter().collect(),
    };
    assert_eq!(streamed, record.to_bytes());
}

#[test]
fn every_ctrl_request_kind_bytes() {
    let peer = |site, addr: &str| PeerEntry {
        site: SiteId(site),
        addr: addr.into(),
    };
    // site, address length, address.
    pin(peer(1, "a:1"), &["01000000 03000000 613a31"]);

    pin(CtrlRequest::Ping, &["01"]);
    pin(
        CtrlRequest::Peers {
            peers: vec![peer(1, "a:1"), peer(2, "b:22")],
        },
        &[
            "02",
            "02000000",
            "01000000 03000000 613a31",
            "02000000 04000000 623a3232",
        ],
    );
    pin(CtrlRequest::Begin, &["03"]);
    pin(
        CtrlRequest::Read {
            tid: tid(),
            server: ServerId(5),
            object: ObjectId(0x11),
        },
        &["04", TID, "05000000 1100000000000000"],
    );
    pin(
        CtrlRequest::Write {
            tid: tid(),
            server: ServerId(5),
            object: ObjectId(0x11),
            value: vec![1, 2, 3],
        },
        &["05", TID, "05000000 1100000000000000", "03000000 010203"],
    );
    pin(
        CtrlRequest::Commit {
            tid: tid(),
            nonblocking: true,
            participants: vec![SiteId(2), SiteId(3)],
        },
        &["06", TID, "01", "02000000 02000000 03000000"],
    );
    pin(
        CtrlRequest::Abort {
            tid: tid(),
            participants: vec![SiteId(3)],
        },
        &["07", TID, "01000000 03000000"],
    );
    pin(
        CtrlRequest::CommittedValue {
            server: ServerId(5),
            object: ObjectId(0x11),
        },
        &["08", "05000000 1100000000000000"],
    );
    pin(CtrlRequest::DebugState, &["09"]);
    let points = [
        (CrashPoint::PreForce, "00"),
        (CrashPoint::PostForcePreSend, "01"),
        (CrashPoint::MidPlatterWrite, "02"),
        (CrashPoint::QueueMidBurst, "03"),
        (CrashPoint::QueueParkedPrepare, "04"),
        (CrashPoint::MidCheckpoint, "05"),
        (CrashPoint::MidTruncate, "06"),
        (CrashPoint::MidRecovery, "07"),
    ];
    assert_eq!(points.map(|(p, _)| p), CrashPoint::ALL);
    for (point, byte) in points {
        pin(CtrlRequest::ArmCrash { point }, &["0a", byte]);
    }
    pin(CtrlRequest::Heal, &["0b"]);
    pin(CtrlRequest::Shutdown, &["0d"]);
    pin(CtrlRequest::TransportStats, &["0e"]);
    pin(CtrlRequest::FaultStats, &["0f"]);
    pin(
        CtrlRequest::Partition {
            a: vec![SiteId(1), SiteId(2)],
            b: vec![SiteId(3)],
        },
        &["10", "02000000 01000000 02000000", "01000000 03000000"],
    );
    pin(
        CtrlRequest::SetSkew {
            site: SiteId(2),
            per_mille: 1500,
        },
        &["11", "02000000", "dc050000"],
    );
    pin(CtrlRequest::RestartStats, &["12"]);
    pin(CtrlRequest::PhaseStats, &["13"]);
    pin(CtrlRequest::EngineStats, &["14"]);
    pin(
        CtrlRequest::DrainTraceChunk { max_events: 2048 },
        &["15", "00080000"],
    );
    pin(
        CtrlRequest::FillTrace { events: 20000 },
        &["16", "204e0000"],
    );

    // 12 was `DrainTrace`; retired, never reused.
    assert_eq!(
        tags::<CtrlRequest>("unknown ctrl request"),
        (1..=22).filter(|t| *t != 12).collect::<Vec<u8>>()
    );
    refused::<CtrlRequest>(&["0c"], "unknown ctrl request 12");
    refused::<CtrlRequest>(&["00"], "unknown ctrl request 0");
    refused::<CtrlRequest>(&["0a", "4d"], "bad crash point 77");
}

/// No buckets, sum 0, max 0.
const EMPTY_HIST: &str = "00 0000000000000000 0000000000000000 ";

#[test]
fn every_ctrl_reply_kind_bytes() {
    // site, restarts.
    pin(
        RestartEntry {
            site: SiteId(2),
            restarts: 3,
        },
        &["02000000 03000000"],
    );

    pin(CtrlReply::Ok, &["01"]);
    pin(CtrlReply::Pong { site: SiteId(3) }, &["02", "03000000"]);
    pin(CtrlReply::Began { tid: tid() }, &["03", TID]);
    pin(
        CtrlReply::Value {
            value: vec![7, 7, 7],
        },
        &["04", "03000000 070707"],
    );
    pin(CtrlReply::Outcome { committed: true }, &["05", "01"]);
    pin(CtrlReply::Outcome { committed: false }, &["05", "00"]);
    pin(
        CtrlReply::State { dump: "s1".into() },
        &["06", "02000000 7331"],
    );
    pin(
        CtrlReply::Trace {
            jsonl: "{}\n".into(),
        },
        &["07", "03000000 7b7d0a"],
    );
    pin(
        CtrlReply::Err {
            detail: "no".into(),
        },
        &["08", "02000000 6e6f"],
    );
    pin(
        CtrlReply::Transport {
            stats: TransportStats {
                sends: 1,
                send_failures: 2,
                connects: 3,
                connect_failures: 4,
                enqueued: 5,
                queue_drops: 6,
                queue_depth: 7,
                max_queue_depth: 8,
            },
        },
        &["09", TRANSPORT_STATS],
    );
    pin(
        CtrlReply::Fault {
            stats: FaultStats {
                drops: 1,
                delays: 2,
                duplicates: 3,
                crashes: 4,
                partition_drops: 5,
                skewed_timers: 6,
            },
        },
        &["0a", FAULT_STATS],
    );
    pin(
        CtrlReply::Restarts {
            counts: vec![
                RestartEntry {
                    site: SiteId(1),
                    restarts: 0,
                },
                RestartEntry {
                    site: SiteId(2),
                    restarts: 3,
                },
            ],
        },
        &["0b", "02000000", "01000000 00000000", "02000000 03000000"],
    );

    // Twelve phase histograms, then five protocols of twelve. One
    // 5 µs `begin_call` sample (bucket 3) in the plain set and one
    // 9 µs `commit_2pc` sample (bucket 4) under the second protocol
    // tell the two fields apart; every other histogram is empty.
    let empty = |n: usize| EMPTY_HIST.repeat(n);
    let phases = [
        "01 03 0100000000000000 0500000000000000 0500000000000000",
        &empty(11),
    ]
    .concat();
    let proto = [
        &empty(12 + 2),
        "01 04 0100000000000000 0900000000000000 0900000000000000",
        &empty(9 + 3 * 12),
    ]
    .concat();
    pin(
        CtrlReply::Phases {
            phases: Box::new(Wire::from_bytes(&hex(&[&phases])).expect("a phase snapshot")),
            proto: Box::new(Wire::from_bytes(&hex(&[&proto])).expect("five phase snapshots")),
        },
        &["0c", &phases, &proto],
    );

    // The site, then counter `i` of the 39 holding `1000 + i`: the
    // order of the names is pinned beside `site_stats_wire!`.
    let counters: String = (0..39u64)
        .flat_map(|i| (1000 + i).to_le_bytes())
        .map(|b| format!("{b:02x}"))
        .collect();
    let stats = ["02000000", counters.as_str()];
    pin(
        CtrlReply::Engine {
            stats: Box::new(Wire::from_bytes(&hex(&stats)).expect("a site and 39 counters")),
        },
        &["0d", stats[0], stats[1]],
    );

    assert_eq!(
        tags::<CtrlReply>("unknown ctrl reply"),
        (1..=13).collect::<Vec<u8>>()
    );
    refused::<CtrlReply>(&["63"], "unknown ctrl reply 99");
}
