//! Property-based tests of the storage substrate: WAL round trips,
//! torn-tail recovery, group-commit batcher invariants, the data
//! server's serializability under randomized interleavings, and the
//! equivalence of recovery from a truncated and an untruncated log.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use camelot::core::{shard_of_family, Engine, EngineConfig, Input};
use camelot::locks::{Acquire, LockManager, Mode};
use camelot::server::{DataServer, Request};
use camelot::types::{FamilyId, Lsn, ObjectId, ServerId, SiteId, Tid, Time, Wire};
use camelot::wal::record::{QuorumKind, ReplicationInfo};
use camelot::wal::{
    BatchPolicy, BatcherAction, GroupCommitBatcher, LogRecord, MemStore, ReqId, Wal,
};

fn any_tid() -> impl Strategy<Value = Tid> {
    (1u32..5, 1u64..100, prop::collection::vec(1u32..4, 0..3)).prop_map(|(origin, seq, path)| Tid {
        family: FamilyId {
            origin: SiteId(origin),
            seq,
        },
        path,
    })
}

fn any_record() -> impl Strategy<Value = LogRecord> {
    let tid = any_tid();
    prop_oneof![
        (any_tid(), 1u32..5).prop_map(|(tid, c)| LogRecord::Prepared {
            tid,
            coordinator: SiteId(c)
        }),
        (any_tid(), prop::collection::vec(1u32..6, 0..3)).prop_map(|(tid, subs)| {
            LogRecord::Commit {
                tid,
                subs: subs.into_iter().map(SiteId).collect(),
            }
        }),
        any_tid().prop_map(|tid| LogRecord::Abort { tid }),
        any_tid().prop_map(|tid| LogRecord::End { tid }),
        (any_tid(), any::<bool>()).prop_map(|(tid, k)| LogRecord::NbQuorum {
            tid,
            kind: if k {
                QuorumKind::Commit
            } else {
                QuorumKind::Abort
            },
        }),
        (
            tid,
            1u32..4,
            1u64..50,
            prop::collection::vec(any::<u8>(), 0..24),
            prop::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(tid, srv, obj, old, new)| LogRecord::ServerUpdate {
                tid,
                server: ServerId(srv),
                object: ObjectId(obj),
                old,
                new,
            }),
        (1u64..1000).prop_map(|next_family_seq| LogRecord::Checkpoint { next_family_seq }),
    ]
}

// ---------------------------------------------------------------------
// Truncation equivalence: a random site history, logged twice.
// ---------------------------------------------------------------------

const SITE: SiteId = SiteId(1);
const PEER: SiteId = SiteId(2);
const SRV: ServerId = ServerId(1);
const OBJECTS: u64 = 6;
const SHARDS: usize = 4;

/// The part a family plays at this site, which fixes the protocol
/// records it logs after its updates and the one that lets the
/// transaction manager forget it.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Commits (or aborts) locally: forgotten at the outcome record.
    Local { commit: bool },
    /// 2PC coordinator: remembered from commit until the end record.
    Coordinator,
    /// 2PC subordinate: in doubt from prepared until the outcome.
    Sub2pc { commit: bool },
    /// Non-blocking subordinate, optionally a replication-quorum member.
    SubNb { replicate: bool, commit: bool },
    /// Non-blocking coordinator: begin, commit, end.
    CoordNb,
}

fn any_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        any::<bool>().prop_map(|commit| Shape::Local { commit }),
        Just(Shape::Coordinator),
        any::<bool>().prop_map(|commit| Shape::Sub2pc { commit }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(replicate, commit)| Shape::SubNb { replicate, commit }),
        Just(Shape::CoordNb),
    ]
}

/// One step of the interleaved history.
#[derive(Debug, Clone)]
enum Event {
    /// Family `k` takes its next step (a write, then its protocol
    /// records in order); a no-op once it has logged everything.
    Advance(usize),
    Force,
    Checkpoint,
}

fn any_event(families: usize) -> impl Strategy<Value = Event> {
    prop_oneof![
        8 => (0..families).prop_map(Event::Advance),
        1 => Just(Event::Force),
        1 => Just(Event::Checkpoint),
    ]
}

fn info() -> ReplicationInfo {
    ReplicationInfo {
        sites: vec![SITE, PEER, SiteId(3)],
        yes_votes: vec![SITE, PEER],
        commit_quorum: 2,
        abort_quorum: 2,
    }
}

/// The protocol records of a family, after its updates.
fn protocol_records(shape: Shape, tid: &Tid) -> Vec<LogRecord> {
    let tid = tid.clone();
    let outcome = |commit: bool, subs: Vec<SiteId>| {
        if commit {
            LogRecord::Commit {
                tid: tid.clone(),
                subs,
            }
        } else {
            LogRecord::Abort { tid: tid.clone() }
        }
    };
    match shape {
        Shape::Local { commit } => vec![outcome(commit, vec![])],
        Shape::Coordinator => vec![
            outcome(true, vec![PEER]),
            LogRecord::End { tid: tid.clone() },
        ],
        Shape::Sub2pc { commit } => vec![
            LogRecord::Prepared {
                tid: tid.clone(),
                coordinator: PEER,
            },
            outcome(commit, vec![]),
        ],
        Shape::SubNb { replicate, commit } => {
            let mut recs = vec![LogRecord::NbPrepared {
                tid: tid.clone(),
                coordinator: PEER,
                sites: info().sites,
            }];
            if replicate {
                recs.push(LogRecord::NbReplicate {
                    tid: tid.clone(),
                    info: info(),
                });
            }
            recs.push(outcome(commit, vec![]));
            recs
        }
        Shape::CoordNb => vec![
            LogRecord::NbBegin {
                tid: tid.clone(),
                info: info(),
            },
            outcome(true, vec![PEER]),
            LogRecord::End { tid: tid.clone() },
        ],
    }
}

/// Two logs fed the same records; only one is ever truncated.
struct TwinLog {
    full: Wal<MemStore>,
    cut: Wal<MemStore>,
    /// The runtime's retention bookkeeping (`rt::disk::SiteLog`),
    /// restated: where each possibly-held family's records begin.
    first_lsn: BTreeMap<FamilyId, Lsn>,
}

impl TwinLog {
    fn append(&mut self, rec: &LogRecord) {
        let at = self.full.append(rec).unwrap();
        assert_eq!(
            self.cut.append(rec).unwrap(),
            at,
            "LSNs agree across truncation"
        );
        if let Some(tid) = rec.tid() {
            self.first_lsn.entry(tid.family).or_insert(at);
        }
    }

    fn force(&mut self) {
        self.full.force().unwrap();
        self.cut.force().unwrap();
    }

    /// A checkpoint as the disk manager writes it: snapshot, marker,
    /// force, then truncate to the lowest first LSN of a held family
    /// (or to where the checkpoint began).
    fn checkpoint(&mut self, server: &DataServer, held: &BTreeSet<FamilyId>, next_seq: u64) {
        let began_at = self.full.end_lsn();
        let snapshot = server.snapshot();
        self.full.append_encoded(&snapshot).unwrap();
        self.cut.append_encoded(&snapshot).unwrap();
        self.append(&LogRecord::Checkpoint {
            next_family_seq: next_seq,
        });
        self.force();
        self.first_lsn
            .retain(|family, lsn| *lsn >= began_at || held.contains(family));
        let floor = self.first_lsn.values().copied().fold(began_at, Lsn::min);
        self.cut.truncate_prefix(floor).unwrap();
    }
}

/// What a restart rebuilds, in comparable form: every object's
/// committed value, the in-doubt families, every lock holder, and each
/// engine shard's live families with role and phase (the content of
/// `Cluster::debug_state`).
type Recovered = (Vec<Vec<u8>>, Vec<FamilyId>, Vec<String>, Vec<String>);

fn recovered_state(wal: &mut Wal<MemStore>) -> Recovered {
    let records = wal.recover().unwrap();
    let recovered = camelot::server::recover(SITE, SRV, records.iter().map(|(_, rec)| rec));
    let server = recovered.server;
    let values = (0..OBJECTS)
        .map(|o| server.committed_value(ObjectId(o)).to_vec())
        .collect();
    let locks = (0..OBJECTS)
        .flat_map(|o| {
            server
                .locks()
                .holders(ObjectId(o))
                .into_iter()
                .map(move |h| (o, h))
        })
        .map(|(o, (tid, mode))| format!("obj{o}: {tid} {mode:?}"))
        .collect();
    let mut engines = Vec::new();
    for k in 0..SHARDS {
        let part = records.iter().filter(|(_, rec)| match rec.tid() {
            Some(tid) => shard_of_family(SITE, &tid.family, SHARDS) == k,
            None => matches!(rec, LogRecord::Checkpoint { .. }),
        });
        let (engine, _) =
            Engine::recover_sharded(SITE, EngineConfig::default(), k as u32, SHARDS as u32, part);
        for id in engine.family_ids() {
            let v = engine.family_view(&id).unwrap();
            engines.push(format!("shard {k}: {id} {} {:?}", v.role, v.phase));
        }
    }
    (values, recovered.in_doubt, locks, engines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every record round-trips through its wire encoding.
    #[test]
    fn record_codec_roundtrip(rec in any_record()) {
        let bytes = rec.to_bytes();
        prop_assert_eq!(LogRecord::from_bytes(&bytes).unwrap(), rec);
    }

    /// Appended+forced records always recover, in order; a crash
    /// discards exactly the unforced suffix.
    #[test]
    fn wal_crash_recovers_durable_prefix(
        recs in prop::collection::vec(any_record(), 1..20),
        force_at in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let mut wal = Wal::new(MemStore::new());
        let mut durable = Vec::new();
        let mut pending = Vec::new();
        for (rec, force) in recs.iter().zip(force_at.iter().chain(std::iter::repeat(&false))) {
            wal.append(rec).unwrap();
            pending.push(rec.clone());
            if *force {
                wal.force().unwrap();
                durable.append(&mut pending);
            }
        }
        wal.store_mut().crash();
        let recovered: Vec<LogRecord> =
            wal.recover().unwrap().into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(recovered, durable);
    }

    /// The group-commit batcher satisfies every request exactly once,
    /// with a monotone durable watermark, under any policy.
    #[test]
    fn batcher_satisfies_each_request_once(
        lsns in prop::collection::vec(1u64..1000, 1..30),
        policy in prop_oneof![
            Just(BatchPolicy::Immediate),
            Just(BatchPolicy::Coalesce),
            Just(BatchPolicy::Window(camelot::types::Duration::from_millis(10))),
        ],
    ) {
        let mut b = GroupCommitBatcher::new(policy);
        let mut satisfied: Vec<u64> = Vec::new();
        let mut writes_in_flight = 0u32;
        let mut timers: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut last_durable = Lsn(0);
        let handle = |actions: Vec<BatcherAction>,
                          satisfied: &mut Vec<u64>,
                          writes: &mut u32,
                          timers: &mut Vec<u64>,
                          last: &mut Lsn| {
            for a in actions {
                match a {
                    BatcherAction::StartWrite { .. } => {
                        assert_eq!(*writes, 0, "two writes in flight");
                        *writes += 1;
                    }
                    BatcherAction::SetTimer { epoch, .. } => timers.push(epoch),
                    BatcherAction::Satisfied { reqs, durable } => {
                        assert!(durable >= *last, "watermark went backwards");
                        *last = durable;
                        satisfied.extend(reqs.into_iter().map(|r| r.0));
                    }
                }
            }
        };
        for (i, lsn) in lsns.iter().enumerate() {
            now += 1;
            let acts = b.request(ReqId(i as u64), Lsn(*lsn), Time(now));
            handle(acts, &mut satisfied, &mut writes_in_flight, &mut timers, &mut last_durable);
            // Alternate completing writes and firing timers.
            if writes_in_flight > 0 && i % 2 == 0 {
                writes_in_flight -= 1;
                now += 1;
                let acts = b.write_complete(Time(now));
                handle(acts, &mut satisfied, &mut writes_in_flight, &mut timers, &mut last_durable);
            }
            let due = std::mem::take(&mut timers);
            for epoch in due {
                now += 1;
                let acts = b.timer_fired(epoch, Time(now));
                handle(acts, &mut satisfied, &mut writes_in_flight, &mut timers, &mut last_durable);
            }
        }
        // Drain: complete writes until everything is satisfied.
        let mut guard = 0;
        while satisfied.len() < lsns.len() && guard < 100 {
            guard += 1;
            now += 1;
            if writes_in_flight > 0 {
                writes_in_flight -= 1;
                let acts = b.write_complete(Time(now));
                handle(acts, &mut satisfied, &mut writes_in_flight, &mut timers, &mut last_durable);
            }
            let due = std::mem::take(&mut timers);
            for epoch in due {
                let acts = b.timer_fired(epoch, Time(now));
                handle(acts, &mut satisfied, &mut writes_in_flight, &mut timers, &mut last_durable);
            }
        }
        satisfied.sort_unstable();
        let expected: Vec<u64> = (0..lsns.len() as u64).collect();
        prop_assert_eq!(satisfied, expected, "each request exactly once");
    }

    /// Lock-manager invariant under random operations: at most one
    /// non-ancestor-related exclusive holder per object.
    #[test]
    fn lock_manager_never_grants_conflicting_exclusives(
        ops in prop::collection::vec(
            (1u64..5, 1u64..4, any::<bool>(), any::<bool>()), 1..60),
    ) {
        let mut lm = LockManager::new();
        let mut live: Vec<FamilyId> = Vec::new();
        for (fam_seq, obj, exclusive, release) in ops {
            let fam = FamilyId { origin: SiteId(1), seq: fam_seq };
            let tid = Tid::top_level(fam);
            if release {
                lm.release_family(fam);
                live.retain(|f| *f != fam);
            } else {
                let mode = if exclusive { Mode::Exclusive } else { Mode::Shared };
                if lm.acquire(ObjectId(obj), &tid, mode) == Acquire::Granted
                    && !live.contains(&fam)
                {
                    live.push(fam);
                }
            }
            // Invariant: for every object, the exclusive holders are
            // totally ordered by ancestry (here: distinct top-level
            // tids may never co-hold X).
            for o in 1..4u64 {
                let holders = lm.holders(ObjectId(o));
                let exclusives: Vec<_> = holders
                    .iter()
                    .filter(|(_, m)| *m == Mode::Exclusive)
                    .collect();
                for a in &exclusives {
                    for b in &holders {
                        if a.0 == b.0 { continue; }
                        prop_assert!(
                            a.0.is_ancestor_of(&b.0) || b.0.is_ancestor_of(&a.0),
                            "conflicting holders on obj{}: {} and {}", o, a.0, b.0
                        );
                    }
                }
            }
        }
    }

    /// Serializability smoke: interleaved read-modify-write increments
    /// through the data server sum exactly.
    #[test]
    fn server_increments_serialize(order in prop::collection::vec(0usize..3, 3..30)) {
        let mut server = DataServer::new(SiteId(1), ServerId(1));
        let obj = ObjectId(9);
        // Three "clients", each repeatedly: begin -> read -> write+1
        // -> commit, interleaved according to `order`. The lock
        // manager forces each full read-modify-write to serialize, so
        // we model each client as doing its RMW atomically when it can
        // acquire the lock, else skipping (abort).
        let mut committed = 0u64;
        let mut seq = 0u64;
        for k in order {
            seq += 1;
            let fam = FamilyId { origin: SiteId(1), seq };
            let tid = Tid::top_level(fam);
            let _ = k;
            let read = server.handle(Request::Read { req: seq * 10, tid: tid.clone(), object: obj });
            if read.blocked {
                server.abort_family(fam);
                continue;
            }
            let cur = read.replies[0].value.clone();
            let n = if cur.is_empty() { 0 } else { u64::from_le_bytes(cur.try_into().unwrap()) };
            let w = server.handle(Request::Write {
                req: seq * 10 + 1,
                tid: tid.clone(),
                object: obj,
                value: (n + 1).to_le_bytes().to_vec(),
            });
            if w.blocked {
                server.abort_family(fam);
                continue;
            }
            server.commit_family(fam);
            committed += 1;
        }
        let v = server.committed_value(obj);
        let total = if v.is_empty() { 0 } else { u64::from_le_bytes(v.try_into().unwrap()) };
        prop_assert_eq!(total, committed, "every committed increment counted once");
    }
    /// Truncation is invisible to recovery. A random history — families
    /// of every protocol shape interleaved, forces and checkpoints at
    /// random points, a crash at the end — is logged twice, and one
    /// log is truncated at every checkpoint by the runtime's rule.
    /// Recovering from either yields the same committed store, the
    /// same in-doubt families holding the same locks, and the same
    /// live families in every engine shard; and the engine recovered
    /// from the truncated log never hands out a spent family id.
    #[test]
    fn recovery_from_a_truncated_log_equals_recovery_from_the_whole_log(
        shapes in prop::collection::vec(any_shape(), 2..8),
        writes in prop::collection::vec((0..OBJECTS, any::<u8>()), 8..9),
        events in prop::collection::vec(any_event(8), 1..120),
    ) {
        let mut log = TwinLog {
            full: Wal::new(MemStore::new()),
            cut: Wal::new(MemStore::new()),
            first_lsn: BTreeMap::new(),
        };
        let mut server = DataServer::new(SITE, SRV);
        // Per family: its tid, the records still to log, whether the
        // transaction manager still remembers it.
        struct Fam { tid: Tid, wrote: bool, todo: Vec<LogRecord>, held: bool }
        let mut fams: Vec<Fam> = shapes.iter().enumerate().map(|(k, shape)| {
            let local = matches!(shape, Shape::Local { .. } | Shape::Coordinator | Shape::CoordNb);
            let tid = Tid::top_level(FamilyId {
                origin: if local { SITE } else { PEER },
                seq: k as u64 + 1,
            });
            let mut todo = protocol_records(*shape, &tid);
            todo.reverse();
            Fam { tid, wrote: false, todo, held: false }
        }).collect();
        // Strict two-phase locking, restated: an object belongs to the
        // family that wrote it until the server resolves that family.
        let mut owner: BTreeMap<u64, FamilyId> = BTreeMap::new();
        let mut req = 0u64;
        for event in events {
            match event {
                Event::Force => log.force(),
                Event::Checkpoint => {
                    let mut held: BTreeSet<FamilyId> = server.families().into_iter().collect();
                    held.extend(fams.iter().filter(|f| f.held).map(|f| f.tid.family));
                    log.checkpoint(&server, &held, fams.len() as u64 + 1);
                }
                Event::Advance(k) => {
                    let k = k % fams.len();
                    let fam = &mut fams[k];
                    let family = fam.tid.family;
                    if !fam.wrote {
                        // One step covers the join and the write.
                        fam.wrote = true;
                        fam.held = true;
                        let (object, byte) = writes[k];
                        if *owner.entry(object).or_insert(family) != family {
                            continue;
                        }
                        log.append(&LogRecord::ServerJoin { tid: fam.tid.clone(), server: SRV });
                        req += 1;
                        let fx = server.handle(Request::Write {
                            req,
                            tid: fam.tid.clone(),
                            object: ObjectId(object),
                            value: vec![byte, k as u8],
                        });
                        prop_assert!(!fx.blocked, "the ownership map mirrors the lock table");
                        for rec in &fx.log {
                            log.append(rec);
                        }
                        continue;
                    }
                    let Some(rec) = fam.todo.pop() else { continue };
                    log.append(&rec);
                    match &rec {
                        LogRecord::Commit { .. } => {
                            server.commit_family(family);
                            owner.retain(|_, f| *f != family);
                        }
                        LogRecord::Abort { .. } => {
                            server.abort_family(family);
                            owner.retain(|_, f| *f != family);
                        }
                        _ => {}
                    }
                    fam.held = !fam.todo.is_empty();
                }
            }
        }
        log.full.store_mut().crash();
        log.cut.store_mut().crash();
        prop_assert_eq!(log.full.end_lsn(), log.cut.end_lsn());
        prop_assert_eq!(recovered_state(&mut log.cut), recovered_state(&mut log.full));

        // Family ids stay unique across the truncation.
        let records = log.cut.recover().unwrap();
        let spent = records.iter().map(|(_, rec)| match rec {
            LogRecord::Checkpoint { next_family_seq } => next_family_seq - 1,
            rec => rec.tid().filter(|t| t.family.origin == SITE).map_or(0, |t| t.family.seq),
        }).max().unwrap_or(0);
        let (mut engine, _) = Engine::recover(SITE, EngineConfig::default(), &records);
        let began = engine.handle(Input::Begin { req: 1 }, Time::ZERO);
        let fresh = began.iter().find_map(|a| match a {
            camelot::core::Action::Began { tid, .. } => Some(tid.family.seq),
            _ => None,
        });
        prop_assert!(fresh > Some(spent), "began {:?} after {} was spent", fresh, spent);
    }
}
