//! Ladder rows: single-threaded timings of public calls into each
//! crate, from outside it. Each row runs five batches and keeps the
//! best (the least disturbed); values are ns per operation unless the
//! name carries another unit. The rows do not depend on the workload;
//! every traced run prints them so that a layer's cost sits next to
//! the end-to-end figures it should explain.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use camelot_core::testkit::Net;
use camelot_core::{Action, CommitMode, Engine, EngineConfig, Input, Vote};
use camelot_locks::{LockManager, Mode};
use camelot_net::msg::NbInfo;
use camelot_net::{
    decode_frame, encode_frame, Envelope, FaultPlan, SocketConfig, SocketMode, SocketTransport,
    TmMessage,
};
use camelot_node::app::AppSpec;
use camelot_node::config::WorldConfig;
use camelot_node::procs::{sibling_site_bin, SiteProc, SpawnSpec};
use camelot_node::world::World;
use camelot_obs::{AtomicHistogram, TraceEventKind, TraceRing, Tracer};
use camelot_server::{DataServer, Request};
use camelot_sim::Scheduler;
use camelot_types::wire::Wire;
use camelot_types::{FamilyId, Lsn, ObjectId, ServerId, SiteId, Tid, Time};
use camelot_wal::{
    BatchPolicy, FileStore, GroupCommitBatcher, LogRecord, MemStore, ReqId, StableStore, Wal,
};

use crate::round::SpanLog;
use crate::stats;

const BATCHES: usize = 5;

/// Best-of-[`BATCHES`] nanoseconds per call of `op`, `iters` calls per
/// batch.
fn best_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut n = 0u64;
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                n += 1;
                op(n);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn fam(seq: u64) -> FamilyId {
    FamilyId {
        origin: SiteId(1),
        seq,
    }
}

fn begin(engine: &mut Engine, req: u64) -> Tid {
    match engine.handle(Input::Begin { req }, Time::ZERO).first() {
        Some(Action::Began { tid, .. }) => tid.clone(),
        other => panic!("begin answered {other:?}"),
    }
}

/// One local commit through a bare engine, as `benches/micro.rs`
/// drives it: begin, join, commit, vote, and (for an update) the
/// completion of the force.
fn engine_commit(engine: &mut Engine, req: u64, vote: Vote) {
    let tid = begin(engine, req);
    let server = ServerId(1);
    engine.handle(
        Input::Join {
            tid: tid.clone(),
            server,
        },
        Time::ZERO,
    );
    engine.handle(
        Input::CommitTop {
            req,
            tid: tid.clone(),
            mode: CommitMode::TwoPhase,
            participants: vec![],
        },
        Time::ZERO,
    );
    for a in engine.handle(Input::ServerVote { tid, server, vote }, Time::ZERO) {
        if let Action::Force { token, .. } = a {
            black_box(engine.handle(Input::LogForced { token }, Time::ZERO));
        }
    }
}

/// Begin → update at all three sites → commit → drain, on the
/// instantaneous `core::testkit` network.
fn testkit_commit(net: &mut Net, mode: CommitMode) {
    let (home, subs) = (SiteId(1), vec![SiteId(2), SiteId(3)]);
    let tid = net.begin(home);
    for site in [home, subs[0], subs[1]] {
        net.update_op(site, ServerId(1), &tid);
    }
    black_box(net.commit(home, &tid, mode, subs));
    for site in [SiteId(1), SiteId(2), SiteId(3)] {
        net.flush_lazy(site);
    }
    net.events.clear();
}

fn commit_record() -> LogRecord {
    LogRecord::Commit {
        tid: Tid::top_level(fam(1)),
        subs: vec![SiteId(2), SiteId(3)],
    }
}

fn sample_envelope() -> Envelope {
    let tid = Tid::top_level(fam(42)).child(1);
    Envelope {
        src: SiteId(1),
        dst: SiteId(2),
        seq: 9,
        primary: TmMessage::NbPrepare {
            tid: tid.clone(),
            coordinator: SiteId(1),
            info: NbInfo {
                sites: vec![SiteId(1), SiteId(2), SiteId(3)],
                yes_votes: vec![SiteId(2)],
                commit_quorum: 2,
                abort_quorum: 2,
            },
        },
        piggyback: vec![TmMessage::CommitAck {
            tid,
            from: SiteId(2),
        }],
    }
}

/// Median round trip, µs, between two `SocketTransport`s on loopback:
/// send → recv → reply → recv, `trips` times.
fn socket_rtt_us(mode: SocketMode, trips: usize) -> Result<f64, String> {
    let quiet = || Arc::new(FaultPlan::disabled());
    let bind = |site: u32| {
        let mut cfg = SocketConfig::new(SiteId(site), mode);
        cfg.recv_timeout = StdDuration::from_millis(200);
        SocketTransport::bind(cfg, quiet(), Tracer::disabled())
            .map(Arc::new)
            .map_err(|e| format!("bind transport: {e}"))
    };
    let (a, b) = (bind(1)?, bind(2)?);
    a.set_peer(SiteId(2), b.local_addr());
    b.set_peer(SiteId(1), a.local_addr());
    let msg = || TmMessage::CommitAck {
        tid: Tid::top_level(fam(7)),
        from: SiteId(1),
    };
    let echo = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || {
            let mut echoed = 0;
            let started = Instant::now();
            while echoed < trips && started.elapsed() < StdDuration::from_secs(20) {
                if let Ok(Some(d)) = b.recv() {
                    for m in d.messages {
                        let _ = b.send(d.from, m, vec![]);
                        echoed += 1;
                    }
                }
            }
        })
    };
    let mut times = Vec::with_capacity(trips);
    let started = Instant::now();
    while times.len() < trips && started.elapsed() < StdDuration::from_secs(20) {
        let t = Instant::now();
        a.send(SiteId(2), msg(), vec![])
            .map_err(|e| format!("transport send: {e}"))?;
        // A pass that returns nothing fresh was an ack or a time-out.
        let reply_by = Instant::now() + StdDuration::from_secs(1);
        while Instant::now() < reply_by {
            if let Ok(Some(_)) = a.recv() {
                times.push(t.elapsed().as_secs_f64() * 1e6);
                break;
            }
        }
    }
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    if times.len() < trips {
        return Err(format!("only {} of {trips} round trips", times.len()));
    }
    Ok(stats::median(&times))
}

/// One live `camelot-site`: spawn time and ctrl round trips.
fn site_rows(work: &Path, calls: u64, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let bin = sibling_site_bin().map_err(|e| format!("site binary: {e}"))?;
    let log_dir = work.join("row-site");
    let _ = std::fs::remove_dir_all(&log_dir);
    let t = Instant::now();
    let mut site = SiteProc::spawn(&SpawnSpec {
        bin: &bin,
        site: SiteId(1),
        transport: "udp",
        log_dir: Some(&log_dir),
        fast: true,
        extra: &[],
    })
    .map_err(|e| format!("spawn site: {e}"))?;
    let rows = (|| {
        site.ctrl.ping().map_err(|e| format!("ctrl ping: {e}"))?;
        let spawn_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut pings = Vec::new();
        for _ in 0..calls {
            let t = Instant::now();
            site.ctrl.ping().map_err(|e| format!("ctrl ping: {e}"))?;
            pings.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut begins = Vec::new();
        for _ in 0..calls / 2 {
            let t = Instant::now();
            let tid = site.ctrl.begin().map_err(|e| format!("ctrl begin: {e}"))?;
            begins.push(t.elapsed().as_secs_f64() * 1e6);
            let _ = site.ctrl.abort(&tid, vec![]);
        }
        Ok::<_, String>([
            ("node.site_spawn_ms", spawn_ms),
            ("node.ctrl_ping_us", stats::median(&pings)),
            ("node.ctrl_begin_us", stats::median(&begins)),
        ])
    })();
    site.shutdown();
    let _ = std::fs::remove_dir_all(&log_dir);
    out.extend(rows?);
    Ok(())
}

/// Wall time per simulated three-site 2PC commit in the
/// discrete-event `node::world`, µs.
fn des_commit_wall_us() -> f64 {
    const REPS: u32 = 200;
    (0..BATCHES)
        .map(|seed| {
            let t = Instant::now();
            let cfg = WorldConfig::latency(3, EngineConfig::default(), seed as u64);
            let mut world = World::new(cfg);
            world.add_app(AppSpec::minimal(
                SiteId(1),
                &[SiteId(2), SiteId(3)],
                true,
                CommitMode::TwoPhase,
                REPS,
            ));
            let mut sched = Scheduler::new(seed as u64);
            world.start(&mut sched);
            assert!(world.run(&mut sched, Time(3_600_000_000)), "DES run ended");
            t.elapsed().as_secs_f64() * 1e6 / REPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs every ladder row. `work` is a scratch directory inside the
/// checkout (for the `FileStore` row and the live site's log);
/// `scale` shrinks every iteration count (`--quick`).
pub fn run(work: &Path, scale: f64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let it = |n: u64| ((n as f64 * scale) as u64).max(10);

    // core
    let mut engine = Engine::new(SiteId(1), EngineConfig::default());
    out.push((
        "core.engine_local_commit_ns",
        best_ns(it(5_000), |n| engine_commit(&mut engine, n, Vote::Yes)),
    ));
    let mut engine = Engine::new(SiteId(1), EngineConfig::default());
    out.push((
        "core.engine_readonly_commit_ns",
        best_ns(it(5_000), |n| engine_commit(&mut engine, n, Vote::ReadOnly)),
    ));
    for (name, mode) in [
        ("core.testkit_dist_2pc_ns", CommitMode::TwoPhase),
        ("core.testkit_dist_nb_ns", CommitMode::NonBlocking),
    ] {
        let mut net = Net::new(3, EngineConfig::default());
        out.push((name, best_ns(it(400), |_| testkit_commit(&mut net, mode))));
    }

    // wal
    let rec = commit_record();
    let mut wal = Wal::new(MemStore::new());
    out.push((
        "wal.append_ns",
        best_ns(it(50_000), |_| {
            black_box(wal.append(&rec).expect("append"));
        }),
    ));
    let mut wal = Wal::new(MemStore::new());
    out.push((
        "wal.append_force_mem_ns",
        best_ns(it(50_000), |_| {
            black_box(wal.append_force(&rec).expect("append_force"));
        }),
    ));
    let path = work.join("row-wal.log");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::new(FileStore::open(&path).map_err(|e| format!("file store: {e}"))?);
    out.push((
        "wal.append_force_file_us",
        best_ns(it(100), |_| {
            black_box(wal.append_force(&rec).expect("append_force"));
        }) / 1e3,
    ));
    drop(wal);
    let _ = std::fs::remove_file(&path);
    let mut batcher = GroupCommitBatcher::new(BatchPolicy::Coalesce);
    out.push((
        "wal.batcher_cycle_ns",
        best_ns(it(50_000), |n| {
            let base = n * 100;
            black_box(batcher.request(ReqId(base), Lsn(base), Time(n)));
            black_box(batcher.request(ReqId(base + 1), Lsn(base + 50), Time(n)));
            black_box(batcher.write_complete(Time(n)));
            if batcher.pending_len() > 0 {
                black_box(batcher.write_complete(Time(n)));
            }
        }),
    ));
    let mut wal = Wal::new(MemStore::new());
    for _ in 0..20_000 {
        wal.append(&rec).expect("append");
    }
    wal.force().expect("force");
    let image = wal.store_mut().durable_bytes().expect("image");
    let mut wal = Wal::new(MemStore::new());
    wal.store_mut().set_durable_bytes(&image).expect("image");
    out.push((
        "wal.recover_us_per_krecord",
        best_ns(1, |_| {
            assert_eq!(black_box(wal.recover().expect("recover")).len(), 20_000);
        }) / 1e3
            / 20.0,
    ));

    // locks
    let mut lm = LockManager::new();
    for (name, mode) in [
        ("locks.acquire_release_ns", Mode::Exclusive),
        ("locks.shared_acquire_ns", Mode::Shared),
    ] {
        out.push((
            name,
            best_ns(it(20_000), |n| {
                let tid = Tid::top_level(fam(n));
                for i in 0..8u64 {
                    black_box(lm.acquire(ObjectId(i), &tid, mode));
                }
                black_box(lm.release_family(tid.family));
            }) / 8.0,
        ));
    }

    // server: one read, one write and the family's commit per pass.
    let mut server = DataServer::new(SiteId(1), ServerId(1));
    let (mut read_ns, mut write_ns, mut commit_ns) = (0u128, 0u128, 0u128);
    let passes = it(20_000);
    for n in 1..=passes {
        let tid = Tid::top_level(fam(n));
        let object = ObjectId(n % 512);
        let t0 = Instant::now();
        black_box(server.handle(Request::Read {
            req: n,
            tid: tid.clone(),
            object,
        }));
        let t1 = Instant::now();
        black_box(server.handle(Request::Write {
            req: n,
            tid: tid.clone(),
            object,
            value: n.to_le_bytes().to_vec(),
        }));
        let t2 = Instant::now();
        black_box(server.commit_family(tid.family));
        read_ns += (t1 - t0).as_nanos();
        write_ns += (t2 - t1).as_nanos();
        commit_ns += t2.elapsed().as_nanos();
    }
    out.push(("server.read_ns", read_ns as f64 / passes as f64));
    out.push(("server.write_ns", write_ns as f64 / passes as f64));
    out.push(("server.commit_family_ns", commit_ns as f64 / passes as f64));

    // net
    let env = sample_envelope();
    let bytes = env.to_bytes();
    let frame = encode_frame(&bytes);
    out.push((
        "net.envelope_encode_ns",
        best_ns(it(50_000), |_| {
            black_box(black_box(&env).to_bytes());
        }),
    ));
    out.push((
        "net.envelope_decode_ns",
        best_ns(it(50_000), |_| {
            black_box(Envelope::from_bytes(black_box(&bytes)).expect("decode"));
        }),
    ));
    out.push((
        "net.frame_encode_ns",
        best_ns(it(50_000), |_| {
            black_box(encode_frame(black_box(&bytes)));
        }),
    ));
    out.push((
        "net.frame_decode_ns",
        best_ns(it(50_000), |_| {
            black_box(decode_frame(black_box(&frame)).expect("decode"));
        }),
    ));
    out.push((
        "net.udp_rtt_us",
        socket_rtt_us(SocketMode::Udp, it(2000) as usize)?,
    ));
    out.push((
        "net.tcp_rtt_us",
        socket_rtt_us(SocketMode::Tcp, it(2000) as usize)?,
    ));

    // node
    site_rows(work, it(500), &mut out)?;
    out.push(("node.des_commit_wall_us", des_commit_wall_us()));

    // obs
    let hist = AtomicHistogram::default();
    out.push((
        "obs.hist_record_ns",
        best_ns(it(200_000), |n| hist.record_us(n & 0xFFFF)),
    ));
    let ring = TraceRing::new(SiteId(1), 1 << 12, Instant::now());
    out.push((
        "obs.trace_emit_ns",
        best_ns(it(100_000), |n| {
            ring.emit(Some(fam(n)), TraceEventKind::Restart);
        }),
    ));

    // sim: schedule + pop.
    let events = it(100_000);
    let per_event = (0..BATCHES)
        .map(|_| {
            let mut sched: Scheduler<u64> = Scheduler::new(1);
            let t = Instant::now();
            for i in 0..events {
                sched.at(Time(i % 977), Box::new(|m: &mut u64, _| *m += 1));
            }
            let mut fired = 0u64;
            sched.run(&mut fired);
            assert_eq!(fired, events);
            t.elapsed().as_secs_f64() / events as f64
        })
        .fold(f64::INFINITY, f64::min);
    out.push(("sim.sched_events_per_s", 1.0 / per_event));

    // bench: the instrument's own span cost.
    let mut log = SpanLog::new(Instant::now(), true, 0);
    out.push((
        "bench.driver_span_ns",
        best_ns(it(100_000), |_| {
            let s = log.open("row", None);
            log.close(s, None);
        }),
    ));
    Ok(out)
}
