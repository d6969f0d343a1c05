//! One Camelot site as a standalone OS process.
//!
//! Runs the runtime of one site process (`camelot_rt::Cluster::new_site`)
//! — engine shards, data servers, WAL (optionally file-backed),
//! pipelined disk manager, tracer — which moves inter-TranMan traffic
//! over real kernel sockets through the `camelot_net::SocketTransport`
//! it binds.
//!
//! On startup the process binds two OS-assigned localhost ports (the
//! UDP/TCP *data* socket and a TCP *control* socket), then prints one
//! handshake line on stdout:
//!
//! ```text
//! ready site=2 data=127.0.0.1:41234 ctrl=127.0.0.1:41235
//! ```
//!
//! The supervisor (`camelot_node::procs`) reads the handshake and
//! distributes the data addresses with a `Peers` control request; its
//! harness drives transactions over the control protocol
//! (`camelot_node::ctrl`).
//!
//! Crash points armed over the control socket kill the site inside
//! the runtime; a watchdog notices and turns that into a real process
//! exit (status 3), so "kill a subordinate mid-prepare" in a test is
//! an actual process death. With a `--log-dir`, the watchdog first
//! writes the site's drained trace ring there as `crash-trace.jsonl`,
//! which the supervisor collects when it reaps the exit. Restarting
//! means spawning a fresh process on the same `--log-dir`: recovery
//! rebuilds the site from the log, and a fresh sequence base keeps
//! peers from mistaking the new incarnation's datagrams for replays.

use std::io::Write as IoWrite;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::thread;
use std::time::Duration as StdDuration;

use camelot_core::CommitMode;
use camelot_net::{FaultPlan, FrameDecoder, SocketConfig, SocketMode};
use camelot_node::ctrl::{
    read_framed, write_framed, CtrlReply, CtrlRequest, Handshake, SiteStatsWire,
};
use camelot_node::procs::CRASH_TRACE;
use camelot_rt::{Client, Cluster, RtConfig, TraceEventKind};
use camelot_types::flags::{Row, Tool, REQUIRED, SWITCH};
use camelot_types::{CamelotError, FamilyId, SiteId};

#[rustfmt::skip]
const FLAGS: &[Row] = &[
    ("--site", "N", REQUIRED, "this site's id, counted from 1"),
    ("--transport", "udp|tcp", "udp", "data-plane socket kind"),
    ("--log-dir", "DIR", "", "keep the WAL in DIR (else in memory)"),
    ("--fast", SWITCH, "", "the short engine timeouts of tests and benches"),
    ("--call-timeout-ms", "MS", "30000", "longest an application call blocks"),
    ("--trace-capacity", "N", "", "trace ring events (else the runtime's default)"),
    ("--fault-seed", "N", "1", "seed of the link-fault dice"),
    ("--drop", "PM", "0", "outbound datagrams dropped, per mille"),
    ("--delay", "PM", "0", "outbound datagrams delayed, per mille"),
    ("--dup", "PM", "0", "outbound datagrams duplicated, per mille"),
    ("--fault-delay-ms", "MS", "30", "how long a delayed datagram is held"),
    ("--fault-budget", "N", "64", "link faults before the plan goes quiet"),
];
const TOOL: Tool = Tool::new("camelot-site", FLAGS);

/// What the command line asks for: the site and its socket kind, its
/// link-fault plan and its runtime configuration.
fn parse_opts() -> (SocketConfig, FaultPlan, RtConfig) {
    TOOL.from_env(|p| {
        let site = SiteId(p.int("--site")?);
        if site.0 == 0 {
            return Err("--site counts from 1".into());
        }
        let mode = SocketMode::parse(&p.val::<String>("--transport")?)
            .ok_or("--transport is udp or tcp")?;
        let (drop, delay, dup): (u32, u32, u32) =
            (p.int("--drop")?, p.int("--delay")?, p.int("--dup")?);
        let (seed, budget): (u64, u64) = (p.int("--fault-seed")?, p.int("--fault-budget")?);
        let held = StdDuration::from_millis(p.int("--fault-delay-ms")?);
        let fault = match (drop, delay, dup) {
            (0, 0, 0) => FaultPlan::disabled(),
            _ => FaultPlan::new(seed, drop, delay, dup, held, budget),
        };
        let mut cfg = RtConfig {
            call_timeout: StdDuration::from_millis(p.int("--call-timeout-ms")?),
            log_dir: p.get("--log-dir").map(PathBuf::from),
            trace: true,
            engine: if p.on("--fast") {
                camelot_node::config::fast_engine()
            } else {
                camelot_core::EngineConfig::default()
            },
            ..RtConfig::default()
        };
        if let Some(cap) = p.int_opt("--trace-capacity")? {
            cfg.trace_capacity = cap;
        }
        Ok((SocketConfig::new(site, mode), fault, cfg))
    })
}

fn main() {
    let (socket, fault, cfg) = parse_opts();
    let site = socket.site;
    let log_dir = cfg.log_dir.clone();
    let fault = Arc::new(fault);
    let cluster = Arc::new(Cluster::new_site(socket, cfg, Arc::clone(&fault)));

    // Watchdog: an armed crash point kills the site inside the
    // runtime; make that a real process death so multi-process tests
    // observe an actual exit. The trace ring would die with the
    // process, so it goes to the log directory first, where the
    // supervisor picks it up when it reaps the exit. A ring an earlier
    // incarnation left there and nobody collected is stale.
    if let Some(dir) = &log_dir {
        let _ = std::fs::remove_file(dir.join(CRASH_TRACE));
    }
    {
        let cluster = Arc::clone(&cluster);
        thread::spawn(move || loop {
            thread::sleep(StdDuration::from_millis(20));
            if !cluster.is_alive(site) {
                eprintln!("site {}: crashed at armed crash point; exiting", site.0);
                if let Some(dir) = &log_dir {
                    let ring = camelot_rt::to_jsonl(&cluster.drain_trace());
                    let path = dir.join(CRASH_TRACE);
                    if let Err(e) = std::fs::write(&path, ring) {
                        eprintln!("site {}: write {}: {e}", site.0, path.display());
                    }
                }
                exit(3);
            }
        });
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ctrl socket");
    let handshake = Handshake {
        site,
        data: cluster.transport().local_addr(),
        ctrl: listener.local_addr().expect("ctrl addr"),
    };
    println!("{}", handshake.render());
    std::io::stdout().flush().expect("flush handshake");

    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let cluster = Arc::clone(&cluster);
        let fault = Arc::clone(&fault);
        thread::spawn(move || serve_ctrl(stream, site, cluster, fault));
    }
}

fn serve_ctrl(mut stream: TcpStream, site: SiteId, cluster: Arc<Cluster>, fault: Arc<FaultPlan>) {
    let _ = stream.set_nodelay(true);
    let client = cluster.client(site);
    let mut dec = FrameDecoder::new();
    loop {
        let req = match read_framed::<CtrlRequest>(&mut stream, &mut dec) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                eprintln!("site {}: ctrl decode error: {e}", site.0);
                return;
            }
        };
        let shutdown = matches!(req, CtrlRequest::Shutdown);
        let reply = handle(req, site, &client, &cluster, &fault);
        if write_framed(&mut stream, &reply).is_err() {
            return;
        }
        if shutdown {
            let _ = stream.flush();
            exit(0);
        }
    }
}

fn handle(
    req: CtrlRequest,
    site: SiteId,
    client: &Client,
    cluster: &Cluster,
    fault: &FaultPlan,
) -> CtrlReply {
    match req {
        CtrlRequest::Ping => CtrlReply::Pong { site },
        CtrlRequest::Peers { peers } => {
            for p in peers {
                if p.site == site {
                    continue;
                }
                match p.addr.parse() {
                    Ok(addr) => cluster.transport().set_peer(p.site, addr),
                    Err(e) => {
                        return CtrlReply::Err {
                            detail: format!("bad peer address {}: {e}", p.addr),
                        }
                    }
                }
            }
            CtrlReply::Ok
        }
        CtrlRequest::Begin => match client.begin() {
            Ok(tid) => CtrlReply::Began { tid },
            Err(e) => err(e),
        },
        CtrlRequest::Read {
            tid,
            server,
            object,
        } => match client.read(&tid, site, server, object) {
            Ok(value) => CtrlReply::Value { value },
            Err(e) => err(e),
        },
        CtrlRequest::Write {
            tid,
            server,
            object,
            value,
        } => match client.write(&tid, site, server, object, value) {
            Ok(value) => CtrlReply::Value { value },
            Err(e) => err(e),
        },
        CtrlRequest::Commit {
            tid,
            nonblocking,
            participants,
        } => {
            let mode = if nonblocking {
                CommitMode::NonBlocking
            } else {
                CommitMode::TwoPhase
            };
            match client.commit_with(&tid, mode, participants) {
                Ok(outcome) => CtrlReply::Outcome {
                    committed: outcome == camelot_net::Outcome::Committed,
                },
                Err(e) => err(e),
            }
        }
        CtrlRequest::Abort { tid, participants } => match client.abort_with(&tid, participants) {
            Ok(()) => CtrlReply::Ok,
            Err(e) => err(e),
        },
        CtrlRequest::CommittedValue { server, object } => CtrlReply::Value {
            value: cluster.committed_value(site, server, object),
        },
        CtrlRequest::DebugState => CtrlReply::State {
            dump: cluster.debug_state(site),
        },
        CtrlRequest::ArmCrash { point } => {
            fault.arm_crash(site, point);
            CtrlReply::Ok
        }
        CtrlRequest::Heal => {
            fault.heal();
            CtrlReply::Ok
        }
        CtrlRequest::DrainTraceChunk { max_events } => CtrlReply::Trace {
            jsonl: camelot_rt::to_jsonl(&cluster.drain_trace_chunk(max_events as usize)),
        },
        CtrlRequest::PhaseStats => {
            match cluster.stats().sites.into_iter().find(|s| s.site == site) {
                Some(s) => CtrlReply::Phases {
                    phases: Box::new(s.phases),
                    proto: Box::new(s.proto_phases),
                },
                None => CtrlReply::Err {
                    detail: format!("no stats for site {}", site.0),
                },
            }
        }
        CtrlRequest::EngineStats => {
            let stats = cluster.stats();
            match stats.sites.iter().find(|s| s.site == site) {
                Some(s) => CtrlReply::Engine {
                    stats: Box::new(SiteStatsWire::from_stats(s, stats.router_pending)),
                },
                None => CtrlReply::Err {
                    detail: format!("no stats for site {}", site.0),
                },
            }
        }
        CtrlRequest::FillTrace { events } => {
            let tracer = cluster.site_tracer(site);
            let family = FamilyId {
                origin: site,
                seq: u64::MAX,
            };
            for i in 0..events {
                tracer.emit(Some(family), TraceEventKind::WireEncode { bytes: i });
            }
            CtrlReply::Ok
        }
        CtrlRequest::Shutdown => CtrlReply::Ok,
        CtrlRequest::TransportStats => CtrlReply::Transport {
            stats: cluster.transport().stats(),
        },
        CtrlRequest::FaultStats => CtrlReply::Fault {
            stats: fault.stats(),
        },
        CtrlRequest::Partition { a, b } => {
            fault.partition(&a, &b);
            CtrlReply::Ok
        }
        CtrlRequest::SetSkew {
            site: target,
            per_mille,
        } => {
            // Only this site's timers route through this plan; a skew
            // for another site is a no-op here, so installing it
            // unconditionally keeps the supervisor's broadcast simple.
            fault.set_skew(target, per_mille);
            CtrlReply::Ok
        }
    }
}

fn err(e: CamelotError) -> CtrlReply {
    CtrlReply::Err {
        detail: format!("{e}"),
    }
}
