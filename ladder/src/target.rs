//! The system under test, hosted two ways behind one face: an
//! in-process `camelot_rt::Cluster`, or supervised `camelot-site`
//! processes driven over their ctrl sockets. Everything here calls
//! public functions of the repo's crates; nothing in them is changed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camelot_core::{CommitMode, ExecMode};
use camelot_net::Outcome;
use camelot_node::ctrl::CtrlClient;
use camelot_node::procs::{sibling_site_bin, AddrBoard, Supervisor, SupervisorConfig};
use camelot_rt::{Client, Cluster, PhaseSnapshot, RtConfig};
use camelot_scope::{parse_jsonl, ScopeEvent};
use camelot_types::{ObjectId, Result, ServerId, SiteId, Tid};

use crate::cpu;
use crate::oracle;
use crate::workload::{Host, Workload};

const SRV: ServerId = ServerId(1);
/// Trace ring slots per site in the traced round: large enough that
/// the fixed-rate phase survives until the drain at its end (the
/// busiest workload emits about 50 k events per site in it).
const TRACE_CAPACITY: usize = 1 << 17;
const CALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Counters the per-layer metrics are ratios of, summed over sites.
/// All cumulative since the cluster started; a phase is the
/// difference of two snapshots (`max_batch` is a high-water mark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub commits: u64,
    pub aborts: u64,
    pub forces: u64,
    pub lazy_appends: u64,
    pub datagrams: u64,
    pub piggybacked: u64,
    pub inputs: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub platter_writes: u64,
    pub forces_satisfied: u64,
    pub max_batch: u64,
    pub shard_lock_wait_us: u64,
    pub queue_ops: u64,
    pub queue_parked: u64,
    pub queue_cascades: u64,
    pub queue_vote_timeouts: u64,
    pub reads: u64,
    pub writes: u64,
    pub joins: u64,
    pub lock_waits: u64,
    pub deadlocks: u64,
    pub trace_dropped: u64,
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        macro_rules! diff {
            ($($f:ident),*) => { Counters { $($f: self.$f.saturating_sub(earlier.$f),)* max_batch: self.max_batch } };
        }
        diff!(
            commits,
            aborts,
            forces,
            lazy_appends,
            datagrams,
            piggybacked,
            inputs,
            wal_records,
            wal_bytes,
            platter_writes,
            forces_satisfied,
            shard_lock_wait_us,
            queue_ops,
            queue_parked,
            queue_cascades,
            queue_vote_timeouts,
            reads,
            writes,
            joins,
            lock_waits,
            deadlocks,
            trace_dropped
        )
    }
}

/// `net::sendq::TransportStats`, summed over the site processes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    pub sends: u64,
    pub send_failures: u64,
    pub connects: u64,
    pub queue_drops: u64,
    /// High-water mark, not a count.
    pub max_queue_depth: u64,
}

impl NetCounts {
    pub fn since(&self, earlier: &NetCounts) -> NetCounts {
        NetCounts {
            sends: self.sends - earlier.sends,
            send_failures: self.send_failures - earlier.send_failures,
            connects: self.connects - earlier.connects,
            queue_drops: self.queue_drops - earlier.queue_drops,
            max_queue_depth: self.max_queue_depth,
        }
    }
}

/// A running cluster of one workload.
pub enum Target {
    InProcess {
        cluster: Cluster,
        sites: u32,
        /// Log directory to delete at shutdown (`fsync_update`).
        log_dir: Option<PathBuf>,
    },
    Sockets {
        sup: Box<Supervisor>,
        board: Arc<AddrBoard>,
        sites: u32,
        log_dir: PathBuf,
    },
}

/// One driver thread's handles: a client homed at each site, or a ctrl
/// connection to each site process.
pub enum Conn {
    InProcess(Vec<Client>),
    Sockets(Vec<CtrlClient>),
}

fn instrument(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Target {
    /// Builds the cluster of `w`. `work` is a directory inside the
    /// checkout for logs; `traced` turns the program's trace ring on.
    pub fn start(w: &Workload, work: &Path, traced: bool) -> std::result::Result<Target, String> {
        match w.host {
            Host::InProcess | Host::InProcessFileLog => {
                let log_dir = (w.host == Host::InProcessFileLog).then(|| work.join("fsync-log"));
                if let Some(dir) = &log_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                // The shipped defaults, minus the simulated delays.
                let cfg = RtConfig {
                    datagram_delay: Duration::ZERO,
                    platter_delay: Duration::ZERO,
                    call_timeout: CALL_TIMEOUT,
                    exec_mode: w.exec,
                    log_dir: log_dir.clone(),
                    trace: traced,
                    trace_capacity: if traced {
                        TRACE_CAPACITY
                    } else {
                        RtConfig::default().trace_capacity
                    },
                    ..RtConfig::default()
                };
                Ok(Target::InProcess {
                    cluster: Cluster::new(w.sites, cfg),
                    sites: w.sites,
                    log_dir,
                })
            }
            Host::Sockets => {
                assert_eq!(
                    w.exec,
                    ExecMode::LockBased,
                    "camelot-site has no queued mode"
                );
                let bin = sibling_site_bin().map_err(|e| instrument("site binary", e))?;
                let log_dir = work.join("socket-logs");
                let _ = std::fs::remove_dir_all(&log_dir);
                std::fs::create_dir_all(&log_dir).map_err(|e| instrument("log dir", e))?;
                let mut cfg = SupervisorConfig::new(bin, w.sites, "udp", log_dir.clone());
                cfg.extra = vec![
                    "--call-timeout-ms".into(),
                    CALL_TIMEOUT.as_millis().to_string(),
                    "--trace-capacity".into(),
                    TRACE_CAPACITY.to_string(),
                ];
                let mut sup = Supervisor::start(cfg).map_err(|e| instrument("spawn sites", e))?;
                if !sup.wait_all_up(Duration::from_secs(10)) {
                    sup.shutdown();
                    return Err("sites did not come up".into());
                }
                let board = sup.board();
                Ok(Target::Sockets {
                    sup: Box::new(sup),
                    board,
                    sites: w.sites,
                    log_dir,
                })
            }
        }
    }

    pub fn sites(&self) -> u32 {
        match self {
            Target::InProcess { sites, .. } | Target::Sockets { sites, .. } => *sites,
        }
    }

    /// What a driver thread needs to open its own [`Conn`].
    pub fn connector(&self) -> Connector<'_> {
        match self {
            Target::InProcess { cluster, sites, .. } => Connector::InProcess(cluster, *sites),
            Target::Sockets { board, sites, .. } => Connector::Sockets(board.clone(), *sites),
        }
    }

    /// Processes whose CPU time the workload is charged.
    pub fn pids(&self) -> Vec<u32> {
        let me = std::process::id();
        match self {
            Target::InProcess { .. } => vec![me],
            Target::Sockets { .. } => {
                let mut pids = cpu::children_of(me);
                pids.push(me);
                pids
            }
        }
    }

    pub fn counters(&mut self) -> Counters {
        let mut c = Counters::default();
        match self {
            Target::InProcess { cluster, sites, .. } => {
                for s in cluster.stats().sites {
                    c.commits += s.engine.commits;
                    c.aborts += s.engine.aborts;
                    c.forces += s.engine.forces;
                    c.lazy_appends += s.engine.lazy_appends;
                    c.datagrams += s.engine.datagrams;
                    c.piggybacked += s.engine.piggybacked;
                    c.inputs += s.inputs;
                    c.wal_records += s.wal.records;
                    c.platter_writes += s.platter_writes;
                    c.forces_satisfied += s.forces_satisfied;
                    c.max_batch = c.max_batch.max(s.max_batch);
                    c.shard_lock_wait_us += s.lock_wait.as_micros() as u64;
                    c.queue_ops += s.queue_ops;
                    c.queue_parked += s.queue_parked;
                    c.queue_cascades += s.queue_cascades;
                    c.queue_vote_timeouts += s.queue_vote_timeouts;
                    c.reads += s.servers.reads;
                    c.writes += s.servers.writes;
                    c.joins += s.servers.joins;
                    c.lock_waits += s.servers.lock_waits;
                    c.deadlocks += s.servers.deadlocks;
                    c.trace_dropped += s.trace_dropped;
                }
                for site in 1..=*sites {
                    c.wal_bytes += cluster
                        .wal_image(SiteId(site))
                        .map(|b| b.len() as u64)
                        .unwrap_or(0);
                }
            }
            Target::Sockets {
                sup,
                sites,
                log_dir,
                ..
            } => {
                for site in 1..=*sites {
                    let Some(Ok(s)) = sup.ctrl(SiteId(site)).map(|c| c.engine_stats()) else {
                        continue;
                    };
                    c.commits += s.commits;
                    c.aborts += s.aborts;
                    c.forces += s.forces;
                    c.lazy_appends += s.lazy_appends;
                    c.datagrams += s.datagrams;
                    c.piggybacked += s.piggybacked;
                    c.inputs += s.inputs;
                    c.wal_records += s.wal_records;
                    c.platter_writes += s.platter_writes;
                    c.forces_satisfied += s.forces_satisfied;
                    c.max_batch = c.max_batch.max(s.max_batch);
                    c.shard_lock_wait_us += s.lock_wait_us;
                    c.queue_ops += s.queue_ops;
                    c.queue_parked += s.queue_parked;
                    c.queue_cascades += s.queue_cascades;
                    c.queue_vote_timeouts += s.queue_vote_timeouts;
                    c.reads += s.reads;
                    c.writes += s.writes;
                    c.joins += s.joins;
                    c.lock_waits += s.lock_waits;
                    c.deadlocks += s.deadlocks;
                    c.trace_dropped += s.trace_dropped;
                }
                c.wal_bytes = dir_bytes(log_dir);
            }
        }
        c
    }

    /// What is still in flight, for the message of a quiesce time-out.
    fn describe(&mut self) -> String {
        match self {
            Target::InProcess { cluster, sites, .. } => {
                let stats = cluster.stats();
                (1..=*sites)
                    .map(|s| {
                        let st = &stats.sites[s as usize - 1];
                        format!(
                            "[site {s}: live {} lazy {}/{} | {}]",
                            st.live_families,
                            st.lazy_drained,
                            st.engine.lazy_appends,
                            cluster.debug_state(SiteId(s))
                        )
                    })
                    .collect()
            }
            Target::Sockets { sup, sites, .. } => (1..=*sites)
                .map(|s| {
                    let dump = sup.ctrl(SiteId(s)).and_then(|c| c.debug_state().ok());
                    format!("[site {s}: {}]", dump.unwrap_or_else(|| "down".into()))
                })
                .collect(),
        }
    }

    /// Whether the cluster still has work in flight: a live family
    /// (commit acks outstanding count), or a lazily appended record —
    /// a subordinate's delayed commit record — that is not durable yet.
    fn busy(&mut self) -> bool {
        match self {
            Target::InProcess { cluster, .. } => cluster
                .stats()
                .sites
                .iter()
                .any(|s| s.live_families > 0 || s.lazy_drained < s.engine.lazy_appends),
            Target::Sockets { sup, sites, .. } => (1..=*sites).any(|site| {
                sup.ctrl(SiteId(site))
                    .and_then(|c| c.engine_stats().ok())
                    .is_none_or(|s| s.live_families > 0 || s.lazy_drained < s.lazy_appends)
            }),
        }
    }

    /// Waits until nothing is in flight, so that every acknowledged
    /// commit has reached its subordinates' logs before values are
    /// read or a site is crashed (a crash then leaves nothing in
    /// doubt). `false` when the deadline passes first.
    pub fn quiesce(&mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.busy() {
            if Instant::now() > deadline {
                eprintln!("quiesce timed out: {}", self.describe());
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Committed value of every key: `[site - 1][key]`.
    pub fn values(&mut self, keys_per_site: u64) -> std::result::Result<Vec<Vec<u64>>, String> {
        let mut all = Vec::new();
        for site in 1..=self.sites() {
            let mut values = Vec::with_capacity(keys_per_site as usize);
            for k in 0..keys_per_site {
                let bytes = match self {
                    Target::InProcess { cluster, .. } => {
                        cluster.committed_value(SiteId(site), SRV, ObjectId(k))
                    }
                    Target::Sockets { sup, .. } => sup
                        .ctrl(SiteId(site))
                        .ok_or_else(|| format!("site {site} is down"))?
                        .committed_value(SRV, ObjectId(k))
                        .map_err(|e| instrument("read value", e))?,
                };
                values.push(oracle::decode(&bytes));
            }
            all.push(values);
        }
        Ok(all)
    }

    /// Crashes site 1 and brings it back on the same log. Returns how
    /// long the restart itself took (in-process: `Cluster::restart`;
    /// sockets: kill to the respawned process's handshake).
    pub fn crash_restart(&mut self) -> std::result::Result<Duration, String> {
        match self {
            Target::InProcess { cluster, .. } => {
                cluster.crash(SiteId(1));
                let t = Instant::now();
                cluster
                    .restart(SiteId(1))
                    .map_err(|e| instrument("restart", e))?;
                Ok(t.elapsed())
            }
            Target::Sockets { sup, .. } => {
                let t = Instant::now();
                if !sup.kill_site(SiteId(1)) {
                    return Err("site 1 was not up to be killed".into());
                }
                // A poll first has to see the death (SIGKILL lands a
                // moment after `kill`), then, after the supervisor's
                // backoff, respawns the site on the same log.
                let mut seen_down = false;
                while !(seen_down && sup.all_up()) {
                    sup.poll();
                    seen_down |= !sup.all_up();
                    if t.elapsed() > Duration::from_secs(10) {
                        return Err("site 1 did not come back".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(t.elapsed())
            }
        }
    }

    /// The program's own phase histograms, merged over sites
    /// (cumulative since the cluster started).
    pub fn phases(&mut self) -> PhaseSnapshot {
        match self {
            Target::InProcess { cluster, .. } => cluster.stats().phases(),
            Target::Sockets { sup, sites, .. } => {
                let mut acc = PhaseSnapshot::default();
                for site in 1..=*sites {
                    if let Some(Ok((p, _))) = sup.ctrl(SiteId(site)).map(|c| c.phase_stats()) {
                        acc.merge(&p);
                    }
                }
                acc
            }
        }
    }

    /// Transport counters summed over the site processes (all zero
    /// in-process, where sites pass messages by value).
    pub fn transport(&mut self) -> NetCounts {
        let mut acc = NetCounts::default();
        if let Target::Sockets { sup, sites, .. } = self {
            for site in 1..=*sites {
                if let Some(Ok(t)) = sup.ctrl(SiteId(site)).map(|c| c.transport_stats()) {
                    acc.sends += t.sends;
                    acc.send_failures += t.send_failures;
                    acc.connects += t.connects;
                    acc.queue_drops += t.queue_drops;
                    acc.max_queue_depth = acc.max_queue_depth.max(t.max_queue_depth);
                }
            }
        }
        acc
    }

    /// Drains the program's trace rings (empty unless traced).
    pub fn drain_trace(&mut self) -> Vec<ScopeEvent> {
        match self {
            Target::InProcess { cluster, .. } => cluster
                .drain_trace()
                .iter()
                .map(ScopeEvent::from_trace)
                .collect(),
            Target::Sockets { sup, sites, .. } => {
                let mut events = Vec::new();
                for site in 1..=*sites {
                    if let Some(Ok(t)) = sup.ctrl(SiteId(site)).map(|c| c.drain_trace()) {
                        events.extend(parse_jsonl(&t));
                    }
                }
                events
            }
        }
    }

    /// Stops every thread and process of the cluster and waits for
    /// them; removes the logs.
    pub fn shutdown(self) {
        match self {
            Target::InProcess {
                cluster, log_dir, ..
            } => {
                cluster.shutdown();
                if let Some(dir) = log_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            Target::Sockets { sup, log_dir, .. } => {
                sup.shutdown();
                let _ = std::fs::remove_dir_all(log_dir);
            }
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Shareable recipe for a [`Conn`]; each driver thread opens its own.
pub enum Connector<'a> {
    InProcess(&'a Cluster, u32),
    Sockets(Arc<AddrBoard>, u32),
}

impl Connector<'_> {
    pub fn connect(&self) -> std::result::Result<Conn, String> {
        match self {
            Connector::InProcess(cluster, sites) => Ok(Conn::InProcess(
                (1..=*sites).map(|s| cluster.client(SiteId(s))).collect(),
            )),
            Connector::Sockets(board, sites) => (1..=*sites)
                .map(|s| {
                    let addr = board
                        .ctrl_addr(SiteId(s))
                        .ok_or_else(|| format!("no ctrl address for site {s}"))?;
                    CtrlClient::connect(addr).map_err(|e| instrument("ctrl connect", e))
                })
                .collect::<std::result::Result<Vec<_>, _>>()
                .map(Conn::Sockets),
        }
    }
}

/// The application's calls. In-process every call goes through the
/// home site's client, which learns the participants itself; over
/// sockets each site is called directly and the participants are
/// declared at commit.
impl Conn {
    pub fn begin(&mut self, home: u32) -> Result<Tid> {
        match self {
            Conn::InProcess(c) => c[home as usize - 1].begin(),
            Conn::Sockets(c) => c[home as usize - 1].begin(),
        }
    }

    pub fn read(&mut self, tid: &Tid, home: u32, site: u32, key: u64) -> Result<Vec<u8>> {
        match self {
            Conn::InProcess(c) => c[home as usize - 1].read(tid, SiteId(site), SRV, ObjectId(key)),
            Conn::Sockets(c) => c[site as usize - 1].read(tid, SRV, ObjectId(key)),
        }
    }

    pub fn write(
        &mut self,
        tid: &Tid,
        home: u32,
        site: u32,
        key: u64,
        value: Vec<u8>,
    ) -> Result<()> {
        match self {
            Conn::InProcess(c) => {
                c[home as usize - 1].write(tid, SiteId(site), SRV, ObjectId(key), value)
            }
            Conn::Sockets(c) => c[site as usize - 1].write(tid, SRV, ObjectId(key), value),
        }
        .map(|_| ())
    }

    /// `Ok(true)` committed, `Ok(false)` aborted, `Err` outcome
    /// unknown.
    pub fn commit(
        &mut self,
        tid: &Tid,
        home: u32,
        mode: CommitMode,
        participants: &[u32],
    ) -> Result<bool> {
        match self {
            Conn::InProcess(c) => c[home as usize - 1]
                .commit(tid, mode)
                .map(|o| o == Outcome::Committed),
            Conn::Sockets(c) => c[home as usize - 1].commit(
                tid,
                mode == CommitMode::NonBlocking,
                participants.iter().map(|&s| SiteId(s)).collect(),
            ),
        }
    }

    pub fn abort(&mut self, tid: &Tid, home: u32, participants: &[u32]) -> Result<()> {
        match self {
            Conn::InProcess(c) => c[home as usize - 1].abort(tid),
            Conn::Sockets(c) => {
                c[home as usize - 1].abort(tid, participants.iter().map(|&s| SiteId(s)).collect())
            }
        }
    }
}
