//! Spawning, wiring and supervising `camelot-site` processes.
//!
//! [`Supervisor`] is the one owner of a cluster of site processes:
//! every tool and test that runs one (`camelot-launch`, `-soak`,
//! `-sockbench`, `camelot-scope smoke`, the `socket_e2e` and
//! `supervisor_e2e` tests) starts it here. It spawns one process per
//! site, reads each child's `ready` handshake off stdout, connects a
//! control client, distributes the data-plane port map, and owns the
//! steps every harness takes around a run: waiting until the cluster
//! is quiet, healing every site's faults, and draining every trace
//! ring. [`SiteProc`] alone is one process with no peers.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use camelot_types::SiteId;

use crate::ctrl::{CtrlClient, Handshake, PeerEntry};

/// How many stderr lines a [`StderrTail`] retains per site.
const STDERR_TAIL_LINES: usize = 40;

/// A dead site's first restart delay.
const RESTART_BACKOFF_BASE: Duration = Duration::from_millis(100);
/// Ceiling the delay doubles up to while respawns keep failing.
const RESTART_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Bounded ring of a child's most recent stderr lines. A reader
/// thread echoes every line through to our own stderr (so nothing is
/// hidden) while keeping the tail for post-mortem reporting — when a
/// site burns its restart budget, the supervisor prints these.
#[derive(Clone, Default)]
pub struct StderrTail {
    ring: Arc<Mutex<VecDeque<String>>>,
}

impl StderrTail {
    fn push(&self, line: String) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == STDERR_TAIL_LINES {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

/// One running `camelot-site` child with its control connection.
pub struct SiteProc {
    pub id: SiteId,
    pub child: Child,
    pub handshake: Handshake,
    pub ctrl: CtrlClient,
    pub stderr_tail: StderrTail,
}

/// How to spawn one site process.
pub struct SpawnSpec<'a> {
    /// Path to the `camelot-site` binary.
    pub bin: &'a Path,
    pub site: SiteId,
    /// `udp` or `tcp`.
    pub transport: &'a str,
    /// WAL root; the site keeps its log in `site-N` under it. `None`
    /// keeps the log in memory.
    pub log_dir: Option<&'a Path>,
    /// Use the fast engine timer profile (`--fast`); benchmarks and
    /// tests want this, long-lived clusters may not.
    pub fast: bool,
    /// Extra raw arguments (fault injection flags, trace output, ...).
    pub extra: &'a [String],
}

/// Locates the `camelot-site` binary next to the current executable.
/// `CAMELOT_SITE_BIN` overrides the lookup (useful when the caller is
/// not installed alongside the site binary).
pub fn sibling_site_bin() -> std::io::Result<PathBuf> {
    if let Ok(p) = std::env::var("CAMELOT_SITE_BIN") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?;
    let bin = dir.join("camelot-site");
    if !bin.exists() {
        return Err(std::io::Error::other(format!(
            "camelot-site not found at {} (build it with `cargo build -p camelot-node` \
             or point CAMELOT_SITE_BIN at it)",
            bin.display()
        )));
    }
    Ok(bin)
}

impl SiteProc {
    /// Spawns one site process and completes its stdout handshake.
    pub fn spawn(spec: &SpawnSpec<'_>) -> std::io::Result<SiteProc> {
        let mut cmd = Command::new(spec.bin);
        cmd.arg("--site")
            .arg(spec.site.0.to_string())
            .arg("--transport")
            .arg(spec.transport)
            .args(spec.extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if spec.fast {
            cmd.arg("--fast");
        }
        if let Some(dir) = spec.log_dir {
            cmd.arg("--log-dir")
                .arg(dir.join(format!("site-{}", spec.site.0)));
        }
        let mut child = cmd.spawn()?;
        let stderr_tail = StderrTail::default();
        {
            let stderr = child.stderr.take().expect("piped stderr");
            let tail = stderr_tail.clone();
            let site = spec.site;
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    eprintln!("site {}: {line}", site.0);
                    tail.push(line);
                }
            });
        }
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let handshake = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(h) = Handshake::parse(&line) {
                        break h;
                    }
                }
                _ => {
                    let _ = child.kill();
                    return Err(std::io::Error::other(format!(
                        "site {} exited before its handshake",
                        spec.site.0
                    )));
                }
            }
        };
        let ctrl = CtrlClient::connect(handshake.ctrl)?;
        Ok(SiteProc {
            id: spec.site,
            child,
            handshake,
            ctrl,
            stderr_tail,
        })
    }

    /// Asks the process to exit cleanly and reaps it.
    pub fn shutdown(mut self) {
        self.ctrl.shutdown();
        let _ = self.child.wait();
    }
}

/// How a [`Supervisor`] keeps a cluster of site processes alive.
pub struct SupervisorConfig {
    /// Path to the `camelot-site` binary.
    pub bin: PathBuf,
    /// Number of sites (ids `1..=sites`).
    pub sites: u32,
    /// `udp` or `tcp`.
    pub transport: String,
    /// WAL root; each site gets `site-N` under it, and a respawned site
    /// recovers from the incarnation it lost. `None` keeps every log in
    /// memory: a site that dies is then never respawned (it would come
    /// back with an empty log) but marked failed.
    pub log_dir: Option<PathBuf>,
    /// Extra raw `camelot-site` arguments.
    pub extra: Vec<String>,
    /// How many times one site may be restarted before the supervisor
    /// gives up on it (marks it failed and stops respawning).
    pub restart_budget: u32,
}

impl SupervisorConfig {
    pub fn new(
        bin: PathBuf,
        sites: u32,
        transport: &str,
        log_dir: impl Into<Option<PathBuf>>,
    ) -> SupervisorConfig {
        SupervisorConfig {
            bin,
            sites,
            transport: transport.to_string(),
            log_dir: log_dir.into(),
            extra: Vec::new(),
            restart_budget: 5,
        }
    }
}

/// Shared address board: the last-known control and data addresses of
/// every site, plus a generation counter bumped on each membership
/// change. Ports are OS-assigned, so they change on every respawn —
/// workers holding their own control connections watch the generation
/// and re-resolve when it moves.
#[derive(Default)]
pub struct AddrBoard {
    generation: std::sync::atomic::AtomicU64,
    addrs: Mutex<std::collections::HashMap<SiteId, Handshake>>,
}

impl AddrBoard {
    /// Bumped on every spawn/respawn; compare against a cached value
    /// to decide whether a held control connection may be stale.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The site's last-known control address.
    pub fn ctrl_addr(&self, site: SiteId) -> Option<std::net::SocketAddr> {
        self.addrs.lock().unwrap().get(&site).map(|h| h.ctrl)
    }

    fn publish(&self, h: &Handshake) {
        self.addrs.lock().unwrap().insert(h.site, h.clone());
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn peer_entries(&self) -> Vec<PeerEntry> {
        let mut peers: Vec<PeerEntry> = self
            .addrs
            .lock()
            .unwrap()
            .values()
            .map(|h| PeerEntry {
                site: h.site,
                addr: h.data.to_string(),
            })
            .collect();
        peers.sort_by_key(|p| p.site.0);
        peers
    }
}

/// One site's place in the supervisor.
enum Slot {
    /// Running (as far as the last `poll` observed).
    Up(SiteProc),
    /// Died; a respawn is scheduled.
    Waiting { at: Instant },
    /// The supervisor gave up on it: its budget is spent, or it has no
    /// log to recover from.
    Failed,
}

/// A failed site's post-mortem, for the launcher's exit report.
#[derive(Debug)]
pub struct FailedSite {
    pub site: SiteId,
    /// The exit status of the death it was not respawned after.
    pub status: String,
    /// Its last captured stderr lines, oldest first.
    pub stderr_tail: Vec<String>,
}

/// Keeps a cluster of `camelot-site` processes alive: watches for
/// exits, respawns crashed sites on the same WAL directory (so
/// recovery rebuilds them) with capped exponential backoff, and
/// re-distributes the data-plane address map after every respawn so
/// peers reconnect to the new incarnation's ports.
///
/// The supervisor is poll-driven: callers interleave [`poll`] with
/// their own work (the launch and soak drivers do this between
/// transaction batches); [`quiesce`] and [`wait_all_up`] poll while
/// they wait.
///
/// [`poll`]: Supervisor::poll
/// [`quiesce`]: Supervisor::quiesce
/// [`wait_all_up`]: Supervisor::wait_all_up
pub struct Supervisor {
    cfg: SupervisorConfig,
    /// Index `i` holds site `i + 1`, as do the vectors below.
    slots: Vec<Slot>,
    backoffs: Vec<camelot_net::Backoff>,
    /// Last-known stderr tail per site; survives the death of the
    /// `SiteProc` that produced it.
    tails: Vec<StderrTail>,
    /// Respawns performed (or attempted) per site.
    restarts: Vec<u32>,
    /// How each site's last incarnation ended, once one has.
    last_exit: Vec<Option<ExitStatus>>,
    board: Arc<AddrBoard>,
}

impl Supervisor {
    /// Spawns all sites and distributes the initial peer map.
    pub fn start(cfg: SupervisorConfig) -> std::io::Result<Supervisor> {
        let n = cfg.sites as usize;
        let board = Arc::new(AddrBoard::default());
        let mut slots = Vec::with_capacity(n);
        let mut tails = Vec::with_capacity(n);
        for id in 1..=cfg.sites {
            let proc = SiteProc::spawn(&spawn_spec(&cfg, SiteId(id)))?;
            board.publish(&proc.handshake);
            tails.push(proc.stderr_tail.clone());
            slots.push(Slot::Up(proc));
        }
        let backoff = || camelot_net::Backoff::new(RESTART_BACKOFF_BASE, RESTART_BACKOFF_CAP);
        let mut sup = Supervisor {
            cfg,
            slots,
            backoffs: (0..n).map(|_| backoff()).collect(),
            tails,
            restarts: vec![0; n],
            last_exit: vec![None; n],
            board,
        };
        sup.redistribute_peers();
        Ok(sup)
    }

    /// The shared address board for workers that hold their own
    /// control connections.
    pub fn board(&self) -> Arc<AddrBoard> {
        Arc::clone(&self.board)
    }

    /// One supervision step: reap exited sites, schedule their
    /// respawns, and respawn those whose backoff has elapsed. Returns
    /// `true` if membership changed (a death was observed or a site
    /// came back).
    pub fn poll(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.slots.len() {
            let site = SiteId(i as u32 + 1);
            match &mut self.slots[i] {
                Slot::Up(proc) => {
                    let status = match proc.child.try_wait() {
                        Ok(Some(status)) => status,
                        Ok(None) => continue,
                        Err(e) => {
                            eprintln!("supervisor: try_wait site {}: {e}", site.0);
                            continue;
                        }
                    };
                    changed = true;
                    self.last_exit[i] = Some(status);
                    let spent = self.restarts[i];
                    let no_log = self.cfg.log_dir.is_none();
                    if no_log || spent >= self.cfg.restart_budget {
                        eprintln!(
                            "supervisor: site {} died ({status}) after {spent} restarts; {}, \
                             giving up",
                            site.0,
                            if no_log {
                                "no log to recover"
                            } else {
                                "budget exhausted"
                            }
                        );
                        self.slots[i] = Slot::Failed;
                        continue;
                    }
                    let delay = self.backoffs[i].failure();
                    eprintln!(
                        "supervisor: site {} died ({status}); respawning in {}ms \
                         (restart {}/{})",
                        site.0,
                        delay.as_millis(),
                        spent + 1,
                        self.cfg.restart_budget
                    );
                    self.slots[i] = Slot::Waiting {
                        at: Instant::now() + delay,
                    };
                }
                Slot::Waiting { at } => {
                    if Instant::now() < *at {
                        continue;
                    }
                    self.restarts[i] += 1;
                    match SiteProc::spawn(&spawn_spec(&self.cfg, site)) {
                        Ok(proc) => {
                            changed = true;
                            // Same --log-dir: the new process already
                            // ran WAL recovery before its handshake.
                            self.board.publish(&proc.handshake);
                            self.tails[i] = proc.stderr_tail.clone();
                            self.slots[i] = Slot::Up(proc);
                            self.redistribute_peers();
                            eprintln!("supervisor: site {} back up", site.0);
                        }
                        Err(e) => {
                            eprintln!("supervisor: respawn site {} failed: {e}", site.0);
                            self.slots[i] = Slot::Waiting {
                                at: Instant::now() + self.backoffs[i].failure(),
                            };
                        }
                    }
                }
                Slot::Failed => {}
            }
        }
        changed
    }

    /// The control client of an up site.
    pub fn ctrl(&mut self, site: SiteId) -> Option<&mut CtrlClient> {
        match self.slots.get_mut(site.0 as usize - 1)? {
            Slot::Up(proc) => Some(&mut proc.ctrl),
            _ => None,
        }
    }

    /// Kills a site's process outright (fault injection). The next
    /// `poll` observes the death and schedules the respawn.
    pub fn kill_site(&mut self, site: SiteId) -> bool {
        match self.slots.get_mut(site.0 as usize - 1) {
            Some(Slot::Up(proc)) => {
                let _ = proc.child.kill();
                true
            }
            _ => false,
        }
    }

    /// True when every site is up (does not poll; call `poll` first).
    pub fn all_up(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Up(_)))
    }

    /// Polls until every site is up or the deadline passes.
    pub fn wait_all_up(&mut self, deadline: Duration) -> bool {
        let start = Instant::now();
        loop {
            self.poll();
            if self.all_up() {
                return true;
            }
            if start.elapsed() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Polls until every site is up and reports no live protocol state
    /// (every transaction resolved, applied and forgotten everywhere),
    /// or `within` passes. A site that is down, or whose `debug_state`
    /// call fails, is busy: a cluster with a dead site is not settled.
    /// On timeout the error lists the busy sites with their dumps.
    pub fn quiesce(&mut self, within: Duration) -> Result<(), String> {
        let deadline = Instant::now() + within;
        loop {
            self.poll();
            let busy: Vec<String> = self
                .slots
                .iter_mut()
                .enumerate()
                .filter_map(|(i, slot)| {
                    let Slot::Up(proc) = slot else {
                        return Some(format!("site {} down", i + 1));
                    };
                    match proc.ctrl.debug_state() {
                        Ok(dump) if dump.is_empty() => None,
                        Ok(dump) => Some(format!("site {}: {dump}", i + 1)),
                        Err(e) => Some(format!("site {}: debug_state: {e}", i + 1)),
                    }
                })
                .collect();
            if busy.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(busy.join(" | "));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Lifts every up site's injected faults (link faults, partitions,
    /// skew); a site that is down comes back without any. Every up site
    /// is asked; the error lists the sites whose heal failed.
    pub fn heal_all(&mut self) -> Result<(), String> {
        let failed: Vec<String> = self
            .up()
            .filter_map(|p| {
                let e = p.ctrl.heal().err()?;
                Some(format!("site {}: heal: {e}", p.id.0))
            })
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed.join(" | "))
        }
    }

    /// Drains every up site's trace ring, in site order: each site's
    /// JSON Lines text (every event names its site) or why its drain
    /// failed.
    pub fn drain_traces(&mut self) -> Vec<(SiteId, camelot_types::Result<String>)> {
        self.up().map(|p| (p.id, p.ctrl.drain_trace())).collect()
    }

    /// Respawns performed per site, in site order.
    pub fn restart_counts(&self) -> Vec<(SiteId, u32)> {
        (1..)
            .map(SiteId)
            .zip(self.restarts.iter().copied())
            .collect()
    }

    /// How the site's last incarnation ended; `None` while it never
    /// died.
    pub fn last_exit(&self, site: SiteId) -> Option<ExitStatus> {
        self.last_exit[site.0 as usize - 1]
    }

    /// Post-mortems of sites the supervisor has given up on.
    pub fn failed_sites(&self) -> Vec<FailedSite> {
        (1..)
            .map(SiteId)
            .zip(&self.slots)
            .filter(|(_, s)| matches!(s, Slot::Failed))
            .map(|(site, _)| FailedSite {
                site,
                status: self
                    .last_exit(site)
                    .expect("a failed site has exited")
                    .to_string(),
                stderr_tail: self.tails[site.0 as usize - 1].lines(),
            })
            .collect()
    }

    /// Ends the process (status 1) with each failed site's post-mortem,
    /// printed under `tool`'s name; returns when no site has failed.
    pub fn bail_on_budget_exhaustion(&self, tool: &str) {
        let failed = self.failed_sites();
        if failed.is_empty() {
            return;
        }
        for f in &failed {
            eprintln!(
                "{tool}: site {} was not restarted (last exit: {})",
                f.site.0, f.status
            );
            eprintln!("{tool}: site {} last stderr lines:", f.site.0);
            for line in &f.stderr_tail {
                eprintln!("  | {line}");
            }
        }
        std::process::exit(1);
    }

    /// Cleanly shuts down every up site and reaps the rest.
    pub fn shutdown(self) {
        for slot in self.slots {
            if let Slot::Up(proc) = slot {
                proc.shutdown();
            }
        }
    }

    /// The sites that are up, in site order.
    fn up(&mut self) -> impl Iterator<Item = &mut SiteProc> {
        self.slots.iter_mut().filter_map(|slot| match slot {
            Slot::Up(proc) => Some(proc),
            _ => None,
        })
    }

    /// Pushes the current full address map to every up site. Down
    /// sites get the map when they come back (their respawn triggers
    /// another full redistribution).
    fn redistribute_peers(&mut self) {
        let peers = self.board.peer_entries();
        for proc in self.up() {
            if let Err(e) = proc.ctrl.set_peers(peers.clone()) {
                // A site that died since the last poll; the next
                // poll reaps it.
                eprintln!("supervisor: set_peers site {}: {e}", proc.id.0);
            }
        }
    }
}

fn spawn_spec<'a>(cfg: &'a SupervisorConfig, site: SiteId) -> SpawnSpec<'a> {
    SpawnSpec {
        bin: &cfg.bin,
        site,
        transport: &cfg.transport,
        log_dir: cfg.log_dir.as_deref(),
        // No supervised cluster has asked for the slow timer profile.
        fast: true,
        extra: &cfg.extra,
    }
}
