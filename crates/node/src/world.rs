//! The simulated world: full Camelot sites with cost charging.
//!
//! Cost model (the paper's Tables 1–2, `CostModel::rt_pc_mach`; see
//! crate docs): an application↔TranMan call costs 1.5 ms per round
//! (0.75 ms per hop), an application↔server operation 3 ms per round
//! plus 0.5 ms locking, a TranMan↔server vote round 3 ms, a remote
//! operation 29 ms per round plus locking, an inter-TranMan datagram
//! 10 ms one-way with a 1.7 ms sender cycle time, and a log force one
//! platter write. These charges make the local update transaction's
//! critical path sum to exactly the paper's static 24.5 ms
//! (begin 1.5 + operation 3.5 + commit call 1.5 + vote round 3 +
//! commit force 15) and the local read's to 9.5 ms.
//!
//! Every other fixed charge is a constant below: the throughput
//! testbed's CPU costs, charged when `WorldConfig::threads` is set, and
//! the jitter model, drawn when `WorldConfig::jitter` is on.

use std::collections::{BTreeMap, HashMap};

use camelot_core::{Action, Engine, ForceToken, Input, TimerToken};
use camelot_net::comman::CommMan;
use camelot_net::{Outcome, TmMessage};
use camelot_server::{DataServer, Effects, Request};
use camelot_sim::{Event, EventId, Resource, Scheduler};
use camelot_types::{CostModel, Duration, Lsn, ObjectId, ServerId, SiteId, Tid, Time};
use camelot_wal::{BatcherAction, GroupCommitBatcher, MemStore, ReqId, Wal};

use crate::app::{AppSpec, AppState, OpKind, TxnRecord};
use crate::config::WorldConfig;

// The throughput testbed (the VAX 8200 of §4.4–§4.5).

/// TranMan CPU per input: the per-message protocol-processing cost.
const TM_CPU_PER_INPUT: Duration = Duration::from_millis(9);
/// Master-CPU kernel time per local IPC hop. The Mach version of the
/// throughput testbed "had only a single run queue on one master
/// processor" (§4.5), so IPC serializes there; this is what caps read
/// throughput when neither the TranMan thread pool nor the logger does.
const KERNEL_PER_HOP: Duration = Duration::from_micros(3_300);
/// Logger CPU per record batch member: receiving the out-of-line
/// record transfer and processing it. Group commit shares the platter
/// write but not this per-record work, which is what keeps its gain
/// bounded (Figure 4).
const LOGGER_CPU_PER_RECORD: Duration = Duration::from_millis(70);

// The jitter model.

/// Mean of the exponential per-delivery jitter on an idle network.
const JITTER_BASE: Duration = Duration::from_micros(700);
/// Additional jitter mean per datagram in flight — what makes variance
/// grow with network load.
const JITTER_PER_INFLIGHT: Duration = Duration::from_micros(300);
/// Probability that a send hits a scheduling *spike* (page fault,
/// preemption): the heavy tail behind the large standard deviations of
/// the paper's Figures 2–3.
const SPIKE_PROB: f64 = 0.06;
/// Spike magnitude, uniform in `[SPIKE_LO, SPIKE_HI)`.
const SPIKE_LO: Duration = Duration::from_millis(15);
const SPIKE_HI: Duration = Duration::from_millis(55);
/// Escalation of the spike probability across a burst of sequential
/// sends from one site: the k-th send of a burst spikes with
/// probability `SPIKE_PROB * (1 + k * SPIKE_BURST_ESCALATION)`. This is
/// the "variance created by the coordinator's repeated sends" (§4.2); a
/// multicast is a single send and never escalates.
const SPIKE_BURST_ESCALATION: f64 = 1.0;

/// What a disk-manager batch request was for.
#[derive(Debug, Clone, Copy)]
enum DiskReq {
    /// A synchronous engine force; completion feeds `LogForced`.
    Engine(ForceToken),
    /// A background flush of lazily appended records.
    Background,
}

/// Why a thread session is still held: outstanding synchronous forces.
type SessionId = u64;

/// One Camelot site.
pub(crate) struct SiteState {
    pub engine: Engine,
    pub wal: Wal<MemStore>,
    batcher: GroupCommitBatcher,
    breqs: HashMap<ReqId, DiskReq>,
    next_breq: u64,
    /// Lazily appended records awaiting durability.
    lazy: Vec<(ForceToken, Lsn)>,
    lazy_flush_scheduled: bool,
    pub servers: BTreeMap<ServerId, DataServer>,
    pub comman: CommMan,
    timers: HashMap<TimerToken, EventId>,
    /// Earliest time the next datagram may leave (sender cycle time).
    next_send_free: Time,
    /// Bounded TranMan thread pool (throughput mode).
    threads: Option<Resource<World>>,
    /// Master-CPU kernel (throughput mode): serializes local IPC.
    kernel: Option<Resource<World>>,
    /// Forces a parked thread is waiting on.
    held: HashMap<ForceToken, SessionId>,
    sessions: HashMap<SessionId, usize>,
    next_session: u64,
}

impl SiteState {
    /// Asks the disk manager to make everything up to `upto` durable.
    fn request_write(&mut self, kind: DiskReq, upto: Lsn, now: Time) -> Vec<BatcherAction> {
        let breq = ReqId(self.next_breq);
        self.next_breq += 1;
        self.breqs.insert(breq, kind);
        self.batcher.request(breq, upto, now)
    }
}

/// Routing information for application-level calls.
#[derive(Debug, Clone, Copy)]
enum Pending {
    AppBegin { app: usize },
    AppCommit { app: usize },
    Op { app: usize },
}

/// The complete simulation model.
pub struct World {
    pub cfg: WorldConfig,
    /// The paper's primitive costs (Tables 1–2).
    costs: CostModel,
    pub(crate) sites: BTreeMap<SiteId, SiteState>,
    pub apps: Vec<AppState>,
    pending: HashMap<u64, Pending>,
    next_req: u64,
    /// Datagrams currently in flight (drives load-dependent jitter).
    inflight: usize,
    apps_done: usize,
}

type S = Scheduler<World>;

impl World {
    /// Builds the world: `cfg.sites` sites, each with
    /// `cfg.servers_per_site` data servers (`ServerId(1)`, …).
    pub fn new(cfg: WorldConfig) -> World {
        let mut sites = BTreeMap::new();
        for i in 1..=cfg.sites {
            let id = SiteId(i);
            let mut servers = BTreeMap::new();
            for k in 1..=cfg.servers_per_site.max(1) {
                let sid = ServerId(k);
                servers.insert(sid, DataServer::new(id, sid));
            }
            sites.insert(
                id,
                SiteState {
                    engine: Engine::new(id, cfg.engine.clone()),
                    wal: Wal::new(MemStore::new()),
                    batcher: GroupCommitBatcher::new(cfg.batch),
                    breqs: HashMap::new(),
                    next_breq: 1,
                    lazy: Vec::new(),
                    lazy_flush_scheduled: false,
                    servers,
                    comman: CommMan::new(id),
                    timers: HashMap::new(),
                    next_send_free: Time::ZERO,
                    threads: cfg.threads.map(|t| Resource::new("tm-threads", t)),
                    kernel: cfg.threads.map(|_| Resource::new("kernel", 1)),
                    held: HashMap::new(),
                    sessions: HashMap::new(),
                    next_session: 1,
                },
            );
        }
        World {
            cfg,
            costs: CostModel::rt_pc_mach(),
            sites,
            apps: Vec::new(),
            pending: HashMap::new(),
            next_req: 1,
            inflight: 0,
            apps_done: 0,
        }
    }

    /// Adds a client application; returns its index.
    pub fn add_app(&mut self, spec: AppSpec) -> usize {
        assert!(
            self.sites.contains_key(&spec.home),
            "app home site must exist"
        );
        for op in &spec.ops {
            let st = self.sites.get(&op.site).expect("op site must exist");
            assert!(st.servers.contains_key(&op.server), "op server must exist");
        }
        self.apps.push(AppState::new(spec));
        self.apps.len() - 1
    }

    /// Schedules every app's first transaction.
    pub fn start(&mut self, s: &mut S) {
        for idx in 0..self.apps.len() {
            s.immediately(Box::new(move |w: &mut World, s: &mut S| {
                World::app_begin(w, s, idx);
            }));
        }
    }

    /// Runs until all apps finish or `deadline` passes. Returns true
    /// if all apps finished.
    pub fn run(&mut self, s: &mut S, deadline: Time) -> bool {
        loop {
            if self.apps_done >= self.apps.len() {
                return true;
            }
            if s.now() > deadline {
                return false;
            }
            if !s.step(self) {
                return self.apps_done >= self.apps.len();
            }
        }
    }

    /// Per-app transaction records after a run.
    pub fn records(&self, app: usize) -> &[TxnRecord] {
        &self.apps[app].records
    }

    /// Processes remaining events (cleanup traffic: commit notices,
    /// acks, background flushes) for up to `grace` of virtual time
    /// after the workload finished.
    pub fn settle(&mut self, s: &mut S, grace: Duration) {
        let deadline = s.now() + grace;
        s.run_until(self, deadline);
    }

    /// Immutable access to a site's engine (assertions in tests).
    pub fn engine(&self, site: SiteId) -> &Engine {
        &self.sites[&site].engine
    }

    /// A server's committed object value.
    pub fn committed_value(&self, site: SiteId, server: ServerId, obj: ObjectId) -> Vec<u8> {
        self.sites
            .get(&site)
            .and_then(|st| st.servers.get(&server))
            .map(|srv| srv.committed_value(obj).to_vec())
            .unwrap_or_default()
    }

    /// Effective platter writes at a site.
    pub fn platter_writes(&self, site: SiteId) -> u64 {
        self.sites[&site].batcher.writes()
    }

    fn site(&mut self, site: SiteId) -> &mut SiteState {
        self.sites.get_mut(&site).expect("site exists")
    }

    fn server(&mut self, site: SiteId, server: ServerId) -> &mut DataServer {
        self.site(site)
            .servers
            .get_mut(&server)
            .expect("server exists")
    }

    // =================================================================
    // Cost helpers
    // =================================================================

    fn server_hop(&self) -> Duration {
        self.costs.local_ipc_to_server / 2
    }

    fn rpc_hop(&self) -> Duration {
        self.costs.remote_rpc / 2
    }

    /// One platter write carrying `records` batch members: Table 2's
    /// log force on the latency testbed; on the throughput testbed its
    /// slower platter plus the logger's CPU per record.
    fn platter_write(&self, records: u64) -> Duration {
        match self.cfg.threads {
            None => self.costs.log_force,
            Some(_) => self.costs.log_platter_write + LOGGER_CPU_PER_RECORD * records,
        }
    }

    /// Smooth (exponential) jitter: applied to RPC hops.
    fn jitter_smooth(&mut self, s: &mut S) -> Duration {
        if !self.cfg.jitter {
            return Duration::ZERO;
        }
        s.rng()
            .exp(JITTER_BASE + JITTER_PER_INFLIGHT * self.inflight as u64)
    }

    /// Datagram-send jitter: the smooth component plus the occasional
    /// heavy-tailed scheduling spike. The spike rides on *sends*, and
    /// its probability escalates across a burst of sequential sends
    /// from one site — the coordinator's repeated sends are exactly
    /// where the paper locates the variance, and a multicast (a
    /// single send, `burst_idx` 0) escapes the escalation.
    fn jitter(&mut self, s: &mut S, burst_idx: usize) -> Duration {
        let mut d = self.jitter_smooth(s);
        let p = SPIKE_PROB * (1.0 + SPIKE_BURST_ESCALATION * burst_idx as f64);
        if self.cfg.jitter && s.rng().chance(p.min(1.0)) {
            let (lo, hi) = (SPIKE_LO.as_micros(), SPIKE_HI.as_micros());
            d += Duration::from_micros(s.rng().uniform_u64(lo, hi));
        }
        d
    }

    /// Delivers a local IPC hop: the stated latency plus the per-hop
    /// CPU overhead (exponential; a zero mean draws nothing), serialized
    /// through the site's master-CPU kernel on the throughput testbed.
    fn hop(w: &mut World, s: &mut S, site: SiteId, delay: Duration, cont: Event<World>) {
        let delay = delay + s.rng().exp(w.cfg.hop_overhead_mean);
        let t0 = s.now();
        let Some(kernel) = w.site(site).kernel.as_mut() else {
            s.after(delay, cont);
            return;
        };
        kernel.acquire(
            s,
            Box::new(move |_w: &mut World, s: &mut S| {
                // The grant time: queueing behind the master CPU.
                let grant = s.now();
                s.after(
                    KERNEL_PER_HOP,
                    Box::new(move |w: &mut World, s: &mut S| {
                        w.site(site).kernel.as_mut().expect("kernel on").release(s);
                        // The kernel service happens *within* the hop's
                        // latency: at light load the hop costs exactly its
                        // latency; under queueing the latency restarts at
                        // the grant.
                        let target = (t0 + delay).max(grant + delay).max(s.now());
                        s.at(target, cont);
                    }),
                );
            }),
        );
    }

    /// One local IPC hop between an application and its TranMan: half
    /// a local in-line IPC round.
    fn tm_hop(w: &mut World, s: &mut S, site: SiteId, cont: Event<World>) {
        let delay = w.costs.local_ipc / 2;
        World::hop(w, s, site, delay, cont);
    }

    fn alloc_req(&mut self, p: Pending) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        self.pending.insert(r, p);
        r
    }

    // =================================================================
    // Application flow
    // =================================================================

    fn app_begin(w: &mut World, s: &mut S, app: usize) {
        let st = &mut w.apps[app];
        st.started = s.now();
        st.op_idx = 0;
        st.op_time = Duration::ZERO;
        st.tid = None;
        let home = st.spec.home;
        let req = w.alloc_req(Pending::AppBegin { app });
        World::tm_hop(
            w,
            s,
            home,
            Box::new(move |w: &mut World, s: &mut S| {
                World::tm_dispatch(w, s, home, Input::Begin { req });
            }),
        );
    }

    fn app_begin_done(w: &mut World, s: &mut S, app: usize, tid: Tid) {
        w.apps[app].tid = Some(tid);
        World::app_next_op(w, s, app);
    }

    fn app_next_op(w: &mut World, s: &mut S, app: usize) {
        let st = &w.apps[app];
        if st.op_idx >= st.spec.ops.len() {
            World::app_commit(w, s, app);
            return;
        }
        let op = st.spec.ops[st.op_idx].clone();
        let tid = st.tid.clone().expect("transaction begun");
        let home = st.spec.home;
        let req = w.alloc_req(Pending::Op { app });
        w.apps[app].op_started = s.now();
        let request = match op.kind {
            OpKind::Read => Request::Read {
                req,
                tid: tid.clone(),
                object: op.object,
            },
            OpKind::Write => Request::Write {
                req,
                tid: tid.clone(),
                object: op.object,
                value: s.now().as_micros().to_le_bytes().to_vec(),
            },
        };
        let serve = move |w: &mut World, s: &mut S| {
            World::serve(w, s, op.site, op.server, |srv| srv.handle(request));
        };
        if op.site == home {
            let delay = w.server_hop();
            World::hop(w, s, op.site, delay, Box::new(serve));
        } else {
            // Remote operation through CornMan: the home communication
            // manager notes the spread.
            w.site(home).comman.note_outgoing(tid.family, op.site);
            w.inflight += 1;
            let delay = w.rpc_hop() + w.jitter_smooth(s);
            s.after(
                delay,
                Box::new(move |w: &mut World, s: &mut S| {
                    w.inflight -= 1;
                    serve(w, s);
                }),
            );
        }
    }

    fn app_op_done(w: &mut World, s: &mut S, app: usize) {
        let st = &mut w.apps[app];
        st.op_time += s.now().since(st.op_started);
        st.op_idx += 1;
        World::app_next_op(w, s, app);
    }

    fn app_commit(w: &mut World, s: &mut S, app: usize) {
        let st = &w.apps[app];
        let tid = st.tid.clone().expect("transaction begun");
        let home = st.spec.home;
        let mode = st.spec.mode;
        let participants = w.site(home).comman.participants(&tid.family);
        let req = w.alloc_req(Pending::AppCommit { app });
        let input = Input::CommitTop {
            req,
            tid,
            mode,
            participants,
        };
        World::tm_hop(
            w,
            s,
            home,
            Box::new(move |w: &mut World, s: &mut S| {
                World::tm_dispatch(w, s, home, input);
            }),
        );
    }

    fn app_commit_done(w: &mut World, s: &mut S, app: usize, outcome: Outcome) {
        let now = s.now();
        let st = &mut w.apps[app];
        let tid = st.tid.take().expect("transaction begun");
        st.records.push(TxnRecord {
            start: st.started,
            end: now,
            outcome,
            op_time: st.op_time,
        });
        let home = st.spec.home;
        let think = st.spec.think;
        w.site(home).comman.forget(&tid.family);
        if w.apps[app].done() {
            w.apps_done += 1;
            return;
        }
        s.after(
            think,
            Box::new(move |w: &mut World, s: &mut S| {
                World::app_begin(w, s, app);
            }),
        );
    }

    // =================================================================
    // Data servers
    // =================================================================

    /// Makes one call on a data server and applies what it produced:
    /// its log records, a join-transaction call to the local TranMan
    /// (overlapped with operation processing; Figure 1 step 4), then
    /// its completed operations. Blocked operations surface later
    /// through lock releases.
    fn serve(
        w: &mut World,
        s: &mut S,
        site: SiteId,
        server: ServerId,
        call: impl FnOnce(&mut DataServer) -> Effects,
    ) {
        let fx = call(w.server(site, server));
        let st = w.site(site);
        for rec in fx.log {
            st.wal.append(&rec).expect("append");
        }
        if let Some(tid) = fx.join {
            World::tm_dispatch(w, s, site, Input::Join { tid, server });
        }
        for reply in fx.replies {
            World::op_reply(w, s, site, reply.req);
        }
    }

    /// Resolves a family (after its locks drop) or a sub-transaction
    /// (at once) at each of `servers`.
    fn resolve(
        w: &mut World,
        s: &mut S,
        site: SiteId,
        servers: Vec<ServerId>,
        tid: Tid,
        outcome: Outcome,
    ) {
        let family = tid.is_top_level();
        let fan_out = move |w: &mut World, s: &mut S| {
            for server in servers {
                World::serve(w, s, site, server, |srv| srv.resolve(&tid, outcome));
            }
        };
        if family {
            s.after(w.costs.drop_lock, Box::new(fan_out));
        } else {
            fan_out(w, s);
        }
    }

    /// Routes a completed operation back to its application.
    fn op_reply(w: &mut World, s: &mut S, site: SiteId, req: u64) {
        let Some(Pending::Op { app }) = w.pending.remove(&req) else {
            return;
        };
        let home = w.apps[app].spec.home;
        if site == home {
            let delay = w.server_hop() + w.costs.get_lock;
            World::hop(
                w,
                s,
                site,
                delay,
                Box::new(move |w: &mut World, s: &mut S| {
                    World::app_op_done(w, s, app);
                }),
            );
        } else {
            // Reply crosses back through both communication managers,
            // stamped with the sites used; the home CornMan merges the
            // stamp.
            let family = w.apps[app]
                .tid
                .as_ref()
                .map(|t| t.family)
                .expect("transaction active");
            let stamp = w.site(site).comman.reply_stamp(&family);
            w.inflight += 1;
            let delay = w.rpc_hop() + w.costs.get_lock + w.jitter_smooth(s);
            s.after(
                delay,
                Box::new(move |w: &mut World, s: &mut S| {
                    w.inflight -= 1;
                    w.site(home).comman.merge_reply_stamp(family, &stamp);
                    World::app_op_done(w, s, app);
                }),
            );
        }
    }

    // =================================================================
    // Transaction manager
    // =================================================================

    /// Entry point for every TranMan input: applies the thread-pool
    /// model in throughput mode, then processes.
    pub(crate) fn tm_dispatch(w: &mut World, s: &mut S, site: SiteId, input: Input) {
        if w.cfg.threads.is_none() {
            World::tm_process(w, s, site, input);
            return;
        }
        // A force completion whose thread is parked continues on that
        // thread without re-acquiring.
        if let Input::LogForced { token } = input {
            if let Some(sess) = w.site(site).held.remove(&token) {
                let new_forces = World::tm_process(w, s, site, input);
                let st = w.site(site);
                let remaining = st.sessions.get_mut(&sess).expect("session live");
                *remaining -= 1;
                *remaining += new_forces.len();
                for t in new_forces {
                    st.held.insert(t, sess);
                }
                if *remaining == 0 {
                    st.sessions.remove(&sess);
                    st.threads.as_mut().expect("bounded").release(s);
                }
                return;
            }
        }
        w.site(site).threads.as_mut().expect("bounded").acquire(
            s,
            Box::new(move |_w: &mut World, s: &mut S| {
                s.after(
                    TM_CPU_PER_INPUT,
                    Box::new(move |w: &mut World, s: &mut S| {
                        let forces = World::tm_process(w, s, site, input);
                        let st = w.site(site);
                        if forces.is_empty() {
                            st.threads.as_mut().expect("bounded").release(s);
                        } else {
                            // Hold the thread across the synchronous
                            // force(s) — the §3.4 blocking behaviour that
                            // makes a single-threaded TranMan saturate.
                            let sess = st.next_session;
                            st.next_session += 1;
                            st.sessions.insert(sess, forces.len());
                            for t in forces {
                                st.held.insert(t, sess);
                            }
                        }
                    }),
                );
            }),
        );
    }

    /// Runs the engine on one input and applies the resulting actions.
    /// Returns the synchronous force tokens issued.
    fn tm_process(w: &mut World, s: &mut S, site: SiteId, input: Input) -> Vec<ForceToken> {
        let actions = w.site(site).engine.handle(input, s.now());
        let mut forces = Vec::new();
        for a in actions {
            World::apply_action(w, s, site, a, &mut forces);
        }
        forces
    }

    fn apply_action(
        w: &mut World,
        s: &mut S,
        site: SiteId,
        action: Action,
        forces: &mut Vec<ForceToken>,
    ) {
        match action {
            Action::Began { req, tid } => {
                if let Some(Pending::AppBegin { app }) = w.pending.remove(&req) {
                    World::tm_hop(
                        w,
                        s,
                        site,
                        Box::new(move |w: &mut World, s: &mut S| {
                            World::app_begin_done(w, s, app, tid);
                        }),
                    );
                }
            }
            Action::Resolved { req, outcome, .. } => {
                if let Some(Pending::AppCommit { app }) = w.pending.remove(&req) {
                    World::tm_hop(
                        w,
                        s,
                        site,
                        Box::new(move |w: &mut World, s: &mut S| {
                            World::app_commit_done(w, s, app, outcome);
                        }),
                    );
                }
            }
            Action::Rejected { req, tid, detail } => {
                panic!("engine rejected req {req} for {tid}: {detail}");
            }
            Action::AskVote { tid, servers } => {
                let delay = w.server_hop();
                for server in servers {
                    let tid = tid.clone();
                    World::hop(
                        w,
                        s,
                        site,
                        delay,
                        Box::new(move |w: &mut World, s: &mut S| {
                            let vote = w.server(site, server).vote(tid.family);
                            let delay = w.server_hop();
                            World::hop(
                                w,
                                s,
                                site,
                                delay,
                                Box::new(move |w: &mut World, s: &mut S| {
                                    World::tm_dispatch(
                                        w,
                                        s,
                                        site,
                                        Input::ServerVote { tid, server, vote },
                                    );
                                }),
                            );
                        }),
                    );
                }
            }
            Action::ServerResolve {
                tid,
                servers,
                outcome,
            } => World::resolve(w, s, site, servers, tid, outcome),
            Action::Send { to, msg, piggyback } => {
                World::send_datagrams(w, s, site, vec![to], msg, piggyback, false);
            }
            Action::Broadcast { to, msg } => {
                let multicast = w.cfg.multicast;
                World::send_datagrams(w, s, site, to, msg, vec![], multicast);
            }
            Action::RelayAbort { tid } => {
                let st = w.site(site);
                let targets = st.comman.participants(&tid.family);
                st.comman.forget(&tid.family);
                if !targets.is_empty() {
                    World::send_datagrams(
                        w,
                        s,
                        site,
                        targets,
                        TmMessage::Abort { tid },
                        vec![],
                        false,
                    );
                }
            }
            Action::Append { rec } => {
                w.site(site).wal.append(&rec).expect("append");
            }
            Action::Force { rec, token } => {
                forces.push(token);
                let now = s.now();
                let st = w.site(site);
                st.wal.append(&rec).expect("append");
                let end = st.wal.end_lsn();
                let actions = st.request_write(DiskReq::Engine(token), end, now);
                World::apply_batch_actions(w, s, site, actions);
            }
            Action::AppendNotify { rec, token } => {
                let st = w.site(site);
                st.wal.append(&rec).expect("append");
                let end = st.wal.end_lsn();
                st.lazy.push((token, end));
                World::ensure_lazy_flush(w, s, site);
            }
            Action::SetTimer { token, after } => {
                let ev = s.after(
                    after,
                    Box::new(move |w: &mut World, s: &mut S| {
                        w.site(site).timers.remove(&token);
                        World::tm_dispatch(w, s, site, Input::TimerFired { token });
                    }),
                );
                w.site(site).timers.insert(token, ev);
            }
            Action::CancelTimer { token } => {
                if let Some(ev) = w.site(site).timers.remove(&token) {
                    s.cancel(ev);
                }
            }
        }
    }

    // =================================================================
    // Network
    // =================================================================

    /// The next departure slot of `from`'s sender: no earlier than now,
    /// and one cycle time after the previous send.
    fn send_slot(&mut self, from: SiteId, now: Time) -> Time {
        let cycle = self.costs.datagram_cycle;
        let st = self.site(from);
        let slot = st.next_send_free.max(now);
        st.next_send_free = slot + cycle;
        slot
    }

    /// Sends `msg` (+`piggyback`) to each destination. With multicast
    /// one send slot covers all destinations; otherwise sends are
    /// serialized by the 1.7 ms cycle time — the cause of the
    /// coordinator-side variance the §4.2 multicast experiment
    /// removes.
    fn send_datagrams(
        w: &mut World,
        s: &mut S,
        from: SiteId,
        to: Vec<SiteId>,
        msg: TmMessage,
        piggyback: Vec<TmMessage>,
        multicast: bool,
    ) {
        let latency = w.costs.datagram;
        let mut slot = w.send_slot(from, s.now());
        // Sender-side scheduling jitter is drawn per *send*: a
        // multicast is one send, so all destinations share one draw —
        // which is exactly why multicast cuts the variance the
        // coordinator's repeated sends otherwise create (§4.2).
        let mut send_jitter = w.jitter(s, 0);
        for (i, dst) in to.iter().copied().enumerate() {
            if i > 0 && !multicast {
                slot = w.send_slot(from, s.now());
                send_jitter = w.jitter(s, i);
            }
            let mut msgs = vec![msg.clone()];
            msgs.extend(piggyback.iter().cloned());
            w.inflight += 1;
            let arrival = slot + latency + send_jitter;
            debug_assert!(arrival >= s.now());
            s.at(
                arrival.max(s.now()),
                Box::new(move |w: &mut World, s: &mut S| {
                    w.inflight -= 1;
                    for m in msgs {
                        World::tm_dispatch(w, s, dst, Input::Datagram { from, msg: m });
                    }
                }),
            );
        }
    }

    // =================================================================
    // Disk manager (group commit)
    // =================================================================

    fn apply_batch_actions(w: &mut World, s: &mut S, site: SiteId, actions: Vec<BatcherAction>) {
        for a in actions {
            match a {
                BatcherAction::StartWrite { upto } => {
                    let records = w.site(site).batcher.pending_covered(upto).max(1) as u64;
                    s.after(
                        w.platter_write(records),
                        Box::new(move |w: &mut World, s: &mut S| {
                            let st = w.site(site);
                            st.wal.force().expect("force");
                            let acts = st.batcher.write_complete(s.now());
                            World::apply_batch_actions(w, s, site, acts);
                            World::complete_lazy(w, s, site);
                        }),
                    );
                }
                BatcherAction::SetTimer { at, epoch } => {
                    s.at(
                        at.max(s.now()),
                        Box::new(move |w: &mut World, s: &mut S| {
                            let acts = w.site(site).batcher.timer_fired(epoch, s.now());
                            World::apply_batch_actions(w, s, site, acts);
                        }),
                    );
                }
                BatcherAction::Satisfied { reqs, .. } => {
                    for r in reqs {
                        if let Some(DiskReq::Engine(token)) = w.site(site).breqs.remove(&r) {
                            World::tm_dispatch(w, s, site, Input::LogForced { token });
                        }
                    }
                }
            }
        }
    }

    /// Completes lazily appended records now covered by the durable
    /// watermark.
    fn complete_lazy(w: &mut World, s: &mut S, site: SiteId) {
        let st = w.site(site);
        let durable = st.wal.durable_lsn();
        let mut done = Vec::new();
        st.lazy.retain(|(token, lsn)| {
            if *lsn <= durable {
                done.push(*token);
                false
            } else {
                true
            }
        });
        for token in done {
            World::tm_dispatch(w, s, site, Input::LogDurable { token });
        }
    }

    /// Arms the background flush for lazy records (the platter write
    /// that eventually carries delayed commit records when no forced
    /// write does it sooner).
    fn ensure_lazy_flush(w: &mut World, s: &mut S, site: SiteId) {
        let st = w.site(site);
        if st.lazy_flush_scheduled || st.lazy.is_empty() {
            return;
        }
        st.lazy_flush_scheduled = true;
        s.after(
            w.cfg.lazy_flush,
            Box::new(move |w: &mut World, s: &mut S| {
                let st = w.site(site);
                st.lazy_flush_scheduled = false;
                let Some(upto) = st.lazy.iter().map(|(_, l)| *l).max() else {
                    return;
                };
                let acts = st.request_write(DiskReq::Background, upto, s.now());
                World::apply_batch_actions(w, s, site, acts);
                World::ensure_lazy_flush(w, s, site);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppSpec;
    use camelot_core::testkit::logged_outcomes;
    use camelot_core::{CommitMode, EngineConfig};

    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);

    fn no_jitter(mut cfg: WorldConfig) -> WorldConfig {
        cfg.jitter = false;
        cfg
    }

    fn run_one(cfg: WorldConfig, spec: AppSpec) -> (World, TxnRecord) {
        let seed = cfg.seed;
        let mut w = World::new(cfg);
        let app = w.add_app(spec);
        let mut s = Scheduler::new(seed);
        w.start(&mut s);
        assert!(w.run(&mut s, Time(60_000_000)), "run finished");
        w.settle(&mut s, Duration::from_secs(10));
        let r = w.records(app)[0].clone();
        (w, r)
    }

    #[test]
    fn local_update_latency_matches_static_analysis_exactly() {
        // begin 1.5 + op 3.5 + commit call 1.5 + vote round 3 +
        // commit force 15 = 24.5 ms (paper Table 3: 24.5 of 31).
        let cfg = no_jitter(WorldConfig::latency(1, EngineConfig::default(), 1));
        let spec = AppSpec::minimal(S1, &[], true, CommitMode::TwoPhase, 1);
        let (w, r) = run_one(cfg, spec);
        assert_eq!(r.latency(), Duration::from_micros(24_500));
        assert_eq!(r.outcome, Outcome::Committed);
        // And the value actually committed at the server.
        assert!(!w.committed_value(S1, ServerId(1), ObjectId(1)).is_empty());
    }

    #[test]
    fn platter_write_is_the_testbeds_log_force() {
        // Table 2's 15 ms force on the latency testbed, whatever the
        // batch; the throughput testbed's ~33 ms platter plus the
        // logger's CPU per record.
        let costs = CostModel::rt_pc_mach();
        let w = World::new(WorldConfig::latency(1, EngineConfig::default(), 1));
        assert_eq!(w.platter_write(3), Duration::from_millis(15));
        assert_eq!(w.platter_write(3), costs.log_force);
        let w = World::new(WorldConfig::throughput(5, true, 4, 1));
        assert!(w.platter_write(1) > Duration::from_millis(30));
        assert_eq!(
            w.platter_write(2),
            costs.log_platter_write + LOGGER_CPU_PER_RECORD * 2
        );
    }

    #[test]
    fn local_read_latency_matches_static_analysis_exactly() {
        // Same minus the 15 ms force: 9.5 ms (paper: 9.5 of 13).
        let cfg = no_jitter(WorldConfig::latency(1, EngineConfig::default(), 1));
        let spec = AppSpec::minimal(S1, &[], false, CommitMode::TwoPhase, 1);
        let (w, r) = run_one(cfg, spec);
        assert_eq!(r.latency(), Duration::from_micros(9_500));
        assert_eq!(w.platter_writes(S1), 0, "read-only commit hits no disk");
    }

    #[test]
    fn one_subordinate_update_latency_in_paper_band() {
        // Paper: static 99.5, measured 110 (sd 17). Without jitter the
        // simulation is deterministic and must land between the
        // completion-path lower bound and the measured mean.
        let cfg = no_jitter(WorldConfig::latency(2, EngineConfig::default(), 1));
        let spec = AppSpec::minimal(S1, &[S2], true, CommitMode::TwoPhase, 1);
        let (w, r) = run_one(cfg, spec);
        let ms = r.latency().as_millis_f64();
        assert!((85.0..112.0).contains(&ms), "latency {ms}ms");
        // Both sites committed the value (cleanup settled in run_one).
        assert!(!w.committed_value(S2, ServerId(1), ObjectId(2)).is_empty());
        assert_eq!(w.engine(S2).stats().forces, 1, "optimized sub: one force");
    }

    #[test]
    fn jitter_raises_mean_and_creates_variance() {
        let mut lat = Vec::new();
        for seed in 0..20 {
            let mut cfg = WorldConfig::latency(2, EngineConfig::default(), seed);
            cfg.seed = seed;
            let spec = AppSpec::minimal(S1, &[S2], true, CommitMode::TwoPhase, 1);
            let (_, r) = run_one(cfg, spec);
            lat.push(r.latency().as_millis_f64());
        }
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        let spread = lat.iter().cloned().fold(f64::MIN, f64::max)
            - lat.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            mean > 90.0,
            "jitter adds to the deterministic path, mean {mean}"
        );
        assert!(spread > 1.0, "different seeds must differ, spread {spread}");
    }

    #[test]
    fn nonblocking_one_subordinate_latency_in_paper_band() {
        // Paper: static 150, measured ~145+ (sd 37).
        let cfg = no_jitter(WorldConfig::latency(2, EngineConfig::default(), 1));
        let spec = AppSpec::minimal(S1, &[S2], true, CommitMode::NonBlocking, 1);
        let (w, r) = run_one(cfg, spec);
        let ms = r.latency().as_millis_f64();
        assert!((120.0..160.0).contains(&ms), "latency {ms}ms");
        assert_eq!(w.engine(S2).stats().forces, 2, "nb sub forces two records");
    }

    #[test]
    fn multi_rep_runs_complete_and_stay_consistent() {
        let cfg = no_jitter(WorldConfig::latency(2, EngineConfig::default(), 3));
        let spec = AppSpec::minimal(S1, &[S2], true, CommitMode::TwoPhase, 25);
        let (w, _) = run_one(cfg, spec);
        assert_eq!(w.records(0).len(), 25);
        for r in w.records(0) {
            assert_eq!(r.outcome, Outcome::Committed);
        }
    }

    #[test]
    fn throughput_mode_runs_and_group_commit_batches() {
        let mut tps = Vec::new();
        for gc in [false, true] {
            let cfg = WorldConfig::throughput(5, gc, 8, 7);
            let mut w = World::new(cfg);
            // Enough concurrent client pairs (each with its own
            // server, as in the paper) to saturate the log disk, so
            // batching has something to batch.
            for k in 0..8u32 {
                let mut spec = AppSpec::minimal(S1, &[], true, CommitMode::TwoPhase, 40);
                spec.ops[0].server = ServerId(k + 1);
                spec.ops[0].object = ObjectId(1000 + k as u64);
                w.add_app(spec);
            }
            let mut s = Scheduler::new(7);
            w.start(&mut s);
            assert!(w.run(&mut s, Time(600_000_000)));
            let total: usize = (0..8).map(|a| w.records(a).len()).sum();
            let secs = s.now().as_secs_f64();
            tps.push(total as f64 / secs);
        }
        assert!(
            tps[1] > tps[0],
            "group commit must raise update throughput: {tps:?}"
        );
    }

    #[test]
    fn single_thread_is_slower_than_five() {
        let mut tps = Vec::new();
        for threads in [1usize, 5] {
            let cfg = WorldConfig::throughput(threads, true, 3, 9);
            let mut w = World::new(cfg);
            for k in 0..3u32 {
                let mut spec = AppSpec::minimal(S1, &[], false, CommitMode::TwoPhase, 40);
                spec.ops[0].server = ServerId(k + 1);
                spec.ops[0].object = ObjectId(1000 + k as u64);
                w.add_app(spec);
            }
            let mut s = Scheduler::new(9);
            w.start(&mut s);
            assert!(w.run(&mut s, Time(120_000_000)));
            let total: usize = (0..3).map(|a| w.records(a).len()).sum();
            tps.push(total as f64 / s.now().as_secs_f64());
        }
        assert!(tps[1] > tps[0] * 1.1, "threads must help reads: {tps:?}");
    }

    #[test]
    fn abort_relays_through_intermediate_sites() {
        // Ref [7]: the abort initiator knows only its direct callee
        // (site 2); site 2's communication manager knows the
        // transaction also spread to site 3. The abort must relay
        // B -> C even though A never heard of C.
        let cfg = no_jitter(WorldConfig::latency(3, EngineConfig::default(), 5));
        let mut w = World::new(cfg);
        let mut s = Scheduler::new(5);
        // Build the family by hand: begin at site 1.
        let tid = {
            let actions = w
                .site(S1)
                .engine
                .handle(Input::Begin { req: 1 }, Time::ZERO);
            match &actions[0] {
                camelot_core::Action::Began { tid, .. } => tid.clone(),
                other => panic!("{other:?}"),
            }
        };
        // Site 3 joined (an operation forwarded by site 2's server).
        World::tm_dispatch(
            &mut w,
            &mut s,
            SiteId(3),
            camelot_core::Input::Join {
                tid: tid.clone(),
                server: ServerId(1),
            },
        );
        // Site 2 joined too, and ITS CornMan knows about site 3.
        World::tm_dispatch(
            &mut w,
            &mut s,
            S2,
            camelot_core::Input::Join {
                tid: tid.clone(),
                server: ServerId(1),
            },
        );
        w.site(S2).comman.note_outgoing(tid.family, SiteId(3));
        // Site 1 aborts knowing only site 2.
        World::tm_dispatch(
            &mut w,
            &mut s,
            S1,
            camelot_core::Input::AbortTx {
                req: 2,
                tid: tid.clone(),
                reason: camelot_types::AbortReason::Application,
                participants: vec![S2],
            },
        );
        s.run(&mut w);
        // Site 3 learned the abort via the relay: its log says so.
        let wal = &mut w.site(SiteId(3)).wal;
        wal.force().expect("force");
        let records = wal.recover().expect("recover");
        assert_eq!(
            logged_outcomes(records.iter().map(|(_, rec)| rec)).get(&tid.family),
            Some(&Outcome::Aborted),
            "abort must relay through site 2"
        );
        assert_eq!(w.engine(SiteId(3)).live_families(), 0);
    }

    #[test]
    fn multicast_reduces_send_serialization() {
        // With three subordinates the sequential sender pays 2 extra
        // cycle times on the last prepare; multicast pays none.
        let mk = |multicast: bool| {
            let mut cfg = no_jitter(WorldConfig::latency(4, EngineConfig::default(), 5));
            cfg.multicast = multicast;
            let spec = AppSpec::minimal(
                S1,
                &[SiteId(2), SiteId(3), SiteId(4)],
                true,
                CommitMode::TwoPhase,
                1,
            );
            let (_, r) = run_one(cfg, spec);
            r.latency()
        };
        let seq = mk(false);
        let mc = mk(true);
        assert!(mc < seq, "multicast {mc} must beat sequential {seq}");
    }
}
