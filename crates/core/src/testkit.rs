//! Protocol test harness: wires several engines to in-memory logs and
//! an instantaneous network, with manual control over virtual time,
//! crashes and partitions.
//!
//! This is the tool for *protocol-logic* testing (including the
//! property-based failure-injection suites in `tests/`): messages
//! deliver instantly, forces complete synchronously, and timers fire
//! only when the test asks. The latency-faithful simulation lives in
//! `camelot-node`.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use camelot_net::{Outcome, TmMessage, Vote};
use camelot_types::{AbortReason, FamilyId, ServerId, SiteId, Tid, Time};
use camelot_wal::{LogRecord, MemStore, Wal};

use crate::config::{CommitMode, EngineConfig};
use crate::engine::Engine;
use crate::io::{Action, ForceToken, Input, TimerToken};

/// One simulated site: engine + log + pending lazy appends.
pub struct SiteBox {
    pub engine: Engine,
    pub wal: Wal<MemStore>,
    /// Tokens of lazily appended records not yet durable.
    pub lazy: Vec<ForceToken>,
    /// Servers the harness auto-votes for: map server -> vote.
    pub auto_votes: HashMap<ServerId, Vote>,
}

/// Scheduled timer entry.
struct TimerEntry {
    at: Time,
    site: SiteId,
    token: TimerToken,
    cancelled: bool,
}

/// The harness.
pub struct Net {
    /// Ordered, so that everything that walks the sites (abort relay,
    /// heal, flush rounds) does so in the same order on every run.
    pub sites: BTreeMap<SiteId, SiteBox>,
    queue: VecDeque<(SiteId, Input)>,
    timers: Vec<TimerEntry>,
    pub now: Time,
    pub down: BTreeSet<SiteId>,
    /// Partition groups: messages cross only within a group. Empty
    /// means fully connected.
    pub partition: Vec<BTreeSet<SiteId>>,
    /// Deterministic message loss: drop every `drop_every`-th
    /// datagram (0 = lossless). The protocols' timeout/retry
    /// machinery must recover.
    pub drop_every: usize,
    datagram_count: usize,
    pub dropped: usize,
    /// Application-visible actions, in order.
    pub events: Vec<(SiteId, Action)>,
    /// When `false`, `inject` (and the helpers built on it) only
    /// enqueue: nothing is processed until an explicit `drain` or
    /// `step_at`. This is the hook the chaos explorer uses to pick
    /// delivery orders; the default `true` keeps the historical
    /// run-to-quiescence behaviour.
    pub auto_drain: bool,
    /// When `true`, `Action::RelayAbort` is approximated by
    /// broadcasting the abort to all other sites, standing in for the
    /// communication managers' abort relaying (the node and rt
    /// runtimes do this along recorded spread). Default `false`.
    pub relay_aborts: bool,
    /// Running FNV-1a digest of every engine step — the site, the
    /// input, the step's actions as sorted `Debug` strings (the order
    /// of actions *within* one step is not part of the contract; log
    /// and datagram order show up in later steps and in the WAL) and
    /// the engine's counters after the step. `None` (the default)
    /// records nothing; set it to `Some(`[`FNV_OFFSET`]`)` to record.
    /// The behaviour-equivalence oracle (`tests/golden_actions.rs`)
    /// pins this value over a chaos campaign.
    pub action_digest: Option<u64>,
    next_req: u64,
}

/// Initial state of [`Net::action_digest`] (the FNV-1a offset basis).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` and a terminator into an FNV-1a state.
pub fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for b in bytes.iter().chain(&[0xff]) {
        *state = (*state ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Net {
    /// Builds `n` sites with ids 1..=n, all using `config`.
    pub fn new(n: u32, config: EngineConfig) -> Net {
        let mut sites = BTreeMap::new();
        for i in 1..=n {
            let id = SiteId(i);
            sites.insert(
                id,
                SiteBox {
                    engine: Engine::new(id, config.clone()),
                    wal: Wal::new(MemStore::new()),
                    lazy: Vec::new(),
                    auto_votes: HashMap::new(),
                },
            );
        }
        Net {
            sites,
            queue: VecDeque::new(),
            timers: Vec::new(),
            now: Time::ZERO,
            down: BTreeSet::new(),
            partition: Vec::new(),
            drop_every: 0,
            datagram_count: 0,
            dropped: 0,
            events: Vec::new(),
            auto_drain: true,
            relay_aborts: false,
            action_digest: None,
            next_req: 100,
        }
    }

    pub fn next_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn connected(&self, a: SiteId, b: SiteId) -> bool {
        if self.partition.is_empty() {
            return true;
        }
        self.partition
            .iter()
            .any(|g| g.contains(&a) && g.contains(&b))
    }

    /// Feeds one input and (in auto-drain mode) runs to quiescence
    /// (all queued inputs processed; timers stay pending).
    pub fn inject(&mut self, site: SiteId, input: Input) {
        self.queue.push_back((site, input));
        if self.auto_drain {
            self.drain();
        }
    }

    /// Processes queued inputs until none remain.
    pub fn drain(&mut self) {
        while self.step_at(0) {}
    }

    /// Number of queued, undelivered inputs.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Peeks at a queued input without delivering it.
    pub fn queued(&self, idx: usize) -> Option<(SiteId, &Input)> {
        self.queue.get(idx).map(|(s, i)| (*s, i))
    }

    /// Delivers exactly the `idx`-th queued input (an input addressed
    /// to a down site is silently discarded, as `drain` does). Any
    /// follow-on inputs the handling produces are enqueued but *not*
    /// processed. Returns false if `idx` is out of range.
    pub fn step_at(&mut self, idx: usize) -> bool {
        let Some((site, input)) = self.queue.remove(idx) else {
            return false;
        };
        if self.down.contains(&site) {
            return true;
        }
        let now = self.now;
        let label = self.action_digest.map(|_| format!("{input:?}"));
        let actions = {
            let sb = self.sites.get_mut(&site).expect("site exists");
            sb.engine.handle(input, now)
        };
        if let Some(label) = label {
            self.fold_step(site, &label, &actions);
        }
        for a in actions {
            self.apply(site, a);
        }
        true
    }

    fn fold_step(&mut self, site: SiteId, input: &str, actions: &[Action]) {
        let Some(state) = &mut self.action_digest else {
            return;
        };
        let mut lines: Vec<String> = actions.iter().map(|a| format!("{a:?}")).collect();
        lines.sort();
        fnv1a(state, &site.0.to_le_bytes());
        fnv1a(state, input.as_bytes());
        for line in &lines {
            fnv1a(state, line.as_bytes());
        }
        let stats = self.sites[&site].engine.stats();
        fnv1a(state, format!("{stats:?}").as_bytes());
    }

    /// Discards the `idx`-th queued input (targeted message loss).
    pub fn drop_at(&mut self, idx: usize) -> bool {
        if self.queue.remove(idx).is_some() {
            self.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Re-enqueues a copy of the `idx`-th queued input at the back of
    /// the queue (datagram duplication). Only network datagrams are
    /// duplicated — log-completion and timer inputs are inherently
    /// exactly-once, so the call is a no-op (returning false) for
    /// them.
    pub fn dup_at(&mut self, idx: usize) -> bool {
        match self.queue.get(idx) {
            Some((site, input @ Input::Datagram { .. })) => {
                let dup = (*site, input.clone());
                self.queue.push_back(dup);
                true
            }
            _ => false,
        }
    }

    fn apply(&mut self, site: SiteId, action: Action) {
        match action {
            Action::Send { to, msg, piggyback } => {
                self.deliver(site, to, msg);
                for m in piggyback {
                    self.deliver(site, to, m);
                }
            }
            Action::Broadcast { to, msg } => {
                for dst in to {
                    self.deliver(site, dst, msg.clone());
                }
            }
            Action::Force { rec, token } => {
                let sb = self.sites.get_mut(&site).expect("site exists");
                sb.wal.append(&rec).expect("append");
                sb.wal.force().expect("force");
                // A platter write covers lazily appended records too.
                let lazy = std::mem::take(&mut sb.lazy);
                self.queue.push_back((site, Input::LogForced { token }));
                for t in lazy {
                    self.queue.push_back((site, Input::LogDurable { token: t }));
                }
            }
            Action::AppendNotify { rec, token } => {
                let sb = self.sites.get_mut(&site).expect("site exists");
                sb.wal.append(&rec).expect("append");
                sb.lazy.push(token);
            }
            Action::Append { rec } => {
                let sb = self.sites.get_mut(&site).expect("site exists");
                sb.wal.append(&rec).expect("append");
            }
            Action::RelayAbort { tid } => {
                // The testkit has no communication managers; the node
                // and rt runtimes relay along recorded spread. With
                // `relay_aborts` set, approximate the relay by
                // broadcasting the abort to every other site (sites
                // that never knew the family ignore it); otherwise
                // the action is dropped, as before.
                if self.relay_aborts {
                    let others: Vec<SiteId> =
                        self.sites.keys().copied().filter(|s| *s != site).collect();
                    for dst in others {
                        self.deliver(site, dst, TmMessage::Abort { tid: tid.clone() });
                    }
                }
            }
            Action::SetTimer { token, after } => {
                self.timers.push(TimerEntry {
                    at: self.now + after,
                    site,
                    token,
                    cancelled: false,
                });
            }
            Action::CancelTimer { token } => {
                for t in &mut self.timers {
                    if t.site == site && t.token == token {
                        t.cancelled = true;
                    }
                }
            }
            Action::AskVote { tid, servers } => {
                // Auto-vote according to the configured per-server
                // votes (default: read-only).
                let sb = self.sites.get_mut(&site).expect("site exists");
                let votes: Vec<(ServerId, Vote)> = servers
                    .iter()
                    .map(|s| (*s, sb.auto_votes.get(s).copied().unwrap_or(Vote::ReadOnly)))
                    .collect();
                for (server, vote) in votes {
                    self.queue.push_back((
                        site,
                        Input::ServerVote {
                            tid: tid.clone(),
                            server,
                            vote,
                        },
                    ));
                }
            }
            other @ (Action::Began { .. }
            | Action::Resolved { .. }
            | Action::Rejected { .. }
            | Action::ServerCommit { .. }
            | Action::ServerAbort { .. }
            | Action::ServerSubCommit { .. }
            | Action::ServerSubAbort { .. }) => {
                self.events.push((site, other));
            }
        }
    }

    fn deliver(&mut self, from: SiteId, to: SiteId, msg: TmMessage) {
        if self.down.contains(&to) || self.down.contains(&from) {
            return;
        }
        if !self.connected(from, to) {
            return;
        }
        self.datagram_count += 1;
        if self.drop_every > 0 && self.datagram_count.is_multiple_of(self.drop_every) {
            self.dropped += 1;
            return;
        }
        self.queue.push_back((to, Input::Datagram { from, msg }));
    }

    /// Flushes all pending lazy appends at `site` (a background
    /// platter write).
    pub fn flush_lazy(&mut self, site: SiteId) {
        let sb = self.sites.get_mut(&site).expect("site exists");
        sb.wal.force().expect("force");
        let lazy = std::mem::take(&mut sb.lazy);
        for t in lazy {
            self.queue.push_back((site, Input::LogDurable { token: t }));
        }
        self.maybe_drain();
    }

    fn maybe_drain(&mut self) {
        if self.auto_drain {
            self.drain();
        }
    }

    /// Pending timers eligible to fire (not cancelled, site up), in
    /// the deterministic firing order: earliest deadline first, ties
    /// broken by site then token.
    fn eligible_timers(&self) -> Vec<usize> {
        let mut idxs: Vec<usize> = (0..self.timers.len())
            .filter(|&i| {
                let t = &self.timers[i];
                !t.cancelled && !self.down.contains(&t.site)
            })
            .collect();
        idxs.sort_by_key(|&i| {
            let t = &self.timers[i];
            (t.at, t.site, t.token.0)
        });
        idxs
    }

    /// Number of timers eligible to fire.
    pub fn timer_len(&self) -> usize {
        self.eligible_timers().len()
    }

    /// Fires the `k`-th eligible timer in deadline order — `k > 0`
    /// fires a timer out of order, modelling clock skew and timeout
    /// races. Virtual time advances to at least that timer's deadline
    /// (never backwards). Follow-on inputs are enqueued; in auto-drain
    /// mode they are processed to quiescence.
    pub fn fire_timer_at(&mut self, k: usize) -> bool {
        let idxs = self.eligible_timers();
        let Some(&idx) = idxs.get(k) else {
            return false;
        };
        let t = self.timers.remove(idx);
        self.timers.retain(|t| !t.cancelled);
        self.now = self.now.max(t.at);
        self.queue
            .push_back((t.site, Input::TimerFired { token: t.token }));
        self.maybe_drain();
        true
    }

    /// Fires the earliest pending timer (advancing virtual time) and
    /// drains. Returns false if no timers remain.
    pub fn fire_next_timer(&mut self) -> bool {
        self.fire_timer_at(0)
    }

    /// Fires timers until none remain or `limit` firings happened.
    pub fn run_timers(&mut self, limit: usize) {
        for _ in 0..limit {
            if !self.fire_next_timer() {
                return;
            }
        }
    }

    /// Crashes a site: volatile state is lost; the log keeps only the
    /// forced prefix.
    pub fn crash(&mut self, site: SiteId) {
        self.down.insert(site);
        let sb = self.sites.get_mut(&site).expect("site exists");
        sb.wal.store_mut().crash();
        sb.lazy.clear();
        self.timers.retain(|t| t.site != site);
    }

    /// Restarts a crashed site: rebuild the engine from the durable
    /// log via recovery.
    pub fn restart(&mut self, site: SiteId, config: EngineConfig) {
        self.down.remove(&site);
        let records = {
            let sb = self.sites.get_mut(&site).expect("site exists");
            sb.wal.recover().expect("recover")
        };
        let (engine, actions) = Engine::recover(site, config, &records);
        let sb = self.sites.get_mut(&site).expect("site exists");
        sb.engine = engine;
        self.fold_step(site, "restart", &actions);
        for a in actions {
            self.apply(site, a);
        }
        self.maybe_drain();
    }

    // ---------------- High-level workload helpers ----------------

    /// Begins a transaction at `site`, returning its tid.
    pub fn begin(&mut self, site: SiteId) -> Tid {
        let req = self.next_req();
        self.inject(site, Input::Begin { req });
        match self.find_event(site, req) {
            Some(Action::Began { tid, .. }) => tid.clone(),
            other => panic!("begin failed: {other:?}"),
        }
    }

    /// Registers an update operation at (site, server): the server
    /// joins and will vote yes.
    pub fn update_op(&mut self, site: SiteId, server: ServerId, tid: &Tid) {
        self.sites
            .get_mut(&site)
            .expect("site exists")
            .auto_votes
            .insert(server, Vote::Yes);
        self.inject(
            site,
            Input::Join {
                tid: tid.clone(),
                server,
            },
        );
    }

    /// Registers a read-only operation at (site, server).
    pub fn read_op(&mut self, site: SiteId, server: ServerId, tid: &Tid) {
        self.sites
            .get_mut(&site)
            .expect("site exists")
            .auto_votes
            .entry(server)
            .or_insert(Vote::ReadOnly);
        self.inject(
            site,
            Input::Join {
                tid: tid.clone(),
                server,
            },
        );
    }

    /// Makes a server veto the next prepare.
    pub fn veto_op(&mut self, site: SiteId, server: ServerId, tid: &Tid) {
        self.sites
            .get_mut(&site)
            .expect("site exists")
            .auto_votes
            .insert(server, Vote::No);
        self.inject(
            site,
            Input::Join {
                tid: tid.clone(),
                server,
            },
        );
    }

    /// Issues commit-transaction and returns the request id.
    pub fn commit(
        &mut self,
        site: SiteId,
        tid: &Tid,
        mode: CommitMode,
        participants: Vec<SiteId>,
    ) -> u64 {
        let req = self.next_req();
        self.inject(
            site,
            Input::CommitTop {
                req,
                tid: tid.clone(),
                mode,
                participants,
            },
        );
        req
    }

    /// Issues abort-transaction and returns the request id.
    pub fn abort(&mut self, site: SiteId, tid: &Tid, participants: Vec<SiteId>) -> u64 {
        let req = self.next_req();
        self.inject(
            site,
            Input::AbortTx {
                req,
                tid: tid.clone(),
                reason: AbortReason::Application,
                participants,
            },
        );
        req
    }

    /// Finds the app-visible completion for a request id at a site.
    pub fn find_event(&self, site: SiteId, req: u64) -> Option<&Action> {
        self.events.iter().rev().find_map(|(s, a)| {
            if *s != site {
                return None;
            }
            match a {
                Action::Began { req: r, .. }
                | Action::Resolved { req: r, .. }
                | Action::Rejected { req: r, .. }
                    if *r == req =>
                {
                    Some(a)
                }
                _ => None,
            }
        })
    }

    /// The outcome a request resolved with, if it resolved.
    pub fn outcome_of(&self, site: SiteId, req: u64) -> Option<Outcome> {
        match self.find_event(site, req) {
            Some(Action::Resolved { outcome, .. }) => Some(*outcome),
            _ => None,
        }
    }

    /// True if `ServerCommit` was delivered for `tid` at `site`.
    pub fn server_committed(&self, site: SiteId, tid: &Tid) -> bool {
        self.events.iter().any(|(s, a)| {
            *s == site && matches!(a, Action::ServerCommit { tid: t, .. } if t.family == tid.family)
        })
    }

    /// True if `ServerAbort` was delivered for `tid` at `site`.
    pub fn server_aborted(&self, site: SiteId, tid: &Tid) -> bool {
        self.events.iter().any(|(s, a)| {
            *s == site && matches!(a, Action::ServerAbort { tid: t, .. } if t.family == tid.family)
        })
    }

    /// The engine at a site (immutable).
    pub fn engine(&self, site: SiteId) -> &Engine {
        &self.sites.get(&site).expect("site exists").engine
    }

    /// Effective forces at a site's log.
    pub fn forces(&self, site: SiteId) -> u64 {
        self.sites
            .get(&site)
            .expect("site exists")
            .wal
            .stats()
            .forces_effective
    }

    /// Asserts every site that resolved `family` agrees on `outcome`,
    /// and at least `min_sites` resolved it.
    pub fn assert_agreement(&self, family: &FamilyId, outcome: Outcome, min_sites: usize) {
        let mut resolved = 0;
        for (id, sb) in &self.sites {
            if let Some(o) = sb.engine.resolution(family) {
                assert_eq!(o, outcome, "site {id} disagrees on {family}");
                resolved += 1;
            }
        }
        assert!(
            resolved >= min_sites,
            "only {resolved} sites resolved {family}, wanted >= {min_sites}"
        );
    }

    /// Asserts no site resolved the family with `outcome`'s opposite —
    /// used for split-brain checks without requiring resolution.
    pub fn assert_no_conflict(&self, family: &FamilyId) {
        let mut seen: Option<Outcome> = None;
        for (id, sb) in &self.sites {
            if let Some(o) = sb.engine.resolution(family) {
                match seen {
                    None => seen = Some(o),
                    Some(prev) => {
                        assert_eq!(prev, o, "sites disagree on {family} (at {id})")
                    }
                }
            }
        }
    }
}

/// Convenience constructor for records in tests.
pub fn abort_rec(tid: &Tid) -> LogRecord {
    LogRecord::Abort { tid: tid.clone() }
}
