//! The data server proper.

use std::collections::HashMap;

use camelot_locks::{Acquire, Granted, LockManager, Mode};
use camelot_net::Vote;
use camelot_types::{FamilyId, ObjectId, ServerId, SiteId, Tid};
use camelot_wal::LogRecord;

/// One operation request from an application (directly or forwarded
/// by the communication manager from a remote site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read an object's value under a shared lock.
    Read {
        req: u64,
        tid: Tid,
        object: ObjectId,
    },
    /// Write an object's value under an exclusive lock.
    Write {
        req: u64,
        tid: Tid,
        object: ObjectId,
        value: Vec<u8>,
    },
}

impl Request {
    pub fn req(&self) -> u64 {
        match self {
            Request::Read { req, .. } | Request::Write { req, .. } => *req,
        }
    }

    pub fn tid(&self) -> &Tid {
        match self {
            Request::Read { tid, .. } | Request::Write { tid, .. } => tid,
        }
    }
}

/// A completed operation's reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpReply {
    pub req: u64,
    /// The value read (also echoed for writes: the new value).
    pub value: Vec<u8>,
}

/// What the runtime must do after a server call.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// The server touched this transaction's family for the first
    /// time: tell the local transaction manager (join-transaction).
    pub join: Option<Tid>,
    /// Records for the disk manager ("reported as late as possible";
    /// the runtime appends them lazily — the prepare force makes them
    /// durable).
    pub log: Vec<LogRecord>,
    /// Completed operations, including previously blocked ones that a
    /// lock release just unblocked.
    pub replies: Vec<OpReply>,
    /// The *submitted* operation is queued behind a lock.
    pub blocked: bool,
    /// The submitted operation was denied because queueing it would
    /// have closed a waits-for cycle (deadlock). The requester is the
    /// victim: the operation is not queued, and the application should
    /// abort the transaction and retry.
    pub deadlock: bool,
}

impl Effects {
    fn reply(mut self, r: OpReply) -> Self {
        self.replies.push(r);
        self
    }
}

/// Counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub reads: u64,
    pub writes: u64,
    pub lock_waits: u64,
    pub joins: u64,
    /// Operations denied by deadlock detection (requester as victim).
    pub deadlocks: u64,
}

/// One in-progress update (ordered; undo walks this in reverse).
#[derive(Debug, Clone)]
struct Update {
    tid: Tid,
    object: ObjectId,
    old: Vec<u8>,
    new: Vec<u8>,
}

/// Per-family uncommitted state.
#[derive(Debug, Default)]
struct FamilyWork {
    updates: Vec<Update>,
    /// Current uncommitted values (after all updates so far).
    current: HashMap<ObjectId, Vec<u8>>,
}

/// A Camelot data server: recoverable byte-string objects, Moss-model
/// locking, old/new value logging.
pub struct DataServer {
    site: SiteId,
    id: ServerId,
    /// Committed object values. Absent = empty string (objects spring
    /// into existence on first write).
    store: HashMap<ObjectId, Vec<u8>>,
    locks: LockManager,
    work: HashMap<FamilyId, FamilyWork>,
    /// Operations queued behind locks, keyed by (object, tid).
    pending: HashMap<(ObjectId, Tid), Request>,
    /// Families this server must vote "no" on (failure injection).
    poisoned: HashMap<FamilyId, ()>,
    /// Families prepared and in doubt (locks pinned until outcome).
    in_doubt: HashMap<FamilyId, ()>,
    stats: ServerStats,
}

impl DataServer {
    pub fn new(site: SiteId, id: ServerId) -> Self {
        DataServer {
            site,
            id,
            store: HashMap::new(),
            locks: LockManager::new(),
            work: HashMap::new(),
            pending: HashMap::new(),
            poisoned: HashMap::new(),
            in_doubt: HashMap::new(),
            stats: ServerStats::default(),
        }
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    pub fn id(&self) -> ServerId {
        self.id
    }

    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Committed value of an object (what a fresh transaction would
    /// read). Empty slice if never written.
    pub fn committed_value(&self, object: ObjectId) -> &[u8] {
        self.store.get(&object).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of families with uncommitted work.
    pub fn active_families(&self) -> usize {
        self.work.len()
    }

    /// Families with uncommitted work, sorted (tests, leak checks).
    pub fn families(&self) -> Vec<FamilyId> {
        let mut f: Vec<FamilyId> = self.work.keys().copied().collect();
        f.sort();
        f
    }

    /// Direct access to the lock manager (tests, contention metrics).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Poison a family: this server will veto its prepare.
    pub fn poison(&mut self, family: FamilyId) {
        self.poisoned.insert(family, ());
    }

    /// Handles one operation request.
    pub fn handle(&mut self, request: Request) -> Effects {
        let mut fx = Effects::default();
        let tid = request.tid().clone();
        // Join on first touch of the family.
        if let std::collections::hash_map::Entry::Vacant(e) = self.work.entry(tid.family) {
            e.insert(FamilyWork::default());
            fx.join = Some(tid.clone());
            self.stats.joins += 1;
        }
        let (object, mode) = match &request {
            Request::Read { object, .. } => (*object, Mode::Shared),
            Request::Write { object, .. } => (*object, Mode::Exclusive),
        };
        match self.locks.acquire(object, &tid, mode) {
            Acquire::Granted => {
                let r = self.perform(&request, &mut fx);
                fx.reply(r)
            }
            Acquire::Queued => {
                if self.wait_would_deadlock(object, &tid, mode) {
                    // Deny rather than queue: the requester is the
                    // victim. Cancelling the wait may unblock other
                    // waiters the lock manager had queued behind it.
                    let (_, granted) = self.locks.cancel_wait(object, &tid);
                    self.run_granted(granted, &mut fx);
                    self.stats.deadlocks += 1;
                    fx.deadlock = true;
                    fx
                } else {
                    self.stats.lock_waits += 1;
                    self.pending.insert((object, tid), request);
                    fx.blocked = true;
                    fx
                }
            }
        }
    }

    /// Executes a granted operation.
    fn perform(&mut self, request: &Request, fx: &mut Effects) -> OpReply {
        match request {
            Request::Read { req, tid, object } => {
                self.stats.reads += 1;
                let value = self.visible_value(tid.family, *object);
                OpReply { req: *req, value }
            }
            Request::Write {
                req,
                tid,
                object,
                value,
            } => {
                self.stats.writes += 1;
                let old = self.visible_value(tid.family, *object);
                let fam = self.work.entry(tid.family).or_default();
                fam.updates.push(Update {
                    tid: tid.clone(),
                    object: *object,
                    old: old.clone(),
                    new: value.clone(),
                });
                fam.current.insert(*object, value.clone());
                fx.log.push(LogRecord::ServerUpdate {
                    tid: tid.clone(),
                    server: self.id,
                    object: *object,
                    old,
                    new: value.clone(),
                });
                OpReply {
                    req: *req,
                    value: value.clone(),
                }
            }
        }
    }

    /// Whether `tid.family` waiting on `object` in `mode` closes a
    /// waits-for cycle among families.
    ///
    /// Edges run from a waiting family to each family holding a
    /// conflicting lock on the awaited object (exclusive conflicts
    /// with everything; shared only with exclusive). Cycle search is
    /// a DFS from the candidate family. The check is conservative
    /// only in that multiple waiters on one object are all given
    /// edges to the holders, which can declare a deadlock one grant
    /// earlier than strictly necessary — a safe over-approximation,
    /// equivalent to a timeout firing early.
    fn wait_would_deadlock(&self, object: ObjectId, tid: &Tid, mode: Mode) -> bool {
        let me = tid.family;
        let mut edges: HashMap<FamilyId, Vec<FamilyId>> = HashMap::new();
        let add_wait = |edges: &mut HashMap<FamilyId, Vec<FamilyId>>,
                        locks: &LockManager,
                        obj: ObjectId,
                        fam: FamilyId,
                        m: Mode| {
            for (holder, hmode) in locks.holders(obj) {
                if holder.family == fam {
                    continue;
                }
                if m == Mode::Exclusive || hmode == Mode::Exclusive {
                    edges.entry(fam).or_default().push(holder.family);
                }
            }
        };
        for ((obj, waiter), req) in &self.pending {
            let m = match req {
                Request::Read { .. } => Mode::Shared,
                Request::Write { .. } => Mode::Exclusive,
            };
            add_wait(&mut edges, &self.locks, *obj, waiter.family, m);
        }
        add_wait(&mut edges, &self.locks, object, me, mode);
        // DFS: is `me` reachable from its own successors?
        let mut stack: Vec<FamilyId> = edges.get(&me).cloned().unwrap_or_default();
        let mut seen: Vec<FamilyId> = Vec::new();
        while let Some(f) = stack.pop() {
            if f == me {
                return true;
            }
            if seen.contains(&f) {
                continue;
            }
            seen.push(f);
            if let Some(next) = edges.get(&f) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// The value a member of `family` sees: its own uncommitted write
    /// if any, otherwise the committed value.
    fn visible_value(&self, family: FamilyId, object: ObjectId) -> Vec<u8> {
        if let Some(fam) = self.work.get(&family) {
            if let Some(v) = fam.current.get(&object) {
                return v.clone();
            }
        }
        self.store.get(&object).cloned().unwrap_or_default()
    }

    /// Phase-one vote for a top-level commit (Figure 1 step 8).
    pub fn vote(&mut self, family: FamilyId) -> Vote {
        if self.poisoned.remove(&family).is_some() {
            return Vote::No;
        }
        match self.work.get(&family) {
            Some(w) if !w.updates.is_empty() => {
                self.in_doubt.insert(family, ());
                Vote::Yes
            }
            _ => Vote::ReadOnly,
        }
    }

    /// Top-level commit: make updates visible, drop the family's
    /// locks (Figure 1 step 11). Returns effects whose replies are
    /// operations the lock release unblocked.
    pub fn commit_family(&mut self, family: FamilyId) -> Effects {
        let mut fx = Effects::default();
        if let Some(w) = self.work.remove(&family) {
            for (object, value) in w.current {
                self.store.insert(object, value);
            }
        }
        self.in_doubt.remove(&family);
        let granted = self.locks.release_family(family);
        self.run_granted(granted, &mut fx);
        fx
    }

    /// Top-level abort: discard updates, drop locks.
    pub fn abort_family(&mut self, family: FamilyId) -> Effects {
        let mut fx = Effects::default();
        self.work.remove(&family);
        self.in_doubt.remove(&family);
        self.poisoned.remove(&family);
        // Drop queued requests of the family too.
        self.pending.retain(|(_, tid), _| tid.family != family);
        let granted = self.locks.release_family(family);
        self.run_granted(granted, &mut fx);
        fx
    }

    /// Nested commit: the subtree's locks pass to the parent; its
    /// updates simply remain part of the family.
    pub fn sub_commit(&mut self, tid: &Tid) -> Effects {
        let mut fx = Effects::default();
        if tid.is_top_level() {
            return fx;
        }
        let granted = self.locks.commit_subtransaction(tid);
        self.run_granted(granted, &mut fx);
        fx
    }

    /// Nested abort: undo the subtree's updates in reverse order and
    /// release its locks.
    pub fn sub_abort(&mut self, tid: &Tid) -> Effects {
        let mut fx = Effects::default();
        if let Some(w) = self.work.get_mut(&tid.family) {
            // Undo in reverse: restore each update's old value.
            for u in w.updates.iter().rev() {
                if tid.is_self_or_ancestor_of(&u.tid) {
                    w.current.insert(u.object, u.old.clone());
                }
            }
            w.updates.retain(|u| !tid.is_self_or_ancestor_of(&u.tid));
            // Rebuild `current` for objects whose remaining top value
            // comes from surviving updates (the reverse restore above
            // may have clobbered a surviving sibling's newer value
            // only if interleaved; recompute to be exact).
            let mut current: HashMap<ObjectId, Vec<u8>> = HashMap::new();
            for u in &w.updates {
                current.insert(u.object, u.new.clone());
            }
            // Objects now untouched by any surviving update revert to
            // committed state: drop them from `current`.
            w.current = current;
        }
        self.pending
            .retain(|(_, t), _| !tid.is_self_or_ancestor_of(t));
        let granted = self.locks.abort_transaction(tid);
        self.run_granted(granted, &mut fx);
        fx
    }

    /// Completes operations whose locks were just granted.
    fn run_granted(&mut self, granted: Vec<Granted>, fx: &mut Effects) {
        for g in granted {
            if let Some(request) = self.pending.remove(&(g.object, g.tid.clone())) {
                // First touch may have been the queued op itself; the
                // family was created at submit time, so no join here.
                let r = self.perform(&request, fx);
                fx.replies.push(r);
            }
        }
    }

    // ----- Recovery support (used by crate::recovery) -----

    /// Installs a committed value directly, bypassing locking. Used by
    /// log recovery and by the queued execution mode's write-through
    /// (where commit ordering is enforced by the shard queues, not by
    /// this server's lock table).
    pub fn install_committed(&mut self, object: ObjectId, value: Vec<u8>) {
        self.store.insert(object, value);
    }

    /// Reinstates an in-doubt (prepared) family after a restart: its
    /// updates are live, its exclusive locks re-acquired.
    pub(crate) fn install_in_doubt(
        &mut self,
        family: FamilyId,
        updates: Vec<(Tid, ObjectId, Vec<u8>, Vec<u8>)>,
    ) {
        let mut w = FamilyWork::default();
        for (tid, object, old, new) in updates {
            let acq = self.locks.acquire(object, &tid, Mode::Exclusive);
            debug_assert_eq!(acq, Acquire::Granted, "recovery lock conflict");
            w.current.insert(object, new.clone());
            w.updates.push(Update {
                tid,
                object,
                old,
                new,
            });
        }
        self.work.insert(family, w);
        self.in_doubt.insert(family, ());
    }

    /// Families currently prepared and in doubt.
    pub fn in_doubt_families(&self) -> Vec<FamilyId> {
        self.in_doubt.keys().copied().collect()
    }

    /// This server's checkpoint snapshot — the committed store as of
    /// now — as an encoded [`LogRecord::ServerSnapshot`]. Written to
    /// the log (followed by a `Checkpoint` marker), it becomes
    /// recovery's base state and makes older records of
    /// already-resolved families truncatable.
    pub fn snapshot(&self) -> Vec<u8> {
        camelot_wal::record::encode_snapshot(self.id, self.store.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::SiteId;

    const SITE: SiteId = SiteId(1);
    const SRV: ServerId = ServerId(1);

    fn fam(n: u64) -> FamilyId {
        FamilyId {
            origin: SITE,
            seq: n,
        }
    }

    fn top(n: u64) -> Tid {
        Tid::top_level(fam(n))
    }

    fn server() -> DataServer {
        DataServer::new(SITE, SRV)
    }

    fn write(s: &mut DataServer, req: u64, tid: &Tid, obj: u64, v: &[u8]) -> Effects {
        s.handle(Request::Write {
            req,
            tid: tid.clone(),
            object: ObjectId(obj),
            value: v.to_vec(),
        })
    }

    fn read(s: &mut DataServer, req: u64, tid: &Tid, obj: u64) -> Effects {
        s.handle(Request::Read {
            req,
            tid: tid.clone(),
            object: ObjectId(obj),
        })
    }

    #[test]
    fn first_touch_joins_and_logs_update() {
        let mut s = server();
        let t = top(1);
        let fx = write(&mut s, 1, &t, 7, b"hello");
        assert_eq!(fx.join, Some(t.clone()));
        assert_eq!(fx.log.len(), 1);
        match &fx.log[0] {
            LogRecord::ServerUpdate {
                object, old, new, ..
            } => {
                assert_eq!(*object, ObjectId(7));
                assert!(old.is_empty());
                assert_eq!(new, b"hello");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fx.replies[0].value, b"hello");
        // Second op: no join.
        let fx = read(&mut s, 2, &t, 7);
        assert_eq!(fx.join, None);
        assert_eq!(fx.replies[0].value, b"hello");
    }

    #[test]
    fn uncommitted_writes_invisible_to_other_families_and_blocked() {
        let mut s = server();
        let t1 = top(1);
        let t2 = top(2);
        write(&mut s, 1, &t1, 7, b"secret");
        // Another family's read blocks on the exclusive lock.
        let fx = read(&mut s, 2, &t2, 7);
        assert!(fx.blocked);
        assert!(fx.replies.is_empty());
        // Commit t1: t2's read unblocks and sees the committed value.
        let fx = s.commit_family(fam(1));
        assert_eq!(fx.replies.len(), 1);
        assert_eq!(fx.replies[0].req, 2);
        assert_eq!(fx.replies[0].value, b"secret");
    }

    #[test]
    fn abort_discards_updates() {
        let mut s = server();
        let t = top(1);
        write(&mut s, 1, &t, 7, b"doomed");
        s.abort_family(fam(1));
        assert_eq!(s.committed_value(ObjectId(7)), b"");
        assert_eq!(s.active_families(), 0);
    }

    #[test]
    fn vote_yes_only_with_updates() {
        let mut s = server();
        let t1 = top(1);
        let t2 = top(2);
        write(&mut s, 1, &t1, 7, b"x");
        read(&mut s, 2, &t2, 8);
        assert_eq!(s.vote(fam(1)), Vote::Yes);
        assert_eq!(s.vote(fam(2)), Vote::ReadOnly);
        assert_eq!(s.in_doubt_families(), vec![fam(1)]);
    }

    #[test]
    fn poisoned_family_votes_no() {
        let mut s = server();
        let t = top(1);
        write(&mut s, 1, &t, 7, b"x");
        s.poison(fam(1));
        assert_eq!(s.vote(fam(1)), Vote::No);
    }

    #[test]
    fn nested_abort_undoes_only_subtree() {
        let mut s = server();
        let t = top(1);
        let c1 = t.child(1);
        let c2 = t.child(2);
        write(&mut s, 1, &t, 7, b"base");
        write(&mut s, 2, &c1, 7, b"child1");
        write(&mut s, 3, &c1, 8, b"c1-only");
        write(&mut s, 4, &c2, 9, b"c2");
        let fx = s.sub_abort(&c1);
        assert!(fx.replies.is_empty());
        // c1's effects undone; t's and c2's remain.
        let fx = read(&mut s, 5, &t, 7);
        assert_eq!(fx.replies[0].value, b"base");
        let fx = read(&mut s, 6, &t, 8);
        assert_eq!(fx.replies[0].value, b"");
        // Object 9 is exclusively held by the still-active sibling c2:
        // the parent must wait (Moss ancestor rule) until c2 commits
        // upward.
        let fx = read(&mut s, 7, &t, 9);
        assert!(fx.blocked);
        let fx = s.sub_commit(&c2);
        assert_eq!(fx.replies.len(), 1, "parent read unblocked by child commit");
        assert_eq!(fx.replies[0].value, b"c2");
        // Commit: only surviving updates land.
        s.commit_family(fam(1));
        assert_eq!(s.committed_value(ObjectId(7)), b"base");
        assert_eq!(s.committed_value(ObjectId(8)), b"");
        assert_eq!(s.committed_value(ObjectId(9)), b"c2");
    }

    #[test]
    fn nested_commit_inherits_locks_to_parent() {
        let mut s = server();
        let t = top(1);
        let c = t.child(1);
        write(&mut s, 1, &c, 7, b"from-child");
        s.sub_commit(&c);
        // Parent reads the child's (now inherited) value.
        let fx = read(&mut s, 2, &t, 7);
        assert_eq!(fx.replies[0].value, b"from-child");
        // Sibling-family writer still blocked until family end.
        let other = top(2);
        let fx = write(&mut s, 3, &other, 7, b"intruder");
        assert!(fx.blocked);
        let fx = s.commit_family(fam(1));
        assert_eq!(fx.replies.len(), 1, "intruder unblocked at family commit");
        assert_eq!(s.committed_value(ObjectId(7)), b"from-child");
        s.commit_family(fam(2));
        assert_eq!(s.committed_value(ObjectId(7)), b"intruder");
    }

    #[test]
    fn shared_readers_coexist() {
        let mut s = server();
        let t1 = top(1);
        let t2 = top(2);
        write(&mut s, 1, &t1, 7, b"v");
        s.commit_family(fam(1));
        let a = read(&mut s, 2, &t2, 7);
        let t3 = top(3);
        let b = read(&mut s, 3, &t3, 7);
        assert!(!a.blocked && !b.blocked);
        assert_eq!(a.replies[0].value, b"v");
        assert_eq!(b.replies[0].value, b"v");
    }

    #[test]
    fn aborting_a_blocked_family_removes_its_queued_ops() {
        let mut s = server();
        let t1 = top(1);
        let t2 = top(2);
        let t3 = top(3);
        write(&mut s, 1, &t1, 7, b"x");
        assert!(write(&mut s, 2, &t2, 7, b"y").blocked);
        assert!(read(&mut s, 3, &t3, 7).blocked);
        // t2 aborts while queued; t1 commits: only t3 completes.
        s.abort_family(fam(2));
        let fx = s.commit_family(fam(1));
        assert_eq!(fx.replies.len(), 1);
        assert_eq!(fx.replies[0].req, 3);
        assert_eq!(fx.replies[0].value, b"x");
    }

    #[test]
    fn paper_contention_pattern_second_txn_waits_for_drop_locks() {
        // §4.2's analysis: back-to-back transactions on one object;
        // the second waits until the first's commit drops the lock.
        let mut s = server();
        let t1 = top(1);
        let t2 = top(2);
        write(&mut s, 1, &t1, 42, b"first");
        let fx = write(&mut s, 2, &t2, 42, b"second");
        assert!(fx.blocked);
        assert_eq!(s.stats().lock_waits, 1);
        let fx = s.commit_family(fam(1));
        assert_eq!(fx.replies[0].req, 2);
        s.commit_family(fam(2));
        assert_eq!(s.committed_value(ObjectId(42)), b"second");
    }

    #[test]
    fn stats_count_operations() {
        let mut s = server();
        let t = top(1);
        write(&mut s, 1, &t, 1, b"a");
        read(&mut s, 2, &t, 1);
        read(&mut s, 3, &t, 2);
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 2);
        assert_eq!(st.joins, 1);
    }

    #[test]
    fn two_family_write_cycle_is_denied_not_queued() {
        let mut s = server();
        let (t1, t2) = (top(1), top(2));
        assert!(!write(&mut s, 1, &t1, 1, b"a").blocked);
        assert!(!write(&mut s, 2, &t2, 2, b"b").blocked);
        // t2 waits on t1's object: a plain wait, no cycle yet.
        let fx = write(&mut s, 3, &t2, 1, b"b1");
        assert!(fx.blocked && !fx.deadlock);
        // t1 asking for t2's object would close the cycle: denied.
        let fx = write(&mut s, 4, &t1, 2, b"a2");
        assert!(fx.deadlock, "cycle must be detected");
        assert!(!fx.blocked, "victim is not queued");
        assert_eq!(s.stats().deadlocks, 1);
        // The victim aborts; the survivor's queued write completes.
        let fx = s.abort_family(fam(1));
        assert_eq!(fx.replies.len(), 1, "t2's wait granted");
        let fx = s.commit_family(fam(2));
        assert!(fx.replies.is_empty());
        assert_eq!(s.committed_value(ObjectId(1)), b"b1");
        assert_eq!(s.committed_value(ObjectId(2)), b"b");
    }

    #[test]
    fn three_family_cycle_is_denied() {
        let mut s = server();
        let (t1, t2, t3) = (top(1), top(2), top(3));
        write(&mut s, 1, &t1, 1, b"a");
        write(&mut s, 2, &t2, 2, b"b");
        write(&mut s, 3, &t3, 3, b"c");
        assert!(write(&mut s, 4, &t1, 2, b"x").blocked); // 1 -> 2
        assert!(write(&mut s, 5, &t2, 3, b"y").blocked); // 2 -> 3
        let fx = write(&mut s, 6, &t3, 1, b"z"); // 3 -> 1 closes it
        assert!(fx.deadlock);
    }

    #[test]
    fn shared_waiters_do_not_false_positive() {
        let mut s = server();
        let (t1, t2) = (top(1), top(2));
        write(&mut s, 1, &t1, 1, b"a");
        // t2 queues a read behind t1's exclusive: 2 -> 1.
        assert!(read(&mut s, 2, &t2, 1).blocked);
        // t1 reading an object nobody holds is granted outright.
        let fx = read(&mut s, 3, &t1, 5);
        assert!(!fx.blocked && !fx.deadlock);
        // t1 reading t2-shared data: shared/shared never conflicts,
        // so no wait and no cycle.
        read(&mut s, 4, &t2, 6);
        let fx = read(&mut s, 5, &t1, 6);
        assert!(!fx.blocked && !fx.deadlock);
    }
}
