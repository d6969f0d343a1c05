//! Application drivers: closed-loop clients issuing transactions.
//!
//! The paper's experiments use "minimal transactions" — one small
//! operation at a single server at each participating site — so that
//! latency divides cleanly into operation processing and transaction
//! management (§4.2). An [`AppSpec`] describes one such client: the
//! operations per transaction, the commit protocol, the repetition
//! count and think time. The world runs each app as a closed loop
//! (next transaction begins only after the previous one resolved).

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_types::{Duration, ObjectId, ServerId, SiteId, Time};

/// Kind of operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
}

/// One operation in a transaction.
#[derive(Debug, Clone)]
pub struct OpSpec {
    pub site: SiteId,
    pub server: ServerId,
    pub object: ObjectId,
    pub kind: OpKind,
}

impl OpSpec {
    pub fn read(site: SiteId, server: ServerId, object: ObjectId) -> Self {
        OpSpec {
            site,
            server,
            object,
            kind: OpKind::Read,
        }
    }

    pub fn write(site: SiteId, server: ServerId, object: ObjectId) -> Self {
        OpSpec {
            site,
            server,
            object,
            kind: OpKind::Write,
        }
    }
}

/// One client application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Site the application (and its transactions' coordinator) lives
    /// on.
    pub home: SiteId,
    /// Operations of each transaction, performed in sequence.
    pub ops: Vec<OpSpec>,
    /// Commit protocol.
    pub mode: CommitMode,
    /// Transactions to run.
    pub reps: u32,
    /// Idle time between transactions.
    pub think: Duration,
}

impl AppSpec {
    /// The paper's minimal transaction: one operation at the home
    /// site's server plus one at each of `subs`' servers.
    pub fn minimal(
        home: SiteId,
        subs: &[SiteId],
        write: bool,
        mode: CommitMode,
        reps: u32,
    ) -> Self {
        let mk = |site: SiteId| {
            let obj = ObjectId(site.0 as u64);
            if write {
                OpSpec::write(site, ServerId(1), obj)
            } else {
                OpSpec::read(site, ServerId(1), obj)
            }
        };
        let mut ops = vec![mk(home)];
        ops.extend(subs.iter().map(|s| mk(*s)));
        AppSpec {
            home,
            ops,
            mode,
            reps,
            think: Duration::ZERO,
        }
    }
}

/// Measurements of one completed transaction.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// begin-transaction call issued.
    pub start: Time,
    /// commit/abort returned to the application.
    pub end: Time,
    pub outcome: Outcome,
    /// Total time spent in operation calls (subtracted to derive the
    /// transaction-management-only cost, as in §4.2).
    pub op_time: Duration,
    /// When the commit-transaction call was issued.
    pub commit_at: Time,
}

impl TxnRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> Duration {
        self.end.since(self.start)
    }

    /// Latency of the commit call alone.
    pub fn commit_latency(&self) -> Duration {
        self.end.since(self.commit_at)
    }
}

/// Runtime state of one app (used by the world).
#[derive(Debug)]
pub struct AppState {
    pub spec: AppSpec,
    pub records: Vec<TxnRecord>,
    pub running: bool,
    // Current transaction progress.
    pub tid: Option<camelot_types::Tid>,
    pub started: Time,
    pub op_idx: usize,
    pub op_started: Time,
    pub op_time: Duration,
    pub commit_at: Time,
}

impl AppState {
    pub fn new(spec: AppSpec) -> Self {
        AppState {
            spec,
            records: Vec::new(),
            running: false,
            tid: None,
            started: Time::ZERO,
            op_idx: 0,
            op_started: Time::ZERO,
            op_time: Duration::ZERO,
            commit_at: Time::ZERO,
        }
    }

    /// True once all repetitions completed.
    pub fn done(&self) -> bool {
        self.records.len() as u32 >= self.spec.reps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_shapes() {
        let spec = AppSpec::minimal(
            SiteId(1),
            &[SiteId(2), SiteId(3)],
            true,
            CommitMode::TwoPhase,
            10,
        );
        assert_eq!(spec.ops.len(), 3);
        assert_eq!(spec.ops[0].site, SiteId(1));
        assert!(matches!(spec.ops[0].kind, OpKind::Write));
        let spec = AppSpec::minimal(SiteId(1), &[], false, CommitMode::TwoPhase, 1);
        assert_eq!(spec.ops.len(), 1);
        assert!(matches!(spec.ops[0].kind, OpKind::Read));
    }

    #[test]
    fn txn_record_derivations() {
        let r = TxnRecord {
            start: Time(0),
            end: Time(110_000),
            outcome: Outcome::Committed,
            op_time: Duration::from_micros(32_500),
            commit_at: Time(40_000),
        };
        assert_eq!(r.latency(), Duration::from_millis(110));
        assert_eq!(r.commit_latency(), Duration::from_millis(70));
    }

    #[test]
    fn app_state_done_tracking() {
        let spec = AppSpec::minimal(SiteId(1), &[], true, CommitMode::TwoPhase, 1);
        let mut st = AppState::new(spec);
        assert!(!st.done());
        st.records.push(TxnRecord {
            start: Time(0),
            end: Time(1),
            outcome: Outcome::Committed,
            op_time: Duration::ZERO,
            commit_at: Time(0),
        });
        assert!(st.done());
    }
}
