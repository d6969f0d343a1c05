//! Critical-path primitive counts, measured.
//!
//! The paper's conclusions quantify the protocols in primitives: an
//! optimized two-phase update transaction needs "only two log writes
//! (both forces)" and three datagrams on its critical path (plus the
//! piggybacked acknowledgement off it); non-blocking commitment needs
//! "two log forces at each site and five messages in the critical
//! path". This experiment runs one minimal transaction per
//! configuration on a deterministic network and reads the counts out
//! of the engines — protocol accounting measured, not asserted.

use camelot_core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot_node::{AppSpec, World, WorldConfig};
use camelot_sim::Scheduler;
use camelot_types::{Duration, SiteId, Time};

use crate::fmt::{Report, Table};

/// Measured primitive counts for one protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Synchronous log forces across all sites.
    pub forces: u64,
    /// Lazy (non-forced) commit records — each one a force the
    /// delayed-commit optimization avoided.
    pub lazy_appends: u64,
    /// Inter-TranMan datagrams (including the acknowledgement).
    pub datagrams: u64,
}

/// Runs one minimal 1-subordinate transaction and counts primitives.
pub fn measure(mode: CommitMode, variant: TwoPhaseVariant, write: bool) -> Counts {
    let mut cfg = WorldConfig::latency(2, EngineConfig::for_variant(variant), 3);
    cfg.jitter = false;
    let mut world = World::new(cfg);
    world.add_app(AppSpec::minimal(SiteId(1), &[SiteId(2)], write, mode, 1));
    let mut sched = Scheduler::new(3);
    world.start(&mut sched);
    assert!(world.run(&mut sched, Time(3_600_000_000)));
    world.settle(&mut sched, Duration::from_secs(30));
    let s1 = world.engine(SiteId(1)).stats();
    let s2 = world.engine(SiteId(2)).stats();
    Counts {
        forces: s1.forces + s2.forces,
        lazy_appends: s1.lazy_appends + s2.lazy_appends,
        datagrams: s1.datagrams + s2.datagrams,
    }
}

/// Builds the report.
pub fn run(_quick: bool) -> Report {
    let rows: Vec<(&str, CommitMode, TwoPhaseVariant, bool, &str, &str)> = vec![
        (
            "2PC optimized update",
            CommitMode::TwoPhase,
            TwoPhaseVariant::Optimized,
            true,
            "2",
            "3 + piggybacked ack",
        ),
        (
            "2PC unoptimized update",
            CommitMode::TwoPhase,
            TwoPhaseVariant::Unoptimized,
            true,
            "3",
            "4 (ack not piggybacked)",
        ),
        (
            "2PC read",
            CommitMode::TwoPhase,
            TwoPhaseVariant::Optimized,
            false,
            "0",
            "2",
        ),
        (
            "non-blocking update",
            CommitMode::NonBlocking,
            TwoPhaseVariant::Optimized,
            true,
            "4",
            "5 + acks",
        ),
        (
            "non-blocking read",
            CommitMode::NonBlocking,
            TwoPhaseVariant::Optimized,
            false,
            "0 on path (1 begin force off path)",
            "2",
        ),
    ];
    let mut t = Table::new(vec![
        "CONFIGURATION",
        "FORCES",
        "LAZY RECORDS",
        "DATAGRAMS",
        "PAPER FORCES",
        "PAPER MSGS",
    ]);
    for (name, mode, variant, write, paper_f, paper_m) in rows {
        let c = measure(mode, variant, write);
        t.row(vec![
            name.to_string(),
            format!("{}", c.forces),
            format!("{}", c.lazy_appends),
            format!("{}", c.datagrams),
            paper_f.to_string(),
            paper_m.to_string(),
        ]);
    }
    let mut text = t.render();
    text.push_str(
        "\n1-subordinate minimal transactions; counts include cleanup traffic \
         (acknowledgements, forget notes), which the paper excludes from its \
         critical-path figures.\n",
    );
    Report::new("Primitive counts per transaction (measured)", text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_two_phase_is_two_forces() {
        let c = measure(CommitMode::TwoPhase, TwoPhaseVariant::Optimized, true);
        assert_eq!(c.forces, 2, "coordinator commit + subordinate prepare");
        assert_eq!(c.lazy_appends, 1, "the delayed subordinate commit record");
    }

    #[test]
    fn unoptimized_two_phase_is_three_forces() {
        let c = measure(CommitMode::TwoPhase, TwoPhaseVariant::Unoptimized, true);
        assert_eq!(c.forces, 3, "the optimization's saved force comes back");
        assert_eq!(c.lazy_appends, 0);
    }

    #[test]
    fn nonblocking_is_four_forces() {
        let c = measure(CommitMode::NonBlocking, TwoPhaseVariant::Optimized, true);
        assert_eq!(c.forces, 4, "begin + prepared + replicate + commit");
    }

    #[test]
    fn reads_force_nothing_on_the_critical_path() {
        let c = measure(CommitMode::TwoPhase, TwoPhaseVariant::Optimized, false);
        assert_eq!(c.forces, 0);
        let c = measure(CommitMode::NonBlocking, TwoPhaseVariant::Optimized, false);
        assert_eq!(c.forces, 1, "only the coordinator's off-path begin record");
    }

    #[test]
    fn nonblocking_sends_more_datagrams_than_two_phase() {
        let tp = measure(CommitMode::TwoPhase, TwoPhaseVariant::Optimized, true);
        let nb = measure(CommitMode::NonBlocking, TwoPhaseVariant::Optimized, true);
        assert!(
            nb.datagrams > tp.datagrams,
            "nb {} vs 2pc {}",
            nb.datagrams,
            tp.datagrams
        );
    }

    /// Oracle for the protocol-cost auditor: `camelot_obs::budget_for`
    /// must agree with the deterministic-sim measurement for every
    /// protocol configuration it knows. If either accounting changes,
    /// this pins the drift.
    #[test]
    fn auditor_budgets_match_the_measured_counts() {
        use camelot_obs::{budget_for, AuditProtocol};
        let configs = [
            (
                AuditProtocol::TwoPhaseDelayed,
                CommitMode::TwoPhase,
                TwoPhaseVariant::Optimized,
                true,
            ),
            (
                AuditProtocol::TwoPhaseStandard,
                CommitMode::TwoPhase,
                TwoPhaseVariant::Unoptimized,
                true,
            ),
            (
                AuditProtocol::ReadOnly,
                CommitMode::TwoPhase,
                TwoPhaseVariant::Optimized,
                false,
            ),
            (
                AuditProtocol::NonBlocking,
                CommitMode::NonBlocking,
                TwoPhaseVariant::Optimized,
                true,
            ),
            (
                AuditProtocol::NonBlockingRead,
                CommitMode::NonBlocking,
                TwoPhaseVariant::Optimized,
                false,
            ),
        ];
        for (protocol, mode, variant, write) in configs {
            let budget = budget_for(protocol);
            let c = measure(mode, variant, write);
            assert_eq!(
                c.forces,
                budget.forces,
                "[{}] measured forces drifted from the audited budget",
                protocol.name()
            );
            assert_eq!(
                c.lazy_appends,
                budget.lazy_appends,
                "[{}] measured lazy appends drifted from the audited budget",
                protocol.name()
            );
            assert!(
                (budget.datagrams_min..=budget.datagrams_max).contains(&c.datagrams),
                "[{}] measured {} datagrams outside the audited budget {}..={}",
                protocol.name(),
                c.datagrams,
                budget.datagrams_min,
                budget.datagrams_max
            );
        }
    }
}
