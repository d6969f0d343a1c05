//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4) on the simulated Camelot.
//!
//! Each experiment is one row of [`INDEX`]: an id, the paper artifact
//! it regenerates, and a `run(quick) -> Report` function; `quick =
//! true` uses fewer repetitions (tests, CI), `false` the full counts.
//! `camelot-repro <id...|all>` (in `camelot-bench`) prints the reports;
//! they carry both formatted text and structured rows (asserted by
//! tests). `EXPERIMENTS.md` records the paper-vs-measured comparison
//! under the same ids.

pub mod ablation;
pub mod contention;
pub mod counts;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod fmt;
pub mod multicast;
pub mod runner;
pub mod sec41;
pub mod staticpath;
pub mod table1;
pub mod table2;
pub mod table3;

pub use fmt::Report;
pub use runner::{run_latency, run_throughput, LatencyResult};

/// One experiment: `(id, the artifact it regenerates, run(quick))`.
pub type Experiment = (&'static str, &'static str, fn(bool) -> Report);

/// Every artifact of the paper's evaluation this harness regenerates,
/// in the paper's order.
#[rustfmt::skip]
pub const INDEX: &[Experiment] = &[
    ("table1", "Table 1 — RT PC / Mach benchmarks", table1::run),
    ("table2", "Table 2 — latency of Camelot primitives", table2::run),
    ("table3", "Table 3 — static vs empirical latency breakdown", table3::run),
    ("fig2", "Figure 2 — two-phase commit latency vs subordinates", fig2::run),
    ("fig3", "Figure 3 — non-blocking commit latency", fig3::run),
    ("fig4", "Figure 4 — update throughput vs application/server pairs", fig45::run_fig4),
    ("fig5", "Figure 5 — read throughput vs application/server pairs", fig45::run_fig5),
    ("sec41", "§4.1 — RPC latency decomposition", sec41::run),
    ("multicast", "§4.2 — multicast variance reduction", multicast::run),
    ("contention", "§4.2 — back-to-back lock contention analysis", contention::run),
    ("ablation-a1", "extra — delayed commit vs distributed fraction", ablation::run_delayed_commit),
    ("ablation-a2", "extra — group-commit window sweep", ablation::run_group_commit),
    ("counts", "extra — measured primitive counts per protocol", counts::run),
];

#[cfg(test)]
mod tests {
    #[test]
    fn index_has_exactly_the_thirteen_artifacts() {
        let ids: Vec<&str> = super::INDEX.iter().map(|(id, ..)| *id).collect();
        let want = "table1 table2 table3 fig2 fig3 fig4 fig5 sec41 multicast contention \
                    ablation-a1 ablation-a2 counts";
        assert_eq!(ids, want.split(' ').collect::<Vec<_>>());
    }
}
