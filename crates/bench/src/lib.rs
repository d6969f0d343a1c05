//! Shared plumbing for the benchmark binaries.
//!
//! `camelot-repro` prints the paper's tables and figures from
//! `camelot_harness::INDEX`; the open-loop harness binaries share
//! [`driver`]. `QUICK=1` in the environment shrinks repetition counts
//! (useful in CI).

pub mod diff;
pub mod driver;
pub mod openloop;
pub mod zipf;

/// Re-exported: the ladder draws its workload from `camelot_bench`.
pub use camelot_types::SplitMix64;
pub use openloop::OpenLoop;
pub use zipf::Zipf;

/// True when the `QUICK` environment variable asks for short runs.
pub fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}
