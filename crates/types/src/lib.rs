//! Core types shared by every crate in the Camelot reproduction.
//!
//! This crate defines the identifiers of the Camelot world (sites,
//! transaction families, nested transaction identifiers), the virtual
//! time base used by the deterministic simulator, and the *cost model*:
//! the primitive latencies the paper measured on an IBM RT PC running
//! Mach 2.0 (Tables 1 and 2 of the paper), which the simulator charges
//! on the protocols' critical paths.
//!
//! Everything here is plain data — no I/O, no threads — so it can be
//! depended on by both the discrete-event simulation runtime and the
//! real-thread runtime.

pub mod cost;
pub mod crash;
pub mod error;
pub mod flags;
pub mod ids;
pub mod time;
pub mod wire;

pub use cost::CostModel;
pub use crash::CrashPoint;
pub use error::{AbortReason, CamelotError, Result};
pub use ids::{FamilyId, Lsn, ObjectId, ServerId, SiteId, Tid};
pub use time::{Duration, Time};
pub use wire::{Reader, Wire, Writer};

/// SplitMix64's finaliser: a bijective scramble of `z`. A generator
/// feeds it a state stepped by `0x9E37_79B9_7F4A_7C15` per draw.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
