//! `camelot-scope` — the cluster-wide observability plane.
//!
//! Observability in `camelot-obs` is per-process: each site owns a
//! trace ring and phase histograms, and nobody can answer "where did
//! this commit's 12 ms go?" once the cluster runs as real OS
//! processes. This crate closes that gap in three layers, mirroring
//! the paper's method of *accounting* for response time (§4.1,
//! Tables 1–3):
//!
//! - [`collect`] — a scraper that polls every site (and the
//!   supervisor) over the existing ctrl protocol on a fixed cadence,
//!   pulling phase histograms, engine/queue counters, transport and
//!   fault stats into git-SHA-stamped time-series JSONL snapshots.
//!   Rates are derived in the collector by differencing scrapes, so
//!   sites keep exporting cheap monotonic counters.
//! - [`merge`] — the cross-process trace merge. Every site process
//!   stamps trace events on the host clock, so merging is a sort, and
//!   the one check left counts message receives stamped at or before
//!   their send.
//! - [`attr`] — critical-path attribution: walk each merged
//!   per-family timeline and decompose commit latency into named
//!   segments (network transit, prepare wait, force wait, platter
//!   write, coordinator think time), reported as per-protocol
//!   p50/p95/p99 — the measured analogue of the paper's cost model.
//!
//! [`event`] is the shared substrate: a lossless parsed form of the
//! trace JSONL that `camelot-obs` renders, so merged timelines
//! re-render byte for byte.

pub mod attr;
pub mod collect;
pub mod event;
pub mod merge;
pub mod stamp;

pub use attr::{attribute, Attribution, ProtocolAttribution, SegStats};
pub use collect::{Collector, ScrapeSnapshot, ScrapeTarget, SiteScrape};
pub use event::{parse_jsonl, ScopeEvent, Value};
pub use merge::{merge_skew_aware, MergedTimeline};
pub use stamp::{config_hash, git_sha, stamp_json};
