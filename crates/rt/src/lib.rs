//! Real-thread Camelot runtime.
//!
//! The deterministic simulator (`camelot-node`) answers the paper's
//! quantitative questions; this crate runs the *same protocol code*
//! (the sans-io `camelot-core` engine, the `camelot-server` data
//! servers, the `camelot-wal` group-commit batcher) under genuine
//! concurrency, mirroring the paper's process structure:
//!
//! - a **transaction-manager worker pool** per site — "create a pool
//!   of threads when the process starts […] have every thread wait
//!   for any type of input, process the input, and resume waiting"
//!   (§3.4). The pool serves what arrives asynchronously (datagrams,
//!   timer firings, log completions); an application call runs its
//!   engine step and the local work it produces on the calling
//!   thread. The engine's family table is partitioned into
//!   independently locked shards so the pool actually scales
//!   (conclusion 3 makes the TranMan the bottleneck once group commit
//!   relieves the disk);
//! - a pipelined **disk manager** per site — whoever produces a record
//!   appends it into the log's in-memory segment itself and asks the
//!   group-commit batcher (§3.5) for the force. Platter writes happen
//!   *without holding the log lock*, double-buffer style: a committing
//!   application thread that finds the disk idle leads the write and
//!   finishes its own commit, and so does a TranMan worker while
//!   another worker of its site is idle; everyone else follows, and
//!   the disk thread performs the writes nobody leads. That thread also
//!   checkpoints and truncates the log on a rule of its own, so a
//!   restart replays a bounded tail;
//! - a **router** — the NetMsgServer stand-in: one ordered set of
//!   delayed datagrams and (cancellable) protocol timers, edited in
//!   place by whoever sends or arms, and a thread that delivers what
//!   falls due. What is due when it is posted (a datagram with no
//!   delay) skips it: the posting thread runs it on the destination
//!   site itself, after its own site's actions, unless it is about to
//!   lead a platter write, when it hands it to the destination's
//!   workers first. Traffic to crashed sites is dropped. A site
//!   process's runtime ([`Cluster::new_site`]) hosts one site and
//!   binds that site's [`SocketTransport`](camelot_net::SocketTransport)
//!   itself: datagrams for the other sites leave through it, and a
//!   receive thread hands what arrives to the site's workers;
//! - **client handles** — synchronous begin / read / write / commit /
//!   abort calls. The paper's local IPC between application and
//!   TranMan is *not* modelled here (the call is a function call on
//!   the caller's thread); its cost lives in the simulator only.
//!
//! Sites can be crashed (volatile state dropped, log truncated to the
//! durable prefix) and restarted (engine and servers rebuilt by the
//! recovery paths), so the examples can demonstrate non-blocking
//! commitment surviving a coordinator failure *for real*.
//!
//! For robustness testing, a [`FaultPlan`] installed at construction
//! injects link faults (drop / delay / duplicate per datagram), kills
//! sites at named [`CrashPoint`]s in the log pipeline, and — through
//! [`Cluster::wal_image`] / [`Cluster::set_wal_image`] — lets a
//! harness corrupt the durable log between crash and restart to
//! exercise the typed recovery-failure path.

pub mod client;
pub mod cluster;
mod disk;
mod queue;
mod shardmap;
pub mod stats;

pub use camelot_core::{CrashPoint, ExecMode};
pub use camelot_net::fault::{FaultPlan, FaultStats, LinkDecision};
pub use camelot_obs::{
    audit_family, budget_for, count_family, to_jsonl, AuditCounts, AuditProtocol, Budget,
    Histogram, Phase, PhaseSnapshot, ProtocolPhaseSnapshot, TraceEvent, TraceEventKind,
};
pub use camelot_wal::BatchPolicy;
pub use client::Client;
pub use cluster::{Cluster, RtConfig};
pub use stats::{ClusterStats, SiteStats};
