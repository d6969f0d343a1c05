//! Full Camelot sites running on the deterministic discrete-event
//! simulator.
//!
//! This crate assembles the pieces — transaction-manager engine, data
//! servers, write-ahead log with group-commit batcher, communication
//! manager — into simulated *sites*, and charges the paper's measured
//! primitive costs (Tables 1–2) along every path:
//!
//! - local in-line IPC between Camelot processes (1.5 ms per round),
//!   application↔server operation IPC (3 ms per round, + 0.5 ms
//!   locking), remote operations through CornMan + NetMsgServer
//!   (29 ms per round);
//! - inter-TranMan datagrams (10 ms one-way) with a 1.7 ms sender
//!   *cycle time* that serializes sequential sends — unless multicast
//!   is enabled, which is precisely the §4.2 variance experiment;
//! - log forces (15 ms on the latency testbed; a ~33 ms platter write
//!   on the throughput testbed, giving the "about 30 log writes per
//!   second" ceiling of §3.5) through the disk manager's group-commit
//!   batcher;
//! - OS scheduling jitter that grows with instantaneous network load
//!   (the paper's "variance rises with network load" observation).
//!
//! Two operating modes share all of this:
//!
//! - **Latency mode** (Figures 2–3, Table 3): unlimited compute,
//!   jitter on; measures per-transaction latency of minimal
//!   transactions.
//! - **Throughput mode** (Figures 4–5): a bounded TranMan thread pool
//!   that is *held across* synchronous log forces, a k-way CPU, a
//!   single-threaded logger; jitter off; measures transactions per
//!   second at saturation.

//!
//! The crate also hosts the *multi-process* deployment pieces: the
//! `camelot-site` binary (one real site — engine shards, WAL file,
//! disk manager, socket transport — as a standalone OS process), the
//! `camelot-launch` binary (an N-site localhost cluster running the
//! banking workload), the [`ctrl`] control-plane protocol the two
//! speak, [`procs`] — the one owner of a cluster of site processes —
//! and [`session`] — the one begin/read/write/commit surface every
//! harness drives, in-process or over control connections.

pub mod app;
pub mod config;
pub mod ctrl;
pub mod procs;
pub mod session;
pub mod world;

pub use app::{AppSpec, OpSpec, TxnRecord};
pub use config::{DiskConfig, NetConfig, TmConfig, WorldConfig};
pub use ctrl::{CtrlClient, CtrlReply, CtrlRequest, Handshake, PeerEntry};
pub use world::World;
