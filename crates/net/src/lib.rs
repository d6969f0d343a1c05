//! Inter-site communication for the Camelot reproduction.
//!
//! Mach messages travel only between threads on one site, so Camelot
//! interposes forwarding agents. This crate models the pieces the
//! transaction manager depends on:
//!
//! - [`msg`]: the datagrams transaction managers exchange for the
//!   two-phase and non-blocking commitment protocols and the abort
//!   protocol, with their wire encoding. Transaction managers talk
//!   via datagrams (not RPC) "in order to process distributed
//!   protocols as quickly as possible" (paper §4.2 fn. 1), carrying
//!   piggybacked acknowledgements where the delayed-commit
//!   optimization allows.
//! - [`transport`]: what datagram transport requires below the
//!   protocol layer — sequence numbers and duplicate detection ("a
//!   transaction manager is responsible for implementing mechanisms
//!   such as timeout/retry and duplicate detection"). Timeout/retry is
//!   the commit protocols' own timers; nothing below them retransmits.
//! - [`socket`]: [`SocketTransport`], the real UDP/TCP data plane
//!   between site processes: one envelope path for both socket kinds,
//!   which differ only in the link under it.
//! - [`comman`]: the Communication Manager. It forwards inter-site
//!   RPCs and *spies on the contents*: every reply is stamped with
//!   the list of sites used to produce it, and the lists merge at the
//!   transaction's home site, so the transaction manager eventually
//!   knows every participant. It also acts as a name service.

pub mod comman;
pub mod fault;
pub mod frame;
pub mod msg;
pub mod sendq;
pub mod socket;
pub mod transport;

pub use comman::CommMan;
pub use fault::{FaultPlan, FaultStats, LinkDecision};
pub use frame::{decode_frame, encode_frame, FrameDecoder, FrameError, FRAME_HEADER, MAX_FRAME};
pub use msg::{Envelope, NbSiteState, Outcome, TmMessage, Vote};
pub use sendq::{Backoff, SendQueue, TransportStats};
pub use socket::{SocketConfig, SocketMode, SocketTransport};
pub use transport::DupFilter;
