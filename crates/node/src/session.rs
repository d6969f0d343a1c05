//! One application's view of a site set: begin / read / write /
//! commit / abort, addressed by site.
//!
//! Every harness that drives transactions (`camelot-load`,
//! `-sockbench`, `-soak`, `-launch`) runs the same transaction bodies
//! through this trait, so "in-process or over sockets" is a choice of
//! [`Session`], never a second copy of the workload. There are exactly
//! two deployments:
//!
//! - [`InProcSession`]: `camelot-rt` clients of an in-process cluster;
//! - [`CtrlSession`]: control connections to `camelot-site` processes,
//!   resolved through an [`AddrBoard`] and cached against its
//!   generation.
//!
//! The banking workload — [`fund`], [`transfer`] and the conservation
//! audit's [`CtrlSession::ledger`] — lives here (not in
//! `camelot-bench`) because `camelot-launch` is a binary of this crate.

use std::collections::HashMap;
use std::sync::Arc;

pub use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{Client, Cluster};
use camelot_types::{CamelotError, ObjectId, Result, ServerId, SiteId, Tid};

use crate::ctrl::CtrlClient;
use crate::procs::AddrBoard;

/// The data server every harness transaction touches.
pub const SRV: ServerId = ServerId(1);

/// Transaction calls against a set of sites. The coordinator of a
/// transaction is the site it began at (`tid.family.origin`).
pub trait Session {
    fn begin(&mut self, home: SiteId) -> Result<Tid>;
    fn read(&mut self, tid: &Tid, site: SiteId, object: ObjectId) -> Result<Vec<u8>>;
    fn write(&mut self, tid: &Tid, site: SiteId, object: ObjectId, value: Vec<u8>) -> Result<()>;
    /// `Ok(true)` committed, `Ok(false)` aborted. `participants` is
    /// where the transaction spread beyond its coordinator.
    fn commit(&mut self, tid: &Tid, mode: CommitMode, participants: &[SiteId]) -> Result<bool>;
    fn abort(&mut self, tid: &Tid, participants: &[SiteId]) -> Result<()>;
}

/// Clients of an in-process cluster, one homed at each site. Every
/// operation flows through the coordinator's client, whose
/// communication manager learns the spread itself — `participants` is
/// not needed and not used.
pub struct InProcSession {
    clients: Vec<Client>,
}

impl InProcSession {
    pub fn new(cluster: &Cluster, sites: u32) -> InProcSession {
        InProcSession {
            clients: (1..=sites).map(|s| cluster.client(SiteId(s))).collect(),
        }
    }

    fn coordinator(&self, tid: &Tid) -> &Client {
        &self.clients[tid.family.origin.0 as usize - 1]
    }
}

impl Session for InProcSession {
    fn begin(&mut self, home: SiteId) -> Result<Tid> {
        self.clients[home.0 as usize - 1].begin()
    }

    fn read(&mut self, tid: &Tid, site: SiteId, object: ObjectId) -> Result<Vec<u8>> {
        self.coordinator(tid).read(tid, site, SRV, object)
    }

    fn write(&mut self, tid: &Tid, site: SiteId, object: ObjectId, value: Vec<u8>) -> Result<()> {
        self.coordinator(tid)
            .write(tid, site, SRV, object, value)
            .map(drop)
    }

    fn commit(&mut self, tid: &Tid, mode: CommitMode, _participants: &[SiteId]) -> Result<bool> {
        let outcome = self.coordinator(tid).commit(tid, mode)?;
        Ok(outcome == Outcome::Committed)
    }

    fn abort(&mut self, tid: &Tid, _participants: &[SiteId]) -> Result<()> {
        self.coordinator(tid).abort(tid)
    }
}

/// Control connections to site processes, dialled on first use and
/// cached against the address board's generation: any respawn bumps
/// it and invalidates every cached socket (cheap, and correct — a
/// respawned site has fresh ports anyway). A connection that returns
/// an error is dropped so the next use redials.
///
/// The application talks to each site process directly, so the
/// coordinator never sees the remote operations: commit and abort
/// carry the declared `participants`.
pub struct CtrlSession {
    board: Arc<AddrBoard>,
    generation: u64,
    conns: HashMap<SiteId, CtrlClient>,
}

impl CtrlSession {
    pub fn new(board: Arc<AddrBoard>) -> CtrlSession {
        CtrlSession {
            generation: board.generation(),
            board,
            conns: HashMap::new(),
        }
    }

    /// The conservation audit's reading: for each of sites `1..=sites`,
    /// the sum of its accounts' committed balances (`0..accounts`).
    pub fn ledger(&mut self, sites: u32, accounts: u64) -> Result<Vec<i64>> {
        (1..=sites)
            .map(|site| {
                (0..accounts)
                    .map(|a| {
                        let raw =
                            self.call(SiteId(site), |c| c.committed_value(SRV, ObjectId(a)))?;
                        Ok(balance(&raw))
                    })
                    .sum()
            })
            .collect()
    }

    fn call<T>(&mut self, site: SiteId, f: impl FnOnce(&mut CtrlClient) -> Result<T>) -> Result<T> {
        let generation = self.board.generation();
        if generation != self.generation {
            self.conns.clear();
            self.generation = generation;
        }
        let down = || CamelotError::Log(format!("site {} is down", site.0));
        if !self.conns.contains_key(&site) {
            let addr = self.board.ctrl_addr(site).ok_or_else(down)?;
            let conn = CtrlClient::connect(addr).map_err(|_| down())?;
            self.conns.insert(site, conn);
        }
        let out = f(self.conns.get_mut(&site).expect("dialled above"));
        if out.is_err() {
            self.conns.remove(&site);
        }
        out
    }
}

impl Session for CtrlSession {
    fn begin(&mut self, home: SiteId) -> Result<Tid> {
        self.call(home, |c| c.begin())
    }

    fn read(&mut self, tid: &Tid, site: SiteId, object: ObjectId) -> Result<Vec<u8>> {
        self.call(site, |c| c.read(tid, SRV, object))
    }

    fn write(&mut self, tid: &Tid, site: SiteId, object: ObjectId, value: Vec<u8>) -> Result<()> {
        self.call(site, |c| c.write(tid, SRV, object, value).map(drop))
    }

    fn commit(&mut self, tid: &Tid, mode: CommitMode, participants: &[SiteId]) -> Result<bool> {
        let nonblocking = mode == CommitMode::NonBlocking;
        self.call(tid.family.origin, |c| {
            c.commit(tid, nonblocking, participants.to_vec())
        })
    }

    fn abort(&mut self, tid: &Tid, participants: &[SiteId]) -> Result<()> {
        self.call(tid.family.origin, |c| c.abort(tid, participants.to_vec()))
    }
}

/// Decodes an account balance (an absent object holds 0).
pub fn balance(raw: &[u8]) -> i64 {
    if raw.is_empty() {
        0
    } else {
        i64::from_le_bytes(raw.try_into().expect("8-byte balance"))
    }
}

/// Funds accounts `0..accounts` at `site` with `amount` each, in one
/// local transaction.
pub fn fund(s: &mut impl Session, site: SiteId, accounts: u64, amount: i64) -> Result<()> {
    let tid = s.begin(site)?;
    for a in 0..accounts {
        s.write(&tid, site, ObjectId(a), amount.to_le_bytes().to_vec())?;
    }
    match s.commit(&tid, CommitMode::TwoPhase, &[])? {
        true => Ok(()),
        false => Err(CamelotError::Internal(format!(
            "funding at site {} aborted",
            site.0
        ))),
    }
}

/// One banking transfer coordinated at `coord`: `Ok(true)` committed,
/// `Ok(false)` aborted. A failed operation (lock conflict, timeout,
/// dead site) aborts best-effort and surfaces the cause.
pub fn transfer(
    s: &mut impl Session,
    coord: SiteId,
    (src, src_acct): (SiteId, ObjectId),
    (dst, dst_acct): (SiteId, ObjectId),
    amount: i64,
    mode: CommitMode,
) -> Result<bool> {
    let tid = s.begin(coord)?;
    let participants = [src, dst];
    let body = (|| {
        let from = balance(&s.read(&tid, src, src_acct)?);
        s.write(&tid, src, src_acct, (from - amount).to_le_bytes().to_vec())?;
        let to = balance(&s.read(&tid, dst, dst_acct)?);
        s.write(&tid, dst, dst_acct, (to + amount).to_le_bytes().to_vec())
    })();
    if let Err(e) = body {
        let _ = s.abort(&tid, &participants);
        return Err(e);
    }
    s.commit(&tid, mode, &participants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_rt::RtConfig;
    use std::time::Duration;

    #[test]
    fn transfer_moves_money_between_sites_and_conserves_it() {
        let cluster = Cluster::new(
            2,
            RtConfig {
                datagram_delay: Duration::ZERO,
                platter_delay: Duration::ZERO,
                ..RtConfig::default()
            },
        );
        let mut s = InProcSession::new(&cluster, 2);
        let (a, b) = ((SiteId(1), ObjectId(0)), (SiteId(2), ObjectId(3)));
        fund(&mut s, SiteId(1), 1, 100).expect("fund");
        for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
            assert!(transfer(&mut s, SiteId(2), a, b, 7, mode).expect("transfer"));
        }
        let tid = s.begin(SiteId(1)).expect("begin");
        assert_eq!(balance(&s.read(&tid, a.0, a.1).expect("read a")), 86);
        assert_eq!(balance(&s.read(&tid, b.0, b.1).expect("read b")), 14);
        assert!(s.commit(&tid, CommitMode::TwoPhase, &[]).expect("commit"));
        drop(s);
        cluster.shutdown();
    }
}
