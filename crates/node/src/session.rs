//! One application's view of a site set: begin / read / write /
//! commit / abort, addressed by site.
//!
//! Every harness that drives transactions (`camelot-load`,
//! `-sockbench`, `-soak`) runs the same transaction bodies through this
//! trait, so "in-process or over sockets" is a choice of [`Session`],
//! never a second copy of the workload. There are exactly two
//! deployments:
//!
//! - [`InProcSession`]: `camelot-rt` clients of an in-process cluster;
//! - [`CtrlSession`]: control connections to `camelot-site` processes,
//!   resolved through an [`AddrBoard`] and cached against its
//!   generation.
//!
//! The banking campaign every process harness runs — [`fund_all`], the
//! seeded [`Transfer::draw`], [`Transfer::run`] and the conservation
//! audit [`CtrlSession::conserved`] — lives here (not in `camelot-bench`)
//! because this crate's process tests (`socket_e2e`, `supervisor_e2e`)
//! run it too.

use std::collections::HashMap;
use std::sync::Arc;

pub use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{Client, Cluster};
use camelot_types::{CamelotError, ObjectId, Result, ServerId, SiteId, SplitMix64, Tid};

use crate::ctrl::CtrlClient;
use crate::procs::AddrBoard;

/// The data server every harness transaction touches.
pub const SRV: ServerId = ServerId(1);

/// Every banking account's funded balance.
pub const INITIAL: i64 = 100;

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

    /// The conservation audit: committed balances over sites `1..=sites`
    /// and accounts `0..accounts` sum to what [`fund_all`] put in,
    /// whichever transfers committed, aborted or died with a site
    /// (atomicity makes every subset conserve). The error is the
    /// violation's text.
    pub fn conserved(&mut self, sites: u32, accounts: u64) -> std::result::Result<(), String> {
        let total: i64 = self
            .ledger(sites, accounts)
            .map_err(|e| format!("audit read: {e}"))?
            .iter()
            .sum();
        let funded = sites as i64 * accounts as i64 * INITIAL;
        if total == funded {
            Ok(())
        } else {
            Err(format!(
                "conservation: committed balances sum to {total}, funded {funded}"
            ))
        }
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

/// Funds accounts `0..accounts` at every site `1..=sites` with
/// [`INITIAL`] each: the total [`CtrlSession::conserved`] expects.
pub fn fund_all(s: &mut impl Session, sites: u32, accounts: u64) -> Result<()> {
    (1..=sites).try_for_each(|site| fund(s, SiteId(site), accounts, INITIAL))
}

/// One banking transfer's shape: who coordinates, which account pays
/// which, and how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub coord: SiteId,
    pub from: (SiteId, ObjectId),
    pub to: (SiteId, ObjectId),
    pub amount: i64,
}

impl Transfer {
    /// Draws one transfer over sites `1..=sites` and accounts
    /// `0..accounts`, in this order: coordinator, paying site, paid site
    /// (bumped to the next site when it equals the payer), paying
    /// account, paid account, amount 1–20. The order is the replayable
    /// stream of a seeded campaign: changing it changes every campaign.
    pub fn draw(rng: &mut SplitMix64, sites: u32, accounts: u64) -> Transfer {
        let mut site = || SiteId(1 + rng.next_below(sites as u64) as u32);
        let (coord, src, mut dst) = (site(), site(), site());
        if dst == src {
            dst = SiteId(dst.0 % sites + 1);
        }
        let src_acct = ObjectId(rng.next_below(accounts));
        let dst_acct = ObjectId(rng.next_below(accounts));
        Transfer {
            coord,
            from: (src, src_acct),
            to: (dst, dst_acct),
            amount: rng.next_below(20) as i64 + 1,
        }
    }

    /// Runs the transfer, coordinated at `coord`: `Ok(true)` committed,
    /// `Ok(false)` aborted. A failed operation (lock conflict, timeout,
    /// dead site) aborts best-effort and surfaces the cause.
    pub fn run(&self, s: &mut impl Session, mode: CommitMode) -> Result<bool> {
        let ((src, src_acct), (dst, dst_acct), amount) = (self.from, self.to, self.amount);
        let tid = s.begin(self.coord)?;
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
        let t = Transfer {
            coord: SiteId(2),
            from: a,
            to: b,
            amount: 7,
        };
        for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
            assert!(t.run(&mut s, mode).expect("transfer"));
        }
        let tid = s.begin(SiteId(1)).expect("begin");
        assert_eq!(balance(&s.read(&tid, a.0, a.1).expect("read a")), 86);
        assert_eq!(balance(&s.read(&tid, b.0, b.1).expect("read b")), 14);
        assert!(s.commit(&tid, CommitMode::TwoPhase, &[]).expect("commit"));
        drop(s);
        cluster.shutdown();
    }

    /// The first 16 transfers of `camelot-soak --seed 42`'s worker 0
    /// (3 sites, 4 accounts): `coord src.acct dst.acct amount`. A
    /// recorded soak run replays only while this stream stays byte for
    /// byte.
    #[test]
    fn the_soak_transfer_stream_is_pinned() {
        let mut rng = SplitMix64::new(42u64.wrapping_mul(0x9E37_79B9));
        let drawn: Vec<String> = (0..16)
            .map(|_| {
                let t = Transfer::draw(&mut rng, 3, 4);
                let ((s, sa), (d, da)) = (t.from, t.to);
                format!(
                    "{} {}.{} {}.{} {}",
                    t.coord.0, s.0, sa.0, d.0, da.0, t.amount
                )
            })
            .collect();
        assert_eq!(
            drawn,
            [
                "1 3.3 1.3 11",
                "3 2.1 3.1 2",
                "3 1.0 2.0 19",
                "1 1.0 2.3 9",
                "1 3.2 1.3 16",
                "2 2.1 1.0 8",
                "1 2.0 3.2 10",
                "2 1.1 2.1 20",
                "3 3.1 2.2 12",
                "3 2.1 1.3 19",
                "2 1.3 3.2 13",
                "3 3.2 2.2 16",
                "2 2.3 3.3 3",
                "3 2.1 3.1 14",
                "2 3.2 1.2 7",
                "2 1.0 3.2 3",
            ]
        );
    }
}
