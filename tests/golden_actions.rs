//! Behaviour-equivalence oracle for `camelot-core`.
//!
//! 512 seeded chaos schedules (2–4 sites, all three two-phase
//! variants, 2PC and non-blocking, update/read-only/veto sites, drops,
//! duplicates, crashes, restarts, partitions) are folded into one
//! pinned word: every engine step — site, input, the step's actions,
//! the engine's counters — plus every site's final log image. A refactor of the protocol
//! processor must reproduce it exactly; a mismatch is a behaviour
//! change, never a reason to re-pin in the same commit.
//!
//! The chaos scenarios never nest, so a second pin covers nested
//! transactions: scripted `testkit::Net` runs of `CommitNested`,
//! nested `AbortTx` and the remote `SubResolved`.

use camelot::core::testkit::{fnv1a, Net, FNV_OFFSET};
use camelot::core::{Action, CommitMode, EngineConfig, Input, Outcome};
use camelot::net::TmMessage;
use camelot::types::{FamilyId, ServerId, SiteId, Tid};
use camelot::wal::StableStore;
use camelot_chaos::{run_seed, schedule_seed, RunResult};

const SCHEDULES: u64 = 512;
const BASE_SEED: u64 = 16;
const PINNED: u64 = 0xfca0_21b3_9e3f_7968;

fn campaign_digest() -> u64 {
    let mut state = FNV_OFFSET;
    for i in 0..SCHEDULES {
        let r: RunResult = run_seed(schedule_seed(BASE_SEED, i), false);
        assert!(r.violations.is_empty(), "schedule {i}: {:?}", r.violations);
        fnv1a(&mut state, &r.action_digest.to_le_bytes());
        for (site, image) in &r.wal_images {
            fnv1a(&mut state, &site.0.to_le_bytes());
            fnv1a(&mut state, image);
        }
    }
    state
}

#[test]
fn golden_action_digest_is_reproduced() {
    let got = campaign_digest();
    assert_eq!(
        got, PINNED,
        "action digest {got:#018x} differs from the pin {PINNED:#018x}: the engine's \
         behaviour changed (see .claude/skills/verify/SKILL.md before re-pinning)"
    );
}

/// The nested-transaction oracle. The chaos scenarios above never
/// nest, so these scripts drive `CommitNested`, nested `AbortTx` and
/// the remote `SubResolved` through `testkit::Net` directly. Each
/// script's action digest and every site's final log image fold into
/// one pinned word; the same rule as above applies to a mismatch.
const NESTED_PINNED: u64 = 0xf925_ac2a_9a32_7e65;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const A: ServerId = ServerId(1);
const B: ServerId = ServerId(2);

fn recording(sites: u32) -> Net {
    let mut net = Net::new(sites, EngineConfig::default());
    net.action_digest = Some(FNV_OFFSET);
    net
}

/// Begins a child of `parent` at the family's home site.
fn nested(net: &mut Net, parent: &Tid) -> Tid {
    let (home, req) = (parent.family.origin, net.next_req());
    let parent = parent.clone();
    net.inject(home, Input::BeginNested { req, parent });
    match net.find_event(home, req) {
        Some(Action::Began { tid, .. }) => tid.clone(),
        other => panic!("begin nested failed: {other:?}"),
    }
}

fn commit_nested(net: &mut Net, tid: &Tid, participants: Vec<SiteId>) -> u64 {
    let req = net.next_req();
    let tid = tid.clone();
    net.inject(
        S1,
        Input::CommitNested {
            req,
            tid,
            participants,
        },
    );
    req
}

fn sub_resolved(net: &mut Net, from: SiteId, to: SiteId, tid: &Tid, outcome: Outcome) {
    let msg = TmMessage::SubResolved {
        tid: tid.clone(),
        outcome,
    };
    net.inject(to, Input::Datagram { from, msg });
}

/// Children committed and aborted at home, with local work and with
/// work joined at a remote server, then the top-level commit. The
/// remote `SubResolved` reaches a site with servers (2) and one that
/// never heard of the family (3).
fn home_and_remote_children(net: &mut Net, mode: CommitMode) {
    let top = net.begin(S1);
    net.update_op(S1, A, &top);
    let local = nested(net, &top);
    net.update_op(S1, B, &local);
    commit_nested(net, &local, vec![]);
    let local = nested(net, &top);
    net.update_op(S1, A, &local);
    net.abort(S1, &local, vec![]);
    let remote = nested(net, &top);
    net.update_op(S2, A, &remote);
    commit_nested(net, &remote, vec![S2, S3]);
    let remote = nested(net, &top);
    net.update_op(S2, B, &remote);
    net.abort(S1, &remote, vec![S2]);
    let req = net.commit(S1, &top, mode, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
}

/// All work is remote, so the home site settles with no servers, and
/// a remote `SubResolved` finds the family there without servers too.
/// Then the top level aborts with a committed child.
fn no_servers_at_home_then_top_abort(net: &mut Net) {
    let top = net.begin(S1);
    let child = nested(net, &top);
    net.update_op(S2, A, &child);
    commit_nested(net, &child, vec![S2]);
    for outcome in [Outcome::Committed, Outcome::Aborted] {
        let child = nested(net, &top);
        net.update_op(S2, B, &child);
        sub_resolved(net, S2, S1, &child, outcome);
    }
    let req = net.abort(S1, &top, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Aborted));
}

/// The three rejections: a top-level tid, an unknown family, and a
/// child that is not active (resolved already, or under an aborted
/// parent).
fn rejections(net: &mut Net) {
    let top = net.begin(S1);
    let ghost = Tid::top_level(FamilyId {
        origin: S1,
        seq: 99,
    })
    .child(1);
    let committed = nested(net, &top);
    commit_nested(net, &committed, vec![]);
    let aborted = nested(net, &top);
    let orphan = nested(net, &aborted);
    net.abort(S1, &aborted, vec![]);
    let reqs = [
        commit_nested(net, &top, vec![]),
        commit_nested(net, &ghost, vec![]),
        net.abort(S1, &ghost, vec![]),
        commit_nested(net, &committed, vec![]),
        net.abort(S1, &committed, vec![]),
        commit_nested(net, &aborted, vec![]),
        net.abort(S1, &aborted, vec![]),
        commit_nested(net, &orphan, vec![]),
    ];
    for req in reqs {
        let got = net.find_event(S1, req);
        assert!(matches!(got, Some(Action::Rejected { .. })), "{got:?}");
    }
    net.commit(S1, &top, CommitMode::TwoPhase, vec![]);
}

/// Both children's `SubResolved` are lost to a partition; the family
/// then commits at the top level.
fn sub_resolved_lost_before_top_commit(net: &mut Net) {
    let top = net.begin(S1);
    net.update_op(S1, A, &top);
    let committed = nested(net, &top);
    net.update_op(S2, A, &committed);
    let aborted = nested(net, &top);
    net.update_op(S2, B, &aborted);
    net.partition = vec![[S1].into(), [S2].into()];
    commit_nested(net, &committed, vec![S2]);
    net.abort(S1, &aborted, vec![S2]);
    net.partition.clear();
    net.commit(S1, &top, CommitMode::TwoPhase, vec![S2]);
}

fn nested_digest() -> u64 {
    let mut runs = Vec::new();
    for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
        let mut net = recording(3);
        home_and_remote_children(&mut net, mode);
        runs.push(net);
    }
    let scripts: [fn(&mut Net); 3] = [
        no_servers_at_home_then_top_abort,
        rejections,
        sub_resolved_lost_before_top_commit,
    ];
    for script in scripts {
        let mut net = recording(2);
        script(&mut net);
        runs.push(net);
    }
    let mut state = FNV_OFFSET;
    for mut net in runs {
        let all: Vec<SiteId> = net.sites.keys().copied().collect();
        for _ in 0..2 {
            for &s in &all {
                net.flush_lazy(s);
            }
            net.run_timers(20);
        }
        fnv1a(
            &mut state,
            &net.action_digest.expect("recording").to_le_bytes(),
        );
        for (site, sb) in &mut net.sites {
            sb.wal.force().expect("force");
            fnv1a(&mut state, &site.0.to_le_bytes());
            fnv1a(
                &mut state,
                &sb.wal.store_mut().durable_bytes().expect("image"),
            );
        }
    }
    state
}

#[test]
fn golden_nested_digest_is_reproduced() {
    let got = nested_digest();
    assert_eq!(
        got, NESTED_PINNED,
        "nested digest {got:#018x} differs from the pin {NESTED_PINNED:#018x}: the engine's \
         behaviour changed (see .claude/skills/verify/SKILL.md before re-pinning)"
    );
}
