//! Behaviour-equivalence oracle for `camelot-core`.
//!
//! 512 seeded chaos schedules (2–4 sites, all three two-phase
//! variants, 2PC and non-blocking, update/read-only/veto sites, drops,
//! duplicates, crashes, restarts, partitions) are folded into one
//! pinned word: every engine step — site, input, the step's actions,
//! the engine's counters — plus every site's final log image. A refactor of the protocol
//! processor must reproduce it exactly; a mismatch is a behaviour
//! change, never a reason to re-pin in the same commit.

use camelot::core::testkit::{fnv1a, FNV_OFFSET};
use camelot_chaos::{run_seed, schedule_seed, RunResult};

const SCHEDULES: u64 = 512;
const BASE_SEED: u64 = 16;
const PINNED: u64 = 0x3435_9bf7_e282_de2d;

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
