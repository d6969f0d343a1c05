//! Behaviour-equivalence oracle for the simulated world.
//!
//! Every paper artifact `camelot-repro` regenerates (each row of
//! `camelot_harness::INDEX`, run with `quick = true`) is folded into one
//! pinned word: the report exactly as it prints. The discrete-event
//! world is deterministic per seed, so a refactor of `camelot-node`'s
//! world, its configuration or the harness that spells it must
//! reproduce the digest; a mismatch is a behaviour change, never a
//! reason to re-pin in the same commit.

use camelot::core::testkit::{fnv1a, FNV_OFFSET};

const PINNED: u64 = 0x049f_0864_1403_2c3e;

fn repro_digest() -> u64 {
    let mut state = FNV_OFFSET;
    for (_, _, run) in camelot_harness::INDEX {
        fnv1a(&mut state, format!("{}", run(true)).as_bytes());
    }
    state
}

#[test]
fn golden_repro_digest_is_reproduced() {
    let got = repro_digest();
    assert_eq!(
        got, PINNED,
        "repro digest {got:#018x} differs from the pin {PINNED:#018x}: a paper artifact \
         changed (run `QUICK=1 camelot-repro all` on both sides and diff)"
    );
}
