//! Smoke test for the soak harness binary: a short seeded soak
//! against a real supervised socket cluster must finish clean.
//!
//! This is the soak's own acceptance gate — kills, partitions, and
//! skews all fire in a few seconds of wall clock, the audits run, and
//! the process exits 0. A violation (conservation, ratchet, wedged
//! state, burned restart budget) exits 1 and fails this test with the
//! soak's output attached.

use std::process::Command;

#[test]
fn quick_soak_exits_clean() {
    let exe = env!("CARGO_BIN_EXE_camelot-soak");
    let tmp = std::env::temp_dir().join(format!("camelot-soak-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let out = Command::new(exe)
        .env("QUICK", "1")
        .args(["--duration-secs", "8"])
        .args(["--audit-every-secs", "4"])
        .args(["--fault-every-ms", "1200"])
        // Hex, as the nightly job writes its seed: a tool that takes
        // integers in one spelling only prints its usage here.
        .args(["--seed", "0x50AC"])
        .arg("--log-dir")
        .arg(tmp.join("wal"))
        .arg("--trace-dir")
        .arg(tmp.join("traces"))
        .output()
        .expect("run camelot-soak");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "soak failed ({}):\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("clean soak"),
        "unexpected output:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
