//! `camelot-repro` names experiments by their id in
//! `camelot_harness::INDEX` and nothing else.

use std::process::Command;

use camelot_harness::INDEX;

#[test]
fn an_unknown_id_exits_2_listing_every_id() {
    let out = Command::new(env!("CARGO_BIN_EXE_camelot-repro"))
        .arg("nope")
        .output()
        .expect("run camelot-repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("camelot-repro: no experiment nope\n"),
        "{stderr}"
    );
    let ids: Vec<&str> = INDEX.iter().map(|(id, ..)| *id).collect();
    assert!(
        stderr.contains(&format!("<{}|all>", ids.join("|"))),
        "{stderr}"
    );
}

#[test]
fn an_id_prints_that_report_and_only_that() {
    let out = Command::new(env!("CARGO_BIN_EXE_camelot-repro"))
        .env("QUICK", "1")
        .args(["table1", "sec41"])
        .output()
        .expect("run camelot-repro");
    assert!(out.status.success());
    let want: String = [INDEX[0].2(true), INDEX[7].2(true)]
        .iter()
        .map(|r| format!("{r}\n"))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}
