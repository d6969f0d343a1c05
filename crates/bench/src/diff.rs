//! Knee-regression comparison between two bench JSON reports.
//!
//! The socket and load-curve benches stamp their JSON with a
//! `config_hash` (a digest of every knob that shapes the workload)
//! and report one *knee* — `saturation_commits_per_sec` — per curve,
//! labelled by its `transport`/`mode`. CI keeps the last committed
//! report as the baseline and fails the build when a knee drops by
//! more than a threshold, which turns "the data plane got slower"
//! from a graph someone might read into a red build.
//!
//! Comparing runs whose configs differ is meaningless, so a
//! `config_hash` mismatch is a *skip*, not a failure: the workload
//! changed and the baseline must be re-recorded.
//!
//! The workspace takes no JSON dependency; the parser below handles
//! exactly the subset our own reports emit (string values without
//! escapes, plain numbers) and is tested against a committed report.

/// One report's comparable surface.
#[derive(Debug, PartialEq)]
pub struct BenchSummary {
    /// `"bench"` field: which bench produced the report.
    pub bench: String,
    /// `"stamp".config_hash`: digest of the workload configuration.
    pub config_hash: String,
    /// `(curve label, saturation_commits_per_sec)` per curve, in
    /// report order.
    pub knees: Vec<(String, f64)>,
}

/// Extracts the first `"key": "value"` string field after `from`.
fn string_field(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((rest[..end].to_string(), at))
}

/// Extracts the first `"key": <number>` field after `from`.
fn number_field(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok().map(|v| (v, at))
}

/// Parses one bench report into its comparable summary. Reports
/// without any knee parse fine with empty `knees`; reports without a
/// stamp are an error — there is nothing sound to compare.
pub fn parse_summary(text: &str) -> Result<BenchSummary, String> {
    let bench = string_field(text, "bench", 0)
        .map(|(v, _)| v)
        .ok_or("report has no \"bench\" field")?;
    let config_hash = string_field(text, "config_hash", 0)
        .map(|(v, _)| v)
        .ok_or("report has no stamp.config_hash")?;
    let mut knees = Vec::new();
    let mut from = 0;
    while let Some((knee, at)) = number_field(text, "saturation_commits_per_sec", from) {
        // The label key opens the same object, directly before the
        // knee: scan back to the enclosing '{' and read it.
        let open = text[..at].rfind('{').ok_or("knee outside any object")?;
        let label = ["transport", "mode", "label"]
            .iter()
            .find_map(|k| string_field(&text[open..at], k, 0).map(|(v, _)| v))
            .ok_or_else(|| format!("knee at byte {at} has no transport/mode/label"))?;
        knees.push((label, knee));
        from = at;
    }
    Ok(BenchSummary {
        bench,
        config_hash,
        knees,
    })
}

/// Result of comparing a current report against a baseline.
#[derive(Debug, PartialEq)]
pub enum DiffVerdict {
    /// Configs differ; no sound comparison exists. Not a failure.
    SkippedConfigMismatch { baseline: String, current: String },
    /// Every baseline knee is present and within the threshold.
    /// Carries `(label, baseline, current, delta_pct)` per curve.
    Pass(Vec<(String, f64, f64, f64)>),
    /// At least one knee regressed past the threshold (or vanished).
    Fail {
        rows: Vec<(String, f64, f64, f64)>,
        failures: Vec<String>,
    },
}

/// How far, in percent, a saturation knee may fall below its baseline
/// before [`diff`] fails it.
pub const THRESHOLD_PCT: f64 = 15.0;

/// Compares `current` against `baseline`: a knee more than
/// [`THRESHOLD_PCT`] below its baseline — or a baseline curve missing
/// from the current report — fails. New curves in `current` are
/// ignored (they have no baseline yet); improvements always pass.
pub fn diff(baseline: &BenchSummary, current: &BenchSummary) -> DiffVerdict {
    if baseline.config_hash != current.config_hash {
        return DiffVerdict::SkippedConfigMismatch {
            baseline: baseline.config_hash.clone(),
            current: current.config_hash.clone(),
        };
    }
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (label, base) in &baseline.knees {
        let Some((_, cur)) = current.knees.iter().find(|(l, _)| l == label) else {
            failures.push(format!(
                "curve \"{label}\" ({base:.1} commits/s at baseline) is missing from \
                 the current report"
            ));
            continue;
        };
        let delta_pct = if *base > 0.0 {
            (cur - base) / base * 100.0
        } else {
            0.0
        };
        rows.push((label.clone(), *base, *cur, delta_pct));
        if delta_pct < -THRESHOLD_PCT {
            failures.push(format!(
                "curve \"{label}\" knee regressed {:.1}% ({base:.1} -> {cur:.1} \
                 commits/s, threshold {THRESHOLD_PCT}%)",
                -delta_pct
            ));
        }
    }
    if failures.is_empty() {
        DiffVerdict::Pass(rows)
    } else {
        DiffVerdict::Fail { rows, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "bench": "socket_transports",
  "stamp": {"git_sha": "abc-dirty", "config_hash": "8e9d2ce99ad7d9fe"},
  "config": {"sites": 3, "theta": 0.99},
  "transports": [
  {"transport": "inproc", "saturation_commits_per_sec": 598.3, "points": [
    {"offered_per_sec": 100.0, "achieved_commits_per_sec": 100.3}
  ]},
  {"transport": "udp", "saturation_commits_per_sec": 401.0, "points": []},
  {"transport": "tcp", "saturation_commits_per_sec": 380.5, "points": []}
]}"#;

    fn summary(hash: &str, knees: &[(&str, f64)]) -> BenchSummary {
        BenchSummary {
            bench: "socket_transports".into(),
            config_hash: hash.into(),
            knees: knees.iter().map(|(l, k)| (l.to_string(), *k)).collect(),
        }
    }

    #[test]
    fn parses_labels_and_knees() {
        let s = parse_summary(REPORT).unwrap();
        assert_eq!(s.bench, "socket_transports");
        assert_eq!(s.config_hash, "8e9d2ce99ad7d9fe");
        assert_eq!(
            s.knees,
            vec![
                ("inproc".to_string(), 598.3),
                ("udp".to_string(), 401.0),
                ("tcp".to_string(), 380.5)
            ]
        );
    }

    #[test]
    fn parses_mode_labelled_curves() {
        let s = parse_summary(
            r#"{"bench": "load_curves",
                "stamp": {"git_sha": "x", "config_hash": "aa"},
                "modes": [{"mode": "lock_based", "saturation_commits_per_sec": 399.3}]}"#,
        )
        .unwrap();
        assert_eq!(s.knees, vec![("lock_based".to_string(), 399.3)]);
    }

    #[test]
    fn missing_stamp_is_an_error() {
        assert!(parse_summary(r#"{"bench": "x"}"#).is_err());
    }

    #[test]
    fn config_mismatch_skips() {
        let b = summary("aa", &[("tcp", 400.0)]);
        let c = summary("bb", &[("tcp", 100.0)]);
        assert!(matches!(
            diff(&b, &c),
            DiffVerdict::SkippedConfigMismatch { .. }
        ));
    }

    #[test]
    fn within_threshold_passes_and_improvement_passes() {
        let b = summary("aa", &[("tcp", 400.0), ("udp", 400.0)]);
        let c = summary("aa", &[("tcp", 360.0), ("udp", 500.0)]);
        assert!(matches!(diff(&b, &c), DiffVerdict::Pass(_)));
    }

    #[test]
    fn regression_past_threshold_fails() {
        let b = summary("aa", &[("tcp", 400.0)]);
        let c = summary("aa", &[("tcp", 300.0)]);
        let DiffVerdict::Fail { failures, .. } = diff(&b, &c) else {
            panic!("expected failure");
        };
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("25.0%"), "{failures:?}");
    }

    #[test]
    fn vanished_curve_fails() {
        let b = summary("aa", &[("tcp", 400.0)]);
        let c = summary("aa", &[("udp", 400.0)]);
        assert!(matches!(diff(&b, &c), DiffVerdict::Fail { .. }));
    }

    #[test]
    fn new_curve_in_current_is_ignored() {
        let b = summary("aa", &[("tcp", 400.0)]);
        let c = summary("aa", &[("tcp", 400.0), ("udp", 100.0)]);
        assert!(matches!(diff(&b, &c), DiffVerdict::Pass(_)));
    }
}
