//! `camelot-ladder`: the repo's benchmark.
//!
//! Eight workloads with the simulated disk and network delays removed,
//! five end-to-end metrics with bounds, a per-crate cost ladder and a
//! traced run — all measured from outside, through the public
//! functions of the repo's crates. See `README.md` beside this package
//! for what each number can and cannot show.
//!
//! Two ways to run it (always from the root of a checkout, through
//! `bash ladder/run.sh`, which builds first):
//!
//! - `--workload W --seed N --seconds S --trace 0|1`: one workload,
//!   one JSON object as the last line of stdout (the contract in
//!   `BENCHMARK.json`). `--trace 0` reports the end-to-end metrics,
//!   `--trace 1` the per-layer ones.
//! - no `--workload`: every workload, rounds interleaved round-robin,
//!   then the traced rounds and the ladder rows; `--only W`, `--quick`
//!   and `--selfcheck` for iteration and review.

mod cpu;
mod metrics;
mod oracle;
mod pace;
mod pin;
mod report;
mod round;
mod rows;
mod stats;
mod target;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use camelot_core::ExecMode;

use metrics::{unit_of, END_TO_END, PER_LAYER, RUN_SECONDS};
use report::Metric;
use round::{run_round, PhaseLens, RoundResult};
use workload::{Host, Workload, WORKLOADS};

/// Rounds behind every end-to-end median. Identical rounds of the
/// zero-delay in-process workloads differ by up to a factor of two in
/// latency and CPU per commit (each is a fresh cluster: new threads,
/// new heap; and the host's speed moves by a third within a second),
/// so their median is taken over fifteen. A round of `socket_2pc`
/// spends a second spawning and reaping processes and repeats to a few
/// per cent: seven.
fn rounds_for(w: &Workload) -> usize {
    if w.host == Host::Sockets {
        7
    } else {
        15
    }
}
/// Traced rounds (and the untraced ones they are compared with) in a
/// per-layer run.
const TRACED_ROUNDS: usize = 3;

struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    write_baseline: Option<PathBuf>,
    emit_benchmark_json: bool,
}

const USAGE: &str = "usage: camelot-ladder [--workload W --seed N --seconds S --trace 0|1] \
     | [--seed N] [--seconds S] [--only W] [--quick] [--selfcheck] [--write-baseline FILE] \
     | --emit-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        only: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        selfcheck: false,
        write_baseline: None,
        emit_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--only" => a.only = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--write-baseline" => a.write_baseline = Some(PathBuf::from(value()?)),
            "--emit-benchmark-json" => a.emit_benchmark_json = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    for name in a.workload.iter().chain(&a.only) {
        if workload::find(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    if a.write_baseline.is_some() && (a.quick || a.only.is_some() || a.workload.is_some()) {
        return Err("a baseline needs the full set: no --quick, --only or --workload".into());
    }
    Ok(a)
}

/// `<target>/ladder`: scratch space inside the checkout, next to the
/// build that produced this binary. Logs of a run live in a directory
/// of their own underneath and are removed when the run ends.
fn ladder_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("ladder"))
        .ok_or_else(|| format!("{} is not in <target>/<profile>/", exe.display()))
}

fn lens_for(seconds: f64, rounds: usize) -> PhaseLens {
    PhaseLens::of_round(Duration::from_secs_f64(seconds / rounds as f64))
}

/// Whether the outputs one round produced were right, and how many of
/// its operations went wrong. A lock-based workload must lose no
/// update. Queued execution is read-committed across keys by its own
/// documentation, and loses counter updates in the seed: that
/// shortfall is reported as `rt.lost_updates` and in the README, not
/// held against the run, so that the workload can be kept (the
/// contract wants workloads on which no operation fails). Phantom
/// commits are wrong in either mode.
fn judge(w: &Workload, r: &RoundResult) -> (bool, u64) {
    let strict = w.exec == ExecMode::LockBased;
    let lost = if strict {
        r.after_recovery.lost.max(r.at_end.lost)
    } else {
        0
    };
    let phantom = r.after_recovery.phantom.max(r.at_end.phantom);
    (lost + phantom == 0, r.gave_up + r.unknown + lost + phantom)
}

fn print_metric(kind: &str, w: &Workload, m: &Metric) {
    let quart = m
        .quartiles()
        .map(|(q1, q3)| format!(" q1={q1:.4} q3={q3:.4}"))
        .unwrap_or_default();
    println!(
        "{kind} {} {} = {:.4} {} n={} rounds={}{quart}",
        w.name,
        m.name,
        m.value,
        unit_of(m.name),
        m.samples,
        m.rounds.len(),
    );
}

fn round_note(w: &Workload, label: &str, r: &RoundResult) {
    eprintln!(
        "  {} {label}: p50 {:.1} us (released {:.0} us late), p95 {:.1} us, {} commits, \
         cpu {:.1} us/txn, sat {:.0}/s, recovery {:.2} ms, setup {:.4} s, slowdown {:.3} (paced {:.3}), \
         retries {}, lost {}+{} phantom {}",
        w.name,
        r.p(50.0),
        stats::percentile(&r.late_us, 50.0),
        r.p(95.0),
        r.fixed_commits,
        r.fixed_cpu_ns as f64 / 1e3 / r.fixed_commits as f64,
        r.sat_commits as f64 / r.sat_elapsed.as_secs_f64(),
        r.recovery_ms,
        r.setup_s,
        r.slowdown,
        r.paced_slowdown,
        r.retries,
        r.after_recovery.lost,
        r.at_end.lost,
        r.at_end.phantom,
    );
}

/// Everything measured for one workload.
#[derive(Default)]
struct Runs {
    plain: Vec<RoundResult>,
    traced: Vec<RoundResult>,
}

impl Runs {
    fn push(&mut self, traced: bool, r: RoundResult) {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
        .push(r);
    }

    fn all(&self) -> impl Iterator<Item = &RoundResult> {
        self.plain.iter().chain(&self.traced)
    }

    fn verdict(&self, w: &Workload) -> (bool, u64, u64) {
        let mut correct = true;
        let (mut attempted, mut failed) = (0, 0);
        for r in self.all() {
            let (ok, bad) = judge(w, r);
            correct &= ok;
            attempted += r.attempted;
            failed += bad;
        }
        (correct, attempted, failed)
    }

    fn end_to_end(&self, w: &Workload) -> Vec<Metric> {
        report::end_to_end(w, &self.plain)
    }

    fn per_layer(&self, w: &Workload, rows: &[(&'static str, f64)]) -> Vec<Metric> {
        let mut out = report::per_layer(w, &self.plain, &self.traced);
        out.extend(rows.iter().map(|&(name, value)| Metric {
            name,
            value,
            rounds: Vec::new(),
            samples: 0,
        }));
        out
    }
}

/// The last line of a contract run.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Prints `metrics` and holds them against the registry's `names`: a
/// metric the run did not produce is an instrument failure, as is one
/// produced twice or one the registry does not know.
fn print_checked(
    kind: &str,
    w: &Workload,
    metrics: &[Metric],
    names: impl Iterator<Item = &'static str>,
) -> Result<(), String> {
    let mut expected = 0;
    for name in names {
        expected += 1;
        let n = metrics.iter().filter(|m| m.name == name).count();
        if n != 1 {
            return Err(format!("metric {name} reported {n} times"));
        }
    }
    if metrics.len() != expected {
        return Err("a metric outside the registry was reported".into());
    }
    for m in metrics {
        print_metric(kind, w, m);
    }
    Ok(())
}

fn print_end_to_end(w: &Workload, runs: &Runs) -> Result<Vec<Metric>, String> {
    let metrics = runs.end_to_end(w);
    print_checked("e2e", w, &metrics, END_TO_END.iter().map(|m| m.name))?;
    Ok(metrics)
}

/// Also writes the trace file and fails on dropped trace events.
fn print_per_layer(
    w: &Workload,
    runs: &Runs,
    rows: &[(&'static str, f64)],
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let metrics = runs.per_layer(w, rows);
    print_checked("layer", w, &metrics, PER_LAYER.iter().map(|m| m.0))?;
    write_trace(dir, w, runs)?;
    if runs.traced.iter().any(|r| r.fixed.trace_dropped > 0) {
        return Err(format!("{}: the traced round dropped trace events", w.name));
    }
    Ok(metrics)
}

fn write_trace(dir: &Path, w: &Workload, runs: &Runs) -> Result<(), String> {
    let Some(r) = runs.traced.last() else {
        return Ok(());
    };
    let path = dir.join(format!("trace-{}.jsonl", w.name));
    std::fs::write(&path, report::trace_jsonl(r))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "  {} trace: {} spans (driver self time {:.1} us/txn), {} program events -> {}",
        w.name,
        r.spans.len(),
        report::txn_self_ns(&r.spans) as f64
            / 1e3
            / r.spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64,
        r.trace.len(),
        path.display()
    );
    Ok(())
}

/// Contract mode: one workload, one JSON line.
fn run_one(a: &Args, w: &Workload, dir: &Path, work: &Path) -> Result<(), String> {
    let mut runs = Runs::default();
    let metrics = if a.trace {
        // Untraced and traced rounds alternate, so that a slow spell
        // of the box falls on both sides of the overhead ratio.
        let lens = lens_for(a.seconds, 2 * TRACED_ROUNDS);
        for i in 0..2 * TRACED_ROUNDS {
            let traced = i % 2 == 1;
            let r = run_round(w, a.seed, 16 * i as u64, lens, work, traced)?;
            round_note(w, if traced { "traced" } else { "plain" }, &r);
            runs.push(traced, r);
        }
        print_per_layer(w, &runs, &rows::run(work, 1.0)?, dir)?
    } else {
        let rounds = rounds_for(w);
        let lens = lens_for(a.seconds, rounds);
        for i in 0..rounds {
            let r = run_round(w, a.seed, 16 * i as u64, lens, work, false)?;
            round_note(w, &format!("round {i}"), &r);
            runs.plain.push(r);
        }
        print_end_to_end(w, &runs)?
    };
    let (correct, attempted, failed) = runs.verdict(w);
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

/// How a pass over the workloads is shaped: `plan(w)` gives the
/// untraced rounds of `w` and the phase lengths of one round.
type Plan<'a> = &'a dyn Fn(&Workload) -> (usize, PhaseLens);

/// One pass over a set of workloads: the untraced rounds interleaved
/// round-robin (A B … H, A B … H, …) so that a noisy few seconds of
/// the shared box hit one round of each workload rather than all
/// rounds of one; then `traced_rounds` traced rounds each.
fn run_set(
    set: &[&'static Workload],
    seed: u64,
    plan: Plan<'_>,
    traced_rounds: usize,
    work: &Path,
) -> Result<Vec<Runs>, String> {
    let mut all: Vec<Runs> = set.iter().map(|_| Runs::default()).collect();
    let most = set.iter().map(|w| plan(w).0).max().unwrap_or(0);
    for i in 0..most + traced_rounds {
        for (w, runs) in set.iter().zip(&mut all) {
            let (rounds, lens) = plan(w);
            let traced = i >= most;
            if !traced && i >= rounds {
                continue;
            }
            let r = run_round(w, seed, 16 * i as u64, lens, work, traced)?;
            round_note(
                w,
                &format!("round {i}{}", if traced { " (traced)" } else { "" }),
                &r,
            );
            runs.push(traced, r);
        }
    }
    Ok(all)
}

fn baseline_json(a: &Args, set: &[&'static Workload], all: &[Runs], sha: &str) -> String {
    let workloads: Vec<String> = set
        .iter()
        .zip(all)
        .map(|(w, runs)| {
            let metrics: Vec<String> = runs
                .end_to_end(w)
                .iter()
                .map(|m| {
                    let (q1, q3) = m.quartiles().unwrap_or((m.value, m.value));
                    format!(
                        "\"{}\": {{\"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"unit\": \"{}\"}}",
                        m.name,
                        m.value,
                        unit_of(m.name)
                    )
                })
                .collect();
            format!("    \"{}\": {{{}}}", w.name, metrics.join(", "))
        })
        .collect();
    format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"dirty\": false,\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        a.seed,
        a.seconds,
        workloads.join(",\n")
    )
}

/// All-workloads mode, with `--selfcheck` and `--quick`.
fn run_all(a: &Args, dir: &Path, work: &Path) -> Result<(), String> {
    let set: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| a.only.as_deref().is_none_or(|o| o == w.name))
        .filter(|w| !(a.quick && w.host == Host::Sockets))
        .collect();
    let third = Duration::from_millis(300);
    let plan = |w: &Workload| {
        if a.quick {
            let lens = PhaseLens {
                warm: third,
                fixed: third,
                sat: third,
            };
            (1, lens)
        } else {
            (rounds_for(w), lens_for(a.seconds, rounds_for(w)))
        }
    };
    let sha = camelot_scope::git_sha();
    println!(
        "camelot-ladder seed={} seconds={} git={sha}",
        a.seed, a.seconds
    );
    let all = run_set(&set, a.seed, &plan, 1, work)?;
    let rows = rows::run(work, if a.quick { 0.05 } else { 1.0 })?;
    for (w, runs) in set.iter().zip(&all) {
        print_end_to_end(w, runs)?;
        print_per_layer(w, runs, &rows, dir)?;
        let (correct, attempted, failed) = runs.verdict(w);
        println!(
            "check {} correct={correct} attempted={attempted} failed={failed}",
            w.name
        );
    }
    if a.selfcheck {
        // The same code again: do two sets of runs agree within the
        // bounds the benchmark asks later changes to meet?
        let again = run_set(&set, a.seed, &plan, 0, work)?;
        println!("selfcheck: workload metric first second worse_by bound verdict");
        for ((w, first), second) in set.iter().zip(&all).zip(&again) {
            for ((m1, m2), def) in first
                .end_to_end(w)
                .iter()
                .zip(&second.end_to_end(w))
                .zip(&END_TO_END)
            {
                let worse_by = if def.better == "lower" {
                    m2.value / m1.value - 1.0
                } else {
                    1.0 - m2.value / m1.value
                };
                let verdict = if worse_by.abs() <= def.bound {
                    "PASS"
                } else {
                    "FAIL"
                };
                let note = if w.gated { "" } else { " (not gated)" };
                println!(
                    "selfcheck: {} {} {:.4} {:.4} {:+.3} {} {verdict}{note}",
                    w.name, def.name, m1.value, m2.value, worse_by, def.bound
                );
            }
        }
    }
    if let Some(path) = &a.write_baseline {
        if sha == "unknown" || sha.ends_with("-dirty") {
            eprintln!("not writing a baseline from tree {sha}: commit first");
        } else {
            std::fs::write(path, baseline_json(a, &set, &all, &sha))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("camelot-ladder: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Before any thread or child exists, so that all inherit it.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    match pin::pin_to_one_cpu().and_then(|cpu| pin::keep_cpu_awake().map(|()| cpu)) {
        Ok(cpu) => eprintln!("camelot-ladder: {cpus} cpus; pinned to cpu {cpu}, kept awake"),
        Err(e) => {
            eprintln!("camelot-ladder: cannot pin to one cpu: {e}");
            return ExitCode::FAILURE;
        }
    }
    let run = || -> Result<(), String> {
        let dir = ladder_dir()?;
        let work = dir.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let result = match args.workload.as_deref().and_then(workload::find) {
            Some(w) => run_one(&args, w, &dir, &work),
            None => run_all(&args, &dir, &work),
        };
        let _ = std::fs::remove_dir_all(&work);
        result
    };
    match run() {
        // A program that loses updates is a finding, printed above and
        // reported in `correct`; only a broken instrument fails the
        // command.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("camelot-ladder: instrument failure: {e}");
            ExitCode::FAILURE
        }
    }
}
