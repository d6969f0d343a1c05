//! Process CPU time from `/proc`.
//!
//! `/proc/<pid>/stat` counts in 10 ms ticks, too coarse for a phase
//! that burns a few hundred milliseconds of CPU. The scheduler's
//! per-thread `schedstat` counts nanoseconds on a CPU, so a process's
//! CPU time is read as the sum over `/proc/<pid>/task/*/schedstat`.
//! Threads that exit between two readings take their time with them:
//! the ladder's driver threads, which live for one phase, read their
//! own time before they end ([`thread_cpu_ns`]), and the process-wide
//! readings around a phase see only the threads that outlive it.

use std::fs;

use crate::pace::REFERENCE_THREAD;
use crate::pin::IDLE_THREAD;

/// On-CPU nanoseconds from one `schedstat` line: `<run_ns> <wait_ns>
/// <timeslices>`.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of every live thread of `pid`. `None` when the
/// process is gone or `/proc` does not offer `schedstat`.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let dir = task.ok()?.path();
        // The ladder's own idle-class spinner and speed reference are
        // not the program's work.
        if fs::read_to_string(dir.join("comm"))
            .is_ok_and(|c| [IDLE_THREAD, REFERENCE_THREAD].contains(&c.trim_end()))
        {
            continue;
        }
        // A thread may exit between the listing and the read.
        if let Ok(line) = fs::read_to_string(dir.join("schedstat")) {
            total += parse_schedstat(&line)?;
        }
    }
    Some(total)
}

/// On-CPU nanoseconds of the calling thread (0 if `/proc` has no
/// `thread-self`).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|l| parse_schedstat(&l))
        .unwrap_or(0)
}

/// Parent pid from a `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself hold spaces or parentheses, so fields
/// are counted from the *last* `)`: state, then ppid.
pub fn parse_stat_ppid(line: &str) -> Option<u32> {
    let rest = &line[line.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Pids of the live direct children of `parent` (the `camelot-site`
/// processes of `socket_2pc`; the supervisor does not expose them).
pub fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|l| parse_stat_ppid(&l))
                == Some(parent)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Sum over several processes; processes that have vanished count 0.
pub fn cpu_ns(pids: &[u32]) -> u64 {
    pids.iter().filter_map(|&p| process_cpu_ns(p)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(parse_schedstat("64446 79950 1\n"), Some(64446));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn parses_ppid_past_an_awkward_command_name() {
        let line = "7772 (a b) c) R 7763 7772 7763 0 -1 4194304 100 0 0 0 3 1 0 0 20 0 1 0";
        assert_eq!(parse_stat_ppid(line), Some(7763));
        assert_eq!(parse_stat_ppid("garbage"), None);
    }

    #[test]
    fn finds_a_spawned_child() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .expect("spawn sleep");
        let kids = children_of(std::process::id());
        child.kill().expect("kill sleep");
        child.wait().expect("reap sleep");
        assert!(kids.contains(&child.id()), "{kids:?}");
    }

    #[test]
    fn own_cpu_time_advances_with_work() {
        let me = std::process::id();
        let before = process_cpu_ns(me).expect("schedstat readable");
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_ns(me).expect("schedstat readable");
        assert!(after > before, "{before} -> {after}");
        assert_eq!(process_cpu_ns(u32::MAX), None);
    }
}
