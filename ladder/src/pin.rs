//! Pins the ladder, and everything it starts, to one CPU.
//!
//! On the two-vCPU sandbox a wake-up that crosses CPUs costs far more
//! than one that stays (an IPI into a halted virtual CPU), and whether
//! a hand-off crosses is the scheduler's choice of the moment: the
//! same binary flips between two regimes a factor of two to three
//! apart in CPU per transaction, for seconds at a time (README,
//! "Why one CPU"). On one CPU every hand-off is a local context switch
//! and the figures repeat. The affinity mask is inherited by threads
//! and child processes, so it is set once, before either exists.
//!
//! The one CPU is then kept from ever going idle by a thread of the
//! lowest scheduling class ([`keep_cpu_awake`]). An idle virtual CPU
//! halts, and how long the host takes to wake it for the next timer or
//! hand-off depends on what the host is doing: measured here, the
//! median release lateness of the load generator swung between 18 and
//! 46 µs from round to round and dragged the 50 µs latency median
//! with it. A `SCHED_IDLE` thread runs only when nothing else wants
//! the CPU and is preempted at once when something does, so it takes
//! nothing from the program; it is left out of the CPU accounting by
//! its name.

const WORDS: usize = 16;
const SCHED_IDLE: i32 = 5;
/// Thread name of the idle spinner; `cpu::process_cpu_ns` skips it.
pub const IDLE_THREAD: &str = "ladder-idle";

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Starts the idle-class spinner on the (already pinned) CPU. It
/// never ends; the process exits over it.
pub fn keep_cpu_awake() -> Result<(), String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name(IDLE_THREAD.into())
        .spawn(move || {
            let priority = 0i32;
            // SAFETY: `sched_param` is one int, which `priority` is;
            // the kernel only reads it. Pid 0 is this thread.
            let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
            let err = std::io::Error::last_os_error();
            let _ = tx.send((rc == 0).then_some(()).ok_or(err));
            if rc == 0 {
                // Plain arithmetic, not `spin_loop`: a long run of
                // PAUSE instructions makes the host take the virtual
                // CPU away (pause-loop exiting), the opposite of the
                // purpose.
                let mut n = 0u64;
                loop {
                    n = std::hint::black_box(n.wrapping_add(1));
                }
            }
        })
        .map_err(|e| format!("spawn idle thread: {e}"))?;
    rx.recv()
        .map_err(|_| "idle thread died".to_string())?
        .map_err(|e| format!("sched_setscheduler(SCHED_IDLE): {e}"))
}

/// Restricts the calling thread to the highest-numbered CPU it is
/// allowed on (CPU 0 takes the virtio interrupts). Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes, which is what the call is told; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or("empty affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes; the kernel only
    // reads it.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}
