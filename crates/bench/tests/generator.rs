//! Tier-1 tests for the load-generator building blocks: the seeded
//! Zipfian sampler and the open-loop arrival schedule. These gate the
//! believability of every `camelot-load` curve — a skewless sampler or
//! a drifting pacer would invalidate the contention results silently.

use std::time::{Duration, Instant};

use camelot_bench::{OpenLoop, SplitMix64, Zipf};

#[test]
fn zipf_is_deterministic_for_a_seed() {
    let z = Zipf::new(512, 0.99);
    let draw = |seed: u64| -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        (0..1000).map(|_| z.sample(&mut rng)).collect()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
}

#[test]
fn zipf_hot_key_frequency_matches_theory() {
    let z = Zipf::new(256, 0.99);
    let mut rng = SplitMix64::new(42);
    let n = 200_000;
    let mut counts = vec![0u64; z.keys()];
    for _ in 0..n {
        counts[z.sample(&mut rng)] += 1;
    }
    // The hottest key's empirical frequency should sit within 5%
    // (relative) of its theoretical mass at this sample size.
    let empirical = counts[0] as f64 / n as f64;
    let theory = 1.0 / (1..=256).map(|r| (r as f64).powf(-0.99)).sum::<f64>();
    assert!(
        (empirical - theory).abs() / theory < 0.05,
        "hot key frequency {empirical:.4} vs theoretical {theory:.4}"
    );
    // Skew sanity: frequency decays along rank. Compare coarse rank
    // bands (individual adjacent ranks are too noisy in the tail).
    let band = |lo: usize, hi: usize| counts[lo..hi].iter().sum::<u64>();
    assert!(band(0, 4) > band(4, 16));
    assert!(band(4, 16) > band(64, 76));
    // And the skew is real: top-10 of 256 keys draws well over the
    // uniform share (10/256 ≈ 4%).
    assert!(band(0, 10) as f64 / n as f64 > 0.30);
}

#[test]
fn zipf_theta_zero_is_roughly_uniform() {
    let z = Zipf::new(64, 0.0);
    let mut rng = SplitMix64::new(9);
    let n = 64_000;
    let mut counts = vec![0u64; z.keys()];
    for _ in 0..n {
        counts[z.sample(&mut rng)] += 1;
    }
    let expected = n as f64 / 64.0;
    for (rank, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expected).abs() / expected < 0.25,
            "rank {rank}: {c} vs uniform {expected}"
        );
    }
}

#[test]
fn open_loop_offered_rate_is_met_with_noop_consumer() {
    // Drive the schedule in real time against a no-op "engine" and
    // check the achieved release rate tracks the offered rate. A
    // drifting pacer here means every bench curve mislabels its
    // x-axis.
    let rate = 2000.0;
    let total = 1000u64; // 0.5 s of arrivals
    let start = Instant::now();
    let mut released = 0u64;
    OpenLoop::new(start, rate, total).run(|_, _| released += 1);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(released, total);
    let achieved = total as f64 / elapsed;
    // Within 15% of offered: sleep granularity costs a little, but
    // the burst-release catch-up keeps the long-run rate honest.
    assert!(
        (achieved - rate).abs() / rate < 0.15,
        "achieved {achieved:.0}/s vs offered {rate:.0}/s"
    );
}

#[test]
fn open_loop_latency_is_measured_from_scheduled_arrival() {
    // due_at(i) must be start + i/rate exactly, independent of when
    // (or whether) the harness got around to releasing arrival i —
    // that is what makes backlog count against the system.
    let start = Instant::now();
    let ol = OpenLoop::new(start, 100.0, 50);
    for i in [0u64, 1, 10, 49] {
        let expect = start + Duration::from_secs_f64(i as f64 / 100.0);
        let got = ol.due_at(i);
        let delta = if got > expect {
            got.duration_since(expect)
        } else {
            expect.duration_since(got)
        };
        assert!(
            delta < Duration::from_micros(50),
            "arrival {i}: off by {delta:?}"
        );
    }
}
