//! Timed run of one workload, under the default allocator.
//!
//! Repeats set-up, a run over `SLICES` fixed simulated slices and the
//! post-run analysis until `--seconds` have passed (at least `MIN_REPS`
//! times, or exactly `--reps` times). Repetitions of one seed are the same
//! work, and each must produce the same deterministic fingerprint. The
//! wall-time metrics come from the fastest repetition of each slice: on a
//! shared host, other tenants slow this one down for seconds at a time,
//! and the fastest of many repetitions filters that out where a median
//! does not. `elements_per_s` and the slice percentiles are taken over that
//! per-slice profile; `analysis_s` is the fastest analysis. `setup_s` is
//! the median of set-ups spread over the whole run.
//!
//! If any output check fails the result reads `"correct": false` and the
//! exit code is 1. Besides the result line, stdout carries
//! `fingerprint <json>` and `run_s <seconds>` (the first repetition's run
//! time); the runner script compares them with the traced run of the seed.

use std::process::ExitCode;
use std::time::Instant;

use habench::cli::Args;
use habench::report::{peak_rss_mb, result_line, Metric};
use habench::stats::{median, tail_percentile};
use habench::workload::{Outcome, Run, SLICES};
use sps_sim::SimTime;

/// Extra set-ups timed (and dropped) before each repetition's own.
const EXTRA_SETUPS: usize = 2;
/// Repetitions made even when `--seconds` has already passed.
const MIN_REPS: usize = 3;

struct Rep {
    slices_ms: Vec<f64>,
    analysis_s: f64,
    outcome: Outcome,
}

fn rep(args: &Args, setup_samples: &mut Vec<f64>) -> Rep {
    for _ in 0..EXTRA_SETUPS {
        let t = Instant::now();
        let run = Run::setup(args.workload, args.seed, args.workload.observers());
        setup_samples.push(t.elapsed().as_secs_f64());
        drop(run);
    }
    let t = Instant::now();
    let mut run = Run::setup(args.workload, args.seed, args.workload.observers());
    setup_samples.push(t.elapsed().as_secs_f64());

    let end = run.end.as_nanos();
    let mut slices_ms = Vec::with_capacity(SLICES as usize);
    for i in 1..=SLICES {
        let t = Instant::now();
        // u128: `end * SLICES` would overflow u64 past ~18 simulated ks.
        run.run_until(SimTime::from_nanos(
            (end as u128 * i as u128 / SLICES as u128) as u64,
        ));
        slices_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let outcome = run.finish();
    let analysis_s = t.elapsed().as_secs_f64();
    Rep {
        slices_ms,
        analysis_s,
        outcome,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("habench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let done = match args.reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && started.elapsed().as_secs() >= args.seconds,
        };
        if done {
            break;
        }
        reps.push(rep(&args, &mut setup_samples));
    }

    let first = &reps[0].outcome;
    let mut problems = first.problems.clone();
    if reps
        .iter()
        .any(|r| r.outcome.fingerprint() != first.fingerprint())
    {
        problems.push("repetitions of one seed disagree".to_string());
    }
    for p in &problems {
        eprintln!("habench: check failed: {p}");
    }
    let rss = match peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("habench: {e}");
            return ExitCode::from(2);
        }
    };
    let profile: Vec<f64> = (0..SLICES as usize)
        .map(|i| {
            reps.iter()
                .map(|r| r.slices_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let run_s = |slices: &[f64]| slices.iter().sum::<f64>() / 1e3;
    let metrics = [
        Metric::new(
            "elements_per_s",
            first.accepted as f64 / run_s(&profile),
            "el/s",
        ),
        Metric::new(
            "slice_ms_p50",
            tail_percentile(&profile, 0.5).expect("SLICES supports p50"),
            "ms",
        ),
        Metric::new(
            "slice_ms_p99",
            tail_percentile(&profile, 0.99).expect("SLICES supports p99"),
            "ms",
        ),
        Metric::new("setup_s", median(&setup_samples), "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new(
            "analysis_s",
            reps.iter()
                .map(|r| r.analysis_s)
                .fold(f64::INFINITY, f64::min),
            "s",
        ),
        Metric::new(
            "overhead_per_element",
            first.overhead_per_element(),
            "el/el",
        ),
    ];
    eprintln!(
        "habench: {} seed {}: {} repetitions of {} slices, {} events, {} elements, \
         recovery_ms_hybrid {}, recovery_ms_ps {}",
        args.workload.name(),
        args.seed,
        reps.len(),
        SLICES,
        first.events,
        first.accepted,
        first.recovery_ms_hybrid,
        first.recovery_ms_ps
    );
    println!("fingerprint {}", first.fingerprint());
    println!("run_s {:?}", run_s(&reps[0].slices_ms));
    let attempted: u64 = reps.iter().map(|r| r.outcome.produced).sum();
    let failed: u64 = reps.iter().map(|r| r.outcome.failed()).sum();
    println!(
        "{}",
        result_line(problems.is_empty(), attempted, failed, &metrics)
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
