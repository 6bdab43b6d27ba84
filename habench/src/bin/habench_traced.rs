//! Traced run of one workload: per-layer wall time and allocations.
//!
//! Registers sps-sim's counting allocator and steps the workload one
//! event at a time through `HaSimulation::step_profiled`, charging each
//! handler's inclusive wall time and allocations to the layer that owns
//! the event kind (see `habench::layers`). Wall time outside the handlers
//! is the DES kernel's remainder: queue operations plus this loop's own
//! bookkeeping. On `recovery_observed` it also runs the workload with each
//! observation layer alone against all of them off, and times the
//! post-run analysis steps one by one.
//!
//! Per-layer metrics that do not apply to a workload (no failover events,
//! no dump, observers not measured) read 0. Besides the result line,
//! stdout carries `fingerprint <json>` and `run_s <seconds>` (the traced
//! stepping wall time) for the runner script.

use std::process::ExitCode;
use std::time::Instant;

use habench::cli::Args;
use habench::layers::{group_of, GROUPS};
use habench::report::{result_line, Metric};
use habench::stats::median;
use habench::workload::{Observers, Run, Workload};
use sps_metrics::MsgClass;
use sps_sim::counting_alloc::{self, CountingAllocator};
use sps_sim::StepProbe;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Events between samples of the network's sparse state.
const NET_SAMPLE_EVERY: u64 = 1024;
/// Runs per observer configuration; the median wall time is kept.
const OBSERVER_RUNS: usize = 3;

#[derive(Debug, Default, Clone, Copy)]
struct Bin {
    events: u64,
    wall_ns: u64,
    allocations: u64,
}

impl Bin {
    fn add(&mut self, probe: &StepProbe) {
        self.events += 1;
        self.wall_ns += probe.wall_ns;
        self.allocations += probe.allocations;
    }
}

/// Wall seconds and peak live heap bytes of one untraced run.
fn observer_cost(args: &Args, observers: Observers) -> (f64, u64) {
    let mut walls = Vec::with_capacity(OBSERVER_RUNS);
    let mut heap = 0;
    for _ in 0..OBSERVER_RUNS {
        let before = counting_alloc::live_bytes();
        counting_alloc::reset_peak_live();
        let mut run = Run::setup(args.workload, args.seed, observers);
        let t = Instant::now();
        let end = run.end;
        run.run_until(end);
        walls.push(t.elapsed().as_secs_f64());
        heap = counting_alloc::peak_live_bytes().saturating_sub(before);
    }
    (median(&walls), heap)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("habench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::setup(args.workload, args.seed, args.workload.observers());
    let live_after_setup = counting_alloc::live_bytes();
    counting_alloc::reset_peak_live();

    let mut bins = [Bin::default(); GROUPS.len()];
    let mut problems = Vec::new();
    let (mut net_links, mut net_bytes) = (0usize, 0u64);
    let mut stepped = 0u64;
    let t0 = Instant::now();
    while let Some((kind, probe)) = run.sim.step_profiled(|e| e.kind_name()) {
        run.aim_due();
        let Some(g) = group_of(kind) else {
            problems.push(format!("event kind {kind} maps to no layer"));
            break;
        };
        bins[g].add(&probe);
        stepped += 1;
        if stepped.is_multiple_of(NET_SAMPLE_EVERY) {
            let net = run.sim.world().cluster().network();
            net_links = net_links.max(net.active_busy_links());
            net_bytes = net_bytes.max(net.sparse_state_bytes());
        }
        if probe.at >= run.end {
            break;
        }
    }
    let traced_ns = t0.elapsed().as_nanos() as f64;
    let heap_growth = counting_alloc::peak_live_bytes().saturating_sub(live_after_setup);
    let outcome = run.finish();
    problems.extend(outcome.problems.iter().cloned());

    let accepted = outcome.accepted.max(1) as f64;
    let handler_ns: u64 = bins.iter().map(|b| b.wall_ns).sum();
    let kernel_ns = (traced_ns - handler_ns as f64).max(0.0);
    let events = stepped.max(1) as f64;
    let mut metrics = vec![
        Metric::new("sim.events", stepped as f64, "count"),
        Metric::new(
            "sim.events_per_element",
            stepped as f64 / accepted,
            "events/el",
        ),
        Metric::new("sim.kernel_ns_per_event", kernel_ns / events, "ns"),
        Metric::new("sim.kernel_share", kernel_ns / traced_ns, "ratio"),
        Metric::new(
            "sim.peak_queue_weight",
            outcome.peak_queue_weight as f64,
            "count",
        ),
    ];
    for (name, b) in GROUPS.iter().zip(&bins) {
        let per = |x: u64| {
            if b.events == 0 {
                0.0
            } else {
                x as f64 / b.events as f64
            }
        };
        metrics.push(Metric::new(
            format!("{name}.events"),
            b.events as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("{name}.ns_per_event"),
            per(b.wall_ns),
            "ns",
        ));
        metrics.push(Metric::new(
            format!("{name}.allocs_per_event"),
            per(b.allocations),
            "allocs/event",
        ));
        metrics.push(Metric::new(
            format!("{name}.share"),
            b.wall_ns as f64 / traced_ns,
            "ratio",
        ));
    }
    metrics.push(Metric::new(
        "cluster.net_active_links",
        net_links as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "cluster.net_sparse_bytes",
        net_bytes as f64,
        "B",
    ));
    for class in MsgClass::ALL {
        metrics.push(Metric::new(
            format!("core.msgs_per_element.{class}"),
            outcome.counters.messages(class) as f64 / accepted,
            "msgs/el",
        ));
    }
    let data_sent =
        outcome.counters.elements(MsgClass::Data) + outcome.counters.elements(MsgClass::DupData);
    metrics.extend([
        Metric::new(
            "core.useful_ratio",
            outcome.accepted as f64 / data_sent.max(1) as f64,
            "ratio",
        ),
        Metric::new("core.sink_duplicates", outcome.duplicates as f64, "count"),
        Metric::new(
            "core.heap_bytes_per_element",
            heap_growth as f64 / accepted,
            "B/el",
        ),
        Metric::new("recovery_ms_hybrid", outcome.recovery_ms_hybrid, "ms"),
        Metric::new("recovery_ms_ps", outcome.recovery_ms_ps, "ms"),
    ]);
    let t = &outcome.times;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    metrics.extend([
        Metric::new("trace.export_ms", ms(t.export), "ms"),
        Metric::new("trace.dump_lines", t.dump_lines as f64, "count"),
        Metric::new("trace.dump_bytes", t.dump_bytes as f64, "B"),
        Metric::new("audit.replay_ms", ms(t.replay), "ms"),
        Metric::new("observe.inspect_ms", ms(t.inspect), "ms"),
    ]);

    // Each observation layer alone against all of them off, untraced.
    let measure_observers = args.workload == Workload::RecoveryObserved;
    let (off_s, _) = if measure_observers {
        observer_cost(&args, Observers::OFF)
    } else {
        (0.0, 0)
    };
    for (name, observers) in Observers::SINGLES {
        let (ratio, heap_mb) = if measure_observers {
            let (on_s, heap) = observer_cost(&args, observers);
            (on_s / off_s, heap as f64 / (1024.0 * 1024.0))
        } else {
            (0.0, 0.0)
        };
        metrics.push(Metric::new(
            format!("{name}.overhead_ratio"),
            ratio,
            "ratio",
        ));
        metrics.push(Metric::new(format!("{name}.heap_mb"), heap_mb, "MB"));
    }

    for p in &problems {
        eprintln!("habench-traced: check failed: {p}");
    }
    println!("fingerprint {}", outcome.fingerprint());
    println!("run_s {:?}", traced_ns / 1e9);
    println!(
        "{}",
        result_line(
            problems.is_empty(),
            outcome.produced,
            outcome.failed(),
            &metrics
        )
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
