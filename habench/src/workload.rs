//! The benchmark's four workloads: how each is set up, driven through
//! simulated time, and checked once it has drained.
//!
//! Every source is an open loop in simulated time: its schedule never
//! slows when the host does, so wall time is the cost of a fixed input.

use std::time::{Duration, Instant};

use sps_audit::{replay_dump, Auditor};
use sps_cluster::{FaultTopology, SpikeWindow};
use sps_engine::SubjobId;
use sps_ha::{HaMode, HaSimulation, RateProfile};
use sps_metrics::MsgCounters;
use sps_observe::{inspect, HealthConfig};
use sps_sim::{SimDuration, SimRng, SimTime};
use sps_trace::SharedRecorder;
use sps_workloads::{chain_job_with, eval_chain_job, sharded_job, sharded_placement, ZipfKeys};

use crate::stats::median;

/// Fixed simulated slices per timed run: the fewest that report a p99
/// with ten samples beyond it (see [`crate::stats::min_samples`]).
pub const SLICES: u64 = 1000;

/// Offset of scheduled instants (the drain-end marker, spike starts) past
/// a whole microsecond, so no periodic timer lands on the same nanosecond
/// and the order of same-instant events cannot depend on when the
/// benchmark scheduled them.
const MARKER_NS: u64 = 7;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig06-shaped Hybrid chain at 10K el/s, batch 1, no failures.
    ChainSteady,
    /// The same chain and rate at batch 64.
    ChainBatched,
    /// 2,048 Hybrid shard subjobs on 83 machines, Zipf keys at 2K el/s.
    Shards2048,
    /// AS/PS/Hybrid subjobs under rotating spikes, all observers on.
    RecoveryObserved,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ChainSteady,
        Workload::ChainBatched,
        Workload::Shards2048,
        Workload::RecoveryObserved,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainSteady => "chain_steady",
            Workload::ChainBatched => "chain_batched",
            Workload::Shards2048 => "shards_2048",
            Workload::RecoveryObserved => "recovery_observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The observation layers the workload runs with.
    pub fn observers(self) -> Observers {
        match self {
            Workload::RecoveryObserved => Observers::ALL,
            _ => Observers::OFF,
        }
    }

    /// When the sources stop, in simulated seconds.
    fn horizon_secs(self) -> u64 {
        match self {
            Workload::ChainSteady => 10,
            Workload::ChainBatched => 50,
            Workload::Shards2048 => 5,
            Workload::RecoveryObserved => FIRST_SPIKE_SECS + CYCLES * CYCLE_SECS,
        }
    }

    /// Simulated seconds after the horizon for in-flight work to drain.
    fn drain_secs(self) -> u64 {
        match self {
            Workload::RecoveryObserved => 3,
            _ => 1,
        }
    }
}

/// The recovery workload: spike cycles, one every `CYCLE_SECS`, each on
/// the next of subjobs 1/2/3 (AS/PS/Hybrid) in turn.
const CYCLES: u64 = 12;
const CYCLE_SECS: u64 = 3;
const FIRST_SPIKE_SECS: u64 = 2;
const SPIKE_SECS: u64 = 1;
/// Each spike starts up to this much after its cycle's whole second,
/// drawn from the seed: one heartbeat interval, so failures meet the
/// heartbeat timer at different phases on different seeds. (A wider range
/// also moves spikes across the 500 ms checkpoint interval, which swings
/// the recovery work, and with it every metric, by ~15% between seeds.)
const SPIKE_PHASE_MS: u64 = 100;
const RECOVERY_MODES: [HaMode; 3] = [HaMode::Active, HaMode::Passive, HaMode::Hybrid];

/// Which observation layers are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observers {
    /// Causal tuple lineage.
    pub lineage: bool,
    /// A full-retention flight recorder on the trace bus.
    pub recorder: bool,
    /// The sim-time metrics registry.
    pub registry: bool,
    /// The online health engine (it needs the registry, so it implies it).
    pub health: bool,
    /// The protocol auditor, expecting a lossless, quiescent run.
    pub audit: bool,
}

impl Observers {
    /// No observation layer.
    pub const OFF: Observers = Observers {
        lineage: false,
        recorder: false,
        registry: false,
        health: false,
        audit: false,
    };
    /// Every observation layer.
    pub const ALL: Observers = Observers {
        lineage: true,
        recorder: true,
        registry: true,
        health: true,
        audit: true,
    };
    /// Each layer alone, under its per-layer metric prefix.
    pub const SINGLES: [(&'static str, Observers); 5] = [
        (
            "trace.lineage",
            Observers {
                lineage: true,
                ..Observers::OFF
            },
        ),
        (
            "trace.recorder",
            Observers {
                recorder: true,
                ..Observers::OFF
            },
        ),
        (
            "metrics.registry",
            Observers {
                registry: true,
                ..Observers::OFF
            },
        ),
        (
            "observe.health",
            Observers {
                health: true,
                ..Observers::OFF
            },
        ),
        (
            "audit.probe",
            Observers {
                audit: true,
                ..Observers::OFF
            },
        ),
    ];
}

/// One spike cycle of the recovery workload.
#[derive(Debug, Clone, Copy)]
struct Spike {
    subjob: SubjobId,
    mode: HaMode,
    start: SimTime,
}

impl Spike {
    /// When the spike's target is read: shortly before it starts. The
    /// traced stepper reads it after the first event at or past this
    /// instant, which at batch 16 can come several milliseconds later; the
    /// lead keeps that read ahead of the start.
    fn aim_at(&self) -> SimTime {
        SimTime::from_nanos(self.start.as_nanos() - 100_000_000)
    }
}

/// A built simulation with its failure schedule, ready to run.
#[derive(Debug)]
pub struct Run {
    /// The simulation.
    pub sim: HaSimulation,
    recorder: Option<SharedRecorder>,
    spikes: Vec<Spike>,
    aimed: usize,
    problems: Vec<String>,
    /// The drain end: every run stops here. A second `StopSources` event
    /// (a no-op once the sources have stopped) is scheduled at this exact
    /// instant, so the traced stepper, which cannot look ahead, stops
    /// after the same event as `run_until(end)`.
    pub end: SimTime,
}

impl Run {
    /// Builds `workload` for `seed` with the given observers.
    pub fn setup(workload: Workload, seed: u64, observers: Observers) -> Run {
        let builder = match workload {
            Workload::ChainSteady | Workload::ChainBatched => {
                let batch = if workload == Workload::ChainBatched {
                    64
                } else {
                    1
                };
                HaSimulation::builder(chain_job_with(15e-6, 20, 8, 4))
                    .mode(HaMode::Hybrid)
                    .source_rate(10_000.0)
                    .tune(|c| c.batch_size = batch)
            }
            Workload::Shards2048 => {
                let job = sharded_job(2048, 20e-6, 64);
                let topology = FaultTopology::grid(83, 4, 3);
                let placement = sharded_placement(&job, 83, &topology);
                HaSimulation::builder(job)
                    .mode(HaMode::Hybrid)
                    .topology(topology)
                    .placement(placement)
                    .source_profile(
                        0,
                        RateProfile::Constant { per_sec: 2_000.0 },
                        ZipfKeys::new(1_000_000, 1.05).payload_gen(),
                    )
            }
            Workload::RecoveryObserved => {
                let mut b = HaSimulation::builder(eval_chain_job())
                    .mode(HaMode::None)
                    .source_rate(1_000.0)
                    .log_sink_accepts(true)
                    .tune(|c| {
                        c.batch_size = 16;
                        c.reliable_control = true;
                    });
                for (i, mode) in RECOVERY_MODES.into_iter().enumerate() {
                    b = b.subjob_mode(SubjobId(1 + i as u32), mode);
                }
                b
            }
        };
        let mut builder = builder.seed(seed).lineage(observers.lineage);
        if observers.registry {
            builder = builder.collect_metrics(true);
        }
        if observers.health {
            builder = builder.health(HealthConfig::default());
        }
        let recorder = observers
            .recorder
            .then(|| SharedRecorder::with_capacity(usize::MAX));
        if let Some(r) = &recorder {
            builder = builder.trace_sink(Box::new(r.clone()));
        }
        if observers.audit {
            builder = builder
                .trace_probe(Box::new(Auditor::new()))
                .audit_expectations(true, true);
        }
        let mut sim = builder.build();

        let horizon = SimTime::from_secs(workload.horizon_secs());
        let end = SimTime::from_nanos(
            (horizon + SimDuration::from_secs(workload.drain_secs())).as_nanos() + MARKER_NS,
        );
        sim.stop_sources_at(horizon);
        sim.stop_sources_at(end);
        Run {
            sim,
            recorder,
            spikes: spike_plan(workload, seed),
            aimed: 0,
            problems: Vec::new(),
            end,
        }
    }

    /// Runs to `t` with `run_until`, aiming each spike due on the way.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(s) = self.spikes.get(self.aimed) {
            if s.aim_at() > t {
                break;
            }
            self.sim.run_until(s.aim_at());
            self.aim_next();
        }
        self.sim.run_until(t);
    }

    /// Aims every spike whose aim point the clock has reached; the traced
    /// stepper calls this after each event.
    pub fn aim_due(&mut self) {
        while self
            .spikes
            .get(self.aimed)
            .is_some_and(|s| s.aim_at() <= self.sim.now())
        {
            self.aim_next();
        }
    }

    /// Schedules the next spike on its subjob's *current* primary: a PS
    /// recovery redeploys the subjob elsewhere, so a fixed target would
    /// miss every later cycle of that subjob.
    fn aim_next(&mut self) {
        let s = self.spikes[self.aimed];
        let machine = self.sim.world().subjob(s.subjob).primary_machine;
        if self.sim.now() >= s.start {
            self.problems
                .push(format!("spike at {:?} aimed too late", s.start));
        }
        self.sim.inject_spike_windows(
            machine,
            &[SpikeWindow {
                start: s.start,
                end: s.start + SimDuration::from_secs(SPIKE_SECS),
                share: 1.0,
            }],
        );
        self.aimed += 1;
    }

    /// Analyses the drained run, checks its outputs and frees the
    /// simulation. Returns the outcome, with the wall time of each analysis
    /// step; freeing is part of the caller's timing only.
    pub fn finish(mut self) -> Outcome {
        let mut problems = std::mem::take(&mut self.problems);
        if self.sim.now() < self.end || self.aimed < self.spikes.len() {
            problems.push("run stopped before its end".to_string());
        }
        let t_report = Instant::now();
        self.sim.finish_probes();
        let report = self.sim.report();
        let produced: u64 = self
            .sim
            .world()
            .sources()
            .iter()
            .map(|s| s.produced())
            .sum();
        let (recovery_ms_hybrid, recovery_ms_ps) = self.recovery_medians(&mut problems);
        let report_time = t_report.elapsed();

        let mut times = AnalysisTimes {
            report: report_time,
            ..AnalysisTimes::default()
        };
        if let Some(recorder) = &self.recorder {
            let t = Instant::now();
            let dump = recorder.to_jsonl_string();
            times.export = t.elapsed();
            times.dump_lines = dump.lines().count() as u64;
            times.dump_bytes = dump.len() as u64;
            if recorder.with(|r| r.evicted()) > 0 {
                problems.push("flight recorder evicted records".to_string());
            }
            if let Some(online) = self.sim.audit_report() {
                let t = Instant::now();
                let replay = replay_dump(&dump);
                times.replay = t.elapsed();
                match replay {
                    Ok(r) if r.report == online && r.violations == 0 => {}
                    Ok(r) => problems.push(format!(
                        "offline replay differs from the online audit ({} violations)",
                        r.violations
                    )),
                    Err(e) => problems.push(format!("offline replay failed: {e}")),
                }
            }
            let t = Instant::now();
            match inspect::Dump::from_str("dump", &dump) {
                Ok(d) => {
                    std::hint::black_box(inspect::summary(&d));
                }
                Err(e) => problems.push(format!("dump does not parse: {e}")),
            }
            times.inspect = t.elapsed();
        }
        if let Some(online) = self.sim.audit_report() {
            let violations = self.sim.audit_violations();
            if violations > 0 || !online.contains("verdict: PASS") {
                problems.push(format!("online audit: {violations} violations\n{online}"));
            }
        }
        if produced != report.sink_accepted {
            problems.push(format!(
                "{} of {produced} produced elements not accepted exactly once",
                produced.abs_diff(report.sink_accepted)
            ));
        }
        Outcome {
            produced,
            accepted: report.sink_accepted,
            duplicates: report.sink_duplicates,
            events: report.events_processed,
            counters: report.counters,
            recovery_ms_hybrid,
            recovery_ms_ps,
            peak_queue_weight: self.sim.peak_queue_weight(),
            times,
            problems,
        }
    }

    /// Median failure-to-first-output time of the Hybrid and PS cycles
    /// (0 when the workload has none). A PS or Hybrid cycle that yields no
    /// recovery timeline is a failed check.
    fn recovery_medians(&self, problems: &mut Vec<String>) -> (f64, f64) {
        let mut hybrid = Vec::new();
        let mut ps = Vec::new();
        for s in &self.spikes {
            let into = match s.mode {
                HaMode::Hybrid => &mut hybrid,
                HaMode::Passive => &mut ps,
                _ => continue,
            };
            match self.sim.recovery_timeline(s.subjob, s.start) {
                Some(t) if t.detected_ms < (SPIKE_SECS * 1000) as f64 => {
                    into.push(t.first_output_ms)
                }
                _ => problems.push(format!(
                    "{} subjob {} spiked at {:.3} s has no recovery timeline",
                    s.mode,
                    s.subjob.0,
                    s.start.as_secs_f64()
                )),
            }
        }
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        (med(&hybrid), med(&ps))
    }
}

/// The recovery workload's spike cycles for `seed`; none elsewhere.
fn spike_plan(workload: Workload, seed: u64) -> Vec<Spike> {
    if workload != Workload::RecoveryObserved {
        return Vec::new();
    }
    let mut rng = SimRng::seed_from(seed).fork(0x5_91CE);
    (0..CYCLES)
        .map(|k| {
            let phase_us = rng.uniform_u64(0, SPIKE_PHASE_MS * 1000);
            let i = (k % RECOVERY_MODES.len() as u64) as usize;
            Spike {
                subjob: SubjobId(1 + i as u32),
                mode: RECOVERY_MODES[i],
                start: SimTime::from_nanos(
                    ((FIRST_SPIKE_SECS + k * CYCLE_SECS) * 1_000_000 + phase_us) * 1000 + MARKER_NS,
                ),
            }
        })
        .collect()
}

/// Wall time of each post-run analysis step, plus the dump's size.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimes {
    /// Audit end-of-run checks, the run report and recovery timelines.
    pub report: Duration,
    /// Exporting the flight recorder as JSONL.
    pub export: Duration,
    /// Offline replay of the dump through the auditor.
    pub replay: Duration,
    /// Parsing the dump and summarising it.
    pub inspect: Duration,
    /// Lines in the dump.
    pub dump_lines: u64,
    /// Bytes in the dump.
    pub dump_bytes: u64,
}

/// What a drained run produced, and what its checks found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Elements the sources produced.
    pub produced: u64,
    /// Elements the sink accepted (deduplicated).
    pub accepted: u64,
    /// Duplicates the sink dropped.
    pub duplicates: u64,
    /// DES events handled.
    pub events: u64,
    /// Message counters by class.
    pub counters: MsgCounters,
    /// Median Hybrid failure-to-first-output time, ms (0 if none).
    pub recovery_ms_hybrid: f64,
    /// Median PS failure-to-first-output time, ms (0 if none).
    pub recovery_ms_ps: f64,
    /// Peak logical event-queue weight.
    pub peak_queue_weight: u64,
    /// Post-run analysis timings.
    pub times: AnalysisTimes,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Produced elements not accepted exactly once.
    pub fn failed(&self) -> u64 {
        self.produced.abs_diff(self.accepted)
    }

    /// The paper's message overhead, in element units per accepted element.
    pub fn overhead_per_element(&self) -> f64 {
        self.counters.total_elements() as f64 / self.accepted.max(1) as f64
    }

    /// The deterministic quantities two runs of one seed must agree on
    /// exactly, as a JSON object.
    pub fn fingerprint(&self) -> String {
        format!(
            "{{\"events\": {}, \"produced\": {}, \"accepted\": {}, \"overhead_elements\": {}, \
             \"recovery_ms_hybrid\": {}, \"recovery_ms_ps\": {}}}",
            self.events,
            self.produced,
            self.accepted,
            self.counters.total_elements(),
            self.recovery_ms_hybrid,
            self.recovery_ms_ps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_the_fewest_that_report_a_p99() {
        assert_eq!(SLICES as usize, crate::stats::min_samples(0.99));
    }

    #[test]
    fn spikes_rotate_and_start_inside_their_cycle() {
        let plan = spike_plan(Workload::RecoveryObserved, 2010);
        assert_eq!(plan.len() as u64, CYCLES);
        for (k, s) in plan.iter().enumerate() {
            assert_eq!(s.mode, RECOVERY_MODES[k % 3]);
            let cycle_ns = (FIRST_SPIKE_SECS + k as u64 * CYCLE_SECS) * 1_000_000_000;
            let offset = s.start.as_nanos() - cycle_ns;
            assert!(offset < SPIKE_PHASE_MS * 1_000_000 + MARKER_NS, "{offset}");
        }
        assert_ne!(
            plan.iter().map(|s| s.start).collect::<Vec<_>>(),
            spike_plan(Workload::RecoveryObserved, 7)
                .iter()
                .map(|s| s.start)
                .collect::<Vec<_>>(),
            "the seed moves the spikes"
        );
        assert!(spike_plan(Workload::ChainSteady, 2010).is_empty());
    }
}
