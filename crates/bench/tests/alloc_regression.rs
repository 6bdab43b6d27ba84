//! Allocation-regression tests (run with `--features bench`).
//!
//! Registers the counting global allocator and measures heap allocations
//! across a steady-state window of the fig06 workload. The steady-state
//! inner loop (source → PE chain → sink, acks, heartbeats) is expected to
//! run allocation-free; checkpoint capture is the one intentional
//! exception (one spine allocation per captured queue), so the budget is a
//! small constant per checkpoint rather than per event.
//!
//! Windows count the calling thread's allocations only: the simulation is
//! single-threaded, and the test harness runs the tests (and prints their
//! results) on other threads at the same time.

#![cfg(feature = "bench")]

use std::collections::HashSet;

use sps_cluster::{FaultTopology, MachineId};
use sps_engine::{Dest, OutputQueue, Payload, StreamId, SubjobId};
use sps_ha::{Event, HaMode, HaSimulation, Msg, RateProfile};
use sps_sim::counting_alloc::{self, CountingAllocator};
use sps_sim::{SimDuration, SimTime, TimerGen};
use sps_trace::LineageTable;
use sps_workloads::{chain_job_with, sharded_job, sharded_placement, ZipfKeys};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The fig06 rate-sweep configuration (§V-B): an 8-PE chain in 4 subjobs,
/// light per-element demand, at 10 K elements/s.
fn fig06_sim(mode: HaMode, ckpt_ms: u64) -> HaSimulation {
    let job = chain_job_with(15e-6, 20, 8, 4);
    let n_subjobs = job.subjob_count();
    let mut builder = HaSimulation::builder(job)
        .mode(mode)
        .source_rate(10_000.0)
        .seed(2010)
        .tune(|c| c.checkpoint_interval = SimDuration::from_millis(ckpt_ms));
    for sj in 0..n_subjobs as u32 {
        builder = builder.subjob_mode(SubjobId(sj), mode);
    }
    builder.build()
}

/// Measures allocations across a window of at least 10 000 events after a
/// one-second warmup, returning (events, allocations).
fn measure_window(sim: &mut HaSimulation) -> (u64, u64) {
    sim.run_until(SimTime::from_secs(1)); // warmup: caches, scratch, chunks
    let e0 = sim.events_processed();
    let a0 = counting_alloc::thread_allocations();
    let mut until = SimTime::from_secs(1);
    while sim.events_processed() - e0 < 10_000 {
        until += SimDuration::from_millis(10);
        sim.run_until(until);
    }
    (
        sim.events_processed() - e0,
        counting_alloc::thread_allocations() - a0,
    )
}

/// The steady-state inner loop of fig06 without checkpointing must not
/// allocate at all: every hop reuses scratch buffers, chunk recycling
/// covers the queues, and the timer wheel's buckets are warm.
#[test]
fn fig06_steady_state_none_mode_is_allocation_free() {
    let mut sim = fig06_sim(HaMode::None, 500);
    let (events, allocs) = measure_window(&mut sim);
    assert!(events >= 10_000);
    assert_eq!(
        allocs, 0,
        "steady-state window of {events} events made {allocs} heap allocations"
    );
}

/// A 256-shard job on 83 machines (the `bench_scale` cell shape) under
/// `mode`, fed 2,000 Zipf-keyed elements/s.
fn sharded_sim(mode: HaMode) -> HaSimulation {
    let job = sharded_job(256, 2e-5, 64);
    let topology = FaultTopology::grid(83, 4, 3);
    let placement = sharded_placement(&job, 83, &topology);
    HaSimulation::builder(job)
        .mode(mode)
        .topology(topology)
        .placement(placement)
        .source_profile(
            0,
            RateProfile::Constant { per_sec: 2_000.0 },
            ZipfKeys::new(1_000_000, 1.05).payload_gen(),
        )
        .seed(2010)
        .build()
}

/// The 256-shard job without standbys (`HaMode::None`): the router fans
/// out to 256 ports, and dispatch reuses the world's pending-port list
/// like every other scratch buffer, so no handler allocates per event. The sink alone keeps every latency sample
/// for the figures (a series and a CDF, two `Vec`s), so its deliveries
/// allocate exactly when those stores double — a count logarithmic in the
/// run length, attributed per event here rather than left to chance in
/// where the window falls.
#[test]
fn sharded_steady_state_none_mode_is_allocation_free() {
    let mut sim = sharded_sim(HaMode::None);
    sim.run_until(SimTime::from_secs(1)); // warmup: caches, scratch, chunks
    let accepted = |sim: &HaSimulation| sim.world().sinks()[0].accepted();
    let accepted0 = accepted(&sim);
    let (mut events, mut allocs, mut sink_allocs) = (0u64, 0u64, 0u64);
    while events < 10_000 {
        // Count this thread's allocations, not the probe's process-wide
        // figure: other tests in this binary run simulations concurrently.
        let a0 = counting_alloc::thread_allocations();
        let (at_sink, _) = sim
            .step_profiled(|e| {
                matches!(
                    e,
                    Event::Deliver {
                        msg: Msg::DataBatch {
                            to: Dest::Sink(_),
                            ..
                        },
                        ..
                    }
                )
            })
            .expect("an open-loop source keeps the queue non-empty");
        events += 1;
        let step_allocs = counting_alloc::thread_allocations() - a0;
        if at_sink {
            sink_allocs += step_allocs;
        } else {
            allocs += step_allocs;
        }
    }
    assert_eq!(
        allocs, 0,
        "sharded steady-state window of {events} events made {allocs} heap allocations \
         outside sink deliveries"
    );
    let doublings = (accepted0..accepted(&sim))
        .filter(|n| n.is_power_of_two())
        .count() as u64;
    assert!(
        sink_allocs <= 2 * doublings,
        "sink deliveries made {sink_allocs} allocations for {doublings} sample-store doublings"
    );
}

/// Lineage keeps one record per logical element on dense pages, so turning
/// it on adds allocations only when a stream's sequence numbers move onto a
/// fresh page — the page, plus at most one doubling of that stream's page
/// directory — and when the delivery log doubles, not per record. Lineage
/// never changes the schedule, so a lineage-off twin steps through the
/// same events and its per-step allocations are subtracted: what remains
/// is lineage's own, whatever the HA mode allocates for itself.
#[test]
fn lineage_allocates_per_page_not_per_record() {
    let chain = |lineage: bool| {
        HaSimulation::builder(chain_job_with(15e-6, 20, 8, 4))
            .mode(HaMode::Hybrid)
            .source_rate(10_000.0)
            .seed(2010)
            .lineage(lineage)
            .build()
    };
    let (mut on, mut off) = (chain(true), chain(false));
    on.run_until(SimTime::from_secs(1)); // warmup: caches, scratch, chunks
    off.run_until(SimTime::from_secs(1));
    let page = LineageTable::PAGE_LEN as u64;
    // Highest sequence number recorded per stream; records are created in
    // sequence order, so probing upward finds it.
    let highest = |sim: &HaSimulation| -> Vec<u64> {
        let lineage = sim.world().lineage().expect("lineage enabled");
        (0u32..)
            .map(|stream| {
                (0u64..)
                    .take_while(|&seq| seq == 0 || lineage.record((stream, seq)).is_some())
                    .last()
                    .expect("seq 0 is always taken")
            })
            .take_while(|&hi| hi > 0)
            .collect()
    };
    let hi0 = highest(&on);
    assert_eq!(hi0.len(), 9, "a source stream and one per PE");
    let records0 = on.world().lineage().expect("on").len();
    let accepted0 = on.world().sinks()[0].accepted();
    let (mut events, mut allocs) = (0u64, 0i64);
    let step = |sim: &mut HaSimulation| {
        let a0 = counting_alloc::thread_allocations();
        let (kind, _) = sim
            .step_profiled(|e| e.kind_name())
            .expect("an open-loop source keeps the queue non-empty");
        (kind, (counting_alloc::thread_allocations() - a0) as i64)
    };
    while events < 10_000 {
        let (kind_on, allocs_on) = step(&mut on);
        let (kind_off, allocs_off) = step(&mut off);
        assert_eq!(kind_on, kind_off, "lineage changed the schedule");
        allocs += allocs_on - allocs_off;
        events += 1;
    }
    let pages: u64 = highest(&on)
        .iter()
        .zip(&hi0)
        .map(|(hi, hi0)| hi / page - hi0 / page)
        .sum();
    let records = on.world().lineage().expect("on").len() - records0;
    let doublings = (accepted0..on.world().sinks()[0].accepted())
        .filter(|n| n.is_power_of_two())
        .count() as u64;
    assert!(records > 4_000, "only {records} records in the window");
    assert!(
        allocs <= (2 * pages + doublings) as i64,
        "lineage made {allocs} heap allocations over {events} events for {records} new \
         records on {pages} new pages and {doublings} delivery-log doublings"
    );
}

/// Timer events follow deadlines, not re-arms. With a monitor per shard
/// subjob, one heartbeat tick per interval serves them all. A machine tick
/// either completes work or is postponed — the completion moved later, so
/// the tick re-fires once with its token unchanged. Ticks that do neither
/// (superseded by a deadline that moved *earlier*) stay rare; re-arming
/// eagerly left one per re-arm, a third of all ticks on this job.
#[test]
fn sharded_timer_events_follow_deadlines() {
    enum Tick {
        Heartbeat,
        Machine(u32, TimerGen),
        Other,
    }

    let mut sim = sharded_sim(HaMode::Hybrid);
    // Off the heartbeat grid, so the last interval's tick has fired.
    let end = SimTime::from_millis(2_050);
    let completed = |sim: &HaSimulation, m: u32| {
        sim.world()
            .cluster()
            .machine(MachineId(m))
            .tasks_completed()
    };
    let mut last_completed: Vec<u64> = (0..sim.world().cluster().len() as u32)
        .map(|m| completed(&sim, m))
        .collect();
    let mut tokens = HashSet::new();
    let (mut heartbeat_ticks, mut machine_ticks, mut idle, mut refired) = (0, 0, 0, 0);
    while sim.now() < end {
        let (tick, _) = sim
            .step_profiled(|e| match *e {
                Event::HeartbeatTick { .. } => Tick::Heartbeat,
                Event::MachineTick { machine, gen } => Tick::Machine(machine, gen),
                _ => Tick::Other,
            })
            .expect("an open-loop source keeps the queue non-empty");
        match tick {
            Tick::Heartbeat => heartbeat_ticks += 1,
            Tick::Machine(machine, gen) => {
                machine_ticks += 1;
                refired += u64::from(!tokens.insert((machine, gen)));
                let now_completed = completed(&sim, machine);
                idle += u64::from(now_completed == last_completed[machine as usize]);
                last_completed[machine as usize] = now_completed;
            }
            Tick::Other => {}
        }
    }
    let intervals = sim.now().as_nanos() / sim.world().config().heartbeat_interval.as_nanos();
    assert_eq!(
        heartbeat_ticks, intervals,
        "one heartbeat tick per interval"
    );
    // Every postponed tick is idle once and then re-fires.
    let wasted = idle - refired;
    assert!(
        20 * wasted <= machine_ticks,
        "{wasted} of {machine_ticks} machine ticks completed nothing and were not postponed"
    );
}

/// With Hybrid checkpointing every 100 ms, the only allocations allowed in
/// the window are the O(1)-per-capture checkpoint costs (snapshot spines,
/// checkpoint messages), which are bounded per checkpoint — not per event.
#[test]
fn fig06_steady_state_hybrid_allocates_only_per_checkpoint() {
    let mut sim = fig06_sim(HaMode::Hybrid, 100);
    let (events, allocs) = measure_window(&mut sim);
    assert!(events >= 10_000);
    // The window spans at most a few 100 ms checkpoint rounds over 4
    // subjobs × 2 PEs; give each PE capture a generous fixed budget. What
    // matters is the scale: thousands of events, tens of allocations.
    assert!(
        allocs <= 512,
        "hybrid window of {events} events made {allocs} heap allocations \
         (expected a small per-checkpoint constant)"
    );
}

/// Checkpoint capture clones chunk pointers, not elements: the allocation
/// count per capture is identical at depth 100 and depth 10 000.
#[test]
fn checkpoint_capture_allocations_are_depth_independent() {
    let count_for = |depth: usize| {
        let mut q: OutputQueue<()> = OutputQueue::new(StreamId(0));
        // Pad to a chunk boundary so both depths cross the same number of
        // chunk boundaries during the interleaved produces below; without
        // this the counts differ by the (bounded) per-chunk allocation.
        let padded = depth.next_multiple_of(sps_engine::CHUNK_CAP);
        for i in 0..padded {
            q.produce(Payload::new(i as u64, 0.0), SimTime::ZERO);
        }
        // Warm up one capture + produce so copy-on-write steady state holds.
        std::hint::black_box(q.snapshot());
        q.produce(Payload::new(0, 0.0), SimTime::ZERO);
        let a0 = counting_alloc::thread_allocations();
        for i in 0..100u64 {
            std::hint::black_box(q.snapshot());
            q.produce(Payload::new(i, 1.0), SimTime::ZERO);
        }
        counting_alloc::thread_allocations() - a0
    };
    let shallow = count_for(100);
    let deep = count_for(10_000);
    assert_eq!(
        shallow, deep,
        "capture allocations must not scale with queue depth"
    );
}
