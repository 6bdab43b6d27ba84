//! Output dispatch on a sharded job: the router visits only the ports
//! that have something to send, yet a backlog a partition held back still
//! flows at the first dispatch after the heal.

use sps_cluster::ChaosPlan;
use sps_engine::{ConnectionId, PeId, Replica};
use sps_ha::{HaMode, HaSimulation, RateProfile};
use sps_sim::{SimDuration, SimTime};
use sps_workloads::{sharded_job, ZipfKeys};

const SHARDS: usize = 8;

#[test]
fn partition_held_backlog_flows_at_the_first_dispatch_after_heal() {
    let job = sharded_job(SHARDS, 2e-5, 64);
    let zipf = ZipfKeys::new(1_000, 1.2);
    let hot = zipf.hot_shard(SHARDS as u32) as usize;
    let (router, hot_pe) = (PeId(0), PeId(1 + hot as u32));
    let probe = HaSimulation::builder(job.clone())
        .mode(HaMode::None)
        .build();
    let router_machine = probe.world().subjob(job.subjob_of(router)).primary_machine;
    let hot_machine = probe.world().subjob(job.shard_subjob(hot)).primary_machine;
    assert_ne!(
        router_machine, hot_machine,
        "the partition must cut a real link"
    );

    let (cut, heal) = (SimTime::from_millis(500), SimTime::from_millis(1_500));
    let mut sim = HaSimulation::builder(job)
        .mode(HaMode::None)
        .source_profile(
            0,
            RateProfile::Constant { per_sec: 1_000.0 },
            zipf.payload_gen(),
        )
        .seed(7)
        .chaos(ChaosPlan::default().partition_window(cut, heal, router_machine, hot_machine))
        .build();
    sim.stop_sources_at(SimTime::from_secs(3));

    // Just before the heal, the hot shard's connection holds a backlog.
    sim.run_until(heal - SimDuration::from_millis(1));
    let sendable = |sim: &HaSimulation| {
        let q = sim
            .world()
            .instance(router, Replica::Primary)
            .expect("router")
            .output(hot);
        (
            q.needs_drain(ConnectionId(0)),
            q.next_seq() - q.connection(ConnectionId(0)).next_to_send,
        )
    };
    let (held, backlog) = sendable(&sim);
    assert!(held && backlog > 100, "partition held {backlog} elements");
    let hot_before = sim
        .world()
        .instance(hot_pe, Replica::Primary)
        .expect("shard")
        .processed_total();

    // Step to the router's first completion after the heal: that dispatch
    // drains the whole held backlog, whichever port its own element took.
    sim.run_until(heal);
    let routed = |sim: &HaSimulation| {
        sim.world()
            .instance(router, Replica::Primary)
            .expect("router")
            .processed_total()
    };
    let at_heal = routed(&sim);
    while routed(&sim) == at_heal {
        assert!(
            sim.now() < heal + SimDuration::from_millis(100),
            "router stalled after the heal"
        );
        sim.run_for(SimDuration::from_micros(50));
    }
    assert_eq!(
        sendable(&sim),
        (false, 0),
        "first dispatch after the heal sends the backlog"
    );

    sim.run_until(SimTime::from_secs(5));
    let world = sim.world();
    let hot_after = world
        .instance(hot_pe, Replica::Primary)
        .expect("shard")
        .processed_total();
    assert!(
        hot_after >= hot_before + backlog,
        "the hot shard processed the held elements"
    );
    let produced = world.sources()[0].produced();
    assert!(produced > 2_500, "source ran: {produced}");
    assert_eq!(
        world.sinks()[0].accepted(),
        produced,
        "every element reached the sink"
    );
    assert_eq!(world.sinks()[0].duplicates_dropped(), 0, "and none twice");
}
