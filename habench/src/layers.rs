//! Attribution of simulator events to the crates ("layers") whose
//! handlers they run.
//!
//! Until the program records its own spans, a handler's inclusive wall
//! time is charged to the layer that owns the event kind. Every
//! [`Event::kind_name`](sps_ha::Event::kind_name) must map to a group
//! here: the traced run fails on an unmapped kind, so a new kind cannot
//! drop out of the breakdown unnoticed.

/// Per-layer event groups, used as metric-name prefixes.
pub const GROUPS: [&str; 10] = [
    "cluster.machine_tick",
    "cluster.other",
    "core.deliver",
    "core.source_tick",
    "core.heartbeat_tick",
    "core.retransmit_sweep",
    "core.failover",
    "core.other",
    "metrics.metrics_scrape",
    "trace.trace_sample",
];

/// The index into [`GROUPS`] of an event kind, or `None` for a kind this
/// map does not know.
pub fn group_of(kind: &str) -> Option<usize> {
    let group = match kind {
        // CPU model of the machines: task completion, deferred submission,
        // background load and machine faults.
        "machine_tick" => "cluster.machine_tick",
        "submit_task" | "set_background" | "fail_stop" | "chaos_step" => "cluster.other",
        // HA runtime: data plane, sources, detection and recovery.
        "deliver" => "core.deliver",
        "source_tick" => "core.source_tick",
        "heartbeat_tick" => "core.heartbeat_tick",
        "retransmit_sweep" => "core.retransmit_sweep",
        "switchover_complete"
        | "deploy_complete"
        | "connect_complete"
        | "secondary_ready"
        | "rel_retransmit" => "core.failover",
        "checkpoint_timer" | "checkpoint_persisted" | "bench_sample" | "stop_sources" => {
            "core.other"
        }
        // Observation layers. A scrape also steps the health engine when
        // it is on; both are charged to the registry's scrape.
        "metrics_scrape" => "metrics.metrics_scrape",
        "trace_sample" => "trace.trace_sample",
        _ => return None,
    };
    GROUPS.iter().position(|&g| g == group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_cluster::{LoadComponent, MachineId};
    use sps_engine::PeId;
    use sps_ha::{Event, Msg};
    use sps_sim::TimerSlot;

    /// Distinct per variant. The match has no wildcard, so adding an
    /// `Event` variant stops this test from compiling until the variant
    /// is listed in `one_of_each` below.
    fn ordinal(e: &Event) -> usize {
        match e {
            Event::SourceTick { .. } => 0,
            Event::MachineTick { .. } => 1,
            Event::Deliver { .. } => 2,
            Event::HeartbeatTick { .. } => 3,
            Event::CheckpointTimer { .. } => 4,
            Event::SwitchoverComplete { .. } => 5,
            Event::DeployComplete { .. } => 6,
            Event::ConnectComplete { .. } => 7,
            Event::SecondaryReady { .. } => 8,
            Event::SetBackground { .. } => 9,
            Event::FailStop { .. } => 10,
            Event::BenchSample { .. } => 11,
            Event::StopSources => 12,
            Event::TraceSample => 13,
            Event::SubmitTask { .. } => 14,
            Event::CheckpointPersisted { .. } => 15,
            Event::RelRetransmit { .. } => 16,
            Event::RetransmitSweep => 17,
            Event::ChaosStep { .. } => 18,
            Event::MetricsScrape => 19,
        }
    }
    const VARIANTS: usize = 20;

    fn one_of_each() -> Vec<Event> {
        let gen = TimerSlot::new().arm();
        vec![
            Event::SourceTick { source: 0, gen },
            Event::MachineTick { machine: 0, gen },
            Event::Deliver {
                to: MachineId(0),
                msg: Msg::Ping { monitor: 0, seq: 0 },
            },
            Event::HeartbeatTick { monitor: 0 },
            Event::CheckpointTimer {
                subjob: 0,
                pe: None,
            },
            Event::SwitchoverComplete {
                subjob: 0,
                epoch: 0,
            },
            Event::DeployComplete {
                subjob: 0,
                epoch: 0,
            },
            Event::ConnectComplete {
                subjob: 0,
                epoch: 0,
            },
            Event::SecondaryReady {
                subjob: 0,
                epoch: 0,
            },
            Event::SetBackground {
                machine: 0,
                component: LoadComponent::Spike,
                share: 0.0,
            },
            Event::FailStop { machine: 0 },
            Event::BenchSample { det: 0 },
            Event::StopSources,
            Event::TraceSample,
            Event::SubmitTask {
                machine: 0,
                demand_secs: 0.0,
                tag: 0,
            },
            Event::CheckpointPersisted {
                subjob: 0,
                epoch: 0,
                pes: vec![PeId(0)],
            },
            Event::RelRetransmit { tx: 0 },
            Event::RetransmitSweep,
            Event::ChaosStep { step: 0 },
            Event::MetricsScrape,
        ]
    }

    #[test]
    fn every_event_kind_maps_to_a_group() {
        let mut seen = [false; VARIANTS];
        for e in one_of_each() {
            seen[ordinal(&e)] = true;
            assert!(
                group_of(e.kind_name()).is_some(),
                "event kind {} has no layer",
                e.kind_name()
            );
        }
        assert!(seen.iter().all(|&s| s), "one_of_each misses a variant");
    }

    #[test]
    fn unknown_kinds_are_rejected_and_groups_are_used() {
        assert_eq!(group_of("no_such_kind"), None);
        let used: std::collections::BTreeSet<usize> = one_of_each()
            .iter()
            .filter_map(|e| group_of(e.kind_name()))
            .collect();
        assert_eq!(used.len(), GROUPS.len(), "a group no kind maps to");
    }
}
