//! End-to-end gates for the protocol auditor (`sps-audit`).
//!
//! Three things are locked down here:
//!
//! 1. the fully instrumented hybrid scenario (spike switch-over + rollback,
//!    fail-stop promotion, chaos loss/duplication, reliable control) is
//!    **clean**: zero violations under the strictest expectations, with a
//!    seed-deterministic report;
//! 2. the two test-only protocol mutations (`test_break_sink_dedup`,
//!    `test_skip_standby_reprovision`) each produce a deterministic
//!    violation — the auditor actually fires, it is not a rubber stamp;
//! 3. the **offline** frontend (`sps_audit::replay_dump`, what
//!    `sps-inspect audit` runs) reaches the same verdict as the online
//!    probe, byte for byte, from the flight-recorder dump alone.

use sps_audit::{replay_dump, Auditor};
use sps_cluster::{ChaosPlan, FaultProfile, MachineId, SpikeWindow};
use sps_ha::{HaConfig, HaMode, HaSimulation};
use sps_sim::SimTime;
use sps_trace::SharedRecorder;
use sps_workloads::eval_chain_job;

/// The audit-capture scenario with the online auditor AND a flight
/// recorder attached, plus a config mutation hook for the canaries.
/// Returns `(online_report, online_violations, dump_jsonl)`.
///
/// The recorder is control-plane-only: every audited event kind is
/// control-plane, so the dump replays to the identical report while
/// staying far below the ring capacity (no preamble eviction).
fn audited_run(seed: u64, mutate: impl FnOnce(&mut HaConfig)) -> (String, u64, String) {
    let recorder = SharedRecorder::default().control_plane_only();
    let chaos = ChaosPlan::default()
        .loss_window(
            SimTime::from_millis(2_500),
            SimTime::from_millis(3_500),
            FaultProfile::loss(0.05).with_duplication(0.05),
        )
        .link_window(
            SimTime::from_millis(2_500),
            SimTime::from_millis(3_500),
            MachineId(1),
            MachineId(6),
            FaultProfile::loss(0.5),
        );
    let mut sim = HaSimulation::builder(eval_chain_job())
        .mode(HaMode::Hybrid)
        .source_rate(1_000.0)
        .seed(seed)
        .tune(|c| {
            c.failstop_miss_threshold = 15;
            c.reliable_control = true;
            mutate(c);
        })
        .chaos(chaos)
        .trace_sink(Box::new(recorder.clone()))
        .trace_probe(Box::new(Auditor::new()))
        .audit_expectations(true, true)
        .build();
    sim.inject_spike_windows(
        MachineId(1),
        &[SpikeWindow {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            share: 1.0,
        }],
    );
    sim.fail_stop_at(MachineId(1), SimTime::from_secs(4));
    sim.stop_sources_at(SimTime::from_secs(8));
    sim.run_until(SimTime::from_secs(12));
    sim.finish_probes();
    let report = sim.audit_report().expect("auditor installed");
    let violations = sim.audit_violations();
    let mut dump = Vec::new();
    recorder
        .export_jsonl(&mut dump)
        .expect("in-memory JSONL export cannot fail");
    let evicted = recorder.with(|r| r.evicted());
    assert_eq!(evicted, 0, "ring eviction would truncate the replay");
    (
        report,
        violations,
        String::from_utf8(dump).expect("JSONL is UTF-8"),
    )
}

#[test]
fn clean_run_passes_both_frontends_identically() {
    let (report, violations, dump) = audited_run(2010, |_| {});
    assert_eq!(violations, 0, "{report}");
    assert!(report.contains("verdict: PASS"), "{report}");

    let outcome = replay_dump(&dump).expect("clean dump replays");
    assert_eq!(outcome.violations, 0);
    assert_eq!(outcome.recorded_violations, 0);
    assert!(outcome.first.is_none());
    assert_eq!(
        outcome.report, report,
        "offline replay must reproduce the online report byte for byte"
    );
}

#[test]
fn broken_sink_dedup_is_caught_by_both_frontends() {
    // Batch 1 delivers one-element runs; batch 16 coalesces longer ones.
    // Both go through the one sink delivery path and its one dedup hook.
    for batch_size in [1, 16] {
        let broken = |c: &mut HaConfig| {
            c.test_break_sink_dedup = true;
            c.batch_size = batch_size;
        };
        let (report, violations, dump) = audited_run(2010, broken);
        // The chaos duplication window re-delivers elements; with receiver
        // dedup broken they are accepted twice, which the exactly-once rule
        // must flag.
        assert!(
            violations > 0,
            "canary did not fire at batch {batch_size}:\n{report}"
        );
        assert!(report.contains("verdict: FAIL"), "{report}");
        assert!(
            report.contains("sink_exactly_once"),
            "wrong invariant flagged at batch {batch_size}:\n{report}"
        );

        let outcome = replay_dump(&dump).expect("dump replays");
        assert_eq!(outcome.violations, violations);
        assert_eq!(
            outcome.recorded_violations, violations,
            "the online probe's violation records must be in the dump"
        );
        assert_eq!(
            outcome.report, report,
            "offline replay must reproduce the online report byte for byte"
        );
        let first = outcome.first.expect("a first violation with context");
        assert!(
            first.rendered.contains("sink_exactly_once"),
            "{}",
            first.rendered
        );
        assert!(
            !first.backtrace.is_empty(),
            "first violation should come with a causal backtrace"
        );

        // The canary is deterministic: same seed, same report.
        let (again, _, _) = audited_run(2010, broken);
        assert_eq!(report, again);
    }
}

#[test]
fn skipped_standby_reprovision_is_caught_by_both_frontends() {
    let (report, violations, dump) = audited_run(2010, |c| c.test_skip_standby_reprovision = true);
    // The fail-stop promotes the secondary; with re-provisioning skipped
    // the subjob finishes the run without standby coverage.
    assert!(violations > 0, "canary did not fire:\n{report}");
    assert!(report.contains("verdict: FAIL"), "{report}");
    assert!(
        report.contains("standby_coverage"),
        "wrong invariant flagged:\n{report}"
    );

    let outcome = replay_dump(&dump).expect("dump replays");
    assert_eq!(outcome.violations, violations);
    assert_eq!(
        outcome.report, report,
        "offline replay must reproduce the online report byte for byte"
    );
    let first = outcome.first.expect("a first violation with context");
    assert!(
        first.rendered.contains("standby_coverage"),
        "{}",
        first.rendered
    );

    let (again, _, _) = audited_run(2010, |c| c.test_skip_standby_reprovision = true);
    assert_eq!(report, again);
}
