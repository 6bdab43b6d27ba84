//! Sink runtimes: the external consumers of a job's final output.
//!
//! A sink deduplicates (active standby delivers two copies of everything),
//! records end-to-end latency against each element's origin timestamp, and
//! immediately acknowledges accepted elements — the continuous
//! acknowledgment stream that seeds the sweeping-checkpoint trim wave at the
//! most-downstream PE.

use sps_engine::{DataElement, InputQueue, Offer, SinkId, StreamId};
use sps_metrics::LatencyRecorder;
use sps_sim::SimTime;

/// A deployed sink.
#[derive(Debug)]
pub struct SinkRuntime {
    id: SinkId,
    input: InputQueue,
    latency: LatencyRecorder,
    accepted: u64,
    last_accept_at: Option<SimTime>,
    accept_log: Option<Vec<(SimTime, StreamId, u64)>>,
}

/// What a sink did with a delivered element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkAccept {
    /// The stream the element arrived on.
    pub stream: StreamId,
    /// Cumulative processed-through position on that stream (for the ack).
    pub processed_through: u64,
    /// How many elements were newly accepted (the element plus drained
    /// stash).
    pub newly_accepted: usize,
}

impl SinkRuntime {
    /// Creates a sink; `log_accepts` retains a per-element accept log (used
    /// by recovery-time experiments to find the first new output).
    pub fn new(id: SinkId, log_accepts: bool) -> Self {
        SinkRuntime {
            id,
            input: InputQueue::new(),
            latency: LatencyRecorder::with_series(),
            accepted: 0,
            last_accept_at: None,
            accept_log: log_accepts.then(Vec::new),
        }
    }

    /// This sink's id.
    pub fn id(&self) -> SinkId {
        self.id
    }

    /// Registers a stream this sink consumes.
    pub fn register_stream(&mut self, stream: StreamId) {
        self.input.register_stream(stream);
    }

    /// Delivers an element; returns `Some` when it (and possibly stashed
    /// successors) was newly accepted, so the caller can send the ack.
    pub fn deliver(&mut self, now: SimTime, elem: DataElement) -> Option<SinkAccept> {
        match self.input.offer(elem) {
            Offer::Accepted(n) => {
                // Everything accepted is immediately "processed" by the
                // external consumer; drain and record.
                let mut processed_through = elem.seq;
                while let Some(e) = self.input.take_next() {
                    self.accepted += 1;
                    processed_through = processed_through.max(e.seq);
                    self.input.mark_processed(e.stream, e.seq);
                    // Keyed by *creation* time so delays can be attributed
                    // to the failure window the element was born into (the
                    // §V-B "8-fold during unavailability" metric).
                    self.latency.record(
                        e.created_at.as_secs_f64(),
                        now.saturating_since(e.created_at).as_millis_f64(),
                    );
                    if let Some(log) = &mut self.accept_log {
                        log.push((now, e.stream, e.seq));
                    }
                }
                self.last_accept_at = Some(now);
                Some(SinkAccept {
                    stream: elem.stream,
                    processed_through,
                    newly_accepted: n,
                })
            }
            Offer::Duplicate | Offer::Stashed => None,
        }
    }

    /// Test-only broken delivery path (`HaConfig::test_break_sink_dedup`):
    /// duplicates of already-processed positions are *counted as accepted*
    /// instead of dropped, deliberately violating receiver exactly-once so
    /// the protocol auditor's mutation canary has something to catch.
    /// Stashed out-of-order arrivals still return `None`.
    #[doc(hidden)]
    pub fn deliver_without_dedup(&mut self, now: SimTime, elem: DataElement) -> Option<SinkAccept> {
        if let Some(accept) = self.deliver(now, elem) {
            return Some(accept);
        }
        let through = self.processed_through(elem.stream);
        if elem.seq > through {
            return None; // stashed, not a duplicate
        }
        // Double-count the duplicate as a fresh accept: the position does
        // not advance, which is exactly the signature the auditor flags.
        self.accepted += 1;
        self.latency.record(
            elem.created_at.as_secs_f64(),
            now.saturating_since(elem.created_at).as_millis_f64(),
        );
        self.last_accept_at = Some(now);
        Some(SinkAccept {
            stream: elem.stream,
            processed_through: through,
            newly_accepted: 1,
        })
    }

    /// Total elements accepted (after deduplication).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The sink's processed-through position for one stream (0 before any
    /// element of it was accepted). Used to distinguish duplicates (behind
    /// this position, safe to re-acknowledge) from stashed out-of-order
    /// arrivals.
    pub fn processed_through(&self, stream: StreamId) -> u64 {
        self.input
            .positions_iter()
            .find(|&(s, _)| s == stream)
            .map(|(_, seq)| seq)
            .unwrap_or(0)
    }

    /// Duplicates dropped (active-standby redundancy, retransmissions).
    pub fn duplicates_dropped(&self) -> u64 {
        self.input.duplicates_dropped()
    }

    /// End-to-end latency statistics.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// End-to-end latency statistics, exclusively (for quantile queries).
    pub fn latency_mut(&mut self) -> &mut LatencyRecorder {
        &mut self.latency
    }

    /// When the sink last accepted a new element.
    pub fn last_accept_at(&self) -> Option<SimTime> {
        self.last_accept_at
    }

    /// The first accept at or after `t`, if logging was enabled.
    pub fn first_accept_at_or_after(&self, t: SimTime) -> Option<SimTime> {
        self.accept_log
            .as_ref()?
            .iter()
            .find(|(at, _, _)| *at >= t)
            .map(|(at, _, _)| *at)
    }

    /// The full accept log, if enabled.
    pub fn accept_log(&self) -> Option<&[(SimTime, StreamId, u64)]> {
        self.accept_log.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(seq: u64, created_ms: u64) -> DataElement {
        DataElement {
            stream: StreamId(5),
            seq,
            created_at: SimTime::from_millis(created_ms),
            key: 0,
            value: 0.0,
            size_bytes: 256,
        }
    }

    #[test]
    fn accepts_records_latency_and_acks() {
        let mut s = SinkRuntime::new(SinkId(0), false);
        s.register_stream(StreamId(5));
        let acc = s.deliver(SimTime::from_millis(10), elem(1, 4)).unwrap();
        assert_eq!(acc.processed_through, 1);
        assert_eq!(acc.newly_accepted, 1);
        assert_eq!(s.accepted(), 1);
        assert!((s.latency().mean_ms() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn duplicates_are_silent() {
        let mut s = SinkRuntime::new(SinkId(0), false);
        s.register_stream(StreamId(5));
        s.deliver(SimTime::from_millis(1), elem(1, 0)).unwrap();
        assert_eq!(s.deliver(SimTime::from_millis(2), elem(1, 0)), None);
        assert_eq!(s.duplicates_dropped(), 1);
        assert_eq!(s.accepted(), 1);
    }

    #[test]
    fn gap_then_fill_accepts_batch() {
        let mut s = SinkRuntime::new(SinkId(0), false);
        s.register_stream(StreamId(5));
        assert_eq!(
            s.deliver(SimTime::from_millis(1), elem(2, 0)),
            None,
            "stashed"
        );
        let acc = s.deliver(SimTime::from_millis(2), elem(1, 0)).unwrap();
        assert_eq!(acc.newly_accepted, 2);
        assert_eq!(acc.processed_through, 2);
        assert_eq!(s.accepted(), 2);
    }

    #[test]
    fn accept_log_supports_recovery_queries() {
        let mut s = SinkRuntime::new(SinkId(0), true);
        s.register_stream(StreamId(5));
        s.deliver(SimTime::from_millis(10), elem(1, 0));
        s.deliver(SimTime::from_millis(30), elem(2, 0));
        assert_eq!(
            s.first_accept_at_or_after(SimTime::from_millis(11)),
            Some(SimTime::from_millis(30))
        );
        assert_eq!(s.first_accept_at_or_after(SimTime::from_millis(31)), None);
        assert_eq!(s.accept_log().unwrap().len(), 2);
        assert_eq!(s.last_accept_at(), Some(SimTime::from_millis(30)));
    }
}
