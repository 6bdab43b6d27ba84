//! The PE runtime: one deployed copy of a processing element.
//!
//! A [`PeInstance`] is a *physical* copy (primary or secondary replica) of a
//! logical PE: the operator plus its input and output queues, a suspension
//! flag ("The PE's processing loop is stopped when a flag is set to indicate
//! suspension", §IV-B), and the pause/checkpoint/resume surface the paper's
//! Checkpoint Manager drives.
//!
//! Instances are passive: the HA runtime decides when to start work (it owns
//! the machines), so the instance exposes `start_next` / `finish_inflight`
//! around each element, and the runtime submits the CPU task in between.

use std::fmt;

use sps_sim::SimTime;

use crate::chunk::ChunkedDeque;
use crate::element::{DataElement, PeId, StreamId};
use crate::operator::{Emitter, Operator, OperatorSpec, OperatorState};
use crate::queue::{ConnectionId, InputQueue, Offer, OutputQueue, OutputQueueState};

/// Which copy of a logical PE an instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Replica {
    /// The primary copy.
    Primary,
    /// The standby copy.
    Secondary,
}

impl Replica {
    /// Both replicas, primary first.
    pub const BOTH: [Replica; 2] = [Replica::Primary, Replica::Secondary];

    /// The other replica.
    pub fn other(self) -> Replica {
        match self {
            Replica::Primary => Replica::Secondary,
            Replica::Secondary => Replica::Primary,
        }
    }
}

impl fmt::Display for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replica::Primary => write!(f, "pri"),
            Replica::Secondary => write!(f, "sec"),
        }
    }
}

/// Identifies one physical PE copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// The logical PE.
    pub pe: PeId,
    /// Which copy.
    pub replica: Replica,
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pe, self.replica)
    }
}

/// Identifies an external consumer of a job's final output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SinkId(pub u32);

impl fmt::Display for SinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink{}", self.0)
    }
}

/// The destination of an output-queue connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// An input port of another PE instance.
    Pe {
        /// The consuming instance.
        inst: InstanceId,
        /// Its input port.
        port: usize,
    },
    /// An external sink.
    Sink(SinkId),
}

/// A checkpoint of one PE: internal state and output queues, plus the input
/// *positions* (not data) needed to resume consistently. Matches §III-B:
/// "a checkpoint message includes the internal states and output queues, but
/// not input queues, of a PE".
#[derive(Debug, Clone, PartialEq)]
pub struct PeCheckpoint {
    /// The logical PE this checkpoint belongs to.
    pub pe: PeId,
    /// Operator internal state.
    pub operator_state: OperatorState,
    /// Internal-state size in element units (checkpoint cost accounting).
    pub state_elements: u64,
    /// Output-queue snapshots, one per port.
    pub outputs: Vec<OutputQueueState>,
    /// Processed positions per input port.
    pub input_positions: Vec<Vec<(StreamId, u64)>>,
    /// Accepted-but-unprocessed input elements per port. Empty for periodic
    /// checkpoints (§III-B excludes input queues); populated only by the
    /// hybrid rollback's read-state operation, which transfers the
    /// secondary's backlog so the primary "can jump to the latest state
    /// directly" (§IV-B). Captured as chunk pointers, not element copies.
    pub input_backlog: Vec<ChunkedDeque>,
    /// When the snapshot was taken.
    pub taken_at: SimTime,
}

impl PeCheckpoint {
    /// Elements this checkpoint contributes to a checkpoint message:
    /// retained output-queue elements, transferred input backlog, and the
    /// internal state in element units.
    pub fn element_count(&self) -> u64 {
        self.state_elements
            + self
                .outputs
                .iter()
                .map(OutputQueueState::element_count)
                .sum::<u64>()
            + self
                .input_backlog
                .iter()
                .map(|b| b.len() as u64)
                .sum::<u64>()
    }

    /// Approximate wire size of the checkpoint message.
    pub fn byte_size(&self, bytes_per_element: u32) -> u64 {
        self.element_count() * bytes_per_element as u64 + 64
    }
}

/// A work item the runtime must execute on the host machine's CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkItem {
    /// The element being processed.
    pub element: DataElement,
    /// Which input port it came from.
    pub port: usize,
    /// CPU demand in seconds.
    pub demand_secs: f64,
}

/// A batch of in-flight elements submitted as one CPU task: up to
/// `batch_size` elements dequeued round-robin, with their demands summed.
/// At batch size 1 this is exactly one [`WorkItem`]'s worth of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkBatch {
    /// Elements taken in flight by this batch.
    pub elements: u32,
    /// Summed CPU demand in seconds.
    pub demand_secs: f64,
}

/// One deployed copy of a PE.
#[derive(Debug)]
pub struct PeInstance {
    id: InstanceId,
    spec: OperatorSpec,
    operator: Box<dyn Operator>,
    inputs: Vec<InputQueue>,
    outputs: Vec<OutputQueue<Dest>>,
    suspended: bool,
    pause_requested: bool,
    /// Elements currently on the CPU, oldest first. Singleton except when
    /// the runtime starts a multi-element batch; completion drains it in
    /// dequeue order so per-element semantics (lineage parents, acks,
    /// output stamping) are preserved under batching.
    inflight: std::collections::VecDeque<(DataElement, usize)>,
    next_input_port: usize,
    processed_total: u64,
    /// Reused per-element output collector; capacity persists across
    /// elements so the steady-state processing loop never allocates.
    scratch_emitter: Emitter,
    /// Output ports that may have an active connection needing a drain
    /// (see [`OutputQueue::needs_drain`]): bit `p` of `pending_low` for
    /// the first 64 ports, then one word per further 64 in
    /// `pending_high`. Dispatch visits only these, so its cost follows what
    /// was produced, not the port count. `pending_high` is sized on its
    /// first mark, so deploying an instance allocates nothing and only
    /// instances wider than 64 ports (shard routers) ever do.
    pending_low: u64,
    pending_high: Vec<u64>,
}

impl PeInstance {
    /// Deploys a fresh copy with the given port counts.
    pub fn new(
        id: InstanceId,
        spec: OperatorSpec,
        in_ports: usize,
        out_streams: &[StreamId],
    ) -> Self {
        let operator = spec.build();
        PeInstance {
            id,
            spec,
            operator,
            inputs: (0..in_ports).map(|_| InputQueue::new()).collect(),
            outputs: out_streams.iter().map(|&s| OutputQueue::new(s)).collect(),
            suspended: false,
            pause_requested: false,
            inflight: std::collections::VecDeque::new(),
            next_input_port: 0,
            processed_total: 0,
            scratch_emitter: Emitter::default(),
            pending_low: 0,
            pending_high: Vec::new(),
        }
    }

    /// This instance's identity.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The operator spec this instance was deployed from.
    pub fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    // ---- wiring ----

    /// Registers an upstream stream on input `port`.
    pub fn register_input_stream(&mut self, port: usize, stream: StreamId) {
        self.inputs[port].register_stream(stream);
    }

    /// Connects output `port` to `dest`.
    pub fn connect_output(
        &mut self,
        port: usize,
        dest: Dest,
        active: bool,
        counts_for_trim: bool,
    ) -> ConnectionId {
        self.outputs[port].connect(dest, active, counts_for_trim)
    }

    /// The output queue on `port`.
    pub fn output(&self, port: usize) -> &OutputQueue<Dest> {
        &self.outputs[port]
    }

    /// The output queue on `port`, exclusively. Marks the port pending:
    /// any change through here (activation, cursor rewind) may make it
    /// sendable.
    pub fn output_mut(&mut self, port: usize) -> &mut OutputQueue<Dest> {
        self.mark_pending(port);
        &mut self.outputs[port]
    }

    /// Adds `port` to the pending set, so the next
    /// [`PeInstance::take_pending_ports`] hands it out.
    #[inline]
    pub fn mark_pending(&mut self, port: usize) {
        debug_assert!(port < self.outputs.len(), "no output port {port}");
        if port < 64 {
            self.pending_low |= 1 << port;
            return;
        }
        if self.pending_high.is_empty() {
            self.pending_high = vec![0; (self.outputs.len() - 64).div_ceil(64)];
        }
        let high = port - 64;
        self.pending_high[high / 64] |= 1 << (high % 64);
    }

    /// Moves the pending set into `out` in ascending port order and empties
    /// it. `out` is appended to, so a caller-owned buffer keeps its
    /// capacity across calls.
    #[inline]
    pub fn take_pending_ports(&mut self, out: &mut Vec<usize>) {
        let words = std::iter::once(&mut self.pending_low).chain(&mut self.pending_high);
        for (w, word) in words.enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Drains the unsent elements of one connection into `out` (see
    /// [`OutputQueue::drain_sendable_into`]) without marking the port
    /// pending: a drained connection needs no further drain.
    #[inline]
    pub fn drain_sendable_into(
        &mut self,
        port: usize,
        conn: ConnectionId,
        out: &mut Vec<DataElement>,
    ) -> usize {
        self.outputs[port].drain_sendable_into(conn, out)
    }

    /// Number of output ports.
    pub fn output_ports(&self) -> usize {
        self.outputs.len()
    }

    /// The input queue on `port`.
    pub fn input(&self, port: usize) -> &InputQueue {
        &self.inputs[port]
    }

    /// Number of input ports.
    pub fn input_ports(&self) -> usize {
        self.inputs.len()
    }

    // ---- data plane ----

    /// Offers an arriving element to input `port`.
    pub fn offer(&mut self, port: usize, elem: DataElement) -> Offer {
        self.inputs[port].offer(elem)
    }

    /// `true` if the processing loop may start another element.
    pub fn can_start(&self) -> bool {
        !self.suspended
            && !self.pause_requested
            && self.inflight.is_empty()
            && self.inputs.iter().any(|q| q.pending_len() > 0)
    }

    /// Dequeues the next element (round-robin across ports) and returns the
    /// CPU work the runtime must execute, or `None` if nothing can start.
    pub fn start_next(&mut self) -> Option<WorkItem> {
        if !self.can_start() {
            return None;
        }
        let ports = self.inputs.len();
        for i in 0..ports {
            let port = (self.next_input_port + i) % ports;
            if let Some(elem) = self.inputs[port].take_next() {
                self.next_input_port = (port + 1) % ports;
                self.inflight.push_back((elem, port));
                return Some(WorkItem {
                    element: elem,
                    port,
                    demand_secs: self.operator.demand_secs(&elem),
                });
            }
        }
        None
    }

    /// Dequeues up to `max` elements (round-robin across ports, exactly as
    /// repeated [`PeInstance::start_next`] would) into one in-flight batch
    /// and returns the summed CPU work, or `None` if nothing can start. At
    /// `max == 1` this is equivalent to `start_next`.
    pub fn start_next_batch(&mut self, max: u32) -> Option<WorkBatch> {
        if !self.can_start() {
            return None;
        }
        let ports = self.inputs.len();
        let mut elements = 0u32;
        let mut demand_secs = 0.0f64;
        'fill: while elements < max {
            for i in 0..ports {
                let port = (self.next_input_port + i) % ports;
                if let Some(elem) = self.inputs[port].take_next() {
                    self.next_input_port = (port + 1) % ports;
                    demand_secs += self.operator.demand_secs(&elem);
                    self.inflight.push_back((elem, port));
                    elements += 1;
                    continue 'fill;
                }
            }
            break;
        }
        (elements > 0).then_some(WorkBatch {
            elements,
            demand_secs,
        })
    }

    /// Completes the oldest in-flight element: applies the operator,
    /// advances the processed position, and stamps the outputs into the
    /// output queues. Returns the produced elements as `(port, element)`
    /// pairs; the runtime transmits them by draining each connection.
    ///
    /// # Panics
    ///
    /// Panics if no element is in flight.
    pub fn finish_inflight(&mut self, now: SimTime) -> Vec<(usize, DataElement)> {
        let mut out = Vec::new();
        self.finish_inflight_into(now, &mut out);
        out
    }

    /// Like [`PeInstance::finish_inflight`], but appends the produced
    /// elements to a caller-owned buffer — the runtime's hot path reuses one
    /// scratch buffer per world so completing an element allocates nothing.
    /// Under batching the runtime calls this once per in-flight element, in
    /// dequeue order, when the batch's CPU task completes.
    ///
    /// # Panics
    ///
    /// Panics if no element is in flight.
    pub fn finish_inflight_into(&mut self, now: SimTime, out: &mut Vec<(usize, DataElement)>) {
        let (elem, port) = self
            .inflight
            .pop_front()
            .expect("finish_inflight called with no element in flight");
        let mut emitter = std::mem::take(&mut self.scratch_emitter);
        self.operator.process(port, &elem, &mut emitter);
        self.inputs[port].mark_processed(elem.stream, elem.seq);
        self.processed_total += 1;
        let _ = now;
        for (out_port, payload) in emitter.drain() {
            let produced = self.outputs[out_port].produce(payload, elem.created_at);
            self.mark_pending(out_port);
            out.push((out_port, produced));
        }
        self.scratch_emitter = emitter;
    }

    /// `true` while at least one element is being processed on the CPU.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Number of elements currently being processed on the CPU (the size
    /// of the in-flight batch).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The in-flight elements in dequeue order (lineage stamps processing
    /// start for each element of a just-started batch).
    pub fn inflight_elems(&self) -> impl Iterator<Item = &DataElement> {
        self.inflight.iter().map(|(elem, _)| elem)
    }

    /// The oldest element currently being processed, if any (lineage
    /// tracking reads it to link produced outputs to their input).
    pub fn inflight_elem(&self) -> Option<&DataElement> {
        self.inflight.front().map(|(elem, _)| elem)
    }

    /// Drops all in-flight elements without applying them (machine
    /// fail-stop; the elements are still retained upstream).
    pub fn abort_inflight(&mut self) {
        self.inflight.clear();
    }

    /// Total elements fully processed by this instance.
    pub fn processed_total(&self) -> u64 {
        self.processed_total
    }

    // ---- telemetry accessors ----

    /// Pending input elements summed over all ports.
    pub fn input_depth(&self) -> u64 {
        self.inputs.iter().map(|q| q.pending_len() as u64).sum()
    }

    /// Retained (unacknowledged) output elements summed over all ports.
    pub fn output_backlog(&self) -> u64 {
        self.outputs.iter().map(|q| q.retained_len() as u64).sum()
    }

    /// Largest pending-input depth ever observed on any port.
    pub fn input_high_water(&self) -> u64 {
        self.inputs
            .iter()
            .map(|q| q.high_water() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Largest retained-output backlog ever observed on any port.
    pub fn output_high_water(&self) -> u64 {
        self.outputs
            .iter()
            .map(|q| q.high_water() as u64)
            .max()
            .unwrap_or(0)
    }

    // ---- suspension (hybrid standby) ----

    /// Sets the suspension flag; suspended instances start no work.
    pub fn set_suspended(&mut self, suspended: bool) {
        self.suspended = suspended;
    }

    /// `true` while suspended.
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    // ---- checkpoint protocol (pause / checkpoint / resume) ----

    /// Requests a checkpoint pause. Returns `true` if the PE is already
    /// quiescent (no element mid-processing); otherwise the runtime must
    /// wait for the in-flight completion before snapshotting.
    pub fn request_pause(&mut self) -> bool {
        self.pause_requested = true;
        self.inflight.is_empty()
    }

    /// `true` once a requested pause has quiesced.
    pub fn is_quiescent(&self) -> bool {
        self.pause_requested && self.inflight.is_empty()
    }

    /// Clears the pause and resumes the processing loop.
    pub fn resume(&mut self) {
        self.pause_requested = false;
    }

    /// `true` while a pause is requested.
    pub fn is_pause_requested(&self) -> bool {
        self.pause_requested
    }

    /// Snapshots internal state, output queues, and input positions.
    ///
    /// # Panics
    ///
    /// Panics if an element is in flight — the pause protocol must complete
    /// first, exactly like the paper's `pause(controller)` /
    /// `ackPEPause()` handshake.
    pub fn snapshot(&self, now: SimTime) -> PeCheckpoint {
        assert!(
            self.inflight.is_empty(),
            "cannot snapshot {} mid-element; pause first",
            self.id
        );
        PeCheckpoint {
            pe: self.id.pe,
            operator_state: self.operator.snapshot(),
            state_elements: self.operator.state_size_elements(),
            outputs: self.outputs.iter().map(OutputQueue::snapshot).collect(),
            input_positions: self.inputs.iter().map(InputQueue::positions).collect(),
            input_backlog: vec![ChunkedDeque::new(); self.inputs.len()],
            taken_at: now,
        }
    }

    /// Like [`PeInstance::snapshot`] but carrying the input backlog, for the
    /// hybrid rollback's read-state operation.
    ///
    /// # Panics
    ///
    /// Panics if an element is in flight (pause first): the backlog is only
    /// contiguous when the PE is quiescent.
    pub fn snapshot_with_backlog(&self, now: SimTime) -> PeCheckpoint {
        let mut ckpt = self.snapshot(now);
        ckpt.input_backlog = self
            .inputs
            .iter()
            .map(InputQueue::pending_elements)
            .collect();
        ckpt
    }

    /// Restores this instance from a checkpoint: rebuilds the operator from
    /// the spec, restores its state, restores output queues, and resets
    /// input positions (pending input data is discarded; upstream retention
    /// will retransmit it).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint belongs to a different logical PE or has a
    /// different port shape.
    pub fn restore(&mut self, ckpt: &PeCheckpoint) {
        assert_eq!(
            ckpt.pe, self.id.pe,
            "checkpoint of {} restored into {}",
            ckpt.pe, self.id.pe
        );
        assert_eq!(ckpt.outputs.len(), self.outputs.len(), "output port shape");
        assert_eq!(
            ckpt.input_positions.len(),
            self.inputs.len(),
            "input port shape"
        );
        self.operator = self.spec.build();
        self.operator.restore(&ckpt.operator_state);
        for (q, s) in self.outputs.iter_mut().zip(&ckpt.outputs) {
            q.restore(s);
        }
        // Restored cursors may sit anywhere in the retained backlog.
        for port in 0..self.outputs.len() {
            self.mark_pending(port);
        }
        for (q, positions) in self.inputs.iter_mut().zip(&ckpt.input_positions) {
            q.restore(positions);
        }
        for (q, backlog) in self.inputs.iter_mut().zip(&ckpt.input_backlog) {
            for elem in backlog.iter() {
                q.offer(elem);
            }
        }
        self.inflight.clear();
    }

    /// The processed positions of every input port (for acknowledgment
    /// generation).
    pub fn input_positions(&self, port: usize) -> Vec<(StreamId, u64)> {
        self.inputs[port].positions()
    }

    /// Registers a cumulative ack on an output connection; returns elements
    /// trimmed.
    pub fn register_ack(&mut self, port: usize, conn: ConnectionId, seq: u64) -> usize {
        self.outputs[port].register_ack(conn, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Payload;

    fn elem(stream: u32, seq: u64, value: f64) -> DataElement {
        DataElement {
            stream: StreamId(stream),
            seq,
            created_at: SimTime::from_millis(seq),
            key: 0,
            value,
            size_bytes: 256,
        }
    }

    fn counter_instance() -> PeInstance {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(1),
                replica: Replica::Primary,
            },
            OperatorSpec::Counter { demand_secs: 1e-3 },
            1,
            &[StreamId(10)],
        );
        inst.register_input_stream(0, StreamId(1));
        inst.connect_output(0, Dest::Sink(SinkId(0)), true, true);
        inst
    }

    #[test]
    fn process_cycle_produces_sequenced_output() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 5.0));
        let work = inst.start_next().expect("work available");
        assert_eq!(work.demand_secs, 1e-3);
        assert!(inst.has_inflight());
        assert!(!inst.can_start(), "one element at a time");
        let out = inst.finish_inflight(SimTime::from_millis(2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.stream, StreamId(10));
        assert_eq!(out[0].1.seq, 1);
        assert_eq!(out[0].1.value, 1.0, "counter output");
        assert_eq!(
            out[0].1.created_at,
            SimTime::from_millis(1),
            "origin timestamp kept"
        );
        assert_eq!(inst.processed_total(), 1);
    }

    #[test]
    fn suspension_stops_the_loop() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.set_suspended(true);
        assert!(!inst.can_start());
        assert!(inst.start_next().is_none());
        inst.set_suspended(false);
        assert!(inst.start_next().is_some());
    }

    #[test]
    fn pause_waits_for_inflight() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.offer(0, elem(1, 2, 1.0));
        inst.start_next().unwrap();
        assert!(!inst.request_pause(), "in flight: not quiescent yet");
        assert!(!inst.is_quiescent());
        inst.finish_inflight(SimTime::ZERO);
        assert!(inst.is_quiescent());
        assert!(!inst.can_start(), "paused loop starts nothing");
        inst.resume();
        assert!(inst.can_start());
    }

    #[test]
    #[should_panic(expected = "pause first")]
    fn snapshot_mid_element_panics() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next().unwrap();
        inst.snapshot(SimTime::ZERO);
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        let mut a = counter_instance();
        for s in 1..=3 {
            a.offer(0, elem(1, s, 1.0));
        }
        for _ in 0..3 {
            a.start_next().unwrap();
            a.finish_inflight(SimTime::ZERO);
        }
        let ckpt = a.snapshot(SimTime::from_millis(9));
        assert_eq!(ckpt.input_positions[0], vec![(StreamId(1), 3)]);
        assert_eq!(
            ckpt.element_count(),
            1 /*state*/ + 3 /*retained outputs*/
        );

        let mut b = counter_instance();
        b.restore(&ckpt);
        // Element 3 again: duplicate. Element 4: accepted and counted as #4.
        assert_eq!(b.offer(0, elem(1, 3, 1.0)), Offer::Duplicate);
        assert_eq!(b.offer(0, elem(1, 4, 1.0)), Offer::Accepted(1));
        b.start_next().unwrap();
        let out = b.finish_inflight(SimTime::ZERO);
        assert_eq!(out[0].1.value, 4.0, "counter state carried over");
        assert_eq!(out[0].1.seq, 4, "output seq continues");
    }

    #[test]
    fn abort_inflight_discards_without_state_change() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next().unwrap();
        inst.abort_inflight();
        assert!(!inst.has_inflight());
        assert_eq!(inst.processed_total(), 0);
        // The element was consumed from pending; recovery would restore
        // positions and retransmit. Here we just check no output appeared.
        assert_eq!(inst.output(0).produced_total(), 0);
    }

    #[test]
    fn round_robin_across_input_ports() {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(2),
                replica: Replica::Primary,
            },
            OperatorSpec::Counter { demand_secs: 1e-3 },
            2,
            &[StreamId(20)],
        );
        inst.register_input_stream(0, StreamId(1));
        inst.register_input_stream(1, StreamId(2));
        inst.offer(0, elem(1, 1, 0.0));
        inst.offer(0, elem(1, 2, 0.0));
        inst.offer(1, elem(2, 1, 0.0));
        let mut ports = Vec::new();
        while let Some(w) = inst.start_next() {
            ports.push(w.port);
            inst.finish_inflight(SimTime::ZERO);
        }
        assert_eq!(ports, vec![0, 1, 0], "round-robin interleaves ports");
    }

    /// A four-port shard router with every port connected to a sink.
    fn router_instance() -> PeInstance {
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(4),
                replica: Replica::Primary,
            },
            OperatorSpec::ShardRouter {
                shards: 4,
                demand_secs: 1e-6,
            },
            1,
            &[StreamId(40), StreamId(41), StreamId(42), StreamId(43)],
        );
        inst.register_input_stream(0, StreamId(1));
        for port in 0..4 {
            inst.connect_output(port, Dest::Sink(SinkId(port as u32)), true, true);
        }
        inst
    }

    fn taken(inst: &mut PeInstance) -> Vec<usize> {
        let mut ports = Vec::new();
        inst.take_pending_ports(&mut ports);
        ports
    }

    #[test]
    fn a_produce_marks_only_its_own_port() {
        let mut inst = router_instance();
        assert!(
            taken(&mut inst).is_empty(),
            "a fresh instance has nothing to send"
        );
        let key = (0..).find(|&k| crate::shard_of(k, 4) == 2).unwrap();
        inst.offer(
            0,
            DataElement {
                key,
                ..elem(1, 1, 0.0)
            },
        );
        inst.start_next().unwrap();
        let out = inst.finish_inflight(SimTime::ZERO);
        assert_eq!(out[0].0, 2);
        assert_eq!(taken(&mut inst), vec![2]);
        assert!(taken(&mut inst).is_empty(), "taking empties the set");
    }

    #[test]
    fn output_mut_and_restore_mark_ports() {
        let mut inst = router_instance();
        inst.output_mut(3).set_active(ConnectionId(0), true);
        inst.output_mut(1);
        assert_eq!(taken(&mut inst), vec![1, 3], "ascending port order");
        let ckpt = inst.snapshot(SimTime::ZERO);
        inst.restore(&ckpt);
        assert_eq!(taken(&mut inst), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_fully_drained_port_leaves_the_set() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next().unwrap();
        inst.finish_inflight(SimTime::ZERO);
        assert!(inst.output(0).needs_drain(ConnectionId(0)));
        assert_eq!(taken(&mut inst), vec![0]);
        let mut sent = Vec::new();
        assert_eq!(inst.drain_sendable_into(0, ConnectionId(0), &mut sent), 1);
        assert!(!inst.output(0).needs_drain(ConnectionId(0)));
        assert!(taken(&mut inst).is_empty(), "draining does not re-mark");
    }

    #[test]
    fn ports_past_one_word_round_trip() {
        let streams: Vec<StreamId> = (0..130).map(StreamId).collect();
        let mut inst = PeInstance::new(
            InstanceId {
                pe: PeId(5),
                replica: Replica::Primary,
            },
            OperatorSpec::Counter { demand_secs: 1e-3 },
            1,
            &streams,
        );
        for port in [129, 0, 64, 63] {
            inst.mark_pending(port);
        }
        assert_eq!(taken(&mut inst), vec![0, 63, 64, 129]);
    }

    #[test]
    fn replica_identity_helpers() {
        assert_eq!(Replica::Primary.other(), Replica::Secondary);
        assert_eq!(Replica::Secondary.other(), Replica::Primary);
        let id = InstanceId {
            pe: PeId(3),
            replica: Replica::Secondary,
        };
        assert_eq!(id.to_string(), "pe3/sec");
        assert_eq!(SinkId(1).to_string(), "sink1");
    }

    #[test]
    fn checkpoint_byte_size_scales_with_elements() {
        let mut inst = counter_instance();
        inst.offer(0, elem(1, 1, 1.0));
        inst.start_next().unwrap();
        inst.finish_inflight(SimTime::ZERO);
        let ckpt = inst.snapshot(SimTime::ZERO);
        assert_eq!(ckpt.byte_size(256), ckpt.element_count() * 256 + 64);
    }

    #[test]
    fn output_produce_via_payload_api() {
        // PeInstance and raw queues agree on stamping.
        let mut q: OutputQueue<Dest> = OutputQueue::new(StreamId(5));
        let e = q.produce(Payload::new(1, 2.0), SimTime::from_millis(3));
        assert_eq!(e.stream, StreamId(5));
        assert_eq!(e.seq, 1);
    }
}
