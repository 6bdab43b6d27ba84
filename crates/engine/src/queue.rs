//! Sequence-numbered output and input queues.
//!
//! These implement the data-plane half of the paper's recovery story:
//!
//! * An [`OutputQueue`] assigns an incremental sequence number to each newly
//!   produced element and **retains** elements until an accumulative
//!   acknowledgment says every trim-relevant downstream consumer has
//!   processed them (and, under checkpointing, persisted the resulting
//!   state). "If an output queue sends data to multiple downstream input
//!   queues, it removes a data element only when all downstream input queues
//!   indicate that data element is no longer needed." (§III-B)
//! * An [`InputQueue`] performs duplicate elimination by sequence number —
//!   required under active standby (two replicas send the same logical
//!   elements) and after retransmission-based recovery.
//!
//! Connections carry the hybrid method's `is_active` flag: an early-created
//! connection to a suspended secondary exists but transmits nothing until
//! switch-over flips the flag (§IV-B). Inactive connections are also
//! excluded from trimming (`counts_for_trim == false`): the suspended
//! secondary's position advances via checkpoints, which by protocol order
//! always run ahead of the acknowledgments that drive trimming.

use std::collections::VecDeque;

use sps_sim::SimTime;

use crate::chunk::ChunkedDeque;
use crate::element::{DataElement, Payload, StreamId, FIRST_SEQ};

/// Index of a connection within one output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionId(pub usize);

/// One downstream connection of an output queue.
///
/// `D` is the runtime's destination address type (the engine does not care
/// what a destination is).
#[derive(Debug, Clone)]
pub struct Connection<D> {
    /// Where elements on this connection are delivered.
    pub dest: D,
    /// The paper's `isActive` field: inactive connections transmit nothing.
    pub active: bool,
    /// Whether this consumer's acknowledgments gate trimming.
    pub counts_for_trim: bool,
    /// Sequence number of the next element to transmit.
    pub next_to_send: u64,
    /// Highest cumulatively acknowledged sequence number (0 = none).
    pub acked: u64,
}

/// A sequence-numbered, retaining output queue.
#[derive(Debug, Clone)]
pub struct OutputQueue<D> {
    stream: StreamId,
    next_seq: u64,
    /// Retained elements with contiguous sequence numbers
    /// `trimmed + 1 ..= next_seq - 1`, in copy-on-write chunks so a
    /// checkpoint captures them by cloning chunk pointers.
    retained: ChunkedDeque,
    /// All elements with `seq <= trimmed` have been removed.
    trimmed: u64,
    connections: Vec<Connection<D>>,
    produced_total: u64,
    /// Largest retained-backlog depth ever observed.
    high_water: usize,
}

/// The checkpointable part of an output queue (per §III-B, checkpoint
/// messages include output queues; connections are topology, not state).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputQueueState {
    /// The stream identity.
    pub stream: StreamId,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Trim floor at snapshot time.
    pub trimmed: u64,
    /// The retained elements, sharing chunks with the live queue at capture
    /// time (copy-on-write keeps this frozen while the queue moves on).
    pub retained: ChunkedDeque,
}

impl OutputQueueState {
    /// Number of elements this state contributes to a checkpoint message.
    pub fn element_count(&self) -> u64 {
        self.retained.len() as u64
    }
}

impl<D> OutputQueue<D> {
    /// Creates an empty queue producing into `stream`.
    pub fn new(stream: StreamId) -> Self {
        OutputQueue {
            stream,
            next_seq: FIRST_SEQ,
            retained: ChunkedDeque::new(),
            trimmed: FIRST_SEQ - 1,
            connections: Vec::new(),
            produced_total: 0,
            high_water: 0,
        }
    }

    /// The stream this queue produces.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Adds a connection joining at the current head of the stream.
    pub fn connect(&mut self, dest: D, active: bool, counts_for_trim: bool) -> ConnectionId {
        let id = ConnectionId(self.connections.len());
        self.connections.push(Connection {
            dest,
            active,
            counts_for_trim,
            next_to_send: self.next_seq,
            acked: self.trimmed,
        });
        id
    }

    /// Stamps `payload` with this stream and the next sequence number,
    /// retains it, and returns it. The runtime then calls
    /// [`OutputQueue::drain_sendable`] per active connection.
    pub fn produce(&mut self, payload: Payload, created_at: SimTime) -> DataElement {
        let elem = DataElement {
            stream: self.stream,
            seq: self.next_seq,
            created_at,
            key: payload.key,
            value: payload.value,
            size_bytes: payload.size_bytes,
        };
        self.next_seq += 1;
        self.produced_total += 1;
        self.retained.push_back(elem);
        self.high_water = self.high_water.max(self.retained.len());
        elem
    }

    /// Elements ready to transmit on `conn` (retained, not yet sent there).
    /// Advances the connection's send cursor; returns nothing for inactive
    /// connections.
    pub fn drain_sendable(&mut self, conn: ConnectionId) -> Vec<DataElement> {
        let mut out = Vec::new();
        self.drain_sendable_into(conn, &mut out);
        out
    }

    /// `true` if draining `conn` would do anything: it is active and its
    /// send cursor is off the head of the stream. Normally the cursor is
    /// behind the head, with unsent elements; a replay that resumes a
    /// consumer from a position its rolled-back producer has not reached
    /// again leaves it past the head, and a drain pulls it back. Dispatch
    /// tests this before any destination lookup, so idle connections cost
    /// one comparison.
    pub fn needs_drain(&self, conn: ConnectionId) -> bool {
        let c = &self.connections[conn.0];
        c.active && c.next_to_send != self.next_seq
    }

    /// Like [`OutputQueue::drain_sendable`], but appends to a caller-owned
    /// buffer instead of allocating a fresh `Vec` — the dispatch hot path
    /// reuses one scratch buffer across every connection of a hop. Returns
    /// the number of elements appended.
    pub fn drain_sendable_into(&mut self, conn: ConnectionId, out: &mut Vec<DataElement>) -> usize {
        let c = &mut self.connections[conn.0];
        if !c.active {
            return 0;
        }
        debug_assert!(
            c.next_to_send > self.trimmed,
            "connection {} wants trimmed element {} (trimmed through {})",
            conn.0,
            c.next_to_send,
            self.trimmed
        );
        let start = (c.next_to_send - self.trimmed - 1) as usize;
        let before = out.len();
        out.extend(self.retained.iter_from(start));
        c.next_to_send = self.next_seq;
        out.len() - before
    }

    /// Registers a cumulative acknowledgment on `conn` and trims every
    /// element no trim-relevant consumer still needs. Returns the number of
    /// elements removed.
    pub fn register_ack(&mut self, conn: ConnectionId, acked_seq: u64) -> usize {
        let c = &mut self.connections[conn.0];
        c.acked = c.acked.max(acked_seq);
        self.trim_to_floor()
    }

    fn trim_to_floor(&mut self) -> usize {
        let floor = self
            .connections
            .iter()
            .filter(|c| c.counts_for_trim)
            .map(|c| c.acked)
            .min()
            .unwrap_or(self.trimmed);
        let mut removed = 0;
        while let Some(front) = self.retained.front() {
            if front.seq <= floor {
                self.retained.pop_front();
                removed += 1;
            } else {
                break;
            }
        }
        if floor > self.trimmed {
            self.trimmed = floor.min(self.next_seq - 1);
        }
        removed
    }

    /// Flips the paper's `isActive` flag on a connection.
    pub fn set_active(&mut self, conn: ConnectionId, active: bool) {
        self.connections[conn.0].active = active;
    }

    /// Sets whether a connection's acknowledgments gate trimming.
    pub fn set_counts_for_trim(&mut self, conn: ConnectionId, counts: bool) {
        self.connections[conn.0].counts_for_trim = counts;
        self.trim_to_floor();
    }

    /// Rewinds or advances a connection's send cursor (used when activating
    /// a standby that must be fed from its restored position).
    ///
    /// # Panics
    ///
    /// Panics if the position has already been trimmed away — recovery would
    /// be impossible, which is exactly the bug retention prevents.
    pub fn set_next_to_send(&mut self, conn: ConnectionId, seq: u64) {
        assert!(
            seq > self.trimmed,
            "cannot send from {seq}: trimmed through {}",
            self.trimmed
        );
        self.connections[conn.0].next_to_send = seq;
    }

    /// Overwrites a connection's acknowledged position (used when the set of
    /// active consumers changes during switch-over/rollback).
    pub fn set_acked(&mut self, conn: ConnectionId, seq: u64) {
        self.connections[conn.0].acked = seq;
        self.trim_to_floor();
    }

    /// The connection table.
    pub fn connections(&self) -> &[Connection<D>] {
        &self.connections
    }

    /// One connection.
    pub fn connection(&self, conn: ConnectionId) -> &Connection<D> {
        &self.connections[conn.0]
    }

    /// Number of retained (unacknowledged) elements.
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Largest retained-backlog depth ever observed (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Highest trimmed sequence number.
    pub fn trimmed_through(&self) -> u64 {
        self.trimmed
    }

    /// Sequence number the next produced element will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total elements ever produced.
    pub fn produced_total(&self) -> u64 {
        self.produced_total
    }

    /// Snapshot for a checkpoint message. O(1) amortized: the retained
    /// elements are captured by cloning chunk pointers, not elements.
    pub fn snapshot(&self) -> OutputQueueState {
        OutputQueueState {
            stream: self.stream,
            next_seq: self.next_seq,
            trimmed: self.trimmed,
            retained: self.retained.clone(),
        }
    }

    /// Restores queue contents from a snapshot, preserving the connection
    /// table. The runtime must re-point each connection's cursors afterwards
    /// (see [`OutputQueue::set_next_to_send`]).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot belongs to a different stream.
    pub fn restore(&mut self, state: &OutputQueueState) {
        assert_eq!(
            state.stream, self.stream,
            "snapshot stream mismatch: restoring {} into {}",
            state.stream, self.stream
        );
        self.next_seq = state.next_seq;
        self.trimmed = state.trimmed;
        self.retained = state.retained.clone();
        for c in &mut self.connections {
            c.next_to_send = c.next_to_send.clamp(self.trimmed + 1, self.next_seq);
        }
    }
}

/// Outcome of offering an element to an input queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Accepted; this many elements (the element plus any stash drained
    /// behind it) became pending.
    Accepted(usize),
    /// A duplicate of an already-accepted element; dropped.
    Duplicate,
    /// Ahead of the expected sequence; stashed until the gap fills.
    Stashed,
}

#[derive(Debug, Clone, Default)]
struct StreamCursor {
    /// Next sequence number this queue will accept.
    next_accept: u64,
    /// Highest sequence number whose processing has completed.
    processed: u64,
    /// Out-of-order arrivals waiting for the gap to fill, as a dense window
    /// keyed by offset from `next_accept`: slot `i` holds the element with
    /// `seq == next_accept + 1 + i` (`None` marks a hole).
    stashed: VecDeque<Option<DataElement>>,
}

/// Sentinel in the stream-index lookup table: stream not registered here.
const NO_STREAM: u16 = u16::MAX;

/// A deduplicating input queue over one or more logical streams.
///
/// Streams are resolved through a dense per-queue index assigned at wiring
/// time: `lookup[stream.0]` maps a global [`StreamId`] to a compact slot in
/// the parallel `ids`/`cursors` vectors, so the per-element `offer` path is
/// two array loads instead of a tree walk. `ids` stays sorted by stream id
/// so [`InputQueue::positions`] and [`InputQueue::streams`] iterate in the
/// same order the previous `BTreeMap` representation did.
#[derive(Debug, Clone, Default)]
pub struct InputQueue {
    /// Registered streams, sorted ascending.
    ids: Vec<StreamId>,
    /// Cursor per registered stream, parallel to `ids`.
    cursors: Vec<StreamCursor>,
    /// Global stream id -> compact index into `ids`/`cursors`.
    lookup: Vec<u16>,
    pending: ChunkedDeque,
    duplicates_dropped: u64,
    accepted_total: u64,
    /// Largest pending-queue depth ever observed.
    high_water: usize,
}

impl InputQueue {
    /// Creates a queue consuming no streams yet.
    pub fn new() -> Self {
        InputQueue::default()
    }

    /// Registers a stream this queue consumes, starting at [`FIRST_SEQ`].
    /// Re-registering an existing stream keeps its cursor.
    pub fn register_stream(&mut self, stream: StreamId) {
        self.ensure_stream(stream);
    }

    /// Index of `stream` in `ids`/`cursors`, registering it if new.
    fn ensure_stream(&mut self, stream: StreamId) -> usize {
        let sid = stream.0 as usize;
        if sid >= self.lookup.len() {
            self.lookup.resize(sid + 1, NO_STREAM);
        }
        let existing = self.lookup[sid];
        if existing != NO_STREAM {
            return existing as usize;
        }
        let pos = self.ids.partition_point(|&s| s < stream);
        self.ids.insert(pos, stream);
        self.cursors.insert(
            pos,
            StreamCursor {
                next_accept: FIRST_SEQ,
                processed: FIRST_SEQ - 1,
                stashed: VecDeque::new(),
            },
        );
        assert!(
            self.ids.len() < NO_STREAM as usize,
            "too many streams on one input queue"
        );
        for (i, s) in self.ids.iter().enumerate().skip(pos) {
            self.lookup[s.0 as usize] = i as u16;
        }
        pos
    }

    /// Offers one element; duplicates are dropped, gaps stashed.
    ///
    /// # Panics
    ///
    /// Panics if the element's stream was never registered.
    pub fn offer(&mut self, elem: DataElement) -> Offer {
        let idx = self
            .lookup
            .get(elem.stream.0 as usize)
            .copied()
            .unwrap_or(NO_STREAM);
        if idx == NO_STREAM {
            panic!("stream {} not registered on this input", elem.stream);
        }
        let cursor = &mut self.cursors[idx as usize];
        if elem.seq < cursor.next_accept {
            self.duplicates_dropped += 1;
            return Offer::Duplicate;
        }
        if elem.seq > cursor.next_accept {
            let offset = (elem.seq - cursor.next_accept - 1) as usize;
            if cursor.stashed.len() <= offset {
                cursor.stashed.resize(offset + 1, None);
            }
            cursor.stashed[offset] = Some(elem);
            return Offer::Stashed;
        }
        let mut accepted = 1;
        self.pending.push_back(elem);
        cursor.next_accept += 1;
        // Drain the stash window while it is contiguous. Popping slot 0
        // after an accept keeps the offset keying aligned: a `Some` is the
        // next in-order element, a `None` is the still-open gap.
        while let Some(slot) = cursor.stashed.pop_front() {
            match slot {
                Some(next) => {
                    self.pending.push_back(next);
                    cursor.next_accept += 1;
                    accepted += 1;
                }
                None => break,
            }
        }
        self.accepted_total += accepted as u64;
        self.high_water = self.high_water.max(self.pending.len());
        Offer::Accepted(accepted)
    }

    /// Takes the next pending element for processing (FIFO across streams).
    pub fn take_next(&mut self) -> Option<DataElement> {
        self.pending.pop_front()
    }

    /// Records that processing of `elem` completed and its effects are in
    /// the operator state. Checkpoints and acknowledgments use this
    /// position.
    pub fn mark_processed(&mut self, stream: StreamId, seq: u64) {
        if let Some(&idx) = self.lookup.get(stream.0 as usize) {
            if idx != NO_STREAM {
                let cursor = &mut self.cursors[idx as usize];
                cursor.processed = cursor.processed.max(seq);
            }
        }
    }

    /// `(stream, processed-through)` pairs — the tiny position metadata a
    /// checkpoint records (the queue *data* is never checkpointed).
    pub fn positions(&self) -> Vec<(StreamId, u64)> {
        self.positions_iter().collect()
    }

    /// Borrowing form of [`InputQueue::positions`], in ascending stream-id
    /// order, for callers that must not allocate.
    pub fn positions_iter(&self) -> impl Iterator<Item = (StreamId, u64)> + '_ {
        self.ids
            .iter()
            .zip(&self.cursors)
            .map(|(&s, c)| (s, c.processed))
    }

    /// Resets to the given processed positions, discarding all pending and
    /// stashed elements (they will be retransmitted by upstream retention).
    pub fn restore(&mut self, positions: &[(StreamId, u64)]) {
        self.pending.clear();
        for (stream, processed) in positions {
            let idx = self.ensure_stream(*stream);
            let cursor = &mut self.cursors[idx];
            cursor.processed = *processed;
            cursor.next_accept = *processed + 1;
            cursor.stashed.clear();
        }
    }

    /// Number of accepted-but-unprocessed elements.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Largest pending-queue depth ever observed (telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// A snapshot of the accepted-but-unprocessed elements, in order (the
    /// input backlog a hybrid rollback read transfers to the primary).
    /// O(1) amortized: clones chunk pointers, not elements.
    pub fn pending_elements(&self) -> ChunkedDeque {
        self.pending.clone()
    }

    /// Total duplicates dropped (active-standby redundancy plus
    /// retransmission overlap).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Total elements accepted.
    pub fn accepted_total(&self) -> u64 {
        self.accepted_total
    }

    /// The registered streams, in ascending id order.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: f64) -> Payload {
        Payload::new(0, v)
    }

    fn mk_queue() -> OutputQueue<&'static str> {
        OutputQueue::new(StreamId(1))
    }

    #[test]
    fn produce_assigns_incremental_seqs() {
        let mut q = mk_queue();
        let a = q.produce(payload(1.0), SimTime::ZERO);
        let b = q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(a.seq, FIRST_SEQ);
        assert_eq!(b.seq, FIRST_SEQ + 1);
        assert_eq!(q.retained_len(), 2);
        assert_eq!(q.produced_total(), 2);
    }

    #[test]
    fn drain_sendable_is_incremental() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        q.produce(payload(1.0), SimTime::ZERO);
        q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(q.drain_sendable(c).len(), 2);
        assert_eq!(q.drain_sendable(c).len(), 0, "cursor advanced");
        q.produce(payload(3.0), SimTime::ZERO);
        let third = q.drain_sendable(c);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].seq, 3);
    }

    #[test]
    fn inactive_connection_sends_nothing_until_activated() {
        let mut q = mk_queue();
        let c = q.connect("standby", false, false);
        q.produce(payload(1.0), SimTime::ZERO);
        assert!(q.drain_sendable(c).is_empty());
        q.set_active(c, true);
        assert_eq!(q.drain_sendable(c).len(), 1);
    }

    #[test]
    fn needs_drain_until_the_cursor_reaches_the_head() {
        let mut q = mk_queue();
        let live = q.connect("live", true, true);
        let standby = q.connect("standby", false, false);
        assert!(!q.needs_drain(live), "nothing produced yet");
        q.produce(payload(1.0), SimTime::ZERO);
        assert!(q.needs_drain(live));
        assert!(!q.needs_drain(standby), "inactive connections send nothing");
        q.drain_sendable(live);
        assert!(!q.needs_drain(live), "fully drained");
        q.set_next_to_send(live, 1);
        assert!(q.needs_drain(live), "a rewind makes the backlog sendable");
        q.set_active(standby, true);
        assert!(q.needs_drain(standby));
        q.drain_sendable(standby);
        q.set_next_to_send(live, 5);
        assert!(
            q.needs_drain(live),
            "a cursor past the head needs pulling back"
        );
        assert!(q.drain_sendable(live).is_empty());
        assert!(!q.needs_drain(live));
        assert_eq!(q.connection(live).next_to_send, q.next_seq());
    }

    #[test]
    fn ack_trims_but_only_to_the_minimum() {
        let mut q = mk_queue();
        let a = q.connect("a", true, true);
        let b = q.connect("b", true, true);
        for i in 0..5 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        assert_eq!(q.register_ack(a, 4), 0, "b has acked nothing");
        assert_eq!(q.register_ack(b, 2), 2, "min(4, 2) = 2 trims two");
        assert_eq!(q.retained_len(), 3);
        assert_eq!(q.trimmed_through(), 2);
        assert_eq!(q.register_ack(b, 5), 2, "min(4, 5) = 4");
    }

    #[test]
    fn trim_ignores_non_trim_connections() {
        let mut q = mk_queue();
        let primary = q.connect("primary", true, true);
        let _standby = q.connect("standby", false, false);
        for i in 0..3 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        assert_eq!(q.register_ack(primary, 3), 3, "standby does not block trim");
        assert_eq!(q.retained_len(), 0);
    }

    #[test]
    fn ack_regression_is_ignored() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..4 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.register_ack(c, 3);
        q.register_ack(c, 1); // stale cumulative ack
        assert_eq!(q.trimmed_through(), 3);
    }

    #[test]
    fn set_next_to_send_replays_retained_elements() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..5 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.drain_sendable(c);
        q.register_ack(c, 2);
        // Recovery: replay everything after the ack.
        q.set_next_to_send(c, 3);
        let replay = q.drain_sendable(c);
        assert_eq!(
            replay.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    #[should_panic(expected = "trimmed")]
    fn cannot_rewind_into_trimmed_region() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        q.produce(payload(1.0), SimTime::ZERO);
        q.register_ack(c, 1);
        q.set_next_to_send(c, 1);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut q = mk_queue();
        let c = q.connect("down", true, true);
        for i in 0..4 {
            q.produce(payload(i as f64), SimTime::ZERO);
        }
        q.register_ack(c, 1);
        let snap = q.snapshot();
        assert_eq!(snap.element_count(), 3);
        assert_eq!(snap.next_seq, 5);
        assert_eq!(snap.trimmed, 1);

        let mut fresh: OutputQueue<&'static str> = OutputQueue::new(StreamId(1));
        fresh.connect("down", true, true);
        fresh.restore(&snap);
        assert_eq!(fresh.next_seq(), 5);
        assert_eq!(fresh.retained_len(), 3);
        assert_eq!(fresh.trimmed_through(), 1);
    }

    #[test]
    #[should_panic(expected = "stream mismatch")]
    fn restore_checks_stream() {
        let mut q = mk_queue();
        let snap = OutputQueue::<&'static str>::new(StreamId(9)).snapshot();
        q.restore(&snap);
    }

    #[test]
    fn connect_after_production_joins_at_head() {
        let mut q = mk_queue();
        q.produce(payload(1.0), SimTime::ZERO);
        let late = q.connect("late", true, false);
        assert!(q.drain_sendable(late).is_empty(), "joins at current head");
        q.produce(payload(2.0), SimTime::ZERO);
        assert_eq!(q.drain_sendable(late).len(), 1);
    }

    // ---- InputQueue ----

    fn elem(stream: u32, seq: u64) -> DataElement {
        DataElement {
            stream: StreamId(stream),
            seq,
            created_at: SimTime::ZERO,
            key: 0,
            value: seq as f64,
            size_bytes: 256,
        }
    }

    #[test]
    fn input_accepts_in_order_and_drops_duplicates() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        assert_eq!(q.offer(elem(1, 1)), Offer::Accepted(1));
        assert_eq!(q.offer(elem(1, 1)), Offer::Duplicate);
        assert_eq!(q.offer(elem(1, 2)), Offer::Accepted(1));
        assert_eq!(q.duplicates_dropped(), 1);
        assert_eq!(q.pending_len(), 2);
        assert_eq!(q.accepted_total(), 2);
    }

    #[test]
    fn input_stashes_gaps_and_drains_contiguously() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        assert_eq!(q.offer(elem(1, 3)), Offer::Stashed);
        assert_eq!(q.offer(elem(1, 2)), Offer::Stashed);
        assert_eq!(q.offer(elem(1, 1)), Offer::Accepted(3));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.take_next().map(|e| e.seq)).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn mark_processed_moves_positions() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        q.offer(elem(1, 1));
        q.offer(elem(1, 2));
        let e = q.take_next().unwrap();
        q.mark_processed(e.stream, e.seq);
        assert_eq!(q.positions(), vec![(StreamId(1), 1)]);
    }

    #[test]
    fn restore_discards_pending_and_sets_positions() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        for s in 1..=5 {
            q.offer(elem(1, s));
        }
        q.restore(&[(StreamId(1), 3)]);
        assert_eq!(q.pending_len(), 0);
        assert_eq!(q.positions(), vec![(StreamId(1), 3)]);
        // Elements at or below the restored position are duplicates now.
        assert_eq!(q.offer(elem(1, 3)), Offer::Duplicate);
        assert_eq!(q.offer(elem(1, 4)), Offer::Accepted(1));
    }

    #[test]
    fn active_standby_dedup_across_two_senders() {
        // Two replicas deliver the same logical stream; exactly one copy of
        // each element is accepted regardless of interleaving.
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        let interleaved = [1u64, 1, 2, 3, 2, 3, 4, 4];
        let mut accepted = 0;
        for s in interleaved {
            if matches!(q.offer(elem(1, s)), Offer::Accepted(_)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(q.duplicates_dropped(), 4);
    }

    #[test]
    fn multiple_streams_are_independent() {
        let mut q = InputQueue::new();
        q.register_stream(StreamId(1));
        q.register_stream(StreamId(2));
        q.offer(elem(1, 1));
        q.offer(elem(2, 1));
        q.offer(elem(2, 2));
        assert_eq!(q.pending_len(), 3);
        let positions = q.positions();
        assert_eq!(positions.len(), 2);
        assert_eq!(q.streams().count(), 2);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_stream_panics() {
        let mut q = InputQueue::new();
        q.offer(elem(7, 1));
    }
}
