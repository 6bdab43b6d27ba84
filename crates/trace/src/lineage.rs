//! Causal tuple lineage: a host-side table that records, for every logical
//! element `(stream, seq)`, who produced it (parent element, PE, replica)
//! and when it crossed each pipeline stage — emitted, first sent, first
//! received, first processing start — plus whether its transmission was
//! ever rewound (retransmitted).
//!
//! The table is keyed by *logical* element identity. Active-standby runs
//! both replicas over the same input, so primary and secondary produce the
//! same `(stream, seq)`; every setter is therefore first-writer-wins,
//! which makes each recorded time the minimum over replicas and keeps the
//! per-hop decomposition telescoping and monotone even when copies race.
//!
//! Like the tracer, lineage is pure observation: the simulator consults it
//! behind a single `Option` branch, it never draws randomness, and it
//! never feeds back into scheduling — enabling it cannot perturb a run.

use std::collections::BTreeMap;

use sps_sim::SimTime;

/// Logical identity of an element: `(stream id, sequence number)`. Both
/// replicas of an AS pair produce the same key for the same input.
pub type ElementKey = (u32, u64);

/// Sentinel "PE id" for elements produced by a source rather than a PE.
pub const SOURCE_PE: u32 = u32::MAX;

/// Everything the lineage table knows about one logical element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRecord {
    /// The input element this one was computed from (`None` for source
    /// elements).
    pub parent: Option<ElementKey>,
    /// The source element at the root of this element's derivation chain.
    pub origin: ElementKey,
    /// Producing PE id, or [`SOURCE_PE`] for source output.
    pub pe: u32,
    /// Replica code of the first producer observed (0 primary, 1 secondary).
    pub replica: u8,
    /// Hops from the origin element (0 for source output).
    pub depth: u32,
    /// When the element was produced (source generation or operator finish).
    pub emitted_at: SimTime,
    /// First time any copy left an output queue onto the network.
    pub sent_at: Option<SimTime>,
    /// First time any copy arrived at its consumer (PE input or sink).
    pub recv_at: Option<SimTime>,
    /// First time a consumer PE started processing it.
    pub proc_start_at: Option<SimTime>,
    /// How many times a send cursor was rewound over this element (0 means
    /// the first transmission was the only one).
    pub retransmits: u32,
}

impl TupleRecord {
    /// Whether this element's transmission was ever retried.
    pub fn retransmitted(&self) -> bool {
        self.retransmits > 0
    }
}

/// One edge of a delivered element's derivation chain, with the four time
/// components of that hop. Components telescope: when every stamp is
/// present, their sum over the chain equals delivery time minus origin
/// emission time exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopTiming {
    /// The element transmitted on this hop.
    pub key: ElementKey,
    /// The PE that produced it ([`SOURCE_PE`] for the root hop).
    pub pe: u32,
    /// Replica code of the first producer observed.
    pub replica: u8,
    /// When the element was produced.
    pub emitted_at: SimTime,
    /// Output-queue wait: production → first transmission.
    pub send_wait_ms: f64,
    /// Network flight: first transmission → first arrival.
    pub network_ms: f64,
    /// Consumer input-queue wait: arrival → processing start (0 for the
    /// final hop into a sink).
    pub queue_ms: f64,
    /// Operator processing: processing start → child emission (0 for the
    /// final hop).
    pub process_ms: f64,
    /// Whether this hop's transmission was ever rewound.
    pub retransmitted: bool,
}

impl HopTiming {
    /// Total attributed time on this hop, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.send_wait_ms + self.network_ms + self.queue_ms + self.process_ms
    }
}

fn ms_between(from: SimTime, to: SimTime) -> f64 {
    (to.as_nanos().saturating_sub(from.as_nanos())) as f64 / 1e6
}

/// The lineage table of one run. All mutation is first-writer-wins; see
/// the module docs for why that is exactly right under replication.
///
/// Records are stored densely by sequence number: output queues number
/// each stream from 1 upward, so stream id → page index → slot is three
/// array loads, with no search. A page of [`LineageTable::PAGE_LEN`] slots
/// is allocated the first time one of its sequence numbers is recorded; a
/// slot that was never written, or one on a page that was never allocated,
/// reads as absent. Pages bound the slack to one partly filled page per
/// stream and avoid the copy spikes of growing one array per stream.
///
/// The mutators are `#[inline(never)]`: the simulator calls them from its
/// hot handlers behind an `Option` branch, and inlining the table's code
/// there slowed lineage-off runs by ~6%.
#[derive(Debug, Clone, Default)]
pub struct LineageTable {
    /// `streams[stream][seq / PAGE_LEN]` holds `seq`'s record at slot
    /// `seq % PAGE_LEN`.
    streams: Vec<Vec<Option<Box<Page>>>>,
    /// Number of records written (occupied slots).
    len: usize,
    /// Sink-accepted elements in acceptance order: `(key, accepted_at)`.
    delivered: Vec<(ElementKey, SimTime)>,
    /// Per `(sink, stream)`: highest sequence already recorded delivered.
    sink_pos: BTreeMap<(u32, u32), u64>,
}

type Page = [Option<TupleRecord>; LineageTable::PAGE_LEN];

/// Page index and slot of `seq`, or `None` if the page index does not fit
/// in `usize` (such a page cannot exist).
fn page_slot(seq: u64) -> Option<(usize, usize)> {
    let len = LineageTable::PAGE_LEN as u64;
    let page = usize::try_from(seq / len).ok()?;
    Some((page, (seq % len) as usize))
}

impl LineageTable {
    /// Records per storage page. The table allocates one page per
    /// `PAGE_LEN` consecutive sequence numbers of a stream, on first use.
    pub const PAGE_LEN: usize = 1024;

    /// An empty table. Allocates nothing until the first record.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `key`, allocating its page (and growing the directories
    /// to reach it) if needed.
    fn slot_mut(&mut self, key: ElementKey) -> &mut Option<TupleRecord> {
        let (page, slot) = page_slot(key.1).expect("sequence number fits the address space");
        let stream = key.0 as usize;
        if stream >= self.streams.len() {
            self.streams.resize_with(stream + 1, Vec::new);
        }
        let pages = &mut self.streams[stream];
        if page >= pages.len() {
            pages.resize_with(page + 1, || None);
        }
        let page = pages[page].get_or_insert_with(|| {
            vec![None; Self::PAGE_LEN]
                .into_boxed_slice()
                .try_into()
                .expect("a PAGE_LEN-long slice")
        });
        &mut page[slot]
    }

    /// Writes `record` at `key` unless a record is already there.
    fn insert_first(&mut self, key: ElementKey, record: TupleRecord) {
        let slot = self.slot_mut(key);
        if slot.is_none() {
            *slot = Some(record);
            self.len += 1;
        }
    }

    fn get_mut(&mut self, key: ElementKey) -> Option<&mut TupleRecord> {
        let (page, slot) = page_slot(key.1)?;
        let page = self
            .streams
            .get_mut(key.0 as usize)?
            .get_mut(page)?
            .as_mut()?;
        page[slot].as_mut()
    }

    /// Applies `f` to every record in the inclusive range
    /// `seq_start..=seq_end` of `stream`, one page slice at a time.
    fn for_each_in_range(
        &mut self,
        stream: u32,
        seq_start: u64,
        seq_end: u64,
        mut f: impl FnMut(&mut TupleRecord),
    ) {
        let Some(pages) = self.streams.get_mut(stream as usize) else {
            return;
        };
        let len = Self::PAGE_LEN as u64;
        let mut seq = seq_start;
        while seq <= seq_end {
            let Some((page, first)) = page_slot(seq) else {
                return;
            };
            if page >= pages.len() {
                return; // every later page is unallocated too
            }
            let last = seq_end.min(seq - first as u64 + (len - 1));
            if let Some(records) = pages[page].as_mut() {
                let slots = &mut records[first..=first + (last - seq) as usize];
                slots.iter_mut().flatten().for_each(&mut f);
            }
            match last.checked_add(1) {
                Some(next) => seq = next,
                None => return,
            }
        }
    }

    /// Registers a source-produced element (no-op if already known).
    #[inline(never)]
    pub fn record_root(&mut self, key: ElementKey, emitted_at: SimTime) {
        self.insert_first(
            key,
            TupleRecord {
                parent: None,
                origin: key,
                pe: SOURCE_PE,
                replica: 0,
                depth: 0,
                emitted_at,
                sent_at: None,
                recv_at: None,
                proc_start_at: None,
                retransmits: 0,
            },
        );
    }

    /// Registers an operator-produced element derived from `parent`
    /// (no-op if already known — the other replica got here first).
    #[inline(never)]
    pub fn record_hop(
        &mut self,
        parent: ElementKey,
        key: ElementKey,
        pe: u32,
        replica: u8,
        emitted_at: SimTime,
    ) {
        let (origin, depth) = match self.record(parent) {
            Some(p) => (p.origin, p.depth + 1),
            // Parent unseen (lineage enabled mid-run): anchor at the parent.
            None => (parent, 1),
        };
        self.insert_first(
            key,
            TupleRecord {
                parent: Some(parent),
                origin,
                pe,
                replica,
                depth,
                emitted_at,
                sent_at: None,
                recv_at: None,
                proc_start_at: None,
                retransmits: 0,
            },
        );
    }

    /// Records the first transmission time of `key` (later copies no-op).
    #[inline(never)]
    pub fn note_sent(&mut self, key: ElementKey, at: SimTime) {
        if let Some(r) = self.get_mut(key) {
            if r.sent_at.is_none() {
                r.sent_at = Some(at);
            }
        }
    }

    /// Records the first arrival time of every element in the inclusive
    /// sequence range `seq_start..=seq_end` of `stream` (later copies
    /// no-op) — how a range-stamped batch expands to per-tuple stamps. The
    /// expansion stays lazy on the batch side: the batch carries one
    /// stamp, and only this table fans it out.
    #[inline(never)]
    pub fn note_recv_range(&mut self, stream: u32, seq_start: u64, seq_end: u64, at: SimTime) {
        self.for_each_in_range(stream, seq_start, seq_end, |r| {
            if r.recv_at.is_none() {
                r.recv_at = Some(at);
            }
        });
    }

    /// Records the first processing start of `key` (later copies no-op).
    #[inline(never)]
    pub fn note_proc_start(&mut self, key: ElementKey, at: SimTime) {
        if let Some(r) = self.get_mut(key) {
            if r.proc_start_at.is_none() {
                r.proc_start_at = Some(at);
            }
        }
    }

    /// Counts one send-cursor rewind over every element in the inclusive
    /// sequence range `seq_start..=seq_end` of `stream` (a rewound send
    /// cursor covers a contiguous run; under batching the resend splits on
    /// the acked boundary but the rewind itself is still one range). The
    /// decomposition exposes this as a single boolean flag per hop
    /// regardless of retry count.
    #[inline(never)]
    pub fn mark_retransmit_range(&mut self, stream: u32, seq_start: u64, seq_end: u64) {
        self.for_each_in_range(stream, seq_start, seq_end, |r| r.retransmits += 1);
    }

    /// Records that sink `sink` has accepted stream `stream` through
    /// sequence `through` (inclusive) at time `at`. Newly covered
    /// sequences are appended to the delivery log exactly once.
    pub fn record_delivery(&mut self, sink: u32, stream: u32, through: u64, at: SimTime) {
        let pos = self.sink_pos.entry((sink, stream)).or_insert(0);
        while *pos < through {
            *pos += 1;
            self.delivered.push(((stream, *pos), at));
        }
    }

    /// The record for one element, if known.
    pub fn record(&self, key: ElementKey) -> Option<&TupleRecord> {
        let (page, slot) = page_slot(key.1)?;
        let page = self.streams.get(key.0 as usize)?.get(page)?.as_ref()?;
        page[slot].as_ref()
    }

    /// Number of elements tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sink-accepted elements in acceptance order.
    pub fn delivered(&self) -> &[(ElementKey, SimTime)] {
        &self.delivered
    }

    /// The derivation chain of `key` from the origin element down to `key`
    /// itself, one [`HopTiming`] per element. Returns `None` if `key` is
    /// unknown. Missing stamps (element never sent/processed) contribute
    /// zero to the affected components.
    pub fn decompose(&self, key: ElementKey) -> Option<Vec<HopTiming>> {
        let mut chain = Vec::new();
        let mut cur = Some(key);
        while let Some(k) = cur {
            let r = self.record(k)?;
            chain.push((k, *r));
            cur = r.parent;
            // The parent chain is acyclic by construction (children are
            // registered after their parent, keyed by unique (stream, seq)),
            // but guard against pathological inputs anyway.
            if chain.len() > 1_000_000 {
                return None;
            }
        }
        chain.reverse();
        let mut hops = Vec::with_capacity(chain.len());
        for (i, &(k, r)) in chain.iter().enumerate() {
            let sent = r.sent_at.unwrap_or(r.emitted_at);
            let recv = r.recv_at.unwrap_or(sent);
            // Queue + process time materialize on the *consumer* side: they
            // end at this element's processing start and the next element's
            // emission. The final chain element terminates at a sink, which
            // has no processing stage.
            let (queue_ms, process_ms) = match chain.get(i + 1) {
                Some(&(_, next)) => {
                    let start = r.proc_start_at.unwrap_or(recv);
                    (ms_between(recv, start), ms_between(start, next.emitted_at))
                }
                None => (0.0, 0.0),
            };
            hops.push(HopTiming {
                key: k,
                pe: r.pe,
                replica: r.replica,
                emitted_at: r.emitted_at,
                send_wait_ms: ms_between(r.emitted_at, sent),
                network_ms: ms_between(sent, recv),
                queue_ms,
                process_ms,
                retransmitted: r.retransmits > 0,
            });
        }
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn setters_are_first_writer_wins() {
        let mut l = LineageTable::new();
        l.record_root((0, 1), t(10));
        l.note_sent((0, 1), t(12));
        l.note_sent((0, 1), t(99)); // secondary copy later: ignored
        l.note_recv_range(0, 1, 1, t(14));
        l.note_recv_range(0, 1, 1, t(13)); // still first-writer, not
                                           // min-writer: arrival order is
                                           // sim order, so the first
                                           // writer IS the earliest.
        let r = l.record((0, 1)).unwrap();
        assert_eq!(r.sent_at, Some(t(12)));
        assert_eq!(r.recv_at, Some(t(14)));
        l.record_root((0, 1), t(99));
        assert_eq!(l.record((0, 1)).unwrap().emitted_at, t(10));
    }

    #[test]
    fn decompose_telescopes_across_hops() {
        let mut l = LineageTable::new();
        // source elem (0,5): emitted 0, sent 1, recv 3, proc start 4
        l.record_root((0, 5), t(0));
        l.note_sent((0, 5), t(1));
        l.note_recv_range(0, 5, 5, t(3));
        l.note_proc_start((0, 5), t(4));
        // PE 7 produces (1,5) at 6; sent 6, recv 9 (arrives at sink)
        l.record_hop((0, 5), (1, 5), 7, 0, t(6));
        l.note_sent((1, 5), t(6));
        l.note_recv_range(1, 5, 5, t(9));
        l.record_delivery(0, 1, 4, t(8));
        l.record_delivery(0, 1, 5, t(9));

        let hops = l.decompose((1, 5)).unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].key, (0, 5));
        assert_eq!(hops[0].pe, SOURCE_PE);
        assert_eq!(hops[0].send_wait_ms, 1.0);
        assert_eq!(hops[0].network_ms, 2.0);
        assert_eq!(hops[0].queue_ms, 1.0);
        assert_eq!(hops[0].process_ms, 2.0);
        assert_eq!(hops[1].key, (1, 5));
        assert_eq!(hops[1].network_ms, 3.0);
        let total: f64 = hops.iter().map(|h| h.total_ms()).sum();
        // Telescoping: totals sum to recv(last) - emitted(origin) = 9ms.
        assert_eq!(total, 9.0);
        // `through` is cumulative: the t(8) ack covers 1..=4, t(9) adds 5.
        assert_eq!(l.delivered().len(), 5);
        assert_eq!(l.delivered().last(), Some(&((1, 5), t(9))));
    }

    #[test]
    fn delivery_log_covers_each_sequence_once() {
        let mut l = LineageTable::new();
        for s in 1..=4 {
            l.record_root((2, s), t(s));
        }
        l.record_delivery(0, 2, 2, t(10));
        l.record_delivery(0, 2, 2, t(11)); // duplicate ack: no-op
        l.record_delivery(0, 2, 4, t(12)); // gap fill covers 3 and 4
        let seqs: Vec<u64> = l.delivered().iter().map(|((_, s), _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn range_stamps_expand_to_per_tuple_records() {
        let mut l = LineageTable::new();
        for s in 1..=5 {
            l.record_root((3, s), t(s));
        }
        l.note_recv_range(3, 2, 4, t(12));
        l.mark_retransmit_range(3, 3, 4);
        assert_eq!(l.record((3, 1)).unwrap().recv_at, None, "outside range");
        for s in 2..=4 {
            let r = l.record((3, s)).unwrap();
            assert_eq!(r.recv_at, Some(t(12)));
            assert_eq!(r.retransmitted(), s >= 3);
        }
        // Range stamps are first-writer-wins per tuple.
        l.note_recv_range(3, 1, 5, t(20));
        assert_eq!(l.record((3, 2)).unwrap().recv_at, Some(t(12)));
        assert_eq!(l.record((3, 5)).unwrap().recv_at, Some(t(20)));
        // A one-element range touches exactly that element.
        l.record_root((3, 6), t(6));
        l.note_recv_range(3, 6, 6, t(30));
        l.mark_retransmit_range(3, 6, 6);
        assert_eq!(l.record((3, 6)).unwrap().recv_at, Some(t(30)));
        assert_eq!(l.record((3, 5)).unwrap().recv_at, Some(t(20)));
        assert!(l.record((3, 6)).unwrap().retransmitted());
        assert!(!l.record((3, 2)).unwrap().retransmitted());
    }

    #[test]
    fn retransmit_marks_accumulate_but_flag_once() {
        let mut l = LineageTable::new();
        l.record_root((0, 1), t(0));
        l.note_sent((0, 1), t(1));
        l.mark_retransmit_range(0, 1, 1);
        l.mark_retransmit_range(0, 1, 1);
        let r = l.record((0, 1)).unwrap();
        assert_eq!(r.retransmits, 2);
        assert!(r.retransmitted());
        let hops = l.decompose((0, 1)).unwrap();
        assert_eq!(hops.iter().filter(|h| h.retransmitted).count(), 1);
    }
}
