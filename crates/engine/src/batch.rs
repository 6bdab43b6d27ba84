//! Batch-granular data-plane building blocks: range-stamped element
//! batches and the same-tick coalescing session.
//!
//! The paper's protocols track data only as per-stream sequence numbers
//! with cumulative acks, so one `(stream, seq_start..=seq_end)` range stamp
//! describes a run of any length. Real SPEs amortize per-message
//! bookkeeping by shipping contiguous runs under such a stamp (the
//! timely-dataflow session-per-timestamp idiom), and here a run of one is
//! just a batch. Two pieces make that work:
//!
//! * [`DataBatch`] — a contiguous run of same-stream elements carried by
//!   one data-plane message and identified by a single
//!   `(stream, seq_start..=seq_end)` range stamp;
//! * [`OutputSession`] — a reusable accumulator that coalesces
//!   same-destination, same-tick elements into maximal runs of at most
//!   `batch_size`, closing a run whenever the destination changes, the
//!   stream changes, the sequence is discontiguous, or the run is full.
//!
//! At `batch_size == 1` every `give` closes its own run, so the session
//! degenerates to exactly the one-element-per-message dispatch order, and
//! a one-element batch costs what a lone element did: the same wire bytes
//! and no heap allocation.

use crate::element::DataElement;

/// A contiguous run of same-stream elements shipped as one data-plane
/// message. Invariant: all elements share one stream and their sequence
/// numbers are consecutive, so the batch is fully identified by
/// `(stream, seq_start..=seq_end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBatch {
    run: Run,
}

/// The storage of a [`DataBatch`], chosen by run length: a lone element
/// stays inline so a one-element batch never touches the heap.
#[derive(Debug, Clone, PartialEq)]
enum Run {
    One(DataElement),
    Many(Box<[DataElement]>),
}

impl DataBatch {
    /// Builds a batch from a contiguous run of elements.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `run` is empty, spans streams, or has
    /// non-consecutive sequence numbers.
    pub fn from_run(run: &[DataElement]) -> DataBatch {
        debug_assert!(!run.is_empty(), "empty batch");
        debug_assert!(
            run.windows(2)
                .all(|w| w[1].stream == w[0].stream && w[1].seq == w[0].seq + 1),
            "batch run must be one stream of consecutive sequence numbers"
        );
        let run = match run {
            [elem] => Run::One(*elem),
            _ => Run::Many(run.into()),
        };
        DataBatch { run }
    }

    /// The shared stream of every element in the batch.
    pub fn stream(&self) -> crate::element::StreamId {
        self.elems()[0].stream
    }

    /// First sequence number of the range stamp.
    pub fn seq_start(&self) -> u64 {
        self.elems()[0].seq
    }

    /// Last sequence number of the range stamp (inclusive).
    pub fn seq_end(&self) -> u64 {
        self.elems()[self.len() - 1].seq
    }

    /// Number of elements in the batch.
    pub fn len(&self) -> usize {
        self.elems().len()
    }

    /// `true` if the batch carries no elements (never constructed, but the
    /// conventional pair to [`DataBatch::len`]).
    pub fn is_empty(&self) -> bool {
        self.elems().is_empty()
    }

    /// The elements, in sequence order.
    pub fn elems(&self) -> &[DataElement] {
        match &self.run {
            Run::One(elem) => std::slice::from_ref(elem),
            Run::Many(elems) => elems,
        }
    }

    /// Payload bytes summed over the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.elems().iter().map(|e| e.size_bytes as u64).sum()
    }
}

/// A reusable same-tick coalescing accumulator for the dispatch paths.
///
/// Producers `give` elements in transmission order; the session groups
/// them into maximal `(destination, contiguous seq run)` batches capped at
/// `batch_size`. The caller then walks `run_count()`/`run(i)` and sends
/// each run as one [`DataBatch`], whatever its length. `clear` retains
/// capacity, so a world-owned session allocates nothing in steady state.
#[derive(Debug)]
pub struct OutputSession<D> {
    batch_size: usize,
    elems: Vec<DataElement>,
    /// `(dest, start, end)` index ranges into `elems`.
    runs: Vec<(D, usize, usize)>,
}

impl<D> Default for OutputSession<D> {
    fn default() -> Self {
        OutputSession {
            batch_size: 1,
            elems: Vec::new(),
            runs: Vec::new(),
        }
    }
}

impl<D: Copy + PartialEq> OutputSession<D> {
    /// A session that coalesces up to `batch_size` elements per run.
    pub fn new(batch_size: u32) -> Self {
        let mut s = Self::default();
        s.set_batch_size(batch_size);
        s
    }

    /// The coalescing cap.
    pub fn batch_size(&self) -> u32 {
        self.batch_size as u32
    }

    /// Changes the coalescing cap (must be ≥ 1).
    pub fn set_batch_size(&mut self, batch_size: u32) {
        assert!(batch_size >= 1, "batch size must be >= 1");
        self.batch_size = batch_size as usize;
    }

    /// Appends one element bound for `dest`, extending the open run when
    /// the destination matches, the stream matches, the sequence number is
    /// consecutive, and the run is below the cap — otherwise closing it
    /// and opening a new one.
    pub fn give(&mut self, dest: D, elem: DataElement) {
        if let Some(last) = self.runs.last_mut() {
            let prev = self.elems[last.2 - 1];
            if last.0 == dest
                && last.2 - last.1 < self.batch_size
                && prev.stream == elem.stream
                && elem.seq == prev.seq + 1
            {
                self.elems.push(elem);
                last.2 += 1;
                return;
            }
        }
        let start = self.elems.len();
        self.elems.push(elem);
        self.runs.push((dest, start, start + 1));
    }

    /// Number of coalesced runs accumulated so far.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The `i`-th run as `(destination, elements)`, in give order.
    pub fn run(&self, i: usize) -> (D, &[DataElement]) {
        let (dest, start, end) = self.runs[i];
        (dest, &self.elems[start..end])
    }

    /// Total elements accumulated (across all runs).
    pub fn element_count(&self) -> usize {
        self.elems.len()
    }

    /// `true` when nothing has been given since the last clear.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Drops all accumulated runs, keeping capacity for reuse.
    pub fn clear(&mut self) {
        self.elems.clear();
        self.runs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::StreamId;
    use sps_sim::SimTime;

    fn elem(stream: u32, seq: u64) -> DataElement {
        DataElement {
            stream: StreamId(stream),
            seq,
            created_at: SimTime::ZERO,
            key: 0,
            value: 0.0,
            size_bytes: 256,
        }
    }

    #[test]
    fn batch_range_stamp() {
        let b = DataBatch::from_run(&[elem(3, 7), elem(3, 8), elem(3, 9)]);
        assert_eq!(b.stream(), StreamId(3));
        assert_eq!((b.seq_start(), b.seq_end()), (7, 9));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.payload_bytes(), 3 * 256);

        // A run of one is just a batch: the same stamp, one element.
        let one = DataBatch::from_run(&[elem(3, 7)]);
        assert_eq!(one.stream(), StreamId(3));
        assert_eq!((one.seq_start(), one.seq_end()), (7, 7));
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert_eq!(one.payload_bytes(), 256);
        assert_eq!(one.elems(), &[elem(3, 7)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "consecutive")]
    fn batch_rejects_sequence_gaps() {
        let _ = DataBatch::from_run(&[elem(0, 1), elem(0, 3)]);
    }

    #[test]
    fn session_at_batch_one_closes_every_run() {
        let mut s: OutputSession<u8> = OutputSession::new(1);
        s.give(0, elem(0, 1));
        s.give(0, elem(0, 2));
        s.give(1, elem(0, 3));
        assert_eq!(s.run_count(), 3, "every give is its own run at cap 1");
        for i in 0..3 {
            assert_eq!(s.run(i).1.len(), 1);
        }
    }

    #[test]
    fn session_coalesces_contiguous_same_dest_runs() {
        let mut s: OutputSession<u8> = OutputSession::new(4);
        for seq in 1..=5 {
            s.give(0, elem(0, seq)); // 5 elements: run of 4 + run of 1
        }
        s.give(1, elem(0, 6)); // destination change closes
        s.give(1, elem(0, 8)); // sequence gap closes
        s.give(1, elem(2, 9)); // stream change closes
        assert_eq!(s.run_count(), 5);
        assert_eq!(s.run(0).1.len(), 4);
        assert_eq!(s.run(1).1.len(), 1);
        assert_eq!((s.run(2).0, s.run(2).1.len()), (1, 1));
        assert_eq!(s.run(3).1[0].seq, 8);
        assert_eq!(s.run(4).1[0].stream, StreamId(2));
        assert_eq!(s.element_count(), 8);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.run_count(), 0);
    }

    #[test]
    fn session_preserves_give_order_across_runs() {
        let mut s: OutputSession<u8> = OutputSession::new(16);
        let order = [(0u8, 1u64), (0, 2), (1, 1), (1, 2), (0, 3)];
        for &(d, seq) in &order {
            s.give(d, elem(d as u32, seq));
        }
        let mut flat = Vec::new();
        for i in 0..s.run_count() {
            let (d, elems) = s.run(i);
            for e in elems {
                flat.push((d, e.seq));
            }
        }
        assert_eq!(flat, order);
    }
}
