//! The paged lineage table against a `BTreeMap` reference model.
//!
//! Random operation scripts (out-of-order inserts, both replicas producing
//! the same key, parents never recorded, ranges that cross page boundaries
//! or run far past anything recorded, seq 0 and sequence numbers many pages
//! up) are applied to [`LineageTable`] and to a map keyed by
//! `(stream, seq)` that spells out the first-writer-wins rules directly.
//! Every observable — `len`, `record` and `decompose` of each touched key,
//! and the delivery log — must agree.

use std::collections::{BTreeMap, BTreeSet};

use sps_sim::{SimRng, SimTime};
use sps_trace::{ElementKey, LineageTable, TupleRecord, SOURCE_PE};

const PAGE: u64 = LineageTable::PAGE_LEN as u64;

/// The reference: one map entry per recorded element.
#[derive(Default)]
struct Model {
    records: BTreeMap<ElementKey, TupleRecord>,
    delivered: Vec<(ElementKey, SimTime)>,
    sink_pos: BTreeMap<(u32, u32), u64>,
}

impl Model {
    fn insert_first(&mut self, key: ElementKey, record: TupleRecord) {
        self.records.entry(key).or_insert(record);
    }

    fn fresh(parent: Option<ElementKey>, origin: ElementKey, at: SimTime) -> TupleRecord {
        TupleRecord {
            parent,
            origin,
            pe: SOURCE_PE,
            replica: 0,
            depth: 0,
            emitted_at: at,
            sent_at: None,
            recv_at: None,
            proc_start_at: None,
            retransmits: 0,
        }
    }

    fn range(
        &mut self,
        stream: u32,
        start: u64,
        end: u64,
    ) -> impl Iterator<Item = &mut TupleRecord> {
        let r = if start <= end {
            Some(self.records.range_mut((stream, start)..=(stream, end)))
        } else {
            None
        };
        r.into_iter().flatten().map(|(_, v)| v)
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Root(key, at) => self.insert_first(key, Model::fresh(None, key, at)),
            Op::Hop {
                parent,
                key,
                pe,
                replica,
                at,
            } => {
                let (origin, depth) = match self.records.get(&parent) {
                    Some(p) => (p.origin, p.depth + 1),
                    None => (parent, 1),
                };
                let mut r = Model::fresh(Some(parent), origin, at);
                r.pe = pe;
                r.replica = replica;
                r.depth = depth;
                self.insert_first(key, r);
            }
            Op::Sent(key, at) => {
                if let Some(r) = self.records.get_mut(&key) {
                    r.sent_at.get_or_insert(at);
                }
            }
            Op::Recv(stream, start, end, at) => {
                for r in self.range(stream, start, end) {
                    r.recv_at.get_or_insert(at);
                }
            }
            Op::ProcStart(key, at) => {
                if let Some(r) = self.records.get_mut(&key) {
                    r.proc_start_at.get_or_insert(at);
                }
            }
            Op::Retransmit(stream, start, end) => {
                for r in self.range(stream, start, end) {
                    r.retransmits += 1;
                }
            }
            Op::Delivery(sink, stream, through, at) => {
                let pos = self.sink_pos.entry((sink, stream)).or_insert(0);
                while *pos < through {
                    *pos += 1;
                    self.delivered.push(((stream, *pos), at));
                }
            }
        }
    }

    /// The derivation chain of `key`, origin first, or `None` if any link
    /// is unrecorded.
    fn chain(&self, key: ElementKey) -> Option<Vec<(ElementKey, TupleRecord)>> {
        let mut chain = Vec::new();
        let mut cur = Some(key);
        while let Some(k) = cur {
            let r = *self.records.get(&k)?;
            chain.push((k, r));
            cur = r.parent;
        }
        chain.reverse();
        Some(chain)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Root(ElementKey, SimTime),
    Hop {
        parent: ElementKey,
        key: ElementKey,
        pe: u32,
        replica: u8,
        at: SimTime,
    },
    Sent(ElementKey, SimTime),
    Recv(u32, u64, u64, SimTime),
    ProcStart(ElementKey, SimTime),
    Retransmit(u32, u64, u64),
    Delivery(u32, u32, u64, SimTime),
}

impl Op {
    fn apply(&self, table: &mut LineageTable) {
        match *self {
            Op::Root(key, at) => table.record_root(key, at),
            Op::Hop {
                parent,
                key,
                pe,
                replica,
                at,
            } => table.record_hop(parent, key, pe, replica, at),
            Op::Sent(key, at) => table.note_sent(key, at),
            Op::Recv(stream, start, end, at) => table.note_recv_range(stream, start, end, at),
            Op::ProcStart(key, at) => table.note_proc_start(key, at),
            Op::Retransmit(stream, start, end) => table.mark_retransmit_range(stream, start, end),
            Op::Delivery(sink, stream, through, at) => {
                table.record_delivery(sink, stream, through, at)
            }
        }
    }
}

/// A sequence number: mostly near the start of a stream, often next to a
/// page boundary, sometimes 0 or many pages up.
fn seq(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 10) {
        0 => 0,
        1..=4 => rng.uniform_u64(1, 64),
        5..=7 => rng.uniform_u64(1, 4) * PAGE + rng.uniform_u64(0, 6) - 3,
        8 => rng.uniform_u64(1, 3 * PAGE),
        _ => rng.uniform_u64(20 * PAGE, 40 * PAGE),
    }
}

fn key(rng: &mut SimRng) -> ElementKey {
    (rng.uniform_u64(0, 4) as u32, seq(rng))
}

/// An inclusive range: short or page-crossing, occasionally empty
/// (`end < start`) or running to the end of the sequence space.
fn range(rng: &mut SimRng) -> (u32, u64, u64) {
    let (stream, start) = key(rng);
    let end = match rng.uniform_u64(0, 8) {
        0 => start.saturating_sub(1),
        1 => u64::MAX,
        2..=4 => start + rng.uniform_u64(0, 8),
        _ => start + rng.uniform_u64(0, 2 * PAGE + 10),
    };
    (stream, start, end)
}

fn script(rng: &mut SimRng) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut recorded: Vec<ElementKey> = Vec::new();
    for i in 0..rng.uniform_u64(50, 400) {
        let at = SimTime::from_micros(i * 10 + rng.uniform_u64(0, 10));
        // Mostly act on keys already recorded, so setters hit records.
        let known = |rng: &mut SimRng, recorded: &[ElementKey]| {
            if recorded.is_empty() || rng.chance(0.25) {
                key(rng)
            } else {
                recorded[rng.uniform_u64(0, recorded.len() as u64) as usize]
            }
        };
        let op = match rng.uniform_u64(0, 9) {
            0 | 1 => Op::Root(key(rng), at),
            2 | 3 => {
                // Either replica, parent recorded or not, key possibly
                // already recorded by the other replica. Children live on
                // a higher stream than their parent, as in a pipeline, so
                // derivation chains stay acyclic.
                let parent = known(rng, &recorded);
                let seq = if rng.chance(0.7) { parent.1 } else { seq(rng) };
                let key = (parent.0 + 1 + rng.uniform_u64(0, 2) as u32, seq);
                Op::Hop {
                    parent,
                    key,
                    pe: rng.uniform_u64(0, 8) as u32,
                    replica: rng.uniform_u64(0, 2) as u8,
                    at,
                }
            }
            4 => Op::Sent(known(rng, &recorded), at),
            5 => {
                let (stream, start, end) = range(rng);
                Op::Recv(stream, start, end, at)
            }
            6 => Op::ProcStart(known(rng, &recorded), at),
            7 => {
                let (stream, start, end) = range(rng);
                Op::Retransmit(stream, start, end)
            }
            _ => Op::Delivery(
                rng.uniform_u64(0, 2) as u32,
                rng.uniform_u64(0, 4) as u32,
                rng.uniform_u64(0, 80),
                at,
            ),
        };
        match op {
            Op::Root(k, _) | Op::Hop { key: k, .. } => recorded.push(k),
            _ => {}
        }
        ops.push(op);
    }
    ops
}

/// Keys whose observables are compared: every key a script names, and
/// each range's first and last sequence numbers.
fn touched(ops: &[Op]) -> BTreeSet<ElementKey> {
    let mut keys = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Root(k, _) | Op::Sent(k, _) | Op::ProcStart(k, _) => {
                keys.insert(k);
            }
            Op::Hop { parent, key, .. } => {
                keys.insert(parent);
                keys.insert(key);
            }
            Op::Recv(s, a, b, _) | Op::Retransmit(s, a, b) => {
                keys.insert((s, a));
                keys.insert((s, b));
            }
            Op::Delivery(..) => {}
        }
    }
    keys
}

#[test]
fn paged_table_matches_the_map_model() {
    let mut rng = SimRng::seed_from(0x11AE);
    let (mut records, mut far, mut crossing) = (0, 0, 0);
    for case in 0..200 {
        let ops = script(&mut rng);
        let mut table = LineageTable::new();
        let mut model = Model::default();
        for op in &ops {
            op.apply(&mut table);
            model.apply(op);
        }
        assert_eq!(table.len(), model.records.len(), "case {case}: len");
        assert_eq!(table.is_empty(), model.records.is_empty());
        for k in touched(&ops) {
            assert_eq!(table.record(k), model.records.get(&k), "case {case}: {k:?}");
            let hops = table.decompose(k).unwrap_or_default();
            let chain = model.chain(k).unwrap_or_default();
            assert_eq!(hops.len(), chain.len(), "case {case}: {k:?}");
            for (hop, (ck, cr)) in hops.iter().zip(chain) {
                assert_eq!(hop.key, ck, "case {case}");
                assert_eq!((hop.pe, hop.replica), (cr.pe, cr.replica));
                assert_eq!(hop.emitted_at, cr.emitted_at);
                assert_eq!(hop.retransmitted, cr.retransmits > 0);
            }
        }
        assert_eq!(table.delivered(), &model.delivered[..], "case {case}");
        records += model.records.len();
        far += model.records.keys().filter(|k| k.1 >= 20 * PAGE).count();
        crossing += ops
            .iter()
            .filter(|op| match **op {
                Op::Recv(_, a, b, _) | Op::Retransmit(_, a, b) => a / PAGE != b / PAGE,
                _ => false,
            })
            .count();
    }
    // The scripts reach what they are meant to reach.
    assert!(records > 10_000, "only {records} records");
    assert!(far > 500, "only {far} records many pages up");
    assert!(crossing > 1_000, "only {crossing} page-crossing ranges");
}
