//! Data-plane handlers: source generation, CPU-task completion routing,
//! element delivery, and acknowledgment processing.

use sps_cluster::{LoadComponent, MachineId};
use sps_engine::{ConnectionId, DataElement, Dest, Offer, OutputQueue, Replica, StreamId};
use sps_metrics::{MsgClass, Scope};
use sps_sim::{Ctx, SimTime, TimerGen};
use sps_trace::{DropReason, TraceEvent};

use crate::message::{Msg, ProducerAddr};
use crate::world::{replica_code, slot_of, unslot, Event, HaWorld, SjState, TaskTag};

/// The `pe` field of trace events emitted for a source (sources have no
/// PE id).
const TRACE_SOURCE_PE: u32 = u32::MAX;

/// World-owned buffers that serve every dispatch: one element buffer, with
/// spans remembering which slice belongs to which destination, plus the
/// connection and port lists. Emptied before every return, so the
/// steady-state loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct DispatchScratch {
    /// Elements drained from a hop's output connections.
    elems: Vec<DataElement>,
    /// `(dest, start, end)` spans into `elems`, one per drained connection.
    spans: Vec<(Dest, usize, usize)>,
    /// `(port, conn, dest)` of the hop's connections that need a drain.
    conns: Vec<(usize, usize, Dest)>,
    /// The pending output ports taken from the instance being dispatched.
    ports: Vec<usize>,
}

impl DispatchScratch {
    fn clear(&mut self) {
        self.elems.clear();
        self.spans.clear();
        self.conns.clear();
        self.ports.clear();
    }
}

impl HaWorld {
    // ---- sending and machine plumbing ----

    /// Sends `msg` from `src` to `dst`, scheduling its delivery. Only
    /// inter-machine traffic is counted (intra-machine hand-off is free in
    /// the paper's overhead metric). Lost sends emit a [`TraceEvent::NetDrop`]
    /// and chaos-duplicated sends schedule a second delivery.
    pub(crate) fn send_msg(
        &mut self,
        ctx: &mut Ctx<Event>,
        src: MachineId,
        dst: MachineId,
        msg: Msg,
        class: MsgClass,
        elements: u64,
    ) {
        let bytes = msg.wire_bytes(self.cfg.element_bytes);
        let delivery = self.cluster.network_mut().send(ctx.now(), src, dst, bytes);
        let Some(at) = delivery.time() else {
            // Partitioned links never reach the chaos draws, so any drop on
            // a partitioned pair is the partition's.
            let chaos = !self.cluster.network().is_partitioned(src, dst);
            self.tracer.emit(
                ctx.now(),
                TraceEvent::NetDrop {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                    chaos,
                },
            );
            return;
        };
        if src != dst {
            self.counters.record(class, elements);
        }
        // Queue-depth accounting is in logical elements: a data delivery is
        // one event carrying `batch.len()` elements in flight. Every other
        // message weighs 1, so batch size 1 matches the unweighted
        // accounting exactly.
        let weight = match &msg {
            Msg::DataBatch { batch, .. } => batch.len() as u64,
            _ => 1,
        };
        if let Some(second) = delivery.duplicate_time() {
            self.tracer.emit(
                ctx.now(),
                TraceEvent::NetDuplicate {
                    src: src.0,
                    dst: dst.0,
                    bytes,
                },
            );
            ctx.schedule_at_weighted(
                second,
                Event::Deliver {
                    to: dst,
                    msg: msg.clone(),
                },
                weight,
            );
        }
        ctx.schedule_at_weighted(at, Event::Deliver { to: dst, msg }, weight);
    }

    /// Sends a control-plane message under the reliable layer when it is
    /// enabled: assigns a transmission id, records it in flight, and arms
    /// the retransmission timer. Loopback sends (and runs without
    /// [`crate::HaConfig::reliable_control`]) bypass the envelope.
    pub(crate) fn send_reliable(
        &mut self,
        ctx: &mut Ctx<Event>,
        src: MachineId,
        dst: MachineId,
        msg: Msg,
        class: MsgClass,
        elements: u64,
    ) {
        if !self.cfg.reliable_control || src == dst {
            self.send_msg(ctx, src, dst, msg, class, elements);
            return;
        }
        let tx = self.rel_next_tx;
        self.rel_next_tx += 1;
        self.rel_inflight.insert(
            tx,
            crate::world::RelPending {
                src,
                dst,
                msg: msg.clone(),
                class,
                attempt: 0,
            },
        );
        self.send_msg(
            ctx,
            src,
            dst,
            Msg::Reliable {
                tx,
                from: src,
                inner: Box::new(msg),
            },
            class,
            elements,
        );
        ctx.schedule_in(self.cfg.rel_rto_initial, Event::RelRetransmit { tx });
    }

    /// A reliable message's retransmission timer fired: resend with
    /// exponential backoff unless it was acknowledged, its sender died, its
    /// payload went stale, or the retry budget ran out.
    pub(crate) fn on_rel_retransmit(&mut self, ctx: &mut Ctx<Event>, tx: u64) {
        let Some(pending) = self.rel_inflight.get(&tx) else {
            return; // acknowledged (or already cancelled)
        };
        let give_up = pending.attempt >= self.cfg.rel_max_retries
            || !self.cluster.machine(pending.src).is_up()
            || self.rel_payload_is_stale(&pending.msg);
        if give_up {
            self.rel_inflight.remove(&tx);
            return;
        }
        let (src, dst, msg, class, attempt) = {
            let p = self.rel_inflight.get_mut(&tx).expect("checked above");
            p.attempt += 1;
            (p.src, p.dst, p.msg.clone(), p.class, p.attempt)
        };
        self.tracer.emit(
            ctx.now(),
            TraceEvent::Retransmit {
                src: src.0,
                dst: dst.0,
                tx,
                attempt,
            },
        );
        // Retransmissions carry no *new* elements: the overhead metric
        // counts each logical transfer once (the network byte counters
        // still see every attempt).
        self.send_msg(
            ctx,
            src,
            dst,
            Msg::Reliable {
                tx,
                from: src,
                inner: Box::new(msg),
            },
            class,
            0,
        );
        let mut rto = self.cfg.rel_rto_initial * (1u64 << attempt.min(16));
        if rto > self.cfg.rel_rto_max {
            rto = self.cfg.rel_rto_max;
        }
        ctx.schedule_in(rto, Event::RelRetransmit { tx });
    }

    /// `true` when a reliable payload's epoch guard says the protocol moved
    /// on (a role change makes retransmitting it pointless).
    fn rel_payload_is_stale(&self, msg: &Msg) -> bool {
        match msg {
            Msg::Checkpoint { subjob, epoch, .. }
            | Msg::CheckpointStored { subjob, epoch, .. }
            | Msg::StateRead { subjob, epoch, .. } => {
                self.subjobs[subjob.0 as usize].is_stale(*epoch)
            }
            _ => false,
        }
    }

    /// A reliable envelope arrived: always (re-)acknowledge — the previous
    /// ack may itself have been lost — and process the payload only on its
    /// first arrival.
    fn on_reliable(
        &mut self,
        ctx: &mut Ctx<Event>,
        to: MachineId,
        from: MachineId,
        tx: u64,
        inner: Msg,
    ) {
        self.send_msg(ctx, to, from, Msg::RelAck { tx }, MsgClass::Ack, 0);
        if !self.rel_seen.insert(tx) {
            return; // retransmission or chaos duplicate of a processed tx
        }
        self.on_deliver(ctx, to, inner);
    }

    /// Re-arms a machine's completion timer after any change to its task
    /// set or load.
    pub(crate) fn rearm_machine(&mut self, ctx: &mut Ctx<Event>, machine: MachineId) {
        let idx = machine.0 as usize;
        match self.cluster.machine(machine).next_completion() {
            Some(at) => {
                let gen = self.machine_timers[idx].arm();
                ctx.schedule_at(
                    at.max(ctx.now()),
                    Event::MachineTick {
                        machine: machine.0,
                        gen,
                    },
                );
            }
            None => self.machine_timers[idx].cancel(),
        }
    }

    /// Submits CPU work to a machine and re-arms its timer.
    pub(crate) fn submit_task(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: MachineId,
        demand_secs: f64,
        tag: TaskTag,
    ) {
        let submitted =
            self.cluster
                .machine_mut(machine)
                .submit(ctx.now(), demand_secs, tag.encode());
        if submitted.is_some() {
            self.rearm_machine(ctx, machine);
        }
    }

    /// A rolling estimate of a machine's recent utilization — an
    /// exponentially weighted load average, like the OS statistic a real
    /// scheduler's latency tracks. Smoothing matters: a half-second burst
    /// that transiently saturates the CPU must not look like a sustained
    /// load spike, or heartbeat false alarms become far more frequent than
    /// the once-per-tens-of-minutes the paper reports.
    pub(crate) fn estimate_load(&mut self, now: sps_sim::SimTime, machine: MachineId) -> f64 {
        const ALPHA: f64 = 0.5;
        self.cluster.machine_mut(machine).advance(now);
        let busy = self.cluster.machine(machine).busy_integral();
        let (last_t, last_busy, est) = self.load_est[machine.0 as usize];
        let dt = now.saturating_since(last_t).as_secs_f64();
        if dt < 0.01 {
            return est; // window too small; reuse the previous estimate
        }
        let util = ((busy - last_busy) / dt).clamp(0.0, 1.0);
        let ewma = (1.0 - ALPHA) * est + ALPHA * util;
        self.load_est[machine.0 as usize] = (now, busy, ewma);
        ewma
    }

    /// Submits a latency-sensitive task (heartbeat reply, benchmark probe)
    /// after an OS wake-up delay sampled from the machine's current load.
    ///
    /// The delay's median is scaled by the *foreign* fraction of that load
    /// (spikes, jitter, co-located apps): a machine saturated purely by its
    /// own two or three stream-processing threads has a short run queue and
    /// still schedules a tiny responder promptly, while a load-spike
    /// program's thread herd starves it — the distinction that lets the
    /// hybrid roll back while the primary is still draining backlog.
    pub(crate) fn submit_latency_sensitive(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: MachineId,
        demand_secs: f64,
        tag: TaskTag,
    ) {
        let load = self.estimate_load(ctx.now(), machine);
        let foreign = self.cluster.machine(machine).background_share();
        let foreign_frac = (foreign / load.max(foreign).max(1e-6)).clamp(0.0, 1.0);
        let median = self.cfg.sched_latency.median_at(load).mul_f64(foreign_frac);
        let delay = self
            .cfg
            .sched_latency
            .clone()
            .sample_with_median(ctx.rng(), median);
        if delay.is_zero() {
            self.submit_task(ctx, machine, demand_secs, tag);
        } else {
            ctx.schedule_in(
                delay,
                Event::SubmitTask {
                    machine: machine.0,
                    demand_secs,
                    tag: tag.encode(),
                },
            );
        }
    }

    /// Starts the next batch of up to `batch_size` elements on an instance
    /// if its loop can run (a single element at the default batch size 1).
    pub(crate) fn try_start(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let machine = self.instance_machine[slot];
        if !self.cluster.machine(machine).is_up() {
            return;
        }
        let epoch = self.inst_epoch[slot];
        let batch = self.cfg.batch_size;
        let work = match self.instances[slot]
            .as_mut()
            .and_then(|i| i.start_next_batch(batch))
        {
            Some(w) => w,
            None => return,
        };
        if let Some(lin) = self.lineage.as_deref_mut() {
            // The batch only starts on an empty in-flight set, so every
            // in-flight element was started just now.
            let now = ctx.now();
            for e in self.instances[slot]
                .as_ref()
                .expect("started")
                .inflight_elems()
            {
                lin.note_proc_start((e.stream.0, e.seq), now);
            }
        }
        self.submit_task(
            ctx,
            machine,
            work.demand_secs,
            TaskTag::PeWork { slot, epoch },
        );
    }

    // ---- source generation ----

    pub(crate) fn on_source_tick(&mut self, ctx: &mut Ctx<Event>, source: u32, gen: TimerGen) {
        let s = source as usize;
        if !self.source_timers[s].fire(gen) {
            return;
        }
        if !self.sources[s].is_running() {
            return;
        }
        // Under batching a tick produces `batch_size` elements and the next
        // tick moves out proportionally, preserving the configured rate
        // (one element per `gap` on average). At batch size 1 this is one
        // generate and one gap draw per tick — the unbatched schedule.
        for _ in 0..self.cfg.batch_size {
            self.sources[s].generate(ctx.now(), ctx.rng());
        }
        self.dispatch_source_outputs(ctx, s);
        let gap = self.sources[s].next_gap(ctx.now(), ctx.rng()) * self.cfg.batch_size as u64;
        let g = self.source_timers[s].arm();
        ctx.schedule_in(gap, Event::SourceTick { source, gen: g });
    }

    /// Drains every sendable connection of a source's queue and transmits.
    pub(crate) fn dispatch_source_outputs(&mut self, ctx: &mut Ctx<Event>, s: usize) {
        let src_machine = self.placement.sources[s];
        let mut sc = std::mem::take(&mut self.dispatch_scratch);
        // A partition-held backlog needs no note: every source tick
        // dispatches again.
        self.collect_sendable(self.sources[s].queue(), 0, src_machine, &mut sc.conns);
        let sender = (TRACE_SOURCE_PE, 0);
        for &(_, ci, dest) in &sc.conns {
            let start = sc.elems.len();
            self.sources[s]
                .queue_mut()
                .drain_sendable_into(ConnectionId(ci), &mut sc.elems);
            self.record_drained(ctx.now(), sender, dest, start, &sc.elems, &mut sc.spans);
        }
        if let Some(lin) = self.lineage.as_deref_mut() {
            // Roots enter the lineage here: a source element's emission is
            // its creation, its first drain is its first transmission.
            // Re-drains after a rewind and the AS second connection both
            // no-op (first-writer-wins).
            let now = ctx.now();
            for e in &sc.elems {
                lin.record_root((e.stream.0, e.seq), e.created_at);
                lin.note_sent((e.stream.0, e.seq), now);
            }
        }
        self.transmit_spans(ctx, src_machine, false, &sc.elems, &sc.spans);
        sc.clear();
        self.dispatch_scratch = sc;
    }

    /// Appends `(port, connection, dest)` for every connection of `q` that
    /// needs a drain and whose link from `src` is up. Idle connections are
    /// skipped before any lookup. A partitioned link behaves like a
    /// stalled TCP connection: its cursor stays put and the backlog flows
    /// at the first dispatch after the heal. Returns `true` if a partition
    /// held back such a backlog.
    #[inline]
    fn collect_sendable(
        &self,
        q: &OutputQueue<Dest>,
        port: usize,
        src: MachineId,
        conns: &mut Vec<(usize, usize, Dest)>,
    ) -> bool {
        let mut held = false;
        for ci in 0..q.connections().len() {
            if !q.needs_drain(ConnectionId(ci)) {
                continue;
            }
            let dest = q.connection(ConnectionId(ci)).dest;
            if self
                .cluster
                .network()
                .is_partitioned(src, self.dest_machine(dest))
            {
                held = true;
            } else {
                conns.push((port, ci, dest));
            }
        }
        held
    }

    /// Traces one connection's drain — the elements `elems[start..]`, sent
    /// by `sender` (trace `pe`, `replica`) — and records its span for
    /// [`HaWorld::transmit_spans`]. A drain that only pulled a cursor back
    /// to the head appended nothing and records nothing.
    #[inline]
    fn record_drained(
        &mut self,
        now: SimTime,
        sender: (u32, u8),
        dest: Dest,
        start: usize,
        elems: &[DataElement],
        spans: &mut Vec<(Dest, usize, usize)>,
    ) {
        let Some(last) = elems[start..].last() else {
            return;
        };
        let (pe, replica) = sender;
        let (stream, last_seq, n) = (last.stream.0, last.seq, (elems.len() - start) as u32);
        self.tracer.emit_data(now, || TraceEvent::ElementSend {
            pe,
            replica,
            stream,
            elements: n,
            last_seq,
        });
        spans.push((dest, start, elems.len()));
    }

    /// Transmits the drained spans through the world's [`OutputSession`]:
    /// same-destination contiguous runs coalesce into one range-stamped
    /// batch per delivery, capped at `batch_size`. At batch size 1 every
    /// run is one element, so the transmission sequence is exactly the
    /// unbatched one.
    ///
    /// [`OutputSession`]: sps_engine::OutputSession
    fn transmit_spans(
        &mut self,
        ctx: &mut Ctx<Event>,
        src_machine: MachineId,
        produced_by_secondary: bool,
        elems: &[DataElement],
        spans: &[(Dest, usize, usize)],
    ) {
        let mut session = std::mem::take(&mut self.session_scratch);
        for &(dest, start, end) in spans {
            for &elem in &elems[start..end] {
                session.give(dest, elem);
            }
        }
        for i in 0..session.run_count() {
            let (dest, run) = session.run(i);
            self.send_data(ctx, src_machine, produced_by_secondary, dest, run);
        }
        session.clear();
        self.session_scratch = session;
    }

    /// Transmits a contiguous run of elements as one range-stamped
    /// [`Msg::DataBatch`], classifying redundant copies and accounting the
    /// hybrid's switch-over overhead (elements still sent to the suspected
    /// primary, Fig 10).
    fn send_data(
        &mut self,
        ctx: &mut Ctx<Event>,
        src_machine: MachineId,
        produced_by_secondary: bool,
        dest: Dest,
        run: &[DataElement],
    ) {
        let dst = self.dest_machine(dest);
        let n = run.len() as u64;
        let mut class = if produced_by_secondary {
            MsgClass::DupData
        } else {
            MsgClass::Data
        };
        if let Dest::Pe { inst, .. } = dest {
            if inst.replica == Replica::Secondary {
                class = MsgClass::DupData;
            }
            let sj = &mut self.subjobs[self.job.subjob_of(inst.pe).0 as usize];
            if sj.state == SjState::SwitchedOver && dst == sj.primary_machine && src_machine != dst
            {
                sj.switch_overhead_elements += n;
            }
        }
        self.metric_inc(
            Scope::machine("data_plane", src_machine.0),
            "elements_sent",
            n,
        );
        self.send_msg(
            ctx,
            src_machine,
            dst,
            Msg::DataBatch {
                to: dest,
                batch: sps_engine::DataBatch::from_run(run),
            },
            class,
            n,
        );
    }

    /// Drains every sendable connection of an instance's pending output
    /// ports, in ascending port order, and transmits the new elements. The
    /// cost follows the ports that produced or were rewound, not the port
    /// count: a router's element visits one of its thousands of ports.
    pub(crate) fn dispatch_outputs(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let (pe, replica) = unslot(slot);
        let src_machine = self.instance_machine[slot];
        let Some(inst) = self.instances[slot].as_mut() else {
            return;
        };
        let mut sc = std::mem::take(&mut self.dispatch_scratch);
        inst.take_pending_ports(&mut sc.ports);
        #[cfg(debug_assertions)]
        assert_no_unlisted_backlog(inst, &sc.ports);
        let inst = self.instances[slot].as_ref().expect("checked");
        // Keep only the ports a partition held back, and put them back in
        // the pending set.
        sc.ports.retain(|&port| {
            self.collect_sendable(inst.output(port), port, src_machine, &mut sc.conns)
        });
        let inst = self.instances[slot].as_mut().expect("checked");
        for &port in &sc.ports {
            inst.mark_pending(port);
        }
        let sender = (pe.0, replica_code(replica));
        for &(port, ci, dest) in &sc.conns {
            let start = sc.elems.len();
            self.instances[slot]
                .as_mut()
                .expect("checked")
                .drain_sendable_into(port, ConnectionId(ci), &mut sc.elems);
            self.record_drained(ctx.now(), sender, dest, start, &sc.elems, &mut sc.spans);
        }
        if let Some(lin) = self.lineage.as_deref_mut() {
            // Hop records were created when the producing element finished;
            // checkpoint-restored elements with no record no-op here.
            let now = ctx.now();
            for e in &sc.elems {
                lin.note_sent((e.stream.0, e.seq), now);
            }
        }
        let produced_by_secondary = replica == Replica::Secondary;
        self.transmit_spans(
            ctx,
            src_machine,
            produced_by_secondary,
            &sc.elems,
            &sc.spans,
        );
        sc.clear();
        self.dispatch_scratch = sc;
    }

    // ---- machine tick: CPU task completions ----

    pub(crate) fn on_machine_tick(&mut self, ctx: &mut Ctx<Event>, machine: u32, gen: TimerGen) {
        let m = MachineId(machine);
        if !self.machine_timers[machine as usize].fire(gen) {
            return;
        }
        self.cluster.machine_mut(m).advance(ctx.now());
        // Reused world scratch: completions fire once per task — the
        // steady-state hot path — so the buffer must not allocate.
        let mut finished = std::mem::take(&mut self.task_scratch);
        self.cluster
            .machine_mut(m)
            .collect_finished_into(&mut finished);
        for task in &finished {
            match TaskTag::decode(task.tag) {
                TaskTag::PeWork { slot, epoch } => self.on_pe_work_done(ctx, slot, epoch),
                TaskTag::HeartbeatReply { monitor, seq } => {
                    self.on_heartbeat_reply_done(ctx, m, monitor, seq)
                }
                TaskTag::Benchmark { det } => self.on_benchmark_done(ctx, det),
            }
        }
        finished.clear();
        self.task_scratch = finished;
        self.rearm_machine(ctx, m);
    }

    fn on_pe_work_done(&mut self, ctx: &mut Ctx<Event>, slot: usize, epoch: u32) {
        if self.inst_epoch[slot] != epoch || self.instances[slot].is_none() {
            return; // stale completion from before a restore/redeploy
        }
        if !self.instances[slot]
            .as_ref()
            .expect("checked")
            .has_inflight()
        {
            return;
        }
        let (pe, replica) = unslot(slot);
        // One CPU task completes the whole in-flight batch (a single
        // element at batch size 1): finish each element in dequeue order,
        // preserving per-element semantics — lineage parents, processed
        // positions, output stamping — exactly as repeated singleton
        // completions would.
        let batch_len = self.instances[slot]
            .as_ref()
            .expect("checked")
            .inflight_len();
        // The produced elements land in the output queues and are dispatched
        // by draining connections below; the completion buffer is reused
        // world scratch so finishing an element allocates nothing.
        let mut finished = std::mem::take(&mut self.finish_scratch);
        for _ in 0..batch_len {
            // Lineage links outputs to the input that produced them; the
            // input is still in flight here, so read it before finishing.
            let parent_key = if self.lineage.is_some() {
                self.instances[slot]
                    .as_ref()
                    .expect("checked")
                    .inflight_elem()
                    .map(|e| (e.stream.0, e.seq))
            } else {
                None
            };
            self.instances[slot]
                .as_mut()
                .expect("checked")
                .finish_inflight_into(ctx.now(), &mut finished);
            if let (Some(lin), Some(pk)) = (self.lineage.as_deref_mut(), parent_key) {
                let now = ctx.now();
                for &(_, e) in finished.iter() {
                    lin.record_hop(pk, (e.stream.0, e.seq), pe.0, replica_code(replica), now);
                }
            }
            finished.clear();
        }
        self.finish_scratch = finished;
        self.dispatch_outputs(ctx, slot);

        // Acknowledgment policy: the primary-role copy of a checkpointing
        // subjob acknowledges via the checkpoint protocol (§III-B ordering);
        // everyone else (NONE, AS copies, the hybrid secondary while
        // switched over) sends batched acknowledgments on processing.
        // Backlog accounting is per element, so a batch crosses the ack
        // threshold exactly where singleton completions would.
        let sj_id = self.job.subjob_of(pe);
        let sj = &self.subjobs[sj_id.0 as usize];
        let checkpoint_acked = sj.mode.checkpoints() && replica == sj.primary_replica;
        if !checkpoint_acked {
            for _ in 0..batch_len {
                self.ack_backlog[slot] += 1;
                if self.ack_backlog[slot] >= self.cfg.ack_every_elements as u64 {
                    self.ack_backlog[slot] = 0;
                    self.send_instance_acks(ctx, slot);
                }
            }
        }

        // Checkpoint pause handshake: the paused PE just quiesced.
        let quiesced = self.instances[slot]
            .as_ref()
            .is_some_and(|i| i.is_quiescent());
        if quiesced {
            self.on_pe_quiesced(ctx, sj_id, pe, replica);
        }

        self.try_start(ctx, slot);
    }

    /// Sends cumulative acks for every input port of an instance, from its
    /// current processed positions.
    pub(crate) fn send_instance_acks(&mut self, ctx: &mut Ctx<Event>, slot: usize) {
        let (pe, replica) = unslot(slot);
        let from_machine = self.instance_machine[slot];
        let mut positions = std::mem::take(&mut self.ack_scratch);
        match self.instances[slot].as_ref() {
            Some(inst) => {
                for port in 0..inst.input_ports() {
                    positions.extend(
                        inst.input(port)
                            .positions_iter()
                            .map(|(stream, seq)| (port, stream, seq)),
                    );
                }
            }
            None => {
                self.ack_scratch = positions;
                return;
            }
        }
        for &(port, stream, seq) in &positions {
            let from = Dest::Pe {
                inst: sps_engine::InstanceId { pe, replica },
                port,
            };
            self.send_acks_for_stream(ctx, from_machine, from, stream, seq);
        }
        positions.clear();
        self.ack_scratch = positions;
    }

    /// Sends an ack for one stream position to every serving producer copy.
    pub(crate) fn send_acks_for_stream(
        &mut self,
        ctx: &mut Ctx<Event>,
        from_machine: MachineId,
        from: Dest,
        stream: StreamId,
        seq: u64,
    ) {
        if seq == 0 {
            return; // nothing processed yet
        }
        if self.tracer.is_enabled() {
            // Audit tap: a checkpoint-acked primary may only acknowledge
            // positions a stored checkpoint covers (§III-B ordering). Only
            // those acks are interesting to the auditor; batched
            // processing-time acks from everyone else are unconstrained.
            if let Dest::Pe { inst, .. } = from {
                let sj = &self.subjobs[self.job.subjob_of(inst.pe).0 as usize];
                if sj.mode.checkpoints() && inst.replica == sj.primary_replica {
                    self.tracer.emit(
                        ctx.now(),
                        TraceEvent::AckSent {
                            pe: inst.pe.0,
                            replica: replica_code(inst.replica),
                            stream: stream.0,
                            seq,
                        },
                    );
                }
            }
        }
        for (addr, machine) in self.ack_targets(stream).into_iter().flatten() {
            self.send_msg(
                ctx,
                from_machine,
                machine,
                Msg::Ack {
                    to: addr,
                    from,
                    seq,
                },
                MsgClass::Ack,
                0,
            );
        }
    }

    /// The producer copies that should receive acks for `stream` — at most
    /// two (a source, or up to both serving replicas of a PE), returned in
    /// a fixed-size array so the per-element ack path never allocates.
    pub(crate) fn ack_targets(&self, stream: StreamId) -> [Option<(ProducerAddr, MachineId)>; 2] {
        match self.job.producer(stream) {
            sps_engine::Producer::Source(src) => [
                Some((
                    ProducerAddr::Source(src),
                    self.placement.sources[src.0 as usize],
                )),
                None,
            ],
            sps_engine::Producer::Pe(pe, port) => {
                let mut out = [None, None];
                let mut n = 0;
                for r in Replica::BOTH {
                    if self.slot_is_serving(slot_of(pe, r)) {
                        out[n] = Some((
                            ProducerAddr::Instance(sps_engine::InstanceId { pe, replica: r }, port),
                            self.instance_machine[slot_of(pe, r)],
                        ));
                        n += 1;
                    }
                }
                out
            }
        }
    }

    // ---- delivery ----

    pub(crate) fn on_deliver(&mut self, ctx: &mut Ctx<Event>, to: MachineId, msg: Msg) {
        if !self.cluster.machine(to).is_up() {
            // Fail-stopped machines receive nothing. Drops are counted in
            // elements, so a lost batch reports its full length.
            let lost = match &msg {
                Msg::DataBatch { batch, .. } => batch.len() as u32,
                _ => 0,
            };
            if lost > 0 {
                self.tracer.emit(
                    ctx.now(),
                    TraceEvent::ElementDrop {
                        machine: to.0,
                        elements: lost,
                        reason: DropReason::MachineDown,
                    },
                );
            }
            return;
        }
        match msg {
            Msg::DataBatch { to: dest, batch } => self.on_data(ctx, to, dest, batch),
            Msg::Ack {
                to: addr,
                from,
                seq,
            } => self.on_ack(ctx, to, addr, from, seq),
            Msg::Ping { monitor, seq } => {
                let demand = self.cfg.heartbeat_reply_demand_secs;
                self.submit_latency_sensitive(
                    ctx,
                    to,
                    demand,
                    TaskTag::HeartbeatReply { monitor, seq },
                );
            }
            Msg::Pong { monitor, seq } => self.on_pong(ctx, monitor, seq),
            Msg::Checkpoint {
                subjob,
                epoch,
                ckpts,
            } => self.on_checkpoint_arrival(ctx, to, subjob, epoch, ckpts),
            Msg::CheckpointStored { subjob, epoch, pes } => {
                self.on_checkpoint_stored(ctx, to, subjob, epoch, pes)
            }
            Msg::StateRead {
                subjob,
                epoch,
                ckpts,
            } => self.on_state_read(ctx, to, subjob, epoch, ckpts),
            Msg::Reliable { tx, from, inner } => self.on_reliable(ctx, to, from, tx, *inner),
            Msg::RelAck { tx } => {
                self.rel_inflight.remove(&tx);
            }
            Msg::Control { .. } => {}
        }
    }

    /// Delivers a range-stamped run (one element at batch size 1):
    /// per-element offers preserve the input queue's deduplication and
    /// position tracking (so a partial retransmission overlapping an
    /// earlier delivery stays exactly-once), while traces, metrics, and
    /// acknowledgments aggregate over the run.
    fn on_data(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        dest: Dest,
        batch: sps_engine::DataBatch,
    ) {
        match dest {
            Dest::Pe { inst, port } => {
                let slot = slot_of(inst.pe, inst.replica);
                if self.instances[slot].is_none() || self.instance_machine[slot] != at {
                    // Stale delivery to a departed instance.
                    self.tracer.emit(
                        ctx.now(),
                        TraceEvent::ElementDrop {
                            machine: at.0,
                            elements: batch.len() as u32,
                            reason: DropReason::StaleEpoch,
                        },
                    );
                    return;
                }
                let stream = batch.stream().0;
                if let Some(lin) = self.lineage.as_deref_mut() {
                    // The range stamp expands to per-tuple arrival records
                    // here; duplicates and stashed out-of-order arrivals
                    // no-op via first-writer-wins.
                    lin.note_recv_range(stream, batch.seq_start(), batch.seq_end(), ctx.now());
                }
                let (mut accepted, mut stashed, mut duplicates) = (0u32, 0u32, 0u32);
                for &elem in batch.elems() {
                    match self.instances[slot]
                        .as_mut()
                        .expect("checked")
                        .offer(port, elem)
                    {
                        Offer::Accepted(n) => accepted += n as u32,
                        Offer::Stashed => stashed += 1,
                        Offer::Duplicate => duplicates += 1,
                    }
                }
                let now = ctx.now();
                self.tracer.emit_data(now, || TraceEvent::ElementRecv {
                    pe: inst.pe.0,
                    replica: replica_code(inst.replica),
                    stream,
                    accepted,
                    stashed,
                    duplicates,
                });
                if duplicates > 0 {
                    self.metric_inc(
                        Scope::machine("data_plane", at.0),
                        "duplicates",
                        duplicates as u64,
                    );
                    self.tracer.emit(
                        now,
                        TraceEvent::ElementDrop {
                            machine: at.0,
                            elements: duplicates,
                            reason: DropReason::Duplicate,
                        },
                    );
                    // Under the reliable layer a duplicate is usually a
                    // sweep retransmission whose original ack was lost:
                    // re-ack from the current positions, once per batch
                    // (cumulative acks cover every duplicate in it), so the
                    // producer trims and stops resending. Checkpoint-acked
                    // primaries must not — their acks may only follow
                    // stored checkpoints (§III-B ordering).
                    if self.cfg.reliable_control {
                        let sj = &self.subjobs[self.job.subjob_of(inst.pe).0 as usize];
                        if !(sj.mode.checkpoints() && inst.replica == sj.primary_replica) {
                            self.send_instance_acks(ctx, slot);
                        }
                    }
                }
                self.try_start(ctx, slot);
            }
            Dest::Sink(sink) => {
                let s = sink.0 as usize;
                let stream = batch.stream();
                if let Some(lin) = self.lineage.as_deref_mut() {
                    lin.note_recv_range(stream.0, batch.seq_start(), batch.seq_end(), ctx.now());
                }
                let mut last_accept: Option<(StreamId, u64)> = None;
                let trace = self.tracer.is_enabled();
                let mut newly_accepted: u32 = 0;
                let mut duplicates: u32 = 0;
                for &elem in batch.elems() {
                    let created_at = elem.created_at;
                    let delivered = if self.cfg.test_break_sink_dedup {
                        self.sinks[s].deliver_without_dedup(ctx.now(), elem)
                    } else {
                        self.sinks[s].deliver(ctx.now(), elem)
                    };
                    if let Some(accept) = delivered {
                        self.metric_inc(
                            Scope::global("sink"),
                            "accepted",
                            accept.newly_accepted as u64,
                        );
                        let e2e_ms = ctx.now().saturating_since(created_at).as_millis_f64();
                        self.metric_observe(Scope::global("sink"), "e2e_delay_ms", e2e_ms);
                        if let Some(lin) = self.lineage.as_deref_mut() {
                            // `processed_through` is cumulative: it covers
                            // this element plus any stashed ones the gap-fill
                            // just released, each recorded delivered once.
                            lin.record_delivery(
                                sink.0,
                                accept.stream.0,
                                accept.processed_through,
                                ctx.now(),
                            );
                        }
                        newly_accepted += accept.newly_accepted as u32;
                        last_accept = Some((accept.stream, accept.processed_through));
                    } else if trace && elem.seq <= self.sinks[s].processed_through(stream) {
                        // Rejected behind the processed position: a duplicate
                        // (likely a retransmission whose ack was lost), not
                        // an out-of-order arrival the sink stashed.
                        duplicates += 1;
                    }
                }
                if trace {
                    let through = match last_accept {
                        Some((_, t)) => t,
                        None => self.sinks[s].processed_through(stream),
                    };
                    self.tracer.emit(
                        ctx.now(),
                        TraceEvent::SinkDeliver {
                            sink: sink.0,
                            stream: stream.0,
                            seq_start: batch.seq_start(),
                            seq_end: batch.seq_end(),
                            newly_accepted,
                            duplicates,
                            processed_through: through,
                        },
                    );
                }
                let from_machine = self.placement.sinks[s];
                if let Some((astream, through)) = last_accept {
                    // One cumulative ack per batch: acks are monotone, so
                    // the final position covers every accepted element.
                    self.send_acks_for_stream(
                        ctx,
                        from_machine,
                        Dest::Sink(sink),
                        astream,
                        through,
                    );
                } else if self.cfg.reliable_control {
                    // Wholly rejected batch: re-ack if it starts behind
                    // the processed position (a retransmission whose ack
                    // was lost) rather than being stashed out of order.
                    // Cumulative acks are monotone, so resending the
                    // current position is always safe.
                    let through = self.sinks[s].processed_through(stream);
                    if through >= batch.seq_start() {
                        self.send_acks_for_stream(
                            ctx,
                            from_machine,
                            Dest::Sink(sink),
                            stream,
                            through,
                        );
                    }
                }
            }
        }
    }

    fn on_ack(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        addr: ProducerAddr,
        from: Dest,
        seq: u64,
    ) {
        match addr {
            ProducerAddr::Source(src) => {
                let s = src.0 as usize;
                if self.placement.sources[s] != at {
                    return;
                }
                let q = self.sources[s].queue_mut();
                if let Some(conn) = find_conn(q, from) {
                    q.register_ack(conn, seq);
                    self.tracer.emit_data(ctx.now(), || TraceEvent::Ack {
                        pe: TRACE_SOURCE_PE,
                        replica: 0,
                        through_seq: seq,
                    });
                }
            }
            ProducerAddr::Instance(iid, port) => {
                let slot = slot_of(iid.pe, iid.replica);
                if self.instances[slot].is_none() || self.instance_machine[slot] != at {
                    return;
                }
                self.tracer.emit_data(ctx.now(), || TraceEvent::Ack {
                    pe: iid.pe.0,
                    replica: replica_code(iid.replica),
                    through_seq: seq,
                });
                let trimmed = {
                    let inst = self.instances[slot].as_mut().expect("checked");
                    match find_conn(inst.output(port), from) {
                        Some(conn) => inst.register_ack(port, conn, seq),
                        None => 0,
                    }
                };
                if trimmed > 0 {
                    // "For each PE, checkpoints happen immediately after its
                    // output queue is trimmed."
                    self.maybe_sweep_checkpoint(ctx, iid.pe, iid.replica);
                }
            }
        }
    }

    fn on_heartbeat_reply_done(
        &mut self,
        ctx: &mut Ctx<Event>,
        at: MachineId,
        monitor: u32,
        seq: u64,
    ) {
        let m = monitor as usize;
        if m >= self.monitors.len() {
            return;
        }
        let sj = &self.subjobs[self.monitors[m].subjob.0 as usize];
        let Some(monitor_machine) = sj.secondary_machine else {
            return;
        };
        self.send_msg(
            ctx,
            at,
            monitor_machine,
            Msg::Pong { monitor, seq },
            MsgClass::Heartbeat,
            0,
        );
    }

    pub(crate) fn on_set_background(
        &mut self,
        ctx: &mut Ctx<Event>,
        machine: u32,
        component: LoadComponent,
        share: f64,
    ) {
        let m = MachineId(machine);
        if component == LoadComponent::Spike && share > 0.0 {
            self.tracer.emit(
                ctx.now(),
                TraceEvent::FailureInject {
                    machine,
                    fail_stop: false,
                },
            );
        }
        self.cluster
            .machine_mut(m)
            .set_background(ctx.now(), component, share);
        self.rearm_machine(ctx, m);
    }

    // ---- data-plane retransmission sweep ----

    /// Records one sweep observation of a connection and decides whether
    /// it is stalled: it has unacknowledged elements in flight, its
    /// `(acked, next_to_send)` pair is unchanged since the previous sweep,
    /// and the destination is reachable. Partitioned or dead destinations
    /// only record the observation, so the first sweep after a heal can
    /// rewind immediately.
    fn sweep_observe(
        &mut self,
        key: (bool, usize, usize, usize),
        src: MachineId,
        dest: Dest,
        active: bool,
        acked: u64,
        next: u64,
    ) -> bool {
        if !active || next <= acked + 1 {
            // Nothing unacknowledged in flight; forget the history so a
            // future stall needs two fresh observations.
            self.rel_sweep_prev.remove(&key);
            return false;
        }
        let dst = self.dest_machine(dest);
        let reachable =
            self.cluster.machine(dst).is_up() && !self.cluster.network().is_partitioned(src, dst);
        let stalled = self.rel_sweep_prev.insert(key, (acked, next)) == Some((acked, next));
        stalled && reachable
    }

    /// Periodic data-plane retransmission sweep (scheduled only when
    /// [`crate::HaConfig::reliable_control`] is on). Chaos losses silently
    /// advance a producer's send cursor past elements that never arrived
    /// (or whose acks were lost); any connection that made no progress
    /// over a full sweep interval rewinds to its first unacknowledged
    /// element and re-dispatches. Receivers deduplicate by sequence
    /// number, so an over-eager rewind costs bandwidth, never correctness.
    pub(crate) fn on_retransmit_sweep(&mut self, ctx: &mut Ctx<Event>) {
        ctx.schedule_in(self.cfg.rel_sweep_interval, Event::RetransmitSweep);
        for s in 0..self.sources.len() {
            let machine = self.placement.sources[s];
            if !self.cluster.machine(machine).is_up() {
                continue;
            }
            // Connection observations stage in the world's bump arena (one
            // region per producer, all released at the sweep's end), so the
            // periodic sweep stops allocating once the arena is warm.
            let obs = {
                let q = self.sources[s].queue();
                self.sweep_arena
                    .alloc_extend((0..q.connections().len()).map(|ci| {
                        let c = q.connection(ConnectionId(ci));
                        (0usize, ci, c.dest, c.active, c.acked, c.next_to_send)
                    }))
            };
            let mut rewound = false;
            for i in 0..obs.len() {
                let (_, ci, dest, active, acked, next) = self.sweep_arena.slice(obs)[i];
                if !self.sweep_observe((false, s, 0, ci), machine, dest, active, acked, next) {
                    continue;
                }
                let q = self.sources[s].queue_mut();
                let target = (acked + 1).max(q.trimmed_through() + 1);
                if target < next {
                    let stream = q.stream().0;
                    q.set_next_to_send(ConnectionId(ci), target);
                    rewound = true;
                    if let Some(lin) = self.lineage.as_deref_mut() {
                        // Every element the cursor rewound over is about to
                        // be transmitted again — one contiguous range. Under
                        // batching the resend itself may split on the acked
                        // boundary, but the rewind covers the full run.
                        lin.mark_retransmit_range(stream, target, next - 1);
                    }
                    self.metric_inc(Scope::global("reliable"), "data_retransmits", next - target);
                }
            }
            if rewound {
                self.dispatch_source_outputs(ctx, s);
            }
        }
        for slot in 0..self.instances.len() {
            let machine = self.instance_machine[slot];
            if self.instances[slot].is_none() || !self.cluster.machine(machine).is_up() {
                continue;
            }
            let obs = {
                let inst = self.instances[slot].as_ref().expect("checked");
                self.sweep_arena
                    .alloc_extend((0..inst.output_ports()).flat_map(|port| {
                        let q = inst.output(port);
                        (0..q.connections().len()).map(move |ci| {
                            let c = q.connection(ConnectionId(ci));
                            (port, ci, c.dest, c.active, c.acked, c.next_to_send)
                        })
                    }))
            };
            let mut rewound = false;
            for i in 0..obs.len() {
                let (port, ci, dest, active, acked, next) = self.sweep_arena.slice(obs)[i];
                if !self.sweep_observe((true, slot, port, ci), machine, dest, active, acked, next) {
                    continue;
                }
                let q = self.instances[slot]
                    .as_mut()
                    .expect("checked")
                    .output_mut(port);
                let target = (acked + 1).max(q.trimmed_through() + 1);
                if target < next {
                    let stream = q.stream().0;
                    q.set_next_to_send(ConnectionId(ci), target);
                    rewound = true;
                    if let Some(lin) = self.lineage.as_deref_mut() {
                        lin.mark_retransmit_range(stream, target, next - 1);
                    }
                    self.metric_inc(Scope::global("reliable"), "data_retransmits", next - target);
                }
            }
            if rewound {
                self.dispatch_outputs(ctx, slot);
            }
        }
        // Safe point: no observation range outlives its sweep.
        self.sweep_arena.reset();
    }
}

/// Debug-build guard of the pending-port invariant: a port missing from
/// the taken pending set has no active connection with unsent elements.
#[cfg(debug_assertions)]
fn assert_no_unlisted_backlog(inst: &sps_engine::PeInstance, pending: &[usize]) {
    for port in 0..inst.output_ports() {
        let q = inst.output(port);
        let unlisted_backlog = pending.binary_search(&port).is_err()
            && (0..q.connections().len()).any(|ci| q.needs_drain(ConnectionId(ci)));
        assert!(
            !unlisted_backlog,
            "{} port {port} has unsent elements but is not pending",
            inst.id()
        );
    }
}

/// Finds the connection of `q` whose destination is `dest`.
pub(crate) fn find_conn(q: &sps_engine::OutputQueue<Dest>, dest: Dest) -> Option<ConnectionId> {
    q.connections()
        .iter()
        .position(|c| c.dest == dest)
        .map(ConnectionId)
}

/// Schedules the initial events of a freshly built world: source ticks,
/// heartbeat ticks, and (for timer-driven protocols) checkpoint timers.
pub fn schedule_initial_events(world: &mut HaWorld, ctx: &mut Ctx<Event>) {
    for s in 0..world.sources.len() {
        let gap = world.sources[s].next_gap(ctx.now(), ctx.rng());
        let gen = world.source_timers[s].arm();
        ctx.schedule_in(
            gap,
            Event::SourceTick {
                source: s as u32,
                gen,
            },
        );
    }
    for m in 0..world.monitors.len() {
        ctx.schedule_in(
            world.cfg.heartbeat_interval,
            Event::HeartbeatTick { monitor: m as u32 },
        );
    }
    // The telemetry sampler runs only when a trace sink is installed, so
    // untraced runs keep an identical event schedule.
    if world.tracer.is_enabled() && !world.cfg.trace_sample_interval.is_zero() {
        ctx.schedule_in(world.cfg.trace_sample_interval, Event::TraceSample);
    }
    // The metrics scraper runs only when metrics collection was enabled,
    // so plain runs keep an identical event schedule. The scrape handler
    // is strictly read-only, so even a scraping run perturbs nothing.
    if world.metrics.is_some() {
        ctx.schedule_in(world.cfg.metrics_scrape_interval, Event::MetricsScrape);
    }
    // The retransmission sweep exists only under the reliable layer, so
    // default runs keep an identical event schedule.
    if world.cfg.reliable_control && !world.cfg.rel_sweep_interval.is_zero() {
        ctx.schedule_in(world.cfg.rel_sweep_interval, Event::RetransmitSweep);
    }
    use crate::config::CheckpointProtocol;
    match world.cfg.checkpoint_protocol {
        CheckpointProtocol::Sweeping => {} // trim-driven, seeded by sink acks
        CheckpointProtocol::Synchronous => {
            for sj in 0..world.subjobs.len() {
                if world.subjobs[sj].mode.checkpoints() {
                    ctx.schedule_in(
                        world.cfg.checkpoint_interval,
                        Event::CheckpointTimer {
                            subjob: sj as u32,
                            pe: None,
                        },
                    );
                }
            }
        }
        CheckpointProtocol::Individual => {
            for sj_idx in 0..world.subjobs.len() {
                if !world.subjobs[sj_idx].mode.checkpoints() {
                    continue;
                }
                let pes: Vec<_> = world
                    .job
                    .subjob_pes(sps_engine::SubjobId(sj_idx as u32))
                    .to_vec();
                let n = pes.len().max(1) as u64;
                for (i, pe) in pes.into_iter().enumerate() {
                    // Stagger the per-PE timers across the interval.
                    let offset = world.cfg.checkpoint_interval * (i as u64) / n;
                    ctx.schedule_in(
                        world.cfg.checkpoint_interval + offset,
                        Event::CheckpointTimer {
                            subjob: sj_idx as u32,
                            pe: Some(pe),
                        },
                    );
                }
            }
        }
    }
}
