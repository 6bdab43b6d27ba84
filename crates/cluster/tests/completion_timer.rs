//! The machine completion timer as a deadline slot: re-arming lazily (a
//! later completion postpones the outstanding tick instead of scheduling
//! another) must run the completion handler at exactly the instants eager
//! re-arming (one fresh tick per change) does, with the same tasks.
//!
//! Both drivers below replay one randomized script against a [`Machine`]
//! on an [`EventQueue`], re-arming after every change the way the HA world
//! does, and must record the same `(time, tag)` completion sequence.

use sps_cluster::{LoadComponent, Machine, MachineId};
use sps_sim::{EventQueue, Firing, SimDuration, SimRng, SimTime, TimerGen, TimerSlot};

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        work: f64,
        tag: u64,
    },
    Background(f64),
    Degrade(f64),
    Fail,
    Restart,
    /// Advances the machine without re-arming, as the world's load
    /// estimate does between scheduling decisions.
    Probe,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Op(Op),
    Tick(TimerGen),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Rearm {
    Eager,
    Lazy,
}

struct Driver {
    mode: Rearm,
    machine: Machine,
    slot: TimerSlot,
    queue: EventQueue<Ev>,
    completions: Vec<(SimTime, u64)>,
    ticks: u64,
}

impl Driver {
    fn new(mode: Rearm) -> Self {
        Driver {
            mode,
            machine: Machine::new(MachineId(0)),
            slot: TimerSlot::new(),
            queue: EventQueue::new(),
            completions: Vec::new(),
            ticks: 0,
        }
    }

    /// The world's `rearm_machine`, in either mode.
    fn rearm(&mut self, now: SimTime) {
        let Some(at) = self.machine.next_completion() else {
            self.slot.cancel();
            return;
        };
        let at = at.max(now);
        let gen = match self.mode {
            Rearm::Eager => Some(self.slot.arm()),
            Rearm::Lazy => self.slot.arm_at(at),
        };
        if let Some(gen) = gen {
            self.queue.push(at, Ev::Tick(gen));
        }
    }

    fn submit(&mut self, now: SimTime, work: f64, tag: u64) {
        if self.machine.submit(now, work, tag).is_some() {
            self.rearm(now);
        }
    }

    fn apply(&mut self, now: SimTime, op: Op) {
        let m = &mut self.machine;
        match op {
            Op::Submit { work, tag } => {
                self.submit(now, work, tag);
                return;
            }
            Op::Probe => {
                m.advance(now);
                return;
            }
            Op::Background(share) => m.set_background(now, LoadComponent::Spike, share),
            Op::Degrade(capacity) => m.degrade(now, capacity),
            Op::Fail => m.fail(now),
            Op::Restart => m.restart(now),
        }
        self.rearm(now);
    }

    /// The world's `on_machine_tick`: completions may submit follow-up
    /// work (the next element of a PE), re-arming as they go.
    fn tick(&mut self, now: SimTime, gen: TimerGen) {
        self.ticks += 1;
        let due = match self.mode {
            Rearm::Eager => self.slot.fire(gen),
            Rearm::Lazy => match self.slot.fire_at(gen) {
                Firing::Due => true,
                Firing::Stale => false,
                Firing::Postponed(at) => {
                    self.queue.push(at, Ev::Tick(gen));
                    false
                }
            },
        };
        if !due {
            return;
        }
        self.machine.advance(now);
        for task in self.machine.collect_finished() {
            self.completions.push((now, task.tag));
            if task.tag % 3 == 0 && task.tag < 1 << 20 {
                let follow_up = (task.tag % 7 + 1) as f64 * 1e-4;
                self.submit(now, follow_up, task.tag + (1 << 20));
            }
        }
        self.rearm(now);
    }

    fn run(mut self, script: &[(SimTime, Op)]) -> Self {
        for &(at, op) in script {
            self.queue.push(at, Ev::Op(op));
        }
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Ev::Op(op) => self.apply(now, op),
                Ev::Tick(gen) => self.tick(now, gen),
            }
        }
        self
    }
}

/// A random script: bursts of same-instant submits, background and
/// capacity changes, probes, and fail/restart pairs.
fn script(rng: &mut SimRng) -> Vec<(SimTime, Op)> {
    let mut ops = Vec::new();
    let mut t = SimTime::ZERO;
    let mut tag = 0;
    for _ in 0..rng.uniform_u64(20, 200) {
        t += SimDuration::from_micros(rng.uniform_u64(0, 3_000));
        let op = match rng.uniform_u64(0, 12) {
            0..=6 => {
                // A same-instant burst, like heartbeat replies landing on
                // one machine.
                for _ in 0..rng.uniform_u64(1, 8) {
                    tag += 1;
                    let work = rng.uniform(1e-5, 5e-3);
                    ops.push((t, Op::Submit { work, tag }));
                }
                continue;
            }
            7 => Op::Background(rng.uniform(0.0, 0.95)),
            8 => Op::Degrade(rng.uniform(0.2, 1.0)),
            9 => Op::Probe,
            10 => Op::Fail,
            _ => Op::Restart,
        };
        ops.push((t, op));
    }
    ops.push((t, Op::Restart));
    ops.push((t, Op::Degrade(1.0)));
    ops.push((t, Op::Background(0.0)));
    ops
}

#[test]
fn lazy_rearm_completes_the_same_tasks_at_the_same_instants() {
    let mut rng = SimRng::seed_from(0x71C4);
    let (mut eager_ticks, mut lazy_ticks, mut completions) = (0, 0, 0);
    for case in 0..200 {
        let script = script(&mut rng);
        let eager = Driver::new(Rearm::Eager).run(&script);
        let lazy = Driver::new(Rearm::Lazy).run(&script);
        assert_eq!(
            eager.completions, lazy.completions,
            "case {case}: completion sequences differ"
        );
        assert_eq!(lazy.machine.active_tasks(), 0, "case {case} drained");
        assert!(lazy.ticks <= eager.ticks, "case {case}: lazy ticked more");
        eager_ticks += eager.ticks;
        lazy_ticks += lazy.ticks;
        completions += lazy.completions.len();
    }
    assert!(completions > 4_000, "only {completions} completions");
    assert!(
        2 * lazy_ticks < eager_ticks,
        "bursts should leave far fewer ticks: {lazy_ticks} lazy vs {eager_ticks} eager"
    );
}

#[test]
fn a_same_instant_burst_leaves_one_live_tick() {
    let mut rng = SimRng::seed_from(0xB0B5);
    for n in 1..=64u64 {
        let now = SimTime::from_millis(1);
        // Equal tasks: each submit only pushes the completion later, so
        // lazy re-arming keeps the first tick and schedules nothing more.
        let mut lazy = Driver::new(Rearm::Lazy);
        let mut eager = Driver::new(Rearm::Eager);
        for tag in 0..n {
            lazy.submit(now, 1e-3, tag);
            eager.submit(now, 1e-3, tag);
        }
        assert_eq!(lazy.queue.len(), 1, "burst of {n}");
        assert_eq!(eager.queue.len() as u64, n, "burst of {n}");

        // Mixed sizes: a smaller task can move the deadline earlier and
        // supersede the outstanding tick, but exactly one stays live.
        let mut mixed = Driver::new(Rearm::Lazy);
        for tag in 0..n {
            mixed.submit(now, rng.uniform(1e-5, 5e-3), tag);
        }
        let mut live = 0;
        while let Some((_, ev)) = mixed.queue.pop() {
            let Ev::Tick(gen) = ev else {
                unreachable!("only ticks were scheduled")
            };
            live += usize::from(mixed.slot.is_current(gen));
        }
        assert_eq!(live, 1, "mixed burst of {n}");
    }
}
