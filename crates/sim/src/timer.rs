//! Cancellable timers on top of the event queue.
//!
//! The event queue has no random-access removal, so cancellation uses
//! *generation tokens*: a [`TimerSlot`] hands out a fresh [`TimerGen`] each
//! time it is armed, and a firing event is honoured only if it still carries
//! the current generation. Re-arming or cancelling the slot invalidates every
//! outstanding event at O(1) cost.
//!
//! ```
//! use sps_sim::TimerSlot;
//!
//! let mut slot = TimerSlot::new();
//! let first = slot.arm();
//! let second = slot.arm();      // re-arm: the first event is now stale
//! assert!(!slot.is_current(first));
//! assert!(slot.is_current(second));
//! slot.cancel();
//! assert!(!slot.is_current(second));
//! ```
//!
//! A slot can also serve a *deadline* that moves often but fires rarely,
//! such as a CPU's next task completion. [`TimerSlot::arm_at`] schedules a
//! new firing only when the deadline moves *earlier* than the outstanding
//! one; a later deadline just postpones the outstanding firing, which
//! [`TimerSlot::fire_at`] then reports as [`Firing::Postponed`] so the owner
//! re-schedules it once. A burst of later deadlines costs one event, not
//! one per move, while the owner's handler still runs exactly at the last
//! requested deadline.
//!
//! ```
//! use sps_sim::{Firing, SimTime, TimerSlot};
//!
//! let ms = SimTime::from_millis;
//! let mut slot = TimerSlot::new();
//! let tok = slot.arm_at(ms(10)).expect("nothing outstanding: schedule");
//! assert_eq!(slot.arm_at(ms(30)), None); // later: postpone, schedule nothing
//! assert_eq!(slot.fire_at(tok), Firing::Postponed(ms(30))); // at 10 ms
//! assert_eq!(slot.fire_at(tok), Firing::Due); // at 30 ms: run the handler
//! ```

use crate::time::SimTime;

/// An opaque generation token carried inside a scheduled timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerGen(u64);

/// What a deadline-timer firing asks its owner to do (see
/// [`TimerSlot::fire_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// The token was superseded or cancelled: ignore the event.
    Stale,
    /// The deadline moved later while this firing was outstanding:
    /// schedule the same token again at the given time and do nothing
    /// else now.
    Postponed(SimTime),
    /// The deadline is now: run the handler. The slot is disarmed.
    Due,
}

/// The owner-side state of one logical (re-armable, cancellable) timer.
#[derive(Debug, Clone, Default)]
pub struct TimerSlot {
    gen: u64,
    armed: bool,
    /// Deadline mode: when the outstanding firing was scheduled to fire.
    due: SimTime,
    /// Deadline mode: when the owner wants the handler to run. Later than
    /// `due` exactly when the outstanding firing is postponed.
    deadline: SimTime,
}

impl TimerSlot {
    /// Creates a slot with no timer armed.
    pub fn new() -> Self {
        TimerSlot::default()
    }

    /// Arms the timer, invalidating any previously scheduled firing, and
    /// returns the token to embed in the event.
    pub fn arm(&mut self) -> TimerGen {
        self.gen += 1;
        self.armed = true;
        TimerGen(self.gen)
    }

    /// Cancels the timer; every outstanding token becomes stale.
    pub fn cancel(&mut self) {
        self.gen += 1;
        self.armed = false;
    }

    /// `true` if `token` belongs to the currently armed timer.
    ///
    /// The typical firing handler is:
    /// `if !slot.fire(token) { return; }`.
    pub fn is_current(&self, token: TimerGen) -> bool {
        self.armed && token.0 == self.gen
    }

    /// Consumes a firing: returns `true` and disarms the slot when `token`
    /// is current, returns `false` for stale tokens.
    pub fn fire(&mut self, token: TimerGen) -> bool {
        if self.is_current(token) {
            self.armed = false;
            true
        } else {
            false
        }
    }

    /// `true` while a firing is outstanding.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Deadline mode: asks for the handler to run at `at`. Returns the
    /// token to schedule at `at` when no firing is outstanding or `at` is
    /// earlier than the outstanding one (which becomes stale). Otherwise
    /// returns `None` and schedules nothing: the outstanding firing stands,
    /// postponed to `at` if `at` is later.
    pub fn arm_at(&mut self, at: SimTime) -> Option<TimerGen> {
        self.deadline = at;
        if self.armed && at >= self.due {
            return None;
        }
        self.due = at;
        Some(self.arm())
    }

    /// Deadline mode: consumes a firing of `token` scheduled by
    /// [`TimerSlot::arm_at`] (or re-scheduled after [`Firing::Postponed`]).
    pub fn fire_at(&mut self, token: TimerGen) -> Firing {
        if !self.is_current(token) {
            Firing::Stale
        } else if self.deadline > self.due {
            self.due = self.deadline;
            Firing::Postponed(self.deadline)
        } else {
            self.armed = false;
            Firing::Due
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slot_is_disarmed() {
        let slot = TimerSlot::new();
        assert!(!slot.is_armed());
    }

    #[test]
    fn arm_then_fire_consumes() {
        let mut slot = TimerSlot::new();
        let tok = slot.arm();
        assert!(slot.is_armed());
        assert!(slot.fire(tok));
        assert!(!slot.is_armed());
        assert!(!slot.fire(tok), "double fire must be rejected");
    }

    #[test]
    fn rearm_invalidates_previous() {
        let mut slot = TimerSlot::new();
        let old = slot.arm();
        let new = slot.arm();
        assert!(!slot.fire(old));
        assert!(slot.fire(new));
    }

    #[test]
    fn cancel_invalidates() {
        let mut slot = TimerSlot::new();
        let tok = slot.arm();
        slot.cancel();
        assert!(!slot.fire(tok));
    }

    #[test]
    fn earlier_deadline_supersedes_the_outstanding_firing() {
        let ms = SimTime::from_millis;
        let mut slot = TimerSlot::new();
        let late = slot.arm_at(ms(30)).unwrap();
        let early = slot.arm_at(ms(10)).expect("earlier: schedule anew");
        assert_eq!(slot.arm_at(ms(10)), None, "same deadline: nothing new");
        assert_eq!(slot.fire_at(early), Firing::Due);
        assert_eq!(slot.fire_at(late), Firing::Stale);
    }

    #[test]
    fn postponed_firing_reports_the_last_deadline_once() {
        let ms = SimTime::from_millis;
        let mut slot = TimerSlot::new();
        let tok = slot.arm_at(ms(10)).unwrap();
        for later in [20, 40, 30] {
            assert_eq!(slot.arm_at(ms(later)), None);
        }
        assert_eq!(slot.fire_at(tok), Firing::Postponed(ms(30)));
        assert_eq!(slot.arm_at(ms(30)), None, "now outstanding at 30 ms");
        assert_eq!(slot.fire_at(tok), Firing::Due);
        assert!(!slot.is_armed());
        assert_eq!(slot.fire_at(tok), Firing::Stale);
    }

    #[test]
    fn cancel_stales_a_postponed_firing() {
        let ms = SimTime::from_millis;
        let mut slot = TimerSlot::new();
        let tok = slot.arm_at(ms(10)).unwrap();
        assert_eq!(slot.arm_at(ms(20)), None);
        slot.cancel();
        assert_eq!(slot.fire_at(tok), Firing::Stale);
        assert!(slot.arm_at(ms(20)).is_some(), "re-arms after cancel");
    }

    #[test]
    fn tokens_from_different_arms_are_distinct() {
        let mut slot = TimerSlot::new();
        let a = slot.arm();
        let b = slot.arm();
        assert_ne!(a, b);
    }
}
