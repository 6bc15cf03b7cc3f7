//! The simulation engine: virtual clock + future event list + timer slots.

use crate::event::{EventQueue, QueueKind};
use crate::time::SimTime;

/// A disarmed slot's key, and the cached head of an empty event list: it
/// orders after every real key.
const NONE: u128 = u128::MAX;
/// The cached event-list head when it is not known. No real key is 0:
/// only an all-ones bit pattern, a NaN, has a [`time_key`] of 0, and a
/// [`SimTime`] is never NaN.
const UNKNOWN: u128 = 0;
/// No stale leaf in the slot tree.
const NO_LEAF: u32 = u32::MAX;

/// `t` as an unsigned integer in [`f64::total_cmp`] order, the order
/// [`SimTime`] compares by: a set sign bit flips every bit, a clear one
/// gains the top bit.
#[inline]
fn time_key(t: SimTime) -> u64 {
    let bits = t.as_secs().to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The `(time, seq)` delivery key packed into one integer, so that one
/// comparison orders two events exactly as `(SimTime, u64)` does.
#[inline]
fn entry_key(time: SimTime, seq: u64) -> u128 {
    u128::from(time_key(time)) << 64 | u128::from(seq)
}

/// A discrete-event simulation engine over an application-defined event type.
///
/// The engine owns the virtual clock and the future event list. Models drive
/// it with a simple loop: [`step`](Engine::step) pops the next event and
/// advances the clock to its timestamp; the model then handles the event and
/// schedules follow-ups with [`schedule_in`](Engine::schedule_in) /
/// [`schedule_at`](Engine::schedule_at).
///
/// Causality is enforced: scheduling in the past panics, which turns subtle
/// model bugs into loud failures at the point of injection.
///
/// Beside the event list the engine keeps a fixed set of **timer slots**
/// ([`with_timer_slots`](Engine::with_timer_slots)), each holding at most
/// one pending event. A stream of events of which at most one is pending
/// at a time — a FIFO server's next completion — can
/// [`arm_in`](Engine::arm_in) a slot instead of going through the event
/// list. Slot events draw their sequence numbers from the event list's
/// counter, so delivery follows the same `(time, seq)` order as if every
/// event had been scheduled on the list.
///
/// # Examples
///
/// ```
/// use geodns_simcore::{Engine, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut eng = Engine::new();
/// eng.schedule_at(SimTime::from_secs(1.0), Ev::Ping);
/// let (t, ev) = eng.step().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(1.0), Ev::Ping));
/// eng.schedule_in(0.5, Ev::Pong);
/// assert_eq!(eng.now(), SimTime::from_secs(1.0));
/// assert_eq!(eng.step().unwrap().0, SimTime::from_secs(1.5));
/// ```
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    slots: Slots<E>,
    /// The event list head's [`entry_key`], cached between steps:
    /// [`UNKNOWN`] after a pop, a clear, or a push ahead of it; [`NONE`]
    /// when the list is empty.
    head: u128,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an engine whose event list has room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_kind(capacity, QueueKind::Calendar)
    }

    /// Creates an engine over the chosen future-event-list implementation.
    ///
    /// Both [`QueueKind`]s deliver events in the identical order, so this
    /// only affects throughput — see the `micro_engine` bench.
    #[must_use]
    pub fn with_kind(kind: QueueKind) -> Self {
        Self::with_capacity_and_kind(0, kind)
    }

    /// Creates an engine of the chosen queue kind sized for `capacity`
    /// pending events.
    #[must_use]
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity_and_kind(capacity, kind),
            processed: 0,
            slots: Slots::new(0),
            head: UNKNOWN,
        }
    }

    /// Gives the engine `n` timer slots, numbered `0..n` (an engine starts
    /// with none).
    ///
    /// # Panics
    ///
    /// Panics if a slot is armed.
    #[must_use]
    pub fn with_timer_slots(mut self, n: usize) -> Self {
        assert_eq!(self.slots.armed, 0, "cannot resize armed timer slots");
        self.slots = Slots::new(n);
        self
    }

    /// Which implementation backs the future event list.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending, armed slots included.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.slots.armed
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "cannot schedule an event {delay} seconds in the past");
        self.push(self.now + delay, event);
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule at {time} when the clock is already at {}",
            self.now
        );
        self.push(time, event);
    }

    /// Schedules `event` to fire `delay` seconds from now in timer slot
    /// `slot`. It is delivered exactly where [`schedule_in`] would have put
    /// it. If the slot already holds an event, this one goes onto the event
    /// list instead.
    ///
    /// [`schedule_in`]: Engine::schedule_in
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN, or if `slot` is out of range.
    pub fn arm_in(&mut self, slot: usize, delay: f64, event: E) {
        assert!(delay >= 0.0, "cannot schedule an event {delay} seconds in the past");
        let time = self.now + delay;
        if self.slots.events[slot].is_some() {
            self.push(time, event);
        } else {
            let seq = self.queue.take_seq();
            self.slots.arm(slot, entry_key(time, seq), time, event);
        }
    }

    /// Pushes onto the event list, forgetting the cached head if the new
    /// event goes ahead of it. An equal time cannot: its `seq` is larger.
    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        if u128::from(time_key(time)) < self.head >> 64 {
            self.head = UNKNOWN;
        }
        self.queue.push(time, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when nothing is pending (the clock stays where it
    /// was).
    #[inline]
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        if self.slots.armed == 0 {
            self.head = UNKNOWN;
            let (time, event) = self.queue.pop()?;
            return Some(self.deliver(time, event));
        }
        self.step_below(NONE)
    }

    /// Pops the next event if it fires strictly before `until`, advancing
    /// the clock to its timestamp. An event at `until` or later stays
    /// pending and the result is `None`.
    #[inline]
    pub fn step_before(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        // Every key at `until` is at least (until, 0); every earlier one
        // is below it.
        self.step_below(entry_key(until, 0))
    }

    /// Delivers the earliest pending event if its key is below `bound`.
    fn step_below(&mut self, bound: u128) -> Option<(SimTime, E)> {
        if self.head == UNKNOWN {
            self.head = self.queue.head_key().map_or(NONE, |(t, seq)| entry_key(t, seq));
        }
        if self.slots.armed > 0 {
            let (key, leaf) = self.slots.min();
            if key < self.head {
                if key >= bound {
                    return None;
                }
                let (time, event) = self.slots.fire(leaf);
                return Some(self.deliver(time, event));
            }
        }
        if self.head >= bound {
            return None;
        }
        self.head = UNKNOWN;
        let (time, event) = self.queue.pop().expect("the event list has a head");
        Some(self.deliver(time, event))
    }

    #[inline]
    fn deliver(&mut self, time: SimTime, event: E) -> (SimTime, E) {
        debug_assert!(time >= self.now, "event queue yielded an event in the past");
        self.now = time;
        self.processed += 1;
        (time, event)
    }

    /// The firing time of the next pending event.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        let slot = self.slots.events.iter().flatten().map(|&(t, _)| t).min();
        match (self.queue.peek_time(), slot) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drops every pending event, armed slots included, e.g. to terminate
    /// a run at a horizon.
    pub fn clear_pending(&mut self) {
        self.queue.clear();
        self.slots.clear();
        self.head = UNKNOWN;
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("armed", &self.slots.armed)
            .field("processed", &self.processed)
            .finish()
    }
}

/// The timer slots: at most one pending event per slot, plus a winner tree
/// that keeps the earliest armed slot at its root.
///
/// The tree is replayed lazily. A slot that fires leaves its leaf stale
/// (its key is [`NONE`], but the path above it still names it), because
/// the re-arm that usually follows replays that same path. Whatever runs
/// next replays a leaf still stale first, so each fire and re-arm pair
/// costs one O(log S) replay.
struct Slots<E> {
    /// Each leaf's [`entry_key`], or [`NONE`] while disarmed; padded with
    /// [`NONE`] to `leaves` entries.
    keys: Vec<u128>,
    /// Each slot's pending event and its time, `Some` exactly while armed.
    events: Vec<Option<(SimTime, E)>>,
    /// The winner tree over `leaves` leaves, a power of two: `win[n]` for
    /// `n` in `1..leaves` is the leaf with the smaller key under node `n`,
    /// and `win[leaves + i] = i`. `win[1]` is the root.
    win: Vec<u32>,
    leaves: usize,
    /// Number of armed slots.
    armed: usize,
    /// A leaf that fired and whose path has not been replayed, or
    /// [`NO_LEAF`].
    stale: u32,
}

impl<E> Slots<E> {
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        let mut win = vec![0; 2 * leaves];
        for (i, w) in win[leaves..].iter_mut().enumerate() {
            *w = i as u32;
        }
        // Every key is NONE, so any leaf below a node may win it, but it
        // must be one below it: a replay compares only the two children's
        // winners. Take each node's leftmost leaf.
        for n in (1..leaves).rev() {
            win[n] = win[2 * n];
        }
        Slots {
            keys: vec![NONE; leaves],
            events: std::iter::repeat_with(|| None).take(n).collect(),
            win,
            leaves,
            armed: 0,
            stale: NO_LEAF,
        }
    }

    /// The earliest armed key and its leaf. Replays a stale leaf first.
    #[inline]
    fn min(&mut self) -> (u128, usize) {
        if self.stale != NO_LEAF {
            self.replay(self.stale as usize);
            self.stale = NO_LEAF;
        }
        let leaf = self.win[1] as usize;
        (self.keys[leaf], leaf)
    }

    /// Arms the disarmed slot `slot`.
    #[inline]
    fn arm(&mut self, slot: usize, key: u128, time: SimTime, event: E) {
        if self.stale != NO_LEAF && self.stale as usize != slot {
            self.replay(self.stale as usize);
        }
        self.stale = NO_LEAF;
        self.keys[slot] = key;
        self.events[slot] = Some((time, event));
        self.armed += 1;
        self.replay(slot);
    }

    /// Takes the event of armed slot `leaf`, leaving the leaf stale.
    #[inline]
    fn fire(&mut self, leaf: usize) -> (SimTime, E) {
        debug_assert_eq!(self.stale, NO_LEAF, "min() replays a stale leaf before a fire");
        self.keys[leaf] = NONE;
        self.armed -= 1;
        self.stale = leaf as u32;
        self.events[leaf].take().expect("the tree's root is armed")
    }

    /// Recomputes the winners on the path from `leaf` to the root.
    #[inline]
    fn replay(&mut self, leaf: usize) {
        let mut n = (self.leaves + leaf) >> 1;
        while n > 0 {
            let (a, b) = (self.win[2 * n], self.win[2 * n + 1]);
            self.win[n] = if self.keys[b as usize] < self.keys[a as usize] { b } else { a };
            n >>= 1;
        }
    }

    /// Disarms every slot. With every key [`NONE`], any leaf is a valid
    /// winner, so the tree needs no replay.
    fn clear(&mut self) {
        self.keys.fill(NONE);
        self.events.fill_with(|| None);
        self.armed = 0;
        self.stale = NO_LEAF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut eng = Engine::new();
        eng.schedule_in(2.0, "a");
        eng.schedule_in(1.0, "b");
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(1.0)));
        let (t1, e1) = eng.step().unwrap();
        assert_eq!((t1.as_secs(), e1), (1.0, "b"));
        let (t2, e2) = eng.step().unwrap();
        assert_eq!((t2.as_secs(), e2), (2.0, "a"));
        assert_eq!(eng.step(), None);
        assert_eq!(eng.now().as_secs(), 2.0, "clock stays at last event");
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn relative_scheduling_is_anchored_at_now() {
        let mut eng = Engine::new();
        eng.schedule_in(5.0, 1);
        eng.step().unwrap();
        eng.schedule_in(5.0, 2);
        assert_eq!(eng.step().unwrap().0.as_secs(), 10.0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn negative_delay_panics() {
        let mut eng = Engine::new();
        eng.schedule_in(-1.0, ());
    }

    #[test]
    #[should_panic(expected = "cannot schedule at")]
    fn scheduling_before_now_panics() {
        let mut eng = Engine::new();
        eng.schedule_in(5.0, ());
        eng.step().unwrap();
        eng.schedule_at(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn clear_pending_stops_the_run() {
        let mut eng = Engine::new();
        for i in 0..10 {
            eng.schedule_in(f64::from(i), i);
        }
        eng.step().unwrap();
        eng.clear_pending();
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.step(), None);
    }

    #[test]
    fn armed_slot_falls_back_to_the_event_list_in_seq_order() {
        // A second arm of an armed slot goes onto the event list with the
        // next seq, so it still fires in (time, seq) order: ties with the
        // slot's event and with list events break FIFO, and an earlier
        // fallback fires before the slot's later event.
        let mut eng = Engine::new().with_timer_slots(2);
        eng.arm_in(0, 2.0, "slot-late");
        eng.arm_in(0, 1.0, "fallback-early");
        eng.arm_in(1, 1.0, "slot1-tie");
        eng.schedule_in(1.0, "list-tie");
        eng.arm_in(1, 1.0, "fallback-tie");
        assert_eq!(eng.pending(), 5);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(1.0)));
        let order: Vec<&str> = std::iter::from_fn(|| eng.step().map(|(_, e)| e)).collect();
        assert_eq!(order, ["fallback-early", "slot1-tie", "list-tie", "fallback-tie", "slot-late"]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn fired_slots_leave_no_hidden_winner() {
        // Slot 0 wins the root while slot 4 waits in the other half of an
        // 8-leaf tree. After slot 0 fires, the tree must still find slot 4.
        let mut eng = Engine::new().with_timer_slots(8);
        eng.arm_in(0, 1.0, 0);
        eng.arm_in(4, 2.0, 4);
        assert_eq!(eng.step(), Some((SimTime::from_secs(1.0), 0)));
        assert_eq!(eng.step(), Some((SimTime::from_secs(2.0), 4)));
        assert_eq!(eng.step(), None);
    }

    #[test]
    fn step_before_leaves_an_event_at_the_barrier() {
        let mut eng = Engine::new().with_timer_slots(1);
        eng.arm_in(0, 1.0, "slot");
        eng.schedule_in(2.0, "list");
        let barrier = SimTime::from_secs(1.0);
        assert_eq!(eng.step_before(barrier), None);
        assert_eq!(eng.step_before(SimTime::from_secs(2.0)), Some((barrier, "slot")));
        assert_eq!(eng.step_before(SimTime::from_secs(2.0)), None);
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.step(), Some((SimTime::from_secs(2.0), "list")));
    }

    #[test]
    fn clear_pending_disarms_every_slot() {
        let mut eng = Engine::new().with_timer_slots(3);
        eng.arm_in(2, 1.0, 2);
        eng.schedule_in(0.5, 9);
        eng.clear_pending();
        assert_eq!((eng.pending(), eng.next_event_time()), (0, None));
        assert_eq!(eng.step(), None);
        eng.arm_in(2, 1.0, 7);
        assert_eq!(eng.step(), Some((SimTime::from_secs(1.0), 7)));
    }

    #[test]
    fn time_key_orders_edge_times_like_simtime() {
        let times = [0.0, f64::from_bits(1), 1.0, 1e15, f64::MAX].map(SimTime::from_secs);
        for a in times {
            for b in times {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.cmp(&b), "{a} vs {b}");
                for (sa, sb) in [(0, 0), (0, 1), (1, 0), (u64::MAX, 0)] {
                    assert_eq!(
                        entry_key(a, sa).cmp(&entry_key(b, sb)),
                        (a, sa).cmp(&(b, sb)),
                        "({a}, {sa}) vs ({b}, {sb})"
                    );
                }
            }
        }
        // No real key collides with the cache markers.
        assert!(times.iter().all(|&t| entry_key(t, 0) > UNKNOWN && entry_key(t, 0) < NONE));
    }
}
