//! Time-ordered event queues with deterministic FIFO tie-breaking.
//!
//! Two interchangeable implementations of the future event list share the
//! exact `(time, seq)` total order:
//!
//! * [`CalendarQueue`](crate::CalendarQueue) — the bucketed O(1) scheduler,
//!   the default;
//! * [`HeapQueue`] — the classic binary heap, kept as the reference
//!   implementation and differential-testing oracle.
//!
//! [`EventQueue`] is the façade the engine uses: it dispatches to one of
//! the two, selected by [`QueueKind`]. Because both implementations agree
//! on the total order, every simulation result is bit-identical whichever
//! one runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::calendar::CalendarQueue;
use crate::time::SimTime;

/// A pending event: its firing time plus an insertion sequence number used to
/// break ties, so that events scheduled for the same instant fire in the
/// order they were scheduled (FIFO). Determinism of the whole simulation
/// hinges on this tie-breaking being stable.
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Selects the future-event-list implementation behind [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QueueKind {
    /// The bucketed calendar queue (O(1) amortized push/pop; the default).
    #[default]
    Calendar,
    /// The binary heap (O(log n); reference implementation).
    Heap,
}

/// A priority queue of future events backed by a binary heap.
///
/// The reference implementation of the future event list: O(log n) per
/// operation, trivially correct, and the oracle the calendar queue is
/// differentially tested against. Most code should use [`EventQueue`]
/// instead and let [`QueueKind`] pick the implementation.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The `(time, seq)` key of the earliest pending event, if any. Takes
    /// `&mut self` only to match [`CalendarQueue::head_key`].
    pub fn head_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Takes the next push sequence number without pushing anything, for
    /// an event held outside the queue that must still order against the
    /// queued ones by `(time, seq)`.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events (the sequence counter keeps advancing, so
    /// FIFO ordering guarantees survive a clear).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

enum Inner<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
}

/// A priority queue of future events, ordered by firing time.
///
/// Events scheduled for the same instant are delivered in scheduling order.
/// This is the "future event list" of a classic discrete-event simulator;
/// most users drive it through [`Engine`](crate::Engine) rather than
/// directly. The backing implementation is a [`CalendarQueue`] by default;
/// [`EventQueue::with_kind`] selects the [`HeapQueue`] reference
/// implementation instead. Both produce the identical pop sequence for any
/// push/pop schedule.
///
/// # Examples
///
/// ```
/// use geodns_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "b");
/// q.push(SimTime::from_secs(1.0), "a");
/// q.push(SimTime::from_secs(2.0), "c"); // same instant as "b": FIFO
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    inner: Inner<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (calendar-backed).
    #[must_use]
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Creates an empty queue backed by the given implementation.
    #[must_use]
    pub fn with_kind(kind: QueueKind) -> Self {
        let inner = match kind {
            QueueKind::Calendar => Inner::Calendar(CalendarQueue::new()),
            QueueKind::Heap => Inner::Heap(HeapQueue::new()),
        };
        EventQueue { inner }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_kind(capacity, QueueKind::Calendar)
    }

    /// Creates an empty queue of the given kind sized for `capacity`
    /// pending events.
    #[must_use]
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        let inner = match kind {
            // The calendar sizes itself from the live pending set; a
            // capacity hint cannot improve on its recalibration.
            QueueKind::Calendar => Inner::Calendar(CalendarQueue::new()),
            QueueKind::Heap => Inner::Heap(HeapQueue::with_capacity(capacity)),
        };
        EventQueue { inner }
    }

    /// Which implementation backs this queue.
    #[must_use]
    pub fn kind(&self) -> QueueKind {
        match &self.inner {
            Inner::Calendar(_) => QueueKind::Calendar,
            Inner::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedules `event` to fire at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        match &mut self.inner {
            Inner::Calendar(q) => q.push(time, event),
            Inner::Heap(q) => q.push(time, event),
        }
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Inner::Calendar(q) => q.pop(),
            Inner::Heap(q) => q.pop(),
        }
    }

    /// The `(time, seq)` key of the earliest pending event, if any. The
    /// calendar moves its drain cursor onto that event, so a
    /// [`pop`](EventQueue::pop) that follows finds it at once.
    #[inline]
    pub fn head_key(&mut self) -> Option<(SimTime, u64)> {
        match &mut self.inner {
            Inner::Calendar(q) => q.head_key(),
            Inner::Heap(q) => q.head_key(),
        }
    }

    /// Takes the next push sequence number without pushing anything: an
    /// event held outside the queue with this `seq` orders against the
    /// queued ones exactly as if it had been pushed now.
    #[inline]
    pub fn take_seq(&mut self) -> u64 {
        match &mut self.inner {
            Inner::Calendar(q) => q.take_seq(),
            Inner::Heap(q) => q.take_seq(),
        }
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.inner {
            Inner::Calendar(q) => q.peek_time(),
            Inner::Heap(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Calendar(q) => q.len(),
            Inner::Heap(q) => q.len(),
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events (the sequence counter keeps advancing, so
    /// FIFO ordering guarantees survive a clear).
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Calendar(q) => q.clear(),
            Inner::Heap(q) => q.clear(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Calendar(q) => q.fmt(f),
            Inner::Heap(q) => q.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn both() -> [EventQueue<i32>; 2] {
        [EventQueue::with_kind(QueueKind::Calendar), EventQueue::with_kind(QueueKind::Heap)]
    }

    #[test]
    fn orders_by_time() {
        for mut q in both() {
            q.push(t(3.0), 3);
            q.push(t(1.0), 1);
            q.push(t(2.0), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3], "{:?}", q.kind());
        }
    }

    #[test]
    fn fifo_on_ties() {
        for mut q in both() {
            for i in 0..100 {
                q.push(t(5.0), i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{:?}", q.kind());
        }
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        for mut q in both() {
            q.push(t(1.0), 0);
            q.push(t(5.0), 1);
            assert_eq!(q.pop().unwrap().1, 0);
            q.push(t(5.0), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        for mut q in both() {
            q.push(t(7.0), 0);
            assert_eq!(q.peek_time(), Some(t(7.0)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn clear_empties() {
        for mut q in both() {
            q.push(t(1.0), 0);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::Calendar);
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }

    /// The tentpole guarantee: both implementations produce the identical
    /// `(time, event)` pop sequence when driven with the same schedule
    /// trace — including same-instant bursts, interleaved pops, far-future
    /// outliers, and enough volume to cross several calendar resizes.
    #[test]
    fn differential_trace_calendar_vs_heap() {
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        // xorshift64* driven schedule: mixed horizons plus frequent ties.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut now = 0.0_f64;
        for i in 0..50_000u64 {
            let r = rng();
            let delay = match r % 10 {
                0..=4 => (r >> 32) as f64 % 8.0,   // near future
                5..=7 => (r >> 32) as f64 % 240.0, // TTL horizon
                8 => 0.0,                          // same-instant tie
                _ => 1e4 + (r >> 32) as f64 % 1e5, // far-future outlier
            };
            let time = t(now + delay);
            cal.push(time, i);
            heap.push(time, i);
            if r % 3 == 0 {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {i}");
                if let Some((popped, _)) = a {
                    now = popped.as_secs();
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence in final drain");
            if a.is_none() {
                break;
            }
        }
    }
}
