//! A self-resizing calendar queue: the bucketed O(1) future-event list.
//!
//! The classic alternative to a binary-heap future-event list (R. Brown,
//! "Calendar queues: a fast O(1) priority queue implementation for the
//! simulation event set problem", CACM 1988). Time is divided into bucket
//! "days" of a fixed width; day `d` hashes to bucket `d mod nbuckets`, so
//! the bucket array is a circular calendar **year** and an event more than
//! a year ahead simply waits in its bucket until the calendar comes back
//! around. Dequeueing walks the days from the current one, popping the
//! earliest entry whose day has arrived. When the pending set outgrows (or
//! undershoots) the bucket array, the whole calendar is rebuilt with a
//! fresh bucket count and a bucket width recalibrated from the observed
//! inter-event gaps, so both push and pop stay O(1) amortized for the
//! near-constant event horizons discrete-event simulations produce.
//!
//! Two choices make the structure exactly interchangeable with the heap:
//!
//! * a bucket is ordered by the `(time, seq)` lexicographic key the heap
//!   uses before the cursor takes anything from it, so ties break FIFO no
//!   matter how entries are distributed;
//! * the current day is an integer counter and an event's day is always
//!   computed as `(time / width) as u64` — the same expression used to pick
//!   its bucket — so there is no accumulated floating-point drift that
//!   could disagree with the bucket assignment and deliver days out of
//!   order.
//!
//! The layout is Brown's original one: each bucket is a singly-linked list
//! threaded through one shared node arena, so the whole calendar is two
//! flat allocations (one `u32` head per bucket plus the arena) however many
//! buckets it has. Popped nodes go onto a free list and are reused by the
//! next push, so a queue whose pending set has stopped growing never
//! touches the allocator, and a rebuild re-threads the live nodes in place.
//!
//! Unlike Brown's, only one bucket is kept sorted: the one the drain cursor
//! last examined. Every other bucket is an unordered stack in push order,
//! so a push a day or more ahead of the cursor (a client's think time, in
//! the simulator) writes its node and one bucket head and reads no other
//! node. The cursor sorts a bucket the first time it examines it, when its
//! nodes are about to be popped anyway.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Smallest bucket array; also the size an empty queue starts with.
const MIN_BUCKETS: usize = 16;
/// Largest bucket array the resize policy will request.
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width as a multiple of the mean inter-event gap at the head of
/// the pending set. 2.0 targets ~2 events per day: wide enough that pops
/// rarely cross empty days, narrow enough that sorting a bucket and linking
/// into the sorted one stay a few hops.
const WIDTH_GAP_FACTOR: f64 = 2.0;
/// How many head events the width recalibration samples.
const WIDTH_SAMPLE: usize = 64;
/// Ceiling on `time / width`: keeps day indices far from `u64` saturation,
/// where distinct times would collapse into one day (still ordered, but a
/// single overfull bucket).
const MAX_DAY: f64 = 1e15;
/// The null node index: ends a bucket list or the free list, and marks an
/// empty bucket.
const NIL: u32 = u32::MAX;

/// One arena slot: a pending event linked into its bucket, or a free slot
/// linked into the free list. Aligned to 32 bytes so a slot never
/// straddles a cache line when the fields fit in 32 (they do for the
/// simulator's event type): a bucket walk costs one line per hop.
#[repr(align(32))]
struct Node<E> {
    time: SimTime,
    /// Push sequence number; breaks `time` ties FIFO.
    seq: u64,
    /// The next node of the same bucket or of the free list; [`NIL`] ends
    /// either list.
    next: u32,
    /// `None` exactly while the slot is on the free list.
    event: Option<E>,
}

/// A time-ordered event queue over a circular calendar of bucket days.
///
/// Drop-in alternative to [`HeapQueue`](crate::HeapQueue) with the same
/// deterministic FIFO tie-breaking; see [`EventQueue`](crate::EventQueue)
/// for the façade most code uses.
pub struct CalendarQueue<E> {
    /// Bucket `i` is the list of every pending event whose day
    /// `d = ⌊time/width⌋` satisfies `d mod nbuckets == i`; `heads[i]` is
    /// its first node's arena index, or [`NIL`] for an empty bucket.
    /// `nbuckets` is always a power of two.
    heads: Vec<u32>,
    /// The one bucket sorted **ascending** by `(time, seq)`, so that its
    /// head is its minimum, or [`NIL`] after a rebuild or clear. Every
    /// other bucket lists its nodes newest push first.
    sorted: u32,
    /// Every node, pending or free. Indices are stable until a rebuild.
    nodes: Vec<Node<E>>,
    /// Head of the free list of recycled nodes, or [`NIL`].
    free: u32,
    /// Width of one bucket day, in seconds. Always positive.
    width: f64,
    /// `1.0 / width`, cached: `day_of` runs on every push and pop, and a
    /// multiply is several times cheaper than a divide.
    inv_width: f64,
    /// The day currently being drained. Invariant: every pending event's
    /// day is `>= cur_day` (pushes into the past move it back).
    cur_day: u64,
    /// Total pending events.
    len: usize,
    next_seq: u64,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![NIL; MIN_BUCKETS],
            sorted: NIL,
            nodes: Vec::new(),
            free: NIL,
            width: 1.0,
            inv_width: 1.0,
            cur_day: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// The day an event at `t` belongs to. Monotone non-decreasing in `t`
    /// (multiplying by a positive constant is monotone under rounding, and
    /// the `as` cast saturates), and the *only* function that maps times to
    /// days — pop's day test and push's bucket choice can never disagree.
    #[inline]
    fn day_of(&self, t: SimTime) -> u64 {
        (t.as_secs() * self.inv_width) as u64
    }

    #[inline]
    fn bucket_of(&self, day: u64) -> usize {
        (day as usize) & (self.heads.len() - 1)
    }

    /// Links node `n` into the sorted bucket `idx` at its `(time, seq)`
    /// position, walking from the head.
    #[inline]
    fn link(&mut self, idx: usize, n: u32) {
        let key = (self.nodes[n as usize].time, self.nodes[n as usize].seq);
        let mut prev = NIL;
        let mut cur = self.heads[idx];
        while cur != NIL {
            let x = &self.nodes[cur as usize];
            if (x.time, x.seq) > key {
                break;
            }
            prev = cur;
            cur = x.next;
        }
        self.nodes[n as usize].next = cur;
        if prev == NIL {
            self.heads[idx] = n;
        } else {
            self.nodes[prev as usize].next = n;
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        let node = Node { time, seq, next: NIL, event: Some(event) };
        let n = if self.free == NIL {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("calendar queue holds at most u32::MAX - 1 events");
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let day = self.day_of(time);
        let idx = self.bucket_of(day);
        if idx as u32 == self.sorted {
            self.link(idx, n);
        } else {
            self.nodes[n as usize].next = self.heads[idx];
            self.heads[idx] = n;
        }
        self.len += 1;
        if self.len == 1 || day < self.cur_day {
            // First event after empty/clear, or a push into an
            // already-drained day: re-anchor the drain cursor on it.
            self.cur_day = day;
        }
        if self.len > 2 * self.heads.len() && self.heads.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = self.find_head()?;
        Some(self.take_head(idx))
    }

    /// The `(time, seq)` key of the earliest pending event, if any. Moves
    /// the drain cursor onto it exactly as [`pop`](CalendarQueue::pop)
    /// would, so a `pop` that follows finds it at once.
    pub fn head_key(&mut self) -> Option<(SimTime, u64)> {
        let idx = self.find_head()?;
        Some(self.key(self.heads[idx]))
    }

    /// Takes the next push sequence number without pushing anything, for
    /// an event held outside the queue that must still order against the
    /// queued ones by `(time, seq)`.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Moves the drain cursor onto the earliest pending event and returns
    /// its bucket, which is then the sorted one with that event at its
    /// head; `None` when the queue is empty.
    #[inline]
    fn find_head(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.heads.len() - 1;
        let mut idx = (self.cur_day as usize) & mask;
        for _ in 0..self.heads.len() {
            let mut head = self.heads[idx];
            if head != NIL {
                if idx as u32 != self.sorted {
                    self.sort_bucket(idx);
                    head = self.heads[idx];
                }
                // The head is this bucket's (time, seq) minimum; it is due
                // if it belongs to the day the cursor is on (a later day in
                // this bucket means the event is >= a full year away).
                if self.day_of(self.nodes[head as usize].time) <= self.cur_day {
                    return Some(idx);
                }
            }
            self.cur_day = self.cur_day.saturating_add(1);
            idx = (idx + 1) & mask;
        }
        // A full lap found nothing due: every pending event is at least a
        // year ahead. Jump the cursor straight to the global minimum.
        let min = self.min_node().expect("len > 0 but no bucket has entries");
        self.cur_day = self.day_of(self.nodes[min as usize].time);
        let idx = self.bucket_of(self.cur_day);
        if idx as u32 != self.sorted {
            self.sort_bucket(idx);
        }
        Some(idx)
    }

    /// Sorts bucket `idx` ascending by `(time, seq)` and makes it the
    /// sorted bucket. An insertion sort that takes the nodes head first:
    /// an unsorted bucket lists them newest push first, so same-instant
    /// ties arrive in descending `seq` and each lands at the front, and
    /// inserting after the previous node when its key is smaller keeps an
    /// already ascending run linear too.
    #[cold]
    #[inline(never)]
    fn sort_bucket(&mut self, idx: usize) {
        self.sorted = idx as u32;
        let mut rest = self.heads[idx];
        let mut head = NIL;
        let mut last = NIL;
        while rest != NIL {
            let n = rest;
            let node = &self.nodes[n as usize];
            rest = node.next;
            let key = (node.time, node.seq);
            let (mut prev, mut cur) = if last != NIL && self.key(last) < key {
                (last, self.nodes[last as usize].next)
            } else {
                (NIL, head)
            };
            while cur != NIL && self.key(cur) < key {
                prev = cur;
                cur = self.nodes[cur as usize].next;
            }
            self.nodes[n as usize].next = cur;
            if prev == NIL {
                head = n;
            } else {
                self.nodes[prev as usize].next = n;
            }
            last = n;
        }
        self.heads[idx] = head;
    }

    /// Node `n`'s place in the delivery order.
    #[inline]
    fn key(&self, n: u32) -> (SimTime, u64) {
        let node = &self.nodes[n as usize];
        (node.time, node.seq)
    }

    /// The pending node with the global `(time, seq)` minimum, found by
    /// walking every bucket list.
    fn min_node(&self) -> Option<u32> {
        let mut best = None;
        for &head in &self.heads {
            let mut cur = head;
            while cur != NIL {
                if best.is_none_or(|b| self.key(cur) < self.key(b)) {
                    best = Some(cur);
                }
                cur = self.nodes[cur as usize].next;
            }
        }
        best
    }

    /// Unlinks the head of the sorted bucket `idx` onto the free list,
    /// applying the shrink policy.
    fn take_head(&mut self, idx: usize) -> (SimTime, E) {
        let n = self.heads[idx];
        let node = &mut self.nodes[n as usize];
        self.heads[idx] = node.next;
        node.next = self.free;
        self.free = n;
        let time = node.time;
        let event = node.event.take().expect("a linked node holds an event");
        self.len -= 1;
        if 4 * self.len < self.heads.len() && self.heads.len() > MIN_BUCKETS {
            self.rebuild();
        }
        (time, event)
    }

    /// The firing time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let mut day = self.cur_day;
        for _ in 0..self.heads.len() {
            let idx = self.bucket_of(day);
            if let Some(t) = self.bucket_min_time(idx) {
                if self.day_of(t) <= day {
                    return Some(t);
                }
            }
            day = day.saturating_add(1);
        }
        self.min_node().map(|n| self.nodes[n as usize].time)
    }

    /// The earliest time in bucket `idx`: the head of the sorted bucket,
    /// or a walk over any other.
    fn bucket_min_time(&self, idx: usize) -> Option<SimTime> {
        let head = self.heads[idx];
        if idx as u32 == self.sorted {
            return (head != NIL).then(|| self.nodes[head as usize].time);
        }
        let mut min = None;
        let mut cur = head;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            min = Some(min.map_or(node.time, |m: SimTime| m.min(node.time)));
            cur = node.next;
        }
        min
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events (the sequence counter keeps advancing,
    /// so FIFO guarantees survive a clear).
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.sorted = NIL;
        self.nodes.clear();
        self.free = NIL;
        self.cur_day = 0;
        self.len = 0;
    }

    /// Number of bucket days (for tests and diagnostics).
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.heads.len()
    }

    /// Rebuilds the whole calendar: bucket count from the pending-set size,
    /// bucket width from the observed head gaps, cursor re-anchored on the
    /// earliest pending event. The live nodes stay where they are in the
    /// arena; only their links are rewritten, and no bucket is sorted.
    fn rebuild(&mut self) {
        self.sorted = NIL;
        if self.len == 0 {
            self.heads.clear();
            self.heads.resize(MIN_BUCKETS, NIL);
            self.nodes.clear();
            self.free = NIL;
            self.width = 1.0;
            self.inv_width = 1.0;
            self.cur_day = 0;
            return;
        }
        // One pass over the arena finds what the recalibration needs: the
        // earliest and latest times and the k-th earliest, k = min(len,
        // WIDTH_SAMPLE), held as the top of a max-heap of the k smallest.
        let k = self.len.min(WIDTH_SAMPLE);
        let mut smallest: BinaryHeap<SimTime> = BinaryHeap::with_capacity(k);
        let mut span: Option<(SimTime, SimTime)> = None;
        for node in self.nodes.iter().filter(|n| n.event.is_some()) {
            let t = node.time;
            span = Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))));
            if smallest.len() < k {
                smallest.push(t);
            } else if smallest.peek().is_some_and(|&top| t < top) {
                smallest.pop();
                smallest.push(t);
            }
        }
        let (t_first, t_last) = span.expect("len > 0");
        let t_k = *smallest.peek().expect("len > 0");

        let nbuckets = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.width = Self::estimate_width(self.len, k, t_first, t_k, t_last);
        let t_last = t_last.as_secs();
        if !(t_last / self.width).is_finite() || t_last / self.width > MAX_DAY {
            // The estimated width is too fine for the absolute times in
            // play; widen so day indices stay well inside u64.
            self.width = t_last / MAX_DAY;
        }
        self.inv_width = 1.0 / self.width;
        self.cur_day = self.day_of(t_first);
        // Prepend oldest slot first: slots fill in push order while the
        // queue grows, so each bucket usually lists its nodes newest push
        // first, the order the sort takes fastest. Free slots keep their
        // links, so the free list survives as is.
        for n in 0..self.nodes.len() {
            if self.nodes[n].event.is_some() {
                let idx = self.bucket_of(self.day_of(self.nodes[n].time));
                self.nodes[n].next = self.heads[idx];
                self.heads[idx] = n as u32;
            }
        }
    }

    /// Bucket width from the mean gap over the first `k` of the `n`
    /// pending events, `t_first` to `t_k` (ties at the head fall back to
    /// the full span to `t_last`, then to 1 s).
    fn estimate_width(n: usize, k: usize, t_first: SimTime, t_k: SimTime, t_last: SimTime) -> f64 {
        let t0 = t_first.as_secs();
        let mut width =
            if k >= 2 { WIDTH_GAP_FACTOR * (t_k.as_secs() - t0) / (k - 1) as f64 } else { 0.0 };
        if width <= 0.0 {
            let span = t_last.as_secs() - t0;
            width = if span > 0.0 { WIDTH_GAP_FACTOR * span / n as f64 } else { 1.0 };
        }
        width
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.heads.len())
            .field("width", &self.width)
            .field("cur_day", &self.cur_day)
            .field("sorted", &self.sorted)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn orders_by_time() {
        let mut q = CalendarQueue::new();
        q.push(t(3.0), 3);
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties_across_resizes() {
        // 1000 same-instant events force several grow rebuilds; the seq
        // tie-break must survive every recalibration.
        let mut q = CalendarQueue::new();
        for i in 0..1000 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_wait_out_their_year() {
        // Events many calendar years ahead share buckets with near ones;
        // the day test must keep them waiting until their time comes.
        let mut q = CalendarQueue::new();
        q.push(t(1e6), "far");
        q.push(t(0.5), "near");
        q.push(t(2e6), "farther");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_below_the_calendar_cursor_reanchors() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.push(t(1000.0 + f64::from(i)), i);
        }
        // Drain a few so the cursor sits around day(1000), then push earlier.
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t(3.0), -1);
        assert_eq!(q.pop().unwrap().1, -1);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn grows_and_shrinks() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.push(t(i as f64 * 0.1), i);
        }
        assert!(q.num_buckets() >= 4096, "grew to {}", q.num_buckets());
        for _ in 0..9_990 {
            q.pop().unwrap();
        }
        assert!(q.num_buckets() <= 64, "shrank to {}", q.num_buckets());
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        let times = [7.0, 3.0, 9.0, 3.0, 1e5, 0.0];
        for (i, &s) in times.iter().enumerate() {
            q.push(t(s), i);
        }
        while let Some(peeked) = q.peek_time() {
            let (popped, _) = q.pop().unwrap();
            assert_eq!(peeked, popped);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_seq_monotone() {
        let mut q = CalendarQueue::new();
        q.push(t(5.0), "a");
        q.clear();
        assert!(q.is_empty());
        q.push(t(5.0), "b");
        q.push(t(5.0), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn full_lap_fallback_finds_the_minimum_of_unsorted_buckets() {
        // 16 buckets of 1 s. After "start" pops, the only sorted bucket is
        // empty, and buckets 3 and 5 hold far events newest push first, so
        // bucket 3 lists a2, b, a: its head is not its (time, seq) minimum.
        // A full lap from day 0 finds nothing due and must jump to the
        // global minimum.
        let mut q = CalendarQueue::new();
        q.push(t(0.0), "start");
        q.push(t(16e6 + 3.0), "a");
        q.push(t(32e6 + 3.0), "b");
        q.push(t(16e6 + 5.0), "c");
        q.push(t(16e6 + 3.0), "a2");
        assert_eq!(q.pop().unwrap().1, "start");
        assert_eq!(q.sorted, 0);
        assert_eq!(q.peek_time(), Some(t(16e6 + 3.0)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "a2", "c", "b"]);
    }

    #[test]
    fn ties_pushed_ahead_of_the_cursor_pop_fifo() {
        // The ties go into a bucket the cursor has not reached, so each
        // push prepends and the bucket is sorted once, on the first pop.
        let mut q = CalendarQueue::new();
        q.push(t(0.0), -1);
        q.push(t(0.5), -2);
        assert_eq!(q.pop().unwrap().1, -1);
        for i in 0..1000 {
            q.push(t(5.0), i);
        }
        assert_ne!(q.sorted as usize, q.bucket_of(q.day_of(t(5.0))));
        assert_eq!(q.pop().unwrap().1, -2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn clear_and_rebuild_unsort_every_bucket() {
        let mut q = CalendarQueue::new();
        q.push(t(1.0), 0);
        q.push(t(2.0), 1);
        q.pop();
        assert_ne!(q.sorted, NIL);
        q.clear();
        assert_eq!(q.sorted, NIL);

        for i in 0..32 {
            q.push(t(f64::from(i)), i);
        }
        q.pop();
        assert_ne!(q.sorted, NIL);
        // The 33rd pending event passes 2 x 16 buckets: a grow rebuild.
        q.push(t(40.0), 40);
        q.push(t(41.0), 41);
        assert_eq!(q.num_buckets(), 64);
        assert_eq!(q.sorted, NIL);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (1..32).chain([40, 41]).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_time_scales_stay_ordered() {
        // Forces the MAX_DAY width guard: nanosecond-scale gaps at the head
        // calibrate a ~2e-11 s width, and the lone far event at 1e6 s would
        // then land on day 5e16 — past the guard's ceiling — so the rebuild
        // must widen the days instead of letting indices saturate.
        let mut q = CalendarQueue::new();
        q.push(t(1e6), 1000u64);
        for i in 0..100u64 {
            q.push(t(i as f64 * 1e-11), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u64> = (0..100).chain([1000]).collect();
        assert_eq!(order, expected);
    }
}
