//! The discrete-event queue.
//!
//! [`EventQueue`] orders arbitrary payloads by firing time.  Events scheduled for the
//! same instant pop in the order they were scheduled (FIFO), which keeps simulations
//! deterministic without requiring payloads to be `Ord`.
//!
//! Next to its binary heap the queue keeps `LANES` FIFO lanes.  A caller that
//! knows a group of events is scheduled in nondecreasing time order (events at
//! "now", at "now + a constant", or at the completions of one serial resource)
//! pushes them into a lane with [`EventQueue::schedule_in_lane`]: an O(1)
//! append instead of an O(log n) sift.  Popping takes the earliest
//! `(time, sequence)` among the lane heads and the heap top, so the pop order is
//! exactly that of a heap-only queue.  A lane push that would put its lane out
//! of order goes to the heap instead and is counted in [`LaneStats`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// The payload type `E` is completely opaque to the queue; only the firing time and
/// an internal sequence number determine ordering.  `LANES` is the number of FIFO
/// lanes next to the heap (none by default).
///
/// # Example
///
/// ```
/// use sprinkler_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), "late");
/// q.schedule(SimTime::from_nanos(5), "early");
/// q.schedule(SimTime::from_nanos(5), "early-second");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
///
/// // One lane for events whose times never decrease.
/// let mut q: EventQueue<&str, 1> = EventQueue::with_lanes();
/// q.schedule(SimTime::from_nanos(7), "heap");
/// assert!(q.schedule_in_lane(0, SimTime::from_nanos(3), "lane"));
/// assert!(q.schedule_in_lane(0, SimTime::from_nanos(7), "lane-second"));
/// assert_eq!(q.pop().unwrap().1, "lane");
/// assert_eq!(q.pop().unwrap().1, "heap");
/// assert_eq!(q.pop().unwrap().1, "lane-second");
/// ```
pub struct EventQueue<E, const LANES: usize = 0> {
    heap: BinaryHeap<Entry<E>>,
    lanes: [VecDeque<Entry<E>>; LANES],
    /// Where the earliest pending event sits and when it fires; `None` when
    /// the queue is empty.  Kept current by every push and pop, so
    /// [`EventQueue::peek_time`] and [`EventQueue::pop`] never search.
    head: Option<Head>,
    seq: u64,
    now: SimTime,
    laned: u64,
    fell_back: u64,
}

/// Where the earliest pending event sits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Lane(usize),
}

#[derive(Clone, Copy)]
struct Head {
    at: SimTime,
    source: Source,
}

/// How an [`EventQueue`]'s events were routed since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Every event scheduled, through either method.
    pub scheduled: u64,
    /// Lane pushes that went into their lane.
    pub laned: u64,
    /// Lane pushes that went to the heap because they would have put their
    /// lane out of time order.
    pub fell_back: u64,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse so the earliest time (then lowest
        // sequence number) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty heap-only event queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_lanes()
    }
}

impl<E, const LANES: usize> EventQueue<E, LANES> {
    /// Creates an empty event queue with `LANES` FIFO lanes, positioned at
    /// [`SimTime::ZERO`].
    pub fn with_lanes() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            head: None,
            seq: 0,
            now: SimTime::ZERO,
            laned: 0,
            fell_back: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling an event in the past (before the last popped event) is allowed but
    /// the event will fire "now"; the queue clamps it to the current time so
    /// simulated time never runs backwards.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq(at, Source::Heap);
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedules `payload` to fire at `at` (clamped to now, as in
    /// [`EventQueue::schedule`]) through lane `lane`, and returns whether it
    /// went into the lane.  An event that would fire before the lane's last
    /// event goes to the heap instead, so the pop order is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    pub fn schedule_in_lane(&mut self, lane: usize, at: SimTime, payload: E) -> bool {
        let at = at.max(self.now);
        if self.lanes[lane].back().is_some_and(|last| last.at > at) {
            self.fell_back += 1;
            self.schedule(at, payload);
            return false;
        }
        self.laned += 1;
        let seq = self.next_seq(at, Source::Lane(lane));
        self.lanes[lane].push_back(Entry { at, seq, payload });
        true
    }

    /// Hands out the next sequence number for an event at `at` pushed to
    /// `source`, moving the head there if the event fires first.  A new event
    /// has the highest sequence number, so it is the earliest only when it
    /// fires strictly before the current head.
    fn next_seq(&mut self, at: SimTime, source: Source) -> u64 {
        if self.head.is_none_or(|head| at < head.at) {
            self.head = Some(Head { at, source });
        }
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Removes and returns the next event together with its firing time, advancing
    /// the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.head?.source {
            Source::Heap => self.heap.pop(),
            Source::Lane(lane) => self.lanes[lane].pop_front(),
        }?;
        self.now = entry.at;
        self.head = self.find_head();
        Some((entry.at, entry.payload))
    }

    /// The earliest `(time, sequence)` among the heap top and the lane heads.
    fn find_head(&self) -> Option<Head> {
        let mut best = self.heap.peek().map(|e| (e.at, e.seq, Source::Heap));
        for (lane, entries) in self.lanes.iter().enumerate() {
            if let Some(e) = entries.front() {
                if best.is_none_or(|(at, seq, _)| (e.at, e.seq) < (at, seq)) {
                    best = Some((e.at, e.seq, Source::Lane(lane)));
                }
            }
        }
        best.map(|(at, _, source)| Head { at, source })
    }

    /// Returns the firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|head| head.at)
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events, in the heap and the lanes together.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// How scheduled events were routed between the lanes and the heap.
    pub fn lane_stats(&self) -> LaneStats {
        LaneStats {
            scheduled: self.seq,
            laned: self.laned,
            fell_back: self.fell_back,
        }
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.head = None;
    }
}

impl<E, const LANES: usize> fmt::Debug for EventQueue<E, LANES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("now", &self.now)
            .field("next", &self.peek_time())
            .field("lanes", &LANES)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_nanos(10), "b");
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_nanos(100));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "first");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + Duration::from_nanos(5), "second");
        q.schedule(t + Duration::from_nanos(1), "third");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn debug_output_mentions_len() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1u8);
        let s = format!("{q:?}");
        assert!(s.contains("len"));
    }
}

/// The heap-only queue the lanes were added to, kept as a test-only twin: the
/// laned queue must pop exactly the stream this one pops.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use crate::time::Duration;

    struct ReferenceQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
    }

    impl<E> ReferenceQueue<E> {
        fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        fn schedule(&mut self, at: SimTime, payload: E) {
            let at = at.max(self.now);
            self.heap.push(Entry {
                at,
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            Some((entry.at, entry.payload))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }

    fn before(t: SimTime, nanos: u64) -> SimTime {
        SimTime::from_nanos(t.as_nanos().saturating_sub(nanos))
    }

    /// Drives both queues through one random sequence of heap pushes, lane
    /// pushes, pops and peeks.  Lane times mostly advance, as the simulator's
    /// do, but sometimes step back (an out-of-order push that must fall back
    /// to the heap) or land before now (clamped).  Returns the lane stats.
    fn drive(seed: u64, ops: usize) -> LaneStats {
        let mut rng = DeterministicRng::seeded(seed);
        let mut laned: EventQueue<u64, 3> = EventQueue::with_lanes();
        let mut reference = ReferenceQueue::new();
        let mut lane_clock = [SimTime::ZERO; 3];
        for payload in 0..ops as u64 {
            let now = laned.now();
            assert_eq!(now, reference.now);
            match rng.uniform_u64(10) {
                0..=2 => {
                    let (a, b) = (laned.pop(), reference.pop());
                    assert_eq!(a, b, "seed {seed}: pop {payload} diverged");
                }
                3 => {
                    let at = now + Duration::from_nanos(rng.uniform_u64(500));
                    laned.schedule(at, payload);
                    reference.schedule(at, payload);
                }
                _ => {
                    let lane = rng.uniform_usize(3);
                    let at = match rng.uniform_u64(8) {
                        // Out of order: before the lane's last push.
                        0 => before(lane_clock[lane], 1 + rng.uniform_u64(50)),
                        // In the past: clamped to now.
                        1 => before(now, rng.uniform_u64(50)),
                        // Same instant as the lane's last push.
                        2 => lane_clock[lane].max(now),
                        _ => lane_clock[lane].max(now) + Duration::from_nanos(rng.uniform_u64(80)),
                    };
                    lane_clock[lane] = lane_clock[lane].max(at);
                    laned.schedule_in_lane(lane, at, payload);
                    reference.schedule(at, payload);
                }
            }
            assert_eq!(laned.peek_time(), reference.peek_time(), "seed {seed}");
            assert_eq!(laned.len(), reference.heap.len(), "seed {seed}");
        }
        loop {
            let (a, b) = (laned.pop(), reference.pop());
            assert_eq!(a, b, "seed {seed}: drain diverged");
            if a.is_none() {
                break;
            }
        }
        assert!(laned.is_empty());
        laned.lane_stats()
    }

    #[test]
    fn laned_queue_pops_the_reference_stream() {
        let mut total = LaneStats::default();
        for seed in 0..300 {
            let stats = drive(seed, 400);
            total.scheduled += stats.scheduled;
            total.laned += stats.laned;
            total.fell_back += stats.fell_back;
        }
        // The sequences exercised every route.
        assert!(total.laned > 0);
        assert!(total.fell_back > 0);
        assert!(total.scheduled > total.laned + total.fell_back);
    }
}
