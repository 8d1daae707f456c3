//! A generic time-ordered event queue with stable FIFO tie-breaking.
//!
//! The queue is a `BinaryHeap` over `(Reverse(time), Reverse(seq))` so that
//! (a) the earliest event pops first and (b) events scheduled at the same
//! instant pop in insertion order — important for determinism when, e.g.,
//! several reservations end at the top of the hour.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: invert so earliest (time, seq) is the maximum.
        (Reverse(self.time), Reverse(self.seq)).cmp(&(Reverse(other.time), Reverse(other.seq)))
    }
}

/// Time-ordered event queue.
///
/// ```
/// use opml_simkernel::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime(10), "later");
/// q.push(SimTime(5), "sooner");
/// q.push(SimTime(5), "sooner-but-second");
/// assert_eq!(q.pop().unwrap(), (SimTime(5), "sooner"));
/// assert_eq!(q.pop().unwrap(), (SimTime(5), "sooner-but-second"));
/// assert_eq!(q.pop().unwrap(), (SimTime(10), "later"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pops: u64,
    high_water: usize,
}

/// Lifetime statistics of an [`EventQueue`], for the telemetry layer.
/// The kernel deliberately has no telemetry dependency (telemetry
/// depends on the kernel for `SimTime`); callers read these counters
/// into their metrics registry instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Total events ever scheduled.
    pub pushes: u64,
    /// Total events ever dequeued.
    pub pops: u64,
    /// Largest number of simultaneously pending events.
    pub high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pops: 0,
            high_water: 0,
        }
    }

    /// Create an empty queue sized for `capacity` pending events, so a
    /// hot loop with a predictable backlog never regrows the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            pops: 0,
            high_water: 0,
        }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.payload));
        if popped.is_some() {
            self.pops += 1;
        }
        popped
    }

    /// Lifetime push/pop/high-water statistics.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.next_seq,
            pops: self.pops,
            high_water: self.high_water,
        }
    }

    /// The timestamp of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain all events scheduled at or before `now`, in order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, E)> {
        let mut due = Vec::new();
        while self.peek_time().is_some_and(|t| t <= now) {
            due.push(self.pop().expect("peeked event must pop"));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 3);
        q.push(SimTime(10), 1);
        q.push(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_splits_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 'a');
        q.push(SimTime(10), 'b');
        q.push(SimTime(15), 'c');
        let due = q.pop_due(SimTime(10));
        assert_eq!(
            due.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
            vec!['a', 'b']
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(15)));
    }

    #[test]
    fn stats_track_pushes_pops_high_water() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        q.push(SimTime(1), 'a');
        q.push(SimTime(2), 'b');
        q.push(SimTime(3), 'c');
        let _ = q.pop();
        q.push(SimTime(4), 'd');
        let stats = q.stats();
        assert_eq!(stats.pushes, 4);
        assert_eq!(stats.pops, 1);
        assert_eq!(stats.high_water, 3);
        while q.pop().is_some() {}
        assert_eq!(q.stats().pops, 4);
        // Popping empty does not count.
        assert!(q.pop().is_none());
        assert_eq!(q.stats().pops, 4);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert!(q.pop_due(SimTime(100)).is_empty());
    }
}
