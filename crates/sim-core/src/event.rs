//! A deterministic time-ordered event queue with a caller-supplied
//! same-tick order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use iceclave_types::SimTime;

/// A time-ordered queue whose ties are broken by a caller-supplied
/// key instead of insertion order.
///
/// The batch executor needs a *documented* same-tick order — ticket
/// id, then page index — that must not depend on the incidental order
/// stages were scheduled in. Events at the same time pop in ascending
/// key order (insertion order only breaks exact key collisions).
///
/// A binary heap over *(time, key, insertion seq)*: the executor's
/// queue holds at most a few hundred pending events (one flash grant
/// per channel at a time), so a push or pop is a handful of
/// comparisons.
///
/// # Examples
///
/// ```
/// use iceclave_sim::KeyedEventQueue;
/// use iceclave_types::SimTime;
///
/// let mut q: KeyedEventQueue<(u64, u32), &str> = KeyedEventQueue::new();
/// q.push(SimTime::ZERO, (2, 0), "ticket2");
/// q.push(SimTime::ZERO, (1, 5), "ticket1-page5");
/// q.push(SimTime::ZERO, (1, 0), "ticket1-page0");
/// assert_eq!(q.pop().map(|(_, _, e)| e), Some("ticket1-page0"));
/// assert_eq!(q.pop().map(|(_, _, e)| e), Some("ticket1-page5"));
/// assert_eq!(q.pop().map(|(_, _, e)| e), Some("ticket2"));
/// ```
#[derive(Debug)]
pub struct KeyedEventQueue<K, E> {
    heap: BinaryHeap<KeyedEntry<K, E>>,
    /// Insertion counter: the documented last-resort tie-breaker.
    seq: u64,
}

#[derive(Debug)]
struct KeyedEntry<K, E> {
    time: SimTime,
    key: K,
    seq: u64,
    event: E,
}

impl<K: Ord, E> PartialEq for KeyedEntry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}

impl<K: Ord, E> Eq for KeyedEntry<K, E> {}

impl<K: Ord, E> Ord for KeyedEntry<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest time first, then smallest key,
        // then insertion order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K: Ord, E> PartialOrd for KeyedEntry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time` under `key`.
    pub fn push(&mut self, time: SimTime, key: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(KeyedEntry {
            time,
            key,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event (smallest key among
    /// ties), if any.
    pub fn pop(&mut self) -> Option<(SimTime, K, E)> {
        self.heap.pop().map(|e| (e.time, e.key, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, K, E)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<K: Ord, E> Default for KeyedEventQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iceclave_types::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn keyed_ties_break_by_key_not_insertion() {
        let mut q: KeyedEventQueue<(u64, u32), u32> = KeyedEventQueue::new();
        q.push(at(5), (3, 0), 30);
        q.push(at(5), (1, 2), 12);
        q.push(at(5), (1, 1), 11);
        q.push(at(3), (9, 9), 99);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![99, 11, 12, 30]);
    }

    #[test]
    fn keyed_exact_collisions_fall_back_to_insertion_order() {
        let mut q: KeyedEventQueue<u64, &str> = KeyedEventQueue::new();
        q.push(at(1), 0, "first");
        q.push(at(1), 0, "second");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "second");
    }

    #[test]
    fn keyed_pop_due_respects_now() {
        let mut q: KeyedEventQueue<u64, ()> = KeyedEventQueue::new();
        q.push(at(100), 0, ());
        assert!(q.pop_due(at(50)).is_none());
        assert!(q.pop_due(at(100)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_spans_buckets_and_overflow() {
        // Events microseconds to milliseconds apart, plus a push
        // earlier than everything already queued.
        let mut q: KeyedEventQueue<u64, &str> = KeyedEventQueue::new();
        q.push(at(1_000_000), 0, "anchor"); // 1 ms
        q.push(at(1_000_001), 1, "current");
        q.push(at(1_000_000 + 100_000), 2, "near"); // +100 µs
        q.push(at(1_000_000 + 10_000_000), 3, "far"); // +10 ms
        q.push(at(10), 4, "past");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(at(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["past", "anchor", "current", "near", "far"]);
    }
}
