//! The reference keyed event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use iceclave_types::SimTime;

/// The reference keyed queue: a plain binary heap over
/// *(time, key, insertion seq)*.
///
/// This is the original `KeyedEventQueue` implementation, retained as
/// the ordering oracle for the calendar-queue rewrite: the
/// equivalence tests drive both structures with the same schedule and
/// assert identical pop sequences.
#[derive(Debug)]
pub struct HeapKeyedEventQueue<K, E> {
    heap: BinaryHeap<KeyedEntry<K, E>>,
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

impl<K: Ord, E> HeapKeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapKeyedEventQueue {
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

impl<K: Ord, E> Default for HeapKeyedEventQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iceclave_sim::KeyedEventQueue;
    use iceclave_types::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    /// Deterministic xorshift so the equivalence schedules need no
    /// external randomness.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// The calendar queue pops the exact *(time, key, seq)* order of
    /// the heap reference on mixed push/pop schedules that cross every
    /// level (current window, near ring, far overflow, past),
    /// including key ties and exact collisions.
    #[test]
    fn keyed_calendar_matches_heap_reference() {
        for seed in 1..=8u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut cal: KeyedEventQueue<(u64, u32), u64> = KeyedEventQueue::new();
            let mut heap: HeapKeyedEventQueue<(u64, u32), u64> = HeapKeyedEventQueue::new();
            let mut t_ns = 0u64;
            let mut payload = 0u64;
            for step in 0..4000u64 {
                let roll = rng.next() % 100;
                if roll < 60 {
                    // Near-monotonic push: jitter around the drain
                    // front, spanning several bucket widths.
                    let dt = rng.next() % 60_000; // up to ~60 µs
                    let time = at(t_ns + dt);
                    let key = (rng.next() % 7, (rng.next() % 3) as u32);
                    cal.push(time, key, payload);
                    heap.push(time, key, payload);
                    payload += 1;
                } else if roll < 70 && step > 100 {
                    // Far-future or past outlier.
                    let time = if roll.is_multiple_of(2) {
                        at(t_ns + 2_000_000 + rng.next() % 8_000_000)
                    } else {
                        at(t_ns / 2)
                    };
                    let key = (rng.next() % 7, (rng.next() % 3) as u32);
                    cal.push(time, key, payload);
                    heap.push(time, key, payload);
                    payload += 1;
                } else {
                    assert_eq!(cal.peek_time(), heap.peek_time(), "seed {seed} step {step}");
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "seed {seed} step {step}");
                    if let Some((time, _, _)) = a {
                        t_ns = (time.as_ps() / 1_000).max(t_ns);
                    }
                }
                assert_eq!(cal.len(), heap.len());
            }
            while let Some(b) = heap.pop() {
                assert_eq!(cal.pop(), Some(b), "drain tail, seed {seed}");
            }
            assert!(cal.is_empty());
            assert_eq!(cal.peek_time(), None);
        }
    }
}
