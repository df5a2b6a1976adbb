//! A deterministic time-ordered event queue with a caller-supplied
//! same-tick order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use iceclave_types::SimTime;

/// Width of one calendar bucket in picoseconds (16 µs — on the order
/// of one flash-stage hop, so a stage chain usually advances zero or
/// one bucket per event).
const BUCKET_WIDTH_PS: u64 = 16_000_000;

/// Near-future buckets kept in the rotating ring. With 16 µs buckets
/// the ring covers ~1 ms of simulated time — comfortably more than
/// the longest single-stage latency — so the sorted overflow heap
/// only sees genuinely far-future events.
const NEAR_BUCKETS: usize = 64;

/// A time-ordered queue whose ties are broken by a caller-supplied
/// key instead of insertion order.
///
/// The batch executor needs a *documented* same-tick order — ticket
/// id, then page index — that must not depend on the incidental order
/// stages were scheduled in. Events at the same time pop in ascending
/// key order (insertion order only breaks exact key collisions).
///
/// # Implementation
///
/// A bucketed **calendar queue** exploiting the near-monotonicity of
/// simulation event times (events are pushed at or after the time
/// currently being drained, usually within one stage latency of it):
///
/// * the *current* bucket holds the imminent window as a lazily
///   sorted deque — pops are an `O(1)` `pop_front`, and a sort only
///   runs when a push landed out of order since the last one;
/// * a rotating ring of `NEAR_BUCKETS` unsorted buckets of
///   `BUCKET_WIDTH_PS` (64 buckets of 16 µs) holds the near
///   future — pushes are an
///   `O(1)` append, and a bucket is sorted once, when its window
///   becomes current;
/// * a sorted overflow heap holds far-future events beyond the ring
///   (and the rare push *before* the current window), so arbitrary
///   schedules stay correct — they just do not get the fast path.
///
/// The pop order is exactly ascending *(time, key, insertion seq)* —
/// bit-identical to a plain binary heap over the same triple, which
/// the equivalence tests assert on random schedules.
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
    /// Insertion counter: the documented last-resort tie-breaker.
    seq: u64,
    /// Start of the current bucket's window, in picoseconds.
    window_start: u64,
    /// Entries in `[window_start, window_start + BUCKET_WIDTH_PS)`,
    /// drained from the front; ascending by *(time, key, seq)* while
    /// `sorted` holds.
    current: VecDeque<KeyedEntry<K, E>>,
    /// Whether `current` is sorted (pushes clear this only when they
    /// actually land out of order).
    sorted: bool,
    /// Ring of unsorted near-future buckets; logical bucket `i`
    /// (counted from `near_base`) covers the window starting at
    /// `window_start + (i + 1) * BUCKET_WIDTH_PS`.
    near: Vec<VecDeque<KeyedEntry<K, E>>>,
    /// Ring index of the bucket right after `current`'s window.
    near_base: usize,
    /// Total entries across the near ring.
    near_len: usize,
    /// Sorted overflow level: events beyond the ring's horizon.
    far: BinaryHeap<KeyedEntry<K, E>>,
    /// Events pushed *before* the current window (rare; strictly
    /// earlier than everything else, so they drain first).
    past: BinaryHeap<KeyedEntry<K, E>>,
    /// Exact earliest pending time, maintained on every mutation so
    /// `peek_time` stays `O(1)` and `&self`.
    cached_min: Option<SimTime>,
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

/// Ascending *(time, key, seq)* comparison — the documented global
/// pop order (the heap entries' `Ord` is this, inverted for max-heap
/// use).
fn cmp_asc<K: Ord, E>(a: &KeyedEntry<K, E>, b: &KeyedEntry<K, E>) -> Ordering {
    a.time
        .cmp(&b.time)
        .then_with(|| a.key.cmp(&b.key))
        .then_with(|| a.seq.cmp(&b.seq))
}

impl<K: Ord, E> KeyedEventQueue<K, E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            seq: 0,
            window_start: 0,
            current: VecDeque::new(),
            sorted: true,
            near: (0..NEAR_BUCKETS).map(|_| VecDeque::new()).collect(),
            near_base: 0,
            near_len: 0,
            far: BinaryHeap::new(),
            past: BinaryHeap::new(),
            cached_min: None,
        }
    }

    /// End of the ring's horizon: pushes at or past this go to the
    /// overflow heap.
    fn day_end(&self) -> u64 {
        self.window_start
            .saturating_add((NEAR_BUCKETS as u64 + 1) * BUCKET_WIDTH_PS)
    }

    /// Ring slot covering `t_ps` (caller guarantees `t_ps` is past the
    /// current window and before `day_end`).
    fn near_slot(&self, t_ps: u64) -> usize {
        let offset = (t_ps - self.window_start) / BUCKET_WIDTH_PS;
        (self.near_base + offset as usize - 1) % NEAR_BUCKETS
    }

    /// Schedules `event` at `time` under `key`.
    pub fn push(&mut self, time: SimTime, key: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = KeyedEntry {
            time,
            key,
            seq,
            event,
        };
        if self.is_empty() {
            // Re-anchor the calendar at the first event of a fresh
            // schedule so the window tracks the simulation clock.
            self.window_start = time.as_ps();
            self.current.clear();
            self.current.push_back(entry);
            self.sorted = true;
            self.cached_min = Some(time);
            return;
        }
        if self.cached_min.is_none_or(|m| time < m) {
            self.cached_min = Some(time);
        }
        let t = time.as_ps();
        if t < self.window_start {
            self.past.push(entry);
        } else if t < self.window_start.saturating_add(BUCKET_WIDTH_PS) {
            // Keep an already-sorted imminent bucket sorted with a
            // positional insert: the memmove over a small bucket is far
            // cheaper than re-sorting the whole bucket on the next pop
            // when pushes arrive slightly out of order (the common case
            // under near-monotonic schedules).
            match self.current.back() {
                Some(last) if self.sorted && cmp_asc(last, &entry) == Ordering::Greater => {
                    let pos = self
                        .current
                        .partition_point(|e| cmp_asc(e, &entry) != Ordering::Greater);
                    self.current.insert(pos, entry);
                }
                _ => self.current.push_back(entry),
            }
        } else if t < self.day_end() {
            let slot = self.near_slot(t);
            self.near[slot].push_back(entry);
            self.near_len += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Rotates the calendar forward one bucket: the first near bucket
    /// becomes current, and far-future events whose window just
    /// entered the ring's horizon move into the vacated slot.
    fn advance_one(&mut self) {
        debug_assert!(self.current.is_empty());
        self.window_start += BUCKET_WIDTH_PS;
        std::mem::swap(&mut self.current, &mut self.near[self.near_base]);
        self.near_len -= self.current.len();
        self.sorted = self.current.len() <= 1;
        let vacated = self.near_base;
        self.near_base = (self.near_base + 1) % NEAR_BUCKETS;
        let day_end = self.day_end();
        while self.far.peek().is_some_and(|e| e.time.as_ps() < day_end) {
            let e = self.far.pop().expect("peeked");
            self.near[vacated].push_back(e);
            self.near_len += 1;
        }
    }

    /// Advances and sorts until the global minimum sits at
    /// `current.front()`. Caller guarantees the queue is non-empty
    /// and `past` is empty (past entries are strictly earlier than
    /// every bucketed entry and drain first).
    fn ensure_front(&mut self) {
        loop {
            if !self.current.is_empty() {
                if !self.sorted {
                    self.current.make_contiguous().sort_unstable_by(cmp_asc);
                    self.sorted = true;
                }
                return;
            }
            if self.near_len > 0 {
                self.advance_one();
                continue;
            }
            // Only far-future events remain: jump the window to the
            // earliest one and redistribute everything inside the new
            // horizon instead of rotating across the empty gap.
            let t = self.far.peek().expect("non-empty queue").time.as_ps();
            self.window_start = t;
            let day_end = self.day_end();
            let bucket_end = self.window_start.saturating_add(BUCKET_WIDTH_PS);
            while self.far.peek().is_some_and(|e| e.time.as_ps() < day_end) {
                let e = self.far.pop().expect("peeked");
                if e.time.as_ps() < bucket_end {
                    self.current.push_back(e);
                } else {
                    let slot = self.near_slot(e.time.as_ps());
                    self.near[slot].push_back(e);
                    self.near_len += 1;
                }
            }
            self.sorted = self.current.len() <= 1;
        }
    }

    /// Recomputes `cached_min` after a removal, normalizing the
    /// calendar so the next minimum is exposed at the front.
    fn refresh_min(&mut self) {
        if self.is_empty() {
            self.cached_min = None;
            return;
        }
        if let Some(top) = self.past.peek() {
            self.cached_min = Some(top.time);
            return;
        }
        self.ensure_front();
        self.cached_min = self.current.front().map(|e| e.time);
    }

    /// Removes and returns the earliest event (smallest key among
    /// ties), if any.
    pub fn pop(&mut self) -> Option<(SimTime, K, E)> {
        if self.is_empty() {
            return None;
        }
        if let Some(e) = self.past.pop() {
            self.refresh_min();
            return Some((e.time, e.key, e.event));
        }
        self.ensure_front();
        let e = self.current.pop_front().expect("ensure_front exposes min");
        self.refresh_min();
        Some((e.time, e.key, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_min
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, K, E)> {
        match self.cached_min {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.near_len + self.far.len() + self.past.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty() && self.near_len == 0 && self.far.is_empty() && self.past.is_empty()
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
        // One event per level: current bucket, near ring, far heap,
        // plus a past push after draining has anchored the window.
        let mut q: KeyedEventQueue<u64, &str> = KeyedEventQueue::new();
        q.push(at(1_000_000), 0, "anchor"); // 1 ms anchor
        q.push(at(1_000_001), 1, "current");
        q.push(at(1_000_000 + 100_000), 2, "near"); // +100 µs: ring
        q.push(at(1_000_000 + 10_000_000), 3, "far"); // +10 ms: overflow
        q.push(at(10), 4, "past");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(at(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["past", "anchor", "current", "near", "far"]);
    }
}
