//! Resource timelines: the core timing primitive of the simulator.

use std::fmt;

use iceclave_types::{SimDuration, SimTime};

/// The span during which a resource served one request.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct ServiceSpan {
    /// When service began (>= arrival; later if the request queued).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

impl ServiceSpan {
    /// Queueing delay experienced before service began.
    #[inline]
    pub fn wait_since(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_since(arrival)
    }

    /// Total latency from `arrival` to completion.
    #[inline]
    pub fn latency_since(&self, arrival: SimTime) -> SimDuration {
        self.end.saturating_since(arrival)
    }

    /// Service duration (excluding queueing).
    #[inline]
    pub fn service(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A single-server resource with FIFO queueing, modelled as a timeline.
///
/// A request arriving at `t` with service time `s` starts at
/// `max(t, next_free)` and completes `s` later; `next_free` advances to the
/// completion time. Busy time and operation counts are tracked for
/// utilization reports.
///
/// # Examples
///
/// ```
/// use iceclave_sim::Resource;
/// use iceclave_types::{SimDuration, SimTime};
///
/// let mut die = Resource::new("die0");
/// let read = die.acquire(SimTime::ZERO, SimDuration::from_micros(50));
/// assert_eq!(read.service(), SimDuration::from_micros(50));
/// assert_eq!(die.operations(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Resource {
    name: String,
    next_free: SimTime,
    busy: SimDuration,
    operations: u64,
}

impl Resource {
    /// Creates an idle resource with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            operations: 0,
        }
    }

    /// Serves a request arriving at `arrival` for `service` time,
    /// returning the span actually occupied.
    #[inline]
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> ServiceSpan {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.operations += 1;
        ServiceSpan { start, end }
    }

    /// Earliest time a new request could begin service.
    #[inline]
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Applies the aggregate effect of `operations` acquisitions whose
    /// chaining the caller computed externally (each must have used the
    /// same `max(arrival, next_free) + service` rule, starting from
    /// this resource's current [`Resource::next_free`]). Streaming
    /// inner loops use this to keep per-item state in registers and
    /// touch the resource once per run instead of once per item.
    #[inline]
    pub fn commit_run(&mut self, next_free: SimTime, busy: SimDuration, operations: u64) {
        debug_assert!(next_free >= self.next_free);
        self.next_free = next_free;
        self.busy += busy;
        self.operations += operations;
    }

    /// Total time this resource has spent serving requests.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of requests served.
    #[inline]
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Diagnostic name given at construction.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Utilization in `[0, 1]` relative to `horizon` (typically the end of
    /// the simulation). Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
        }
    }

    /// Resets the timeline and statistics, keeping the name.
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
        self.operations = 0;
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops, busy {}",
            self.name, self.operations, self.busy
        )
    }
}

/// A pool of `k` identical servers (e.g., the SSD's embedded cores).
///
/// Requests are dispatched to the earliest-free server, modelling an
/// M/G/k-style queue deterministically.
///
/// # Examples
///
/// ```
/// use iceclave_sim::ResourcePool;
/// use iceclave_types::{SimDuration, SimTime};
///
/// let mut cores = ResourcePool::new("ssd-cores", 2);
/// let s = SimDuration::from_millis(1);
/// let a = cores.acquire(SimTime::ZERO, s);
/// let b = cores.acquire(SimTime::ZERO, s);
/// let c = cores.acquire(SimTime::ZERO, s);
/// // Two run in parallel, the third queues behind the first to finish.
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::ZERO);
/// assert_eq!(c.start, a.end.min(b.end));
/// ```
#[derive(Clone, Debug)]
pub struct ResourcePool {
    servers: Vec<Resource>,
}

impl ResourcePool {
    /// Creates a pool of `count` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(name: impl Into<String>, count: usize) -> Self {
        assert!(count > 0, "resource pool must have at least one server");
        let name = name.into();
        let servers = (0..count)
            .map(|i| Resource::new(format!("{name}[{i}]")))
            .collect();
        ResourcePool { servers }
    }

    /// Serves a request on the earliest-free server.
    pub fn acquire(&mut self, arrival: SimTime, service: SimDuration) -> ServiceSpan {
        let idx = self.earliest_free_index();
        self.servers[idx].acquire(arrival, service)
    }

    /// Number of servers in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false: pools have at least one server.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Earliest time any server could begin a new request.
    pub fn next_free(&self) -> SimTime {
        self.servers
            .iter()
            .map(Resource::next_free)
            .min()
            .expect("pool is non-empty")
    }

    /// Total busy time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.servers.iter().map(Resource::busy_time).sum()
    }

    /// Total operations served across all servers.
    pub fn operations(&self) -> u64 {
        self.servers.iter().map(Resource::operations).sum()
    }

    /// Shared view of the individual servers.
    pub fn servers(&self) -> &[Resource] {
        &self.servers
    }

    /// Resets every server.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            s.reset();
        }
    }

    fn earliest_free_index(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.next_free() < self.servers[best].next_free() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn fifo_queueing() {
        let mut r = Resource::new("r");
        let a = r.acquire(SimTime::ZERO, us(10));
        let b = r.acquire(SimTime::ZERO, us(5));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(b.wait_since(SimTime::ZERO), us(10));
        assert_eq!(b.latency_since(SimTime::ZERO), us(15));
    }

    #[test]
    fn idle_gap_is_not_busy_time() {
        let mut r = Resource::new("r");
        r.acquire(SimTime::ZERO, us(10));
        r.acquire(SimTime::ZERO + us(100), us(10));
        assert_eq!(r.busy_time(), us(20));
        assert_eq!(r.next_free(), SimTime::ZERO + us(110));
    }

    #[test]
    fn utilization_is_bounded() {
        let mut r = Resource::new("r");
        r.acquire(SimTime::ZERO, us(50));
        assert_eq!(r.utilization(SimTime::ZERO + us(100)), 0.5);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        assert_eq!(r.utilization(SimTime::ZERO + us(25)), 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r");
        r.acquire(SimTime::ZERO, us(10));
        r.reset();
        assert_eq!(r.next_free(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        assert_eq!(r.operations(), 0);
        assert_eq!(r.name(), "r");
    }

    #[test]
    fn pool_parallelism() {
        let mut p = ResourcePool::new("p", 3);
        for _ in 0..3 {
            let s = p.acquire(SimTime::ZERO, us(10));
            assert_eq!(s.start, SimTime::ZERO);
        }
        let queued = p.acquire(SimTime::ZERO, us(10));
        assert_eq!(queued.start, SimTime::ZERO + us(10));
        assert_eq!(p.operations(), 4);
        assert_eq!(p.busy_time(), us(40));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new("p", 0);
    }
}
