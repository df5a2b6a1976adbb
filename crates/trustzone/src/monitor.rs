//! The secure monitor: world switching and its cost.
//!
//! Crossing between the normal and secure worlds goes through the
//! monitor (SMC on real hardware). Table 5 measures the round trip at
//! 3.8 us on the Cosmos+ FPGA prototype; IceClave's design goal is to
//! make these switches *rare* by serving address translation from the
//! protected region (§4.2 and the 0.17% miss rate of §6.3).

use iceclave_sim::Resource;
use iceclave_types::{SimDuration, SimTime};

use crate::attributes::World;

/// Switch statistics for reports. The time spent switching is
/// `switches` times [`WorldMonitor::switch_cost`].
#[derive(Copy, Clone, Debug, Default)]
pub struct SwitchStats {
    /// Number of world switches performed.
    pub switches: u64,
}

/// Tracks the current world of one core and bills switch latency.
///
/// # Examples
///
/// ```
/// use iceclave_trustzone::{World, WorldMonitor};
/// use iceclave_types::{SimDuration, SimTime};
///
/// let mut monitor = WorldMonitor::new(SimDuration::from_nanos(3800));
/// let t = monitor.switch_to(World::Secure, SimTime::ZERO);
/// assert_eq!(t.as_nanos(), 3800);
/// // Already secure: no cost.
/// assert_eq!(monitor.switch_to(World::Secure, t), t);
/// ```
#[derive(Clone, Debug)]
pub struct WorldMonitor {
    current: World,
    switch_cost: SimDuration,
    /// The monitor executes on the core: overlapping switch requests
    /// serialize on this timeline (parallel flash requests cannot all
    /// be in the secure world at once — the Figure 5 effect).
    timeline: Resource,
    stats: SwitchStats,
}

impl WorldMonitor {
    /// Creates a monitor starting in the normal world (where offloaded
    /// programs run).
    pub fn new(switch_cost: SimDuration) -> Self {
        WorldMonitor {
            current: World::Normal,
            switch_cost,
            timeline: Resource::new("secure-monitor"),
            stats: SwitchStats::default(),
        }
    }

    /// The Table 5 cost: 3.8 us per switch.
    pub fn with_table5_cost() -> Self {
        Self::new(SimDuration::from_nanos(3800))
    }

    /// The world the core currently executes in.
    pub fn current(&self) -> World {
        self.current
    }

    /// Switches to `world` if not already there, returning the time the
    /// switch completes. Concurrent switch requests queue behind each
    /// other on the monitor's timeline.
    pub fn switch_to(&mut self, world: World, now: SimTime) -> SimTime {
        if world == self.current {
            return now;
        }
        self.current = world;
        self.stats.switches += 1;
        self.timeline.acquire(now, self.switch_cost).end
    }

    /// Runs `f` in `world` and returns to the original world afterward,
    /// billing both switches; the whole round trip holds the monitor's
    /// timeline, so concurrent service calls serialize. Returns the
    /// completion time.
    ///
    /// This is the shape of every secure-world service call: the
    /// round-trip cost is why IceClave keeps the mapping table readable
    /// from the normal world.
    pub fn call_into<F>(&mut self, world: World, now: SimTime, f: F) -> SimTime
    where
        F: FnOnce(SimTime) -> SimTime,
    {
        if world == self.current {
            return f(now);
        }
        let entered = self.timeline.acquire(now, self.switch_cost).end;
        self.stats.switches += 1;
        let done = f(entered);
        // The return switch also holds the timeline until complete.
        let span = self.timeline.acquire(done, self.switch_cost);
        self.stats.switches += 1;
        span.end
    }

    /// Switch statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The configured per-switch cost.
    pub fn switch_cost(&self) -> SimDuration {
        self.switch_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_normal_world() {
        let m = WorldMonitor::with_table5_cost();
        assert_eq!(m.current(), World::Normal);
    }

    #[test]
    fn switch_bills_once_per_transition() {
        let mut m = WorldMonitor::with_table5_cost();
        let t1 = m.switch_to(World::Secure, SimTime::ZERO);
        let t2 = m.switch_to(World::Secure, t1);
        assert_eq!(t1, t2);
        assert_eq!(m.stats().switches, 1);
        let t3 = m.switch_to(World::Normal, t2);
        assert_eq!(m.stats().switches, 2);
        assert_eq!(t3.saturating_since(SimTime::ZERO).as_nanos(), 2 * 3800);
    }

    #[test]
    fn call_into_round_trips() {
        let mut m = WorldMonitor::with_table5_cost();
        let service = SimDuration::from_micros(10);
        let done = m.call_into(World::Secure, SimTime::ZERO, |t| t + service);
        assert_eq!(m.current(), World::Normal);
        assert_eq!(m.stats().switches, 2);
        assert_eq!(
            done.saturating_since(SimTime::ZERO),
            service + SimDuration::from_nanos(2 * 3800)
        );
    }

    #[test]
    fn call_into_same_world_is_free() {
        let mut m = WorldMonitor::with_table5_cost();
        let done = m.call_into(World::Normal, SimTime::ZERO, |t| t);
        assert_eq!(done, SimTime::ZERO);
        assert_eq!(m.stats().switches, 0);
    }
}
