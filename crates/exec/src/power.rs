//! Power-loss injection: cut the simulation dead at an arbitrary
//! executor event.
//!
//! Where the flash-level fault injector fails *individual operations*
//! (a page read burst, a program pulse), the [`PowerLossInjector`]
//! models the supply rail dropping: the executor stops advancing
//! mid-schedule and every volatile byte on the controller — CMT,
//! metadata caches, in-flight tickets, WFQ lane state, undrained
//! completions — is gone. Only flash-durable bytes (programmed pages
//! and the metadata journal) survive into
//! `IceClave::recover`.
//!
//! Cut points are counted in *processed executor events*, the finest
//! deterministic unit of simulated progress: a cut at index `n` means
//! exactly `n` stage events ran and event `n` never fired. Because the
//! simulation only mutates durable state inside events, every possible
//! crash state is reachable this way — there is no "mid-event" torn
//! state to model.
//!
//! An empty plan ([`PowerLossPlan::none`]) never trips and is
//! event-for-event invisible: the injector only counts events, so a
//! run with an empty plan is byte-identical to a run with no injector
//! at all.

/// When (if ever) to cut power, in processed-executor-event units.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PowerLossPlan {
    cut_after_events: Option<u64>,
}

impl PowerLossPlan {
    /// Never cut power. Installing this plan only counts events
    /// (useful to measure a schedule's event horizon for
    /// [`PowerLossPlan::seeded`]).
    pub fn none() -> Self {
        PowerLossPlan {
            cut_after_events: None,
        }
    }

    /// Cut power immediately before executor event index `n`: exactly
    /// `n` events run, event `n` never fires. `at_event(0)` cuts
    /// before any event runs.
    pub fn at_event(n: u64) -> Self {
        PowerLossPlan {
            cut_after_events: Some(n),
        }
    }

    /// A deterministic pseudo-random cut point in `[0, horizon)`
    /// derived from `seed` (splitmix64 — no external dependency, same
    /// seed same cut). A zero horizon never cuts.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        if horizon == 0 {
            return Self::none();
        }
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        PowerLossPlan {
            cut_after_events: Some(z % horizon),
        }
    }
}

/// The armed injector: a plan plus the running event count.
///
/// Owned by the `Executor`, which consults it immediately before
/// popping each stage event. Once tripped it stays tripped — the
/// executor refuses to advance until the device is rebuilt through
/// recovery.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PowerLossInjector {
    plan: PowerLossPlan,
    events_processed: u64,
    tripped: bool,
}

impl PowerLossInjector {
    /// Arms `plan` with the event counter at zero.
    pub fn new(plan: PowerLossPlan) -> Self {
        PowerLossInjector {
            plan,
            events_processed: 0,
            tripped: false,
        }
    }

    /// Called by the executor at the top of every run-loop iteration:
    /// returns `true` (and latches) when the cut point has been
    /// reached, in which case no further event may run.
    pub(crate) fn check_cut(&mut self) -> bool {
        if self.tripped {
            return true;
        }
        if self.plan.cut_after_events == Some(self.events_processed) {
            self.tripped = true;
        }
        self.tripped
    }

    /// Called by the executor after popping an event that will run.
    pub(crate) fn note_event(&mut self) {
        self.events_processed += 1;
    }

    /// True once power has been cut.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Executor events processed since the injector was armed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The armed plan.
    pub fn plan(&self) -> PowerLossPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_trips() {
        let mut inj = PowerLossInjector::new(PowerLossPlan::none());
        for _ in 0..1000 {
            assert!(!inj.check_cut());
            inj.note_event();
        }
        assert_eq!(inj.events_processed(), 1000);
        assert!(!inj.tripped());
    }

    #[test]
    fn at_event_cuts_exactly_there() {
        let mut inj = PowerLossInjector::new(PowerLossPlan::at_event(3));
        for _ in 0..3 {
            assert!(!inj.check_cut());
            inj.note_event();
        }
        assert!(inj.check_cut(), "event 3 must not run");
        assert!(inj.tripped());
        assert_eq!(inj.events_processed(), 3);
        // The trip latches.
        assert!(inj.check_cut());
    }

    #[test]
    fn at_event_zero_cuts_before_anything() {
        let mut inj = PowerLossInjector::new(PowerLossPlan::at_event(0));
        assert!(inj.check_cut());
        assert_eq!(inj.events_processed(), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = PowerLossPlan::seeded(seed, 100);
            let b = PowerLossPlan::seeded(seed, 100);
            assert_eq!(a, b);
            let cut = a.cut_after_events.expect("non-zero horizon always cuts");
            assert!(cut < 100);
        }
        assert_eq!(PowerLossPlan::seeded(7, 0), PowerLossPlan::none());
    }
}
