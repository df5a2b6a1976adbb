//! Closed-loop antagonist duel — the shared harness behind the WFQ
//! fairness acceptance tests (`tests/wfq_fairness.rs`) and the
//! `fairness` bench (`BENCH_fairness.json`).
//!
//! One role (the *antagonist*) keeps a configurable number of 32-page
//! read tickets in flight; the other (the *victim*) cycles small
//! 4-page tickets — the latency-sensitive pattern the fair-queueing
//! channel arbiter protects (Figures 17/18).
//! The roles run either as two tenants, which the arbiter keeps apart,
//! or inside **one** tenant ([`DuelConfig::shared_tenant`]), whose one
//! lane per channel issues both roles' pages in *(ready, ticket, page)*
//! order with no arbitration between them. Both roles run closed-loop:
//! every completed ticket is immediately resubmitted at the
//! (quantized) completion time, so the duel is fully deterministic.

use std::collections::HashMap;

use iceclave_core::IceClave;
use iceclave_types::{Lpn, SimDuration, SimTime};

use crate::modes::{Mode, Overrides};

/// Pages per antagonist ticket.
pub const ANTAGONIST_TICKET_PAGES: u64 = 32;
/// Pages per victim ticket.
pub const VICTIM_TICKET_PAGES: u64 = 4;

/// Full parameterization of one closed-loop duel.
#[derive(Clone, Debug)]
pub struct DuelConfig {
    /// Flash channels on the device.
    pub channels: u32,
    /// 32-page antagonist tickets kept in flight.
    pub antagonist_in_flight: usize,
    /// 4-page victim tickets kept in flight (1 = strictly solo).
    pub victim_in_flight: usize,
    /// Victim tickets to complete before the duel ends.
    pub victim_tickets: usize,
    /// When true, antagonist and victim share **one** TEE: its lanes
    /// issue both roles' pages in *(ready, ticket, page)* order, so
    /// nothing shields the victim from the antagonist's backlog.
    pub shared_tenant: bool,
}

/// Outcome of one closed-loop duel run.
#[derive(Clone, Debug)]
pub struct DuelOutcome {
    /// Per-ticket latency of every completed victim ticket
    /// (submission to last page ready).
    pub victim_latencies: Vec<SimDuration>,
    /// Victim pages drained during the duel window.
    pub victim_pages: u64,
    /// Antagonist pages drained during the duel window.
    pub antagonist_pages: u64,
}

/// Runs one closed-loop duel as `cfg` describes: the antagonist keeps
/// its 32-page tickets in flight and the victim its 4-page tickets
/// until the victim has completed `cfg.victim_tickets` of them.
///
/// # Panics
///
/// Panics if the device cannot be populated or a submission fails —
/// the duel uses only granted pages, so any error is a harness bug.
pub fn run_duel(cfg: &DuelConfig) -> DuelOutcome {
    let overrides = Overrides {
        channels: Some(cfg.channels),
        ..Overrides::none()
    };
    let mut ice = IceClave::new(Mode::IceClave.ssd_config(&overrides));
    let ant_range = ANTAGONIST_TICKET_PAGES * cfg.antagonist_in_flight as u64;
    let t0 = ice
        .populate(Lpn::new(0), ant_range + 64, SimTime::ZERO)
        .expect("device holds the duel");
    let ant_lpns: Vec<Lpn> = (0..ant_range).map(Lpn::new).collect();
    let victim_lpns: Vec<Lpn> = (ant_range..ant_range + 64).map(Lpn::new).collect();
    let (ant, victim, t0) = if cfg.shared_tenant {
        let all_lpns: Vec<Lpn> = (0..ant_range + 64).map(Lpn::new).collect();
        let (tenant, t0) = ice
            .offload_code(1024, &all_lpns, t0)
            .expect("shared tenant");
        (tenant, tenant, t0)
    } else {
        let (ant, _) = ice.offload_code(1024, &ant_lpns, t0).expect("antagonist");
        let (victim, t0) = ice.offload_code(1024, &victim_lpns, t0).expect("victim");
        (ant, victim, t0)
    };

    struct InFlight {
        is_victim: bool,
        submitted: SimTime,
        remaining: u64,
        last_ready: SimTime,
    }
    let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
    let mut ant_cursor = 0usize;
    let mut victim_cursor = 0usize;
    let submit = |ice: &mut IceClave,
                  is_victim: bool,
                  cursor: &mut usize,
                  at: SimTime,
                  in_flight: &mut HashMap<u64, InFlight>| {
        let (tee, lpns, pages) = if is_victim {
            (victim, &victim_lpns, VICTIM_TICKET_PAGES as usize)
        } else {
            (ant, &ant_lpns, ANTAGONIST_TICKET_PAGES as usize)
        };
        let start = (*cursor * pages) % lpns.len();
        *cursor += 1;
        let ticket = ice
            .submit_batch_async(tee, &lpns[start..start + pages], at)
            .expect("granted batch");
        in_flight.insert(
            ticket.raw(),
            InFlight {
                is_victim,
                submitted: at,
                remaining: pages as u64,
                last_ready: at,
            },
        );
    };
    for _ in 0..cfg.antagonist_in_flight {
        submit(&mut ice, false, &mut ant_cursor, t0, &mut in_flight);
    }
    for _ in 0..cfg.victim_in_flight {
        submit(&mut ice, true, &mut victim_cursor, t0, &mut in_flight);
    }

    let step = SimDuration::from_micros(5);
    let mut now = t0;
    let mut outcome = DuelOutcome {
        victim_latencies: Vec::with_capacity(cfg.victim_tickets),
        victim_pages: 0,
        antagonist_pages: 0,
    };
    while outcome.victim_latencies.len() < cfg.victim_tickets {
        now += step;
        for ev in ice.poll_completions(now) {
            let entry = in_flight.get_mut(&ev.ticket.raw()).expect("known ticket");
            entry.remaining -= 1;
            entry.last_ready = entry.last_ready.max(ev.ready_at());
            if entry.is_victim {
                outcome.victim_pages += 1;
            } else {
                outcome.antagonist_pages += 1;
            }
            if entry.remaining == 0 {
                let closed = in_flight.remove(&ev.ticket.raw()).expect("present");
                if closed.is_victim {
                    outcome
                        .victim_latencies
                        .push(closed.last_ready.saturating_since(closed.submitted));
                    if outcome.victim_latencies.len() < cfg.victim_tickets {
                        submit(&mut ice, true, &mut victim_cursor, now, &mut in_flight);
                    }
                } else {
                    submit(&mut ice, false, &mut ant_cursor, now, &mut in_flight);
                }
            }
        }
    }
    outcome
}

/// The p99 of a latency sample (by sorting; the samples are small).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn p99(latencies: &[SimDuration]) -> SimDuration {
    assert!(!latencies.is_empty(), "p99 of an empty sample");
    let mut sorted: Vec<SimDuration> = latencies.to_vec();
    sorted.sort();
    sorted[(sorted.len() * 99).div_ceil(100).min(sorted.len()) - 1]
}

/// Jain's fairness index over per-tenant channel time. With uniform
/// 4 KiB pages each tenant's channel time is proportional to its
/// drained page count, so `x = (victim_pages, antagonist_pages)` and
/// `J = (Σx)² / (2·Σx²)` — 1.0 is a perfect split, 0.5 total capture.
pub fn jain(victim_pages: u64, antagonist_pages: u64) -> f64 {
    let (v, a) = (victim_pages as f64, antagonist_pages as f64);
    (v + a) * (v + a) / (2.0 * (v * v + a * a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_extremes() {
        assert!((jain(100, 100) - 1.0).abs() < 1e-12);
        assert!((jain(0, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p99_of_small_samples_is_the_max_ish() {
        let ns = |n: u64| SimDuration::from_nanos(n);
        assert_eq!(p99(&[ns(5)]), ns(5));
        let sample: Vec<SimDuration> = (1..=100).map(ns).collect();
        assert_eq!(p99(&sample), ns(99));
    }

    /// Runs the small 8-channel duel twice and asserts both runs produce
    /// identical latency traces and page counts.
    fn assert_duel_deterministic(shared_tenant: bool) {
        let run = || {
            let d = run_duel(&DuelConfig {
                channels: 8,
                antagonist_in_flight: 2,
                victim_in_flight: 1,
                victim_tickets: 5,
                shared_tenant,
            });
            (d.victim_latencies, d.victim_pages, d.antagonist_pages)
        };
        assert_eq!(run(), run());
    }

    /// The duel driver is deterministic: two identical runs produce
    /// identical latency traces and page counts.
    #[test]
    fn duel_runs_are_deterministic() {
        assert_duel_deterministic(false);
    }

    /// The intra-tenant duel (both roles in one TEE) is deterministic
    /// too.
    #[test]
    fn intra_duel_runs_are_deterministic() {
        assert_duel_deterministic(true);
    }
}
