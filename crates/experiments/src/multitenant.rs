//! Multi-tenant execution (§6.8, Figures 17 and 18).
//!
//! Several IceClave instances share one physical SSD: flash channels
//! and dies, the DRAM and its MEE, the embedded cores and the cached
//! mapping table. Each tenant gets its own TEE (distinct ID bits) and
//! its own LPN range. The host-side loop always advances the tenant
//! whose virtual clock is earliest, and **inside the device** the
//! fair-queueing channel arbiter
//! ([`iceclave_ftl::wfq`](iceclave_ftl::WfqArbiter)) splits every
//! contended flash channel equally across the tenants in page-sized
//! quanta, so one tenant's deep batches cannot collapse another's
//! bandwidth share.

use iceclave_core::IceClave;
use iceclave_sim::SimRng;
use iceclave_types::{Lpn, SimDuration, SimTime};
use iceclave_workloads::{Batch, Workload, WorkloadConfig, WorkloadKind, WorkloadOutput};

use crate::capacity::CapacityModel;
use crate::modes::{Mode, Overrides};
use crate::run::Session;

/// Per-tenant outcome of a colocated run.
#[derive(Clone, Debug)]
pub struct TenantResult {
    /// The tenant's workload.
    pub kind: WorkloadKind,
    /// The tenant's runtime under colocation.
    pub total: SimDuration,
    /// The computed answer (must match the solo run).
    pub output: WorkloadOutput,
}

/// Runs `kinds` concurrently on one shared IceClave SSD.
///
/// # Panics
///
/// Panics if the platform cannot host the tenants (more than 15, or
/// datasets exceeding the device).
pub fn run_colocated(kinds: &[WorkloadKind], wl_config: &WorkloadConfig) -> Vec<TenantResult> {
    assert!(
        (1..=15).contains(&kinds.len()),
        "tenant count must fit the TEE id space"
    );
    let config = Mode::IceClave.ssd_config(&Overrides::none());
    let cap = CapacityModel::new(wl_config, config.platform.dram.capacity);
    let mut ice = IceClave::new(config);

    // Build workloads, collect batches, stage datasets back to back.
    struct Tenant {
        kind: WorkloadKind,
        workload: Box<dyn Workload>,
        batches: Vec<Batch>,
        next_batch: usize,
        session: Option<Session>,
        done: Option<SimTime>,
        output: WorkloadOutput,
        base_lpn: u64,
    }
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut base = 0u64;
    let mut t = SimTime::ZERO;
    for &kind in kinds {
        let workload = kind.build(wl_config);
        let mut batches = Vec::new();
        let output = workload.run(&mut |b| batches.push(b));
        let pages = workload.dataset_pages();
        t = ice
            .populate(Lpn::new(base), pages, t)
            .expect("device holds all tenants");
        tenants.push(Tenant {
            kind,
            workload,
            batches,
            next_batch: 0,
            session: None,
            done: None,
            output,
            base_lpn: base,
        });
        base += pages;
    }
    let run_start = t;

    // Create all TEEs, then sessions. Each tenant's runtime is measured
    // from before its own offload so lifecycle costs are included, as
    // in the solo runs it is compared against.
    for tenant in &mut tenants {
        let rng = SimRng::new(wl_config.seed).derive(&format!(
            "tenant/{}/{}",
            tenant.base_lpn,
            tenant.kind.label()
        ));
        let session = Session::offload(
            &mut ice,
            Mode::IceClave,
            tenant.base_lpn,
            &*tenant.workload,
            wl_config.scale_factor(),
            run_start,
            rng,
        )
        .expect("id space fits tenants");
        tenant.session = Some(session);
    }

    // Fair-progress scheduler: always step the tenant whose clock is
    // earliest. A tenant is torn down right after its last batch, at its
    // own finish time, not behind work the others book later.
    loop {
        let next = tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.done.is_none())
            .min_by_key(|(_, t)| t.session.as_ref().expect("session built").clock)
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let tenant = &mut tenants[i];
        let session = tenant.session.as_mut().expect("session built");
        if let Some(batch) = tenant.batches.get(tenant.next_batch) {
            tenant.next_batch += 1;
            session.step(&mut ice, batch, &cap).expect("tenant step");
        }
        if tenant.next_batch == tenant.batches.len() {
            let tee = session.tee;
            let done = ice
                .get_result(tee, 64 << 10, session.drained_clock())
                .and_then(|after| ice.terminate_tee(tee, after))
                .expect("teardown");
            tenant.done = Some(done);
        }
    }

    tenants
        .into_iter()
        .map(|t| TenantResult {
            kind: t.kind,
            total: t.done.expect("torn down").saturating_since(run_start),
            output: t.output,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig::test()
    }

    #[test]
    fn colocation_slows_tenants_down_but_preserves_answers() {
        let pair = [WorkloadKind::TpcC, WorkloadKind::Aggregate];
        let colocated = run_colocated(&pair, &cfg());
        assert_eq!(colocated.len(), 2);
        for tenant in &colocated {
            let solo = run(Mode::IceClave, tenant.kind, &cfg(), &Overrides::none());
            assert_eq!(solo.output, tenant.output, "{}", tenant.kind);
            assert!(
                tenant.total.as_ps() as f64 >= 0.95 * solo.total.as_ps() as f64,
                "{}: colocated {} vs solo {}",
                tenant.kind,
                tenant.total,
                solo.total
            );
        }
    }

    #[test]
    fn four_tenants_interfere_more_than_two() {
        let two = run_colocated(&[WorkloadKind::TpcC, WorkloadKind::TpchQ1], &cfg());
        let four = run_colocated(
            &[
                WorkloadKind::TpcC,
                WorkloadKind::TpchQ1,
                WorkloadKind::TpchQ3,
                WorkloadKind::TpcB,
            ],
            &cfg(),
        );
        let q1_two = two.iter().find(|t| t.kind == WorkloadKind::TpchQ1).unwrap();
        let q1_four = four
            .iter()
            .find(|t| t.kind == WorkloadKind::TpchQ1)
            .unwrap();
        assert!(q1_four.total >= q1_two.total);
    }

    #[test]
    #[should_panic(expected = "tenant count")]
    fn too_many_tenants_panic() {
        let kinds = [WorkloadKind::Filter; 16];
        let _ = run_colocated(&kinds, &cfg());
    }
}
