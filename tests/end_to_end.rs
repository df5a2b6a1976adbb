//! Cross-crate integration tests: the full offload pipeline from host
//! staging through TEE execution to result retrieval, across execution
//! modes.

use iceclave_repro::iceclave_core::{IceClave, IceClaveConfig, IceClaveError, TeeStatus};
use iceclave_repro::iceclave_experiments::{run, Mode, Overrides};
use iceclave_repro::iceclave_ftl::FtlError;
use iceclave_repro::iceclave_types::{ByteSize, Lpn, SimDuration, SimTime};
use iceclave_repro::iceclave_workloads::{WorkloadConfig, WorkloadKind};

fn small() -> WorkloadConfig {
    WorkloadConfig::test()
}

#[test]
fn all_workloads_agree_across_all_modes() {
    // The same seeded dataset must produce the identical answer whether
    // computed on the host, in SGX, in plain ISC or inside IceClave.
    let cfg = small();
    for kind in WorkloadKind::ALL {
        let reference = run(Mode::Host, kind, &cfg, &Overrides::none());
        for mode in [Mode::HostSgx, Mode::Isc, Mode::IceClave] {
            let result = run(mode, kind, &cfg, &Overrides::none());
            assert_eq!(
                result.output, reference.output,
                "{kind} differs between Host and {mode}"
            );
        }
    }
}

#[test]
fn security_never_changes_answers_only_time() {
    let cfg = small();
    for kind in [WorkloadKind::TpchQ3, WorkloadKind::TpcB] {
        let isc = run(Mode::Isc, kind, &cfg, &Overrides::none());
        let ice = run(Mode::IceClave, kind, &cfg, &Overrides::none());
        assert_eq!(isc.output, ice.output);
        assert!(ice.total >= isc.total, "{kind}: security cannot be free");
    }
}

#[test]
fn full_tee_lifecycle_with_many_tees() {
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let mut t = ice.populate(Lpn::new(0), 30, SimTime::ZERO).unwrap();
    // Two generations of TEEs exercising id recycling under load.
    for generation in 0..2 {
        let mut live = Vec::new();
        for i in 0..10u64 {
            let lpns = vec![Lpn::new(i * 3), Lpn::new(i * 3 + 1), Lpn::new(i * 3 + 2)];
            let (tee, t2) = ice.offload_code(32 << 10, &lpns, t).unwrap();
            t = t2;
            live.push((tee, lpns));
        }
        for (tee, lpns) in &live {
            t = ice
                .submit_batch_async(*tee, &lpns[..1], t)
                .and_then(|tk| ice.wait_batch(tk))
                .unwrap()
                .finished;
            t = ice.mem_write(*tee, 1000, t).unwrap();
            t = ice.mem_read(*tee, 1000, t).unwrap();
        }
        for (tee, _) in live {
            t = ice.terminate_tee(tee, t).unwrap();
            assert_eq!(ice.status(tee), Some(TeeStatus::Terminated));
        }
        let _ = generation;
    }
    let stats = ice.stats();
    assert_eq!(stats.created, 20);
    assert_eq!(stats.terminated, 20);
    assert!(stats.id_reuses >= 5, "ids must recycle across generations");
}

#[test]
fn terminated_tee_pages_are_not_accessible_by_next_owner_of_id() {
    // ID recycling must not leak access: after TEE A (id X) dies, a new
    // TEE B reusing id X must not reach A's pages.
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let mut t = ice.populate(Lpn::new(0), 8, SimTime::ZERO).unwrap();
    let a_pages: Vec<Lpn> = (0..4).map(Lpn::new).collect();
    let b_pages: Vec<Lpn> = (4..8).map(Lpn::new).collect();

    let (a, t2) = ice.offload_code(1024, &a_pages, t).unwrap();
    t = ice.terminate_tee(a, t2).unwrap();

    // B gets the recycled id (LIFO pool) but different pages.
    let (b, t3) = ice.offload_code(1024, &b_pages, t).unwrap();
    t = t3;
    assert_eq!(a.raw(), b.raw(), "id should be recycled (LIFO)");
    let err = ice.submit_batch_async(b, &[Lpn::new(0)], t).unwrap_err();
    assert!(
        matches!(err, IceClaveError::Ftl(FtlError::AccessDenied { .. })),
        "recycled id must not inherit old grants: {err}"
    );
}

#[test]
fn sweeps_preserve_answer_and_ordering() {
    let cfg = small();
    let kind = WorkloadKind::Filter;
    let base = run(Mode::IceClave, kind, &cfg, &Overrides::none());
    // Fewer channels: slower, same answer.
    let narrow = run(
        Mode::IceClave,
        kind,
        &cfg,
        &Overrides {
            channels: Some(4),
            ..Overrides::none()
        },
    );
    assert_eq!(narrow.output, base.output);
    assert!(narrow.total >= base.total);
    // Slower flash: slower, same answer.
    let slow_flash = run(
        Mode::IceClave,
        kind,
        &cfg,
        &Overrides {
            flash_read_latency: Some(SimDuration::from_micros(110)),
            ..Overrides::none()
        },
    );
    assert_eq!(slow_flash.output, base.output);
    assert!(slow_flash.total >= base.total);
}

#[test]
fn smaller_dram_never_helps() {
    let cfg = small();
    for kind in [WorkloadKind::TpcB, WorkloadKind::TpchQ14] {
        let big = run(Mode::Isc, kind, &cfg, &Overrides::none());
        let small_dram = run(
            Mode::Isc,
            kind,
            &cfg,
            &Overrides {
                dram_capacity: Some(ByteSize::from_gib(2)),
                ..Overrides::none()
            },
        );
        assert!(
            small_dram.total >= big.total,
            "{kind}: 2GiB {} vs 4GiB {}",
            small_dram.total,
            big.total
        );
    }
}

#[test]
fn cmt_miss_rate_is_paper_scale() {
    // §6.3: only 0.17% of translations miss the cached mapping table.
    let cfg = WorkloadConfig {
        functional_bytes: ByteSize::from_mib(2),
        ..WorkloadConfig::test()
    };
    let r = run(
        Mode::IceClave,
        WorkloadKind::TpchQ1,
        &cfg,
        &Overrides::none(),
    );
    assert!(
        r.cmt_miss_rate < 0.02,
        "streaming translation miss rate {} too high",
        r.cmt_miss_rate
    );
}

#[test]
fn world_switch_accounting_is_consistent() {
    let cfg = small();
    let ice = run(
        Mode::IceClave,
        WorkloadKind::Aggregate,
        &cfg,
        &Overrides::none(),
    );
    let ablation = run(
        Mode::IceClaveMapSecure,
        WorkloadKind::Aggregate,
        &cfg,
        &Overrides::none(),
    );
    assert!(ablation.world_switches > ice.world_switches);
    assert!(ablation.total > ice.total);
}
