//! The threat-model matrix (§2.3, §3), executable end to end: each
//! attack demonstrated to *succeed* against the baseline ISC stack and
//! to *fail* against IceClave's defenses.

use iceclave_repro::iceclave_cipher::{CipherEngine, Trivium};
use iceclave_repro::iceclave_core::{
    AbortReason, IceClave, IceClaveConfig, IceClaveError, PlatformConfig, TeeStatus,
};
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_ftl::FtlError;
use iceclave_repro::iceclave_trustzone::{AccessType, Region, World};
use iceclave_repro::iceclave_types::{CacheLine, Hertz, Lpn, SimTime};
use iceclave_testkit::{IscRuntime, SecureMemory, VerifyError};

/// §2.3 attack 1: privilege escalation to reach other users' flash
/// data.
#[test]
fn privilege_escalation_blocked_by_id_bits() {
    // Baseline: succeeds.
    let mut isc = IscRuntime::new(PlatformConfig::tiny());
    let t = isc
        .platform
        .populate(Lpn::new(0), 8, SimTime::ZERO)
        .unwrap();
    let grant = 0..2;
    let task = isc.offload(vec![grant]);
    isc.corrupt_privilege_table(task, 0..8);
    assert!(
        isc.read_page(task, Lpn::new(7), t).is_ok(),
        "baseline falls"
    );

    // IceClave: the equivalent probe fails the hardware ID-bit check on
    // every path that could reach the data.
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let t = ice.populate(Lpn::new(0), 8, SimTime::ZERO).unwrap();
    let victim: Vec<Lpn> = (0..4).map(Lpn::new).collect();
    let mallory: Vec<Lpn> = (4..8).map(Lpn::new).collect();
    let (_v, t) = ice.offload_code(1024, &victim, t).unwrap();
    let (m, t) = ice.offload_code(1024, &mallory, t).unwrap();
    // Translation probes fail the ID-bit check (and are survivable —
    // the mapping table is readable by design, §4.2).
    for lpn in 0..4 {
        assert!(matches!(
            ice.read_mapping_entry(m, Lpn::new(lpn), t),
            Err(IceClaveError::Ftl(FtlError::AccessDenied { .. }))
        ));
    }
    // A data-path probe is fatal: the denial throws the TEE out
    // (§4.5), so Mallory gets exactly one attempt...
    assert!(matches!(
        ice.submit_batch_async(m, &[Lpn::new(0)], t),
        Err(IceClaveError::Ftl(FtlError::AccessDenied { .. }))
    ));
    assert_eq!(
        ice.status(m),
        Some(TeeStatus::Aborted(AbortReason::AccessViolation))
    );
    // ...and every further request from the dead TEE is refused.
    assert!(matches!(
        ice.submit_batch_async(m, &[Lpn::new(1)], t),
        Err(IceClaveError::NotRunning(_))
    ));
}

/// §2.3 attack 2: mangling the FTL / flash management.
#[test]
fn ftl_state_is_write_protected_from_normal_world() {
    let ice = IceClave::new(IceClaveConfig::tiny());
    // The mapping table (protected region) is readable — the §4.2
    // optimization — but not writable.
    assert!(ice.attempt_mapping_table_read().is_ok());
    let fault = ice.attempt_mapping_table_write().unwrap_err();
    match fault {
        IceClaveError::Protection(f) => {
            assert_eq!(f.region, Region::Protected);
            assert_eq!(f.world, World::Normal);
            assert_eq!(f.access, AccessType::Write);
        }
        other => panic!("expected a protection fault, got {other}"),
    }
    // Secure-region (FTL code/data) is not even readable.
    let map = ice.memory_map();
    assert!(map
        .check(
            World::Normal,
            iceclave_repro::iceclave_types::PhysAddr::new(0),
            AccessType::Read
        )
        .is_err());
}

/// §2.3 attack 3: bus snooping on flash transfers.
#[test]
fn bus_snooping_sees_only_ciphertext() {
    let mut engine = CipherEngine::new([0x42; 10], Hertz::from_mhz(800), 7);
    let secret = b"4111-1111-1111-1111 credit card".to_vec();
    let (wire_bytes, iv) = engine.encrypt_page(99, &secret);
    // What crosses the bus shares no bytes with the plaintext beyond
    // chance.
    assert_ne!(wire_bytes, secret);
    let matching = wire_bytes
        .iter()
        .zip(secret.iter())
        .filter(|(a, b)| a == b)
        .count();
    assert!(matching < secret.len() / 2, "wire text too similar");
    // The legitimate endpoint recovers the page with the keyed engine.
    assert_eq!(engine.decrypt_page(&iv, &wire_bytes), secret);
    // A snooper who captured the IV (it is public) but lacks the key
    // cannot: decrypting with a guessed key yields garbage.
    let mut wrong = Trivium::new(&[0x41; 10], &iv.bytes());
    let mut attempt = wire_bytes.clone();
    wrong.apply_keystream(&mut attempt);
    assert_ne!(attempt, secret);
}

/// §2.3 attack 3 on the configurations the evaluation runs: the bytes
/// a snooper finds in flash are ciphertext behind IceClave's cipher
/// link and the plaintext itself behind ISC's plain link.
#[test]
fn flash_holds_ciphertext_under_iceclave_and_plaintext_under_isc() {
    let secret = b"4111-1111-1111-1111 credit card".to_vec();
    let lpn = Lpn::new(0);
    let stage = |mode: Mode| {
        let mut ice = IceClave::new(mode.ssd_config(&Overrides::none()));
        let t = ice.populate(lpn, 1, SimTime::ZERO).unwrap();
        ice.host_store_data(lpn, &secret, t).unwrap();
        let ftl = &ice.platform().ftl;
        let ppn = ftl.current_ppn(lpn).unwrap();
        let stored = ftl.flash().read_data(ppn).unwrap().to_vec();
        (ice, stored, t)
    };

    let (_isc, stored, _) = stage(Mode::Isc);
    assert_eq!(stored, secret, "ISC stores the plaintext");

    let (mut ice, stored, t) = stage(Mode::IceClave);
    assert_ne!(stored, secret, "IceClave stores ciphertext");
    // The owning TEE still reads the plaintext back.
    let (tee, t) = ice.offload_code(1024, &[lpn], t).unwrap();
    let read = ice
        .submit_batch_async(tee, &[lpn], t)
        .and_then(|ticket| ice.wait_batch(ticket))
        .unwrap();
    assert_eq!(read.completions[0].data.as_deref(), Some(&secret[..]));
}

/// Physical DRAM attacks: tamper, splice, replay, counter rollback.
#[test]
fn dram_physical_attacks_are_detected() {
    let mut mem = SecureMemory::new(32, [9; 16], [7; 16]);
    let a = CacheLine::new(3);
    let b = CacheLine::new(200);
    mem.write_line(a, &[0xAA; 64]);
    mem.write_line(b, &[0xBB; 64]);

    // Splicing: move line b's ciphertext into line a's slot.
    let b_snapshot = mem.snapshot_line(b).unwrap();
    mem.replay_line(a, &b_snapshot);
    assert!(matches!(mem.read_line(a), Err(VerifyError::MacMismatch(_))));

    // Rollback of data+MAC together.
    let mut mem = SecureMemory::new(32, [9; 16], [7; 16]);
    mem.write_line(a, &[1; 64]);
    let old = mem.snapshot_line(a).unwrap();
    mem.write_line(a, &[2; 64]);
    mem.replay_line(a, &old);
    assert!(mem.read_line(a).is_err());

    // Counter rollback is caught by the Merkle tree even though the
    // data+MAC pair is internally consistent with the old counter.
    let mut mem = SecureMemory::new(32, [9; 16], [7; 16]);
    mem.write_line(a, &[1; 64]);
    mem.write_line(a, &[2; 64]);
    mem.tamper_counter(0, |block| {
        // Roll the minor counter back by recreating a fresh block and
        // replaying one increment.
        *block = iceclave_repro::iceclave_mee::SplitCounterBlock::new();
        block.increment(3);
    });
    assert!(matches!(
        mem.read_line(a),
        Err(VerifyError::CounterIntegrity { .. })
    ));
}

/// §4.5: a TEE touching memory outside its region is thrown out, and
/// stays dead.
#[test]
fn out_of_region_access_aborts_the_tee() {
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let t = ice.populate(Lpn::new(0), 2, SimTime::ZERO).unwrap();
    let (tee, t) = ice
        .offload_code(1024, &[Lpn::new(0), Lpn::new(1)], t)
        .unwrap();
    let region_lines = ice.config().tee_region.as_bytes() / 64;
    assert!(matches!(
        ice.mem_write(tee, region_lines, t),
        Err(IceClaveError::RegionViolation { .. })
    ));
    assert_eq!(
        ice.status(tee),
        Some(TeeStatus::Aborted(AbortReason::AccessViolation))
    );
    // Every further request from the dead TEE is refused.
    assert!(matches!(
        ice.submit_batch_async(tee, &[Lpn::new(0)], t),
        Err(IceClaveError::NotRunning(_))
    ));
    assert!(matches!(
        ice.get_result(tee, 64, t),
        Err(IceClaveError::NotRunning(_))
    ));
}

/// Baseline contrast: the ISC runtime has no memory isolation at all —
/// IceClave's encrypted DRAM is what closes the gap.
#[test]
fn baseline_has_no_dram_protection() {
    // In the baseline model, DRAM contents equal plaintext by
    // construction (there is no MEE); SecureMemory demonstrates the
    // difference byte-for-byte.
    let mut protected = SecureMemory::new(8, [1; 16], [2; 16]);
    let line = CacheLine::new(0);
    let plain = [0x5A; 64];
    protected.write_line(line, &plain);
    assert_ne!(protected.snoop_line(line).unwrap(), plain);
}
