//! One function per table and figure of the evaluation (§6).
//!
//! Every function runs the necessary simulations and returns a
//! [`FigureReport`]: a printable table whose rows mirror the paper's,
//! plus named headline numbers. The `repro` binary in `iceclave_bench`
//! prints them all.

use iceclave_cipher::CipherAreaModel;
use iceclave_cpu::CoreModel;
use iceclave_types::{ByteSize, SimDuration};
use iceclave_workloads::{measured_write_ratio, WorkloadConfig, WorkloadKind};

use crate::modes::{Mode, Overrides};
use crate::multitenant::run_colocated;
use crate::report::{fmt_pct, fmt_sci, fmt_x, TextTable};
use crate::run::{run, RunResult};

/// A reproduced table/figure: the printable rows plus headline numbers.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// The rows, in the paper's layout.
    pub table: TextTable,
    /// Named headline values (averages, ranges), printed after the table.
    pub summary: Vec<(String, f64)>,
}

impl std::fmt::Display for FigureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)?;
        for (name, value) in &self.summary {
            writeln!(f, "  {name}: {value:.4}")?;
        }
        Ok(())
    }
}

/// A reproduced artifact: its name and the function that builds it.
pub type Artifact = (&'static str, fn(&WorkloadConfig) -> FigureReport);

/// Every reproduced artifact, in paper order — the list the `repro`
/// binary prints and the `paper` bench gates.
pub const ALL: &[Artifact] = &[
    ("table1", table1),
    ("fig5", fig5),
    ("fig8", fig8),
    ("table5", table5),
    ("table6", table6),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("energy", energy_table),
    ("ablation_counter_cache", ablation_counter_cache),
];

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Table 1: DRAM write ratio per workload, measured vs paper.
pub fn table1(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Table 1: in-storage workload write ratios",
        &["workload", "measured", "paper"],
    );
    let mut ratios = Vec::new();
    for kind in WorkloadKind::ALL {
        let workload = kind.build(cfg);
        let measured = measured_write_ratio(&*workload);
        table.row(&[
            kind.label().to_string(),
            fmt_sci(measured),
            fmt_sci(kind.paper_write_ratio()),
        ]);
        ratios.push(measured);
    }
    let write_heavy = ratios.iter().filter(|&&r| r > 1e-2).count() as f64;
    FigureReport {
        table,
        summary: vec![("write-heavy workloads (ratio > 1e-2)".into(), write_heavy)],
    }
}

/// Figure 5: IceClave vs IceClave-with-mapping-table-in-secure-world.
pub fn fig5(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Figure 5: protected-region mapping table vs secure-world placement",
        &["workload", "normalized perf (secure-world variant)"],
    );
    let mut improvements = Vec::new();
    for kind in WorkloadKind::ALL {
        let ice = run(Mode::IceClave, kind, cfg, &Overrides::none());
        let ablation = run(Mode::IceClaveMapSecure, kind, cfg, &Overrides::none());
        // Normalized to IceClave (= 1.0); the ablation is slower, < 1.
        let normalized = ice.total / ablation.total;
        improvements.push(ablation.total / ice.total - 1.0);
        table.row(&[kind.label().to_string(), format!("{normalized:.3}")]);
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    FigureReport {
        table,
        summary: vec![(
            "avg improvement of protected-region placement (paper: 21.6%)".into(),
            avg,
        )],
    }
}

/// Figure 8: Non-Encryption vs SC-64 vs IceClave's hybrid counters.
///
/// Normalized by memory-system time, matching the paper's USIMM-level
/// design-choice experiment (end-to-end runtimes hide the memory
/// effect behind the flash pipeline).
pub fn fig8(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Figure 8: memory encryption schemes (memory time normalized to non-encryption)",
        &["workload", "Non-Enc", "SC-64", "IceClave"],
    );
    let mut hybrid_gain = Vec::new();
    for kind in WorkloadKind::ALL {
        let non_enc = run(Mode::Isc, kind, cfg, &Overrides::none());
        let sc64 = run(Mode::IceClaveSc64, kind, cfg, &Overrides::none());
        let hybrid = run(Mode::IceClave, kind, cfg, &Overrides::none());
        let sc_norm = non_enc.mem_time / sc64.mem_time;
        let hy_norm = non_enc.mem_time / hybrid.mem_time;
        hybrid_gain.push(sc64.mem_time / hybrid.mem_time - 1.0);
        table.row(&[
            kind.label().to_string(),
            "1.000".to_string(),
            format!("{sc_norm:.3}"),
            format!("{hy_norm:.3}"),
        ]);
    }
    let avg = hybrid_gain.iter().sum::<f64>() / hybrid_gain.len() as f64;
    FigureReport {
        table,
        summary: vec![(
            "avg hybrid-counter improvement over SC-64 (paper: 43%)".into(),
            avg,
        )],
    }
}

/// Table 5: overhead sources of IceClave.
pub fn table5(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Table 5: overhead sources",
        &["source", "modeled/measured", "paper"],
    );
    // Lifecycle constants are modeled from the FPGA measurements.
    table.row(&["TEE creation", "95 us", "95 us"]);
    table.row(&["TEE deletion", "58 us", "58 us"]);
    table.row(&["Context switch", "3.8 us", "3.8 us"]);

    // Memory encryption/verification: measured from the IceClave runs.
    let mut enc_ns = Vec::new();
    let mut miss_rates = Vec::new();
    let mut counter_rates = Vec::new();
    let mut mac_rates = Vec::new();
    let mut tree_rates = Vec::new();
    for kind in [
        WorkloadKind::TpchQ1,
        WorkloadKind::TpcB,
        WorkloadKind::Wordcount,
    ] {
        let r = run(Mode::IceClave, kind, cfg, &Overrides::none());
        miss_rates.push(r.cmt_miss_rate);
        enc_ns.push(r.sec_overhead.as_nanos_f64());
        counter_rates.push(r.counter_hit_rate);
        mac_rates.push(r.mac_hit_rate);
        tree_rates.push(r.tree_hit_rate);
    }
    // Per-operation means come from a dedicated micro-run.
    let micro = run(
        Mode::IceClaveSc64,
        WorkloadKind::TpcB,
        cfg,
        &Overrides::none(),
    );
    table.row(&[
        "Memory encryption (mean/write)".to_string(),
        format!(
            "{:.1} ns",
            micro.mem_time.as_nanos_f64() / micro.output.rows.max(1) as f64
        ),
        "102.6 ns".to_string(),
    ]);
    table.row(&[
        "Memory verification (cmt miss rate)".to_string(),
        fmt_pct(miss_rates.iter().sum::<f64>() / miss_rates.len() as f64),
        "0.17%".to_string(),
    ]);
    // Per-block-kind counter-cache hit rates: the split the
    // metadata-hierarchy work attributes DRAM traffic by.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    table.row(&[
        "Counter-cache hit rate (counter blocks)".to_string(),
        fmt_pct(mean(&counter_rates)),
        "n/a".to_string(),
    ]);
    table.row(&[
        "Counter-cache hit rate (data MACs)".to_string(),
        fmt_pct(mean(&mac_rates)),
        "n/a (colocated)".to_string(),
    ]);
    table.row(&[
        "Counter-cache hit rate (tree nodes)".to_string(),
        fmt_pct(mean(&tree_rates)),
        "n/a".to_string(),
    ]);

    // Cipher engine area (§5: 1.6% of the controller).
    let area = CipherAreaModel::default().report();
    table.row(&[
        "Cipher engine area".to_string(),
        fmt_pct(area.fraction_of_controller),
        "1.6%".to_string(),
    ]);

    let avg_miss = miss_rates.iter().sum::<f64>() / miss_rates.len() as f64;
    FigureReport {
        table,
        summary: vec![
            ("avg CMT miss rate (paper: 0.0017)".into(), avg_miss),
            (
                "cipher area fraction (paper: 0.016)".into(),
                area.fraction_of_controller,
            ),
        ],
    }
}

/// Table 6: extra memory traffic from encryption and verification.
pub fn table6(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Table 6: extra memory traffic of memory protection",
        &[
            "workload",
            "encryption",
            "verification",
            "paper enc",
            "paper ver",
        ],
    );
    let paper: &[(WorkloadKind, f64, f64)] = &[
        (WorkloadKind::Arithmetic, 0.0305, 0.0227),
        (WorkloadKind::Aggregate, 0.0306, 0.0226),
        (WorkloadKind::Filter, 0.0304, 0.0226),
        (WorkloadKind::TpchQ1, 0.0299, 0.0222),
        (WorkloadKind::TpchQ3, 0.0562, 0.045),
        (WorkloadKind::TpchQ12, 0.0511, 0.0378),
        (WorkloadKind::TpchQ14, 0.1028, 0.0539),
        (WorkloadKind::TpchQ19, 0.362, 0.2475),
        (WorkloadKind::TpcB, 0.4692, 0.3668),
        (WorkloadKind::TpcC, 0.3909, 0.3172),
        (WorkloadKind::Wordcount, 0.6745, 0.4381),
    ];
    let mut encs = Vec::new();
    let mut vers = Vec::new();
    for &(kind, paper_enc, paper_ver) in paper {
        let r = run(Mode::IceClave, kind, cfg, &Overrides::none());
        encs.push(r.enc_traffic);
        vers.push(r.ver_traffic);
        table.row(&[
            kind.label().to_string(),
            fmt_pct(r.enc_traffic),
            fmt_pct(r.ver_traffic),
            fmt_pct(paper_enc),
            fmt_pct(paper_ver),
        ]);
    }
    FigureReport {
        table,
        summary: vec![
            (
                "avg encryption traffic overhead (paper: 0.2026)".into(),
                encs.iter().sum::<f64>() / encs.len() as f64,
            ),
            (
                "avg verification traffic overhead (paper: 0.1451)".into(),
                vers.iter().sum::<f64>() / vers.len() as f64,
            ),
        ],
    }
}

/// Figure 11: Host / Host+SGX / ISC / IceClave with runtime breakdown.
pub fn fig11(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Figure 11: normalized runtime and breakdown (lower is better)",
        &[
            "workload",
            "mode",
            "norm runtime",
            "load",
            "compute",
            "mem-encrypt",
        ],
    );
    let mut ice_vs_host = Vec::new();
    let mut ice_vs_sgx = Vec::new();
    let mut ice_vs_isc = Vec::new();
    for kind in WorkloadKind::ALL {
        let results: Vec<RunResult> = Mode::FIGURE11
            .iter()
            .map(|&m| run(m, kind, cfg, &Overrides::none()))
            .collect();
        let host_total = results[0].total;
        for r in &results {
            let norm = r.total / host_total;
            table.row(&[
                kind.label().to_string(),
                r.mode.label().to_string(),
                format!("{norm:.3}"),
                format!("{:.3}", r.load_stall / host_total),
                format!(
                    "{:.3}",
                    (r.ops_time + r.mem_time).saturating_sub(r.sec_overhead) / host_total
                ),
                format!("{:.3}", r.sec_overhead / host_total),
            ]);
        }
        let ice = &results[3];
        ice_vs_host.push(ice.speedup_over(&results[0]));
        ice_vs_sgx.push(ice.speedup_over(&results[1]));
        ice_vs_isc.push(ice.total / results[2].total - 1.0);
    }
    FigureReport {
        table,
        summary: vec![
            (
                "IceClave speedup over Host, geomean (paper: 2.31x)".into(),
                geomean(ice_vs_host.iter().copied()),
            ),
            (
                "IceClave speedup over Host+SGX, geomean (paper: 2.38x)".into(),
                geomean(ice_vs_sgx.iter().copied()),
            ),
            (
                "IceClave overhead vs ISC, mean (paper: 7.6%)".into(),
                ice_vs_isc.iter().sum::<f64>() / ice_vs_isc.len() as f64,
            ),
        ],
    }
}

/// Shared driver for the channel sweeps of Figures 12 and 13.
fn channel_sweep(
    cfg: &WorkloadConfig,
    baseline_mode: Mode,
    title: &str,
    paper_note: &str,
) -> FigureReport {
    let channels = [4u32, 8, 16, 32];
    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(channels.iter().map(|c| format!("{c} ch")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(title, &header_refs);
    let mut all = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut cells = vec![kind.label().to_string()];
        for &ch in &channels {
            let overrides = Overrides {
                channels: Some(ch),
                ..Overrides::none()
            };
            let ice = run(Mode::IceClave, kind, cfg, &overrides);
            let base = run(baseline_mode, kind, cfg, &overrides);
            let speedup = ice.speedup_over(&base);
            all.push(speedup);
            cells.push(fmt_x(speedup));
        }
        table.row(&cells);
    }
    FigureReport {
        table,
        summary: vec![(paper_note.into(), geomean(all))],
    }
}

/// Figure 12: IceClave speedup over Host as channels scale 4→32.
pub fn fig12(cfg: &WorkloadConfig) -> FigureReport {
    channel_sweep(
        cfg,
        Mode::Host,
        "Figure 12: speedup vs Host across channel counts",
        "geomean speedup vs Host across sweep (paper: 1.7-5.0x)",
    )
}

/// Figure 13: IceClave vs ISC as channels scale (overhead stays small).
pub fn fig13(cfg: &WorkloadConfig) -> FigureReport {
    channel_sweep(
        cfg,
        Mode::Isc,
        "Figure 13: speedup vs ISC across channel counts",
        "geomean IceClave/ISC across sweep (paper: ~0.92, overhead <=28%)",
    )
}

/// Figure 14: speedup vs Host as flash read latency sweeps 10–110 us.
pub fn fig14(cfg: &WorkloadConfig) -> FigureReport {
    let latencies = [10u64, 20, 50, 80, 110];
    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(latencies.iter().map(|l| format!("{l}us")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(
        "Figure 14: speedup vs Host across flash read latencies",
        &header_refs,
    );
    let mut all = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut cells = vec![kind.label().to_string()];
        for &us in &latencies {
            let overrides = Overrides {
                flash_read_latency: Some(SimDuration::from_micros(us)),
                ..Overrides::none()
            };
            let ice = run(Mode::IceClave, kind, cfg, &overrides);
            let host = run(Mode::Host, kind, cfg, &overrides);
            let speedup = ice.speedup_over(&host);
            all.push(speedup);
            cells.push(fmt_x(speedup));
        }
        table.row(&cells);
    }
    FigureReport {
        table,
        summary: vec![(
            "geomean speedup vs Host across sweep (paper: 1.8-3.2x)".into(),
            geomean(all),
        )],
    }
}

/// Figure 15: speedup vs Host across in-storage core models.
pub fn fig15(cfg: &WorkloadConfig) -> FigureReport {
    let cores = [
        CoreModel::a77_2_8ghz(),
        CoreModel::a72_1_6ghz(),
        CoreModel::a72_0_8ghz(),
        CoreModel::a53_1_6ghz(),
    ];
    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(cores.iter().map(|c| c.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(
        "Figure 15: speedup vs Host across in-storage cores",
        &header_refs,
    );
    let host = |kind| run(Mode::Host, kind, cfg, &Overrides::none());
    let mut by_core: Vec<Vec<f64>> = vec![Vec::new(); cores.len()];
    for kind in WorkloadKind::ALL {
        let host_result = host(kind);
        let mut cells = vec![kind.label().to_string()];
        for (i, core) in cores.iter().enumerate() {
            let overrides = Overrides {
                core: Some(core.clone()),
                ..Overrides::none()
            };
            let ice = run(Mode::IceClave, kind, cfg, &overrides);
            let speedup = ice.speedup_over(&host_result);
            by_core[i].push(speedup);
            cells.push(fmt_x(speedup));
        }
        table.row(&cells);
    }
    // The paper reports a 13.7–33.4% drop from the frequency scaling.
    let a72 = geomean(by_core[1].iter().copied());
    let a72_slow = geomean(by_core[2].iter().copied());
    FigureReport {
        table,
        summary: vec![(
            "perf drop A72 1.6GHz -> 0.8GHz (paper: 13.7-33.4%)".into(),
            1.0 - a72_slow / a72,
        )],
    }
}

/// Figure 16: ISC and IceClave with 4 GiB vs 2 GiB of SSD DRAM.
pub fn fig16(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Figure 16: SSD DRAM capacity sensitivity (normalized to ISC/4GiB)",
        &["workload", "ISC 4G", "IceClave 4G", "ISC 2G", "IceClave 2G"],
    );
    let mut drops = Vec::new();
    for kind in WorkloadKind::ALL {
        let small = Overrides {
            dram_capacity: Some(ByteSize::from_gib(2)),
            ..Overrides::none()
        };
        let isc4 = run(Mode::Isc, kind, cfg, &Overrides::none());
        let ice4 = run(Mode::IceClave, kind, cfg, &Overrides::none());
        let isc2 = run(Mode::Isc, kind, cfg, &small);
        let ice2 = run(Mode::IceClave, kind, cfg, &small);
        drops.push(isc2.total / isc4.total - 1.0);
        table.row(&[
            kind.label().to_string(),
            "1.000".to_string(),
            format!("{:.3}", isc4.total / ice4.total),
            format!("{:.3}", isc4.total / isc2.total),
            format!("{:.3}", isc4.total / ice2.total),
        ]);
    }
    FigureReport {
        table,
        summary: vec![(
            "max ISC slowdown at 2GiB (paper: 12-44%)".into(),
            drops.iter().copied().fold(0.0f64, f64::max),
        )],
    }
}

/// The partner sets of Figure 17: TPC-C colocated with each workload.
pub fn fig17(cfg: &WorkloadConfig) -> FigureReport {
    let partners = [
        WorkloadKind::Aggregate,
        WorkloadKind::Arithmetic,
        WorkloadKind::Filter,
        WorkloadKind::TpchQ1,
        WorkloadKind::TpchQ3,
        WorkloadKind::TpchQ12,
        WorkloadKind::TpchQ14,
        WorkloadKind::TpchQ19,
        WorkloadKind::TpcB,
    ];
    let mut table = TextTable::new(
        "Figure 17: two colocated tenants (TPC-C + partner), normalized speedup",
        &["pair", "normalized speedup"],
    );
    let mut slowdowns = Vec::new();
    for partner in partners {
        let pair = [WorkloadKind::TpcC, partner];
        let norm = colocation_normalized_speedup(&pair, cfg);
        slowdowns.push(1.0 - norm);
        table.row(&[format!("TC+{}", short(partner)), format!("{norm:.3}")]);
    }
    FigureReport {
        table,
        summary: vec![(
            "mean slowdown under 2-way colocation (paper: 6.1-15.7%)".into(),
            slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
        )],
    }
}

/// The four-tenant mixes of Figure 18.
pub fn fig18(cfg: &WorkloadConfig) -> FigureReport {
    use WorkloadKind as W;
    let quads: [[WorkloadKind; 4]; 9] = [
        [W::TpcC, W::Aggregate, W::Arithmetic, W::Filter],
        [W::TpcC, W::TpchQ1, W::TpchQ3, W::TpchQ12],
        [W::TpcC, W::TpchQ12, W::TpchQ14, W::TpchQ19],
        [W::TpcC, W::TpcB, W::Aggregate, W::TpchQ1],
        [W::TpcB, W::Aggregate, W::Arithmetic, W::Filter],
        [W::TpcB, W::TpchQ1, W::TpchQ3, W::TpchQ12],
        [W::TpcB, W::TpchQ12, W::TpchQ14, W::TpchQ19],
        [W::TpchQ1, W::TpchQ3, W::TpchQ12, W::TpchQ14],
        [W::TpchQ3, W::TpchQ12, W::TpchQ14, W::TpchQ19],
    ];
    let mut table = TextTable::new(
        "Figure 18: four colocated tenants, normalized speedup",
        &["mix", "normalized speedup"],
    );
    let mut slowdowns = Vec::new();
    for quad in quads {
        let norm = colocation_normalized_speedup(&quad, cfg);
        slowdowns.push(1.0 - norm);
        let label = quad.iter().map(|k| short(*k)).collect::<Vec<_>>().join("+");
        table.row(&[label, format!("{norm:.3}")]);
    }
    FigureReport {
        table,
        summary: vec![(
            "mean slowdown under 4-way colocation (paper: 21.4%)".into(),
            slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
        )],
    }
}

/// Geomean over the tenants of `alone / colocated` runtime.
fn colocation_normalized_speedup(kinds: &[WorkloadKind], cfg: &WorkloadConfig) -> f64 {
    let colocated = run_colocated(kinds, cfg);
    geomean(colocated.iter().map(|tenant| {
        let solo = run(Mode::IceClave, tenant.kind, cfg, &Overrides::none());
        (solo.total / tenant.total).min(1.0)
    }))
}

/// Design-choice ablation: the two-dimensional counter-metadata
/// hierarchy sweep — L1 (on-chip SRAM cache) × L2 (MAC-sealed
/// reserved-DRAM store). The scan rows are the controlled microbench
/// over a working set 4× the L1's split-counter coverage (steady-state
/// mean read overhead in ns); the workload rows show the end-to-end
/// mem-time trend. See [`crate::ablation`] for the grids and the
/// `ablation_counter_cache` bench for the JSON baseline + acceptance.
pub fn ablation_counter_cache(cfg: &WorkloadConfig) -> FigureReport {
    use crate::ablation::{scan_sweep, workload_sweep};
    ablation_report(&scan_sweep(), &workload_sweep(cfg))
}

/// Formats already-computed ablation sweeps as a [`FigureReport`] (the
/// bench computes the sweeps once for the JSON baseline and reuses them
/// here).
pub fn ablation_report(
    scan: &[crate::ablation::ScanPoint],
    workload: &[crate::ablation::WorkloadPoint],
) -> FigureReport {
    use crate::ablation::L2_SWEEP_MIB;

    let mut header: Vec<String> = vec!["config".into()];
    header.extend(L2_SWEEP_MIB.iter().map(|m| {
        if *m == 0 {
            "L2 off".to_string()
        } else {
            format!("L2 {m}M")
        }
    }));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(
        "Ablation: metadata hierarchy — scan mean read overhead (ns) and workload mem time (norm. to L2 off)",
        &header_refs,
    );

    let mut summaries = Vec::new();
    for chunk in scan.chunks(L2_SWEEP_MIB.len()) {
        let l1 = chunk[0].l1;
        let mut cells = vec![format!("scan ws=4x, L1 {l1}")];
        cells.extend(
            chunk
                .iter()
                .map(|p| format!("{:.1}", p.mean_read_overhead.as_nanos_f64())),
        );
        table.row(&cells);
        let off = chunk[0].mean_read_overhead.as_nanos_f64();
        if let Some(l2_8m) = chunk.iter().find(|p| p.l2 == ByteSize::from_mib(8)) {
            summaries.push((
                format!("scan L1 {l1}: overhead ratio L2-off / 8MiB-L2 (target >= 1.3)"),
                off / l2_8m.mean_read_overhead.as_nanos_f64(),
            ));
        }
    }

    for chunk in workload.chunks(crate::ablation::WORKLOAD_L2_MIB.len()) {
        let p0 = &chunk[0];
        let mut cells = vec![format!(
            "{} ({}) L1 {}",
            p0.workload.label(),
            p0.mode,
            p0.l1
        )];
        // Place each measured point under its matching L2 column; the
        // workload grid only covers {off, 8 MiB}.
        for &l2_mib in &L2_SWEEP_MIB {
            match chunk.iter().find(|p| p.l2 == ByteSize::from_mib(l2_mib)) {
                Some(p) => cells.push(format!("{:.3}", p.mem_time / p0.mem_time)),
                None => cells.push("-".into()),
            }
        }
        table.row(&cells);
    }

    FigureReport {
        table,
        summary: summaries,
    }
}

/// Derived energy comparison (not a numbered paper artifact; supports
/// §1/§6's claim that IceClave adds "minimal ... energy overhead" and
/// the energy motivation for in-storage computing).
pub fn energy_table(cfg: &WorkloadConfig) -> FigureReport {
    let mut table = TextTable::new(
        "Energy (derived): host vs in-storage, and the security share",
        &[
            "workload",
            "Host mJ",
            "ISC mJ",
            "IceClave mJ",
            "security share",
        ],
    );
    let mut sec_fracs = Vec::new();
    let mut savings = Vec::new();
    for kind in WorkloadKind::ALL {
        let host = run(Mode::Host, kind, cfg, &Overrides::none());
        let isc = run(Mode::Isc, kind, cfg, &Overrides::none());
        let ice = run(Mode::IceClave, kind, cfg, &Overrides::none());
        sec_fracs.push(ice.energy.security_fraction());
        savings.push(host.energy.total_uj() / ice.energy.total_uj());
        table.row(&[
            kind.label().to_string(),
            format!("{:.2}", host.energy.total_uj() / 1000.0),
            format!("{:.2}", isc.energy.total_uj() / 1000.0),
            format!("{:.2}", ice.energy.total_uj() / 1000.0),
            fmt_pct(ice.energy.security_fraction()),
        ]);
    }
    FigureReport {
        table,
        summary: vec![
            (
                "security engines' share of IceClave energy (paper: minimal)".into(),
                sec_fracs.iter().sum::<f64>() / sec_fracs.len() as f64,
            ),
            (
                "host/IceClave energy ratio, geomean".into(),
                geomean(savings.iter().copied()),
            ),
        ],
    }
}

/// The paper's short workload tags used in Figures 17/18.
fn short(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Aggregate => "AG",
        WorkloadKind::Arithmetic => "AR",
        WorkloadKind::Filter => "FI",
        WorkloadKind::TpchQ1 => "H1",
        WorkloadKind::TpchQ3 => "H3",
        WorkloadKind::TpchQ12 => "H12",
        WorkloadKind::TpchQ14 => "H14",
        WorkloadKind::TpchQ19 => "H19",
        WorkloadKind::TpcB => "TB",
        WorkloadKind::TpcC => "TC",
        WorkloadKind::Wordcount => "WC",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig::test()
    }

    #[test]
    fn table1_has_eleven_rows() {
        let report = table1(&cfg());
        assert_eq!(report.table.len(), 11);
    }

    #[test]
    fn fig5_shows_protected_region_winning() {
        let report = fig5(&cfg());
        assert_eq!(report.table.len(), 11);
        let (_, avg) = &report.summary[0];
        assert!(*avg > 0.0, "secure-world placement must be slower: {avg}");
    }

    #[test]
    fn fig11_normalizes_to_host() {
        // Large enough that TEE lifecycle costs amortize (they are
        // ~200us fixed, noise at the bench scale the repro uses).
        let cfg = WorkloadConfig {
            functional_bytes: iceclave_types::ByteSize::from_mib(4),
            ..WorkloadConfig::test()
        };
        let report = fig11(&cfg);
        assert_eq!(report.table.len(), 44);
        let speedup = report.summary[0].1;
        assert!(speedup > 1.0, "IceClave beats Host on average: {speedup}");
        let overhead = report.summary[2].1;
        assert!(
            (0.0..0.35).contains(&overhead),
            "overhead vs ISC: {overhead}"
        );
    }

    #[test]
    fn display_renders_summary() {
        let report = table1(&cfg());
        let s = report.to_string();
        assert!(s.contains("Table 1"));
        assert!(s.contains("write-heavy"));
    }
}
