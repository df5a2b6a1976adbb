//! The four workloads and what each measures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use iceclave_core::IceClaveConfig;
use iceclave_experiments::{run, Mode, Overrides, RunResult};
use iceclave_types::{ByteSize, SimDuration, PAGE_SIZE};
use iceclave_workloads::{WorkloadConfig, WorkloadKind};

use crate::checks::{self, Tally};
use crate::device::{Counters, Device, Leg, LegPlan, Program};
use crate::metrics::{geomean, mean, ratio, tail, Clock, Values};
use crate::probe::{Family, Probe, NONE};

#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Workload {
    Scan,
    Txn,
    Colocated,
    Fig11,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Scan,
        Workload::Txn,
        Workload::Colocated,
        Workload::Fig11,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Txn => "txn",
            Workload::Colocated => "colocated",
            Workload::Fig11 => "fig11",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn kinds(self) -> &'static [WorkloadKind] {
        use WorkloadKind as W;
        match self {
            Workload::Scan => &[W::TpchQ1, W::TpchQ3, W::TpchQ12, W::TpchQ14, W::TpchQ19],
            Workload::Txn => &[W::TpcB, W::TpcC],
            Workload::Colocated => &[W::TpcC, W::TpcB, W::Aggregate, W::TpchQ1],
            Workload::Fig11 => &WorkloadKind::ALL,
        }
    }

    /// Functional data per program. The modeled dataset is always the
    /// paper's 32 GiB, so cache-visibility decisions do not change.
    fn functional(self) -> ByteSize {
        match self {
            Workload::Scan => ByteSize::from_mib(16),
            Workload::Txn => ByteSize::from_mib(64),
            Workload::Colocated => ByteSize::from_mib(16),
            Workload::Fig11 => ByteSize::from_mib(4),
        }
    }

    pub fn config(self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            functional_bytes: self.functional(),
            seed,
            ..WorkloadConfig::bench()
        }
    }
}

/// Flash blocks reserved for the metadata journal on `txn`: far more
/// than the run appends, so it never hits `JournalExhausted`.
const JOURNAL_BLOCKS: u32 = 512;

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub host_s: f64,
    /// Every simulated metric (deterministic for a seed).
    pub sim: Values,
    /// Pages the simulator moved (submitted to the device; flash pages
    /// requested per mode run on `fig11`).
    pub pages: u64,
    pub pages_drained: u64,
    /// Human-readable details for the report.
    pub detail: Vec<String>,
}

/// Host time split into set-up and simulation.
#[derive(Default)]
struct Split {
    setup: Duration,
    run: Duration,
}

impl Split {
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.setup += start.elapsed();
        out
    }

    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.run += start.elapsed();
        out
    }
}

pub fn run_rep(w: Workload, seed: u64, probe: &mut Probe, tally: &mut Tally) -> Rep {
    let cfg = w.config(seed);
    let mut split = Split::default();
    let programs: Vec<Program> = split.setup(|| {
        w.kinds()
            .iter()
            .map(|&k| probe.call(Family::Gen, 0, NONE, NONE, 1, || Program::generate(k, &cfg)))
            .collect()
    });
    let mut r = Run {
        cfg,
        seed,
        split,
        probe,
        tally,
        v: Values::zeroed(Clock::Sim),
        pages: 0,
        pages_drained: 0,
        events: 0,
        detail: Vec::new(),
    };
    r.inputs(&programs);
    match w {
        Workload::Scan => r.scan(&programs),
        Workload::Txn => r.txn(&programs),
        Workload::Colocated => r.colocated(&programs),
        Workload::Fig11 => r.fig11(&programs),
    }
    r.v.set("exec.events", r.events as f64);
    r.v.set(
        "exec.events_per_page",
        ratio(r.events as f64, r.pages as f64),
    );
    Rep {
        setup_s: r.split.setup.as_secs_f64(),
        host_s: r.split.run.as_secs_f64(),
        sim: r.v,
        pages: r.pages,
        pages_drained: r.pages_drained,
        detail: r.detail,
    }
}

/// The state of one repetition.
struct Run<'a> {
    cfg: WorkloadConfig,
    seed: u64,
    split: Split,
    probe: &'a mut Probe,
    tally: &'a mut Tally,
    v: Values,
    pages: u64,
    pages_drained: u64,
    events: u64,
    detail: Vec<String>,
}

fn ssd_config(mode: Mode) -> IceClaveConfig {
    mode.ssd_config(&Overrides::none())
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

/// Mean over programs of `ice / isc`.
fn vs_isc(ice: &[SimDuration], isc: &[SimDuration]) -> f64 {
    let per: Vec<f64> = ice.iter().zip(isc).map(|(&a, &b)| a / b).collect();
    mean(&per)
}

/// Geomean over programs of `host / ice`.
fn speedup(host: &[SimDuration], ice: &[SimDuration]) -> f64 {
    let per: Vec<f64> = host.iter().zip(ice).map(|(&h, &i)| h / i).collect();
    geomean(&per)
}

const READ_STAGES: [(&str, &str); 4] = [
    ("stage.read.prepare_us_p50", "stage.read.prepare_us_p99"),
    ("stage.read.flash_us_p50", "stage.read.flash_us_p99"),
    ("stage.read.cipher_us_p50", "stage.read.cipher_us_p99"),
    ("stage.read.fill_us_p50", "stage.read.fill_us_p99"),
];
const WRITE_STAGES: [(&str, &str); 4] = [
    ("stage.write.seal_us_p50", "stage.write.seal_us_p99"),
    ("stage.write.cipher_us_p50", "stage.write.cipher_us_p99"),
    ("stage.write.program_us_p50", "stage.write.program_us_p99"),
    ("stage.write.durable_us_p50", "stage.write.durable_us_p99"),
];

impl Run<'_> {
    /// Set-up and run of one device leg.
    fn leg(&mut self, config: IceClaveConfig, plan: &LegPlan) -> (Device, Leg, Counters) {
        let (probe, tally, seed) = (&mut *self.probe, &mut *self.tally, self.seed);
        let mut dev = self
            .split
            .setup(|| Device::new(config, plan.programs, probe, tally));
        let before = Counters::of(&dev.ice);
        let leg = self.split.run(|| dev.run(plan, seed, probe, tally));
        let counters = Counters::of(&dev.ice).since(&before);
        self.pages += leg.pages_submitted;
        self.pages_drained += leg.pages_drained;
        self.events += leg.events;
        (dev, leg, counters)
    }

    /// One `iceclave_experiments::run`; a panic counts as a failure.
    fn experiment(&mut self, mode: Mode, kind: WorkloadKind) -> Option<RunResult> {
        let family = match mode {
            Mode::Host => Family::RunHost,
            Mode::Isc => Family::RunIsc,
            _ => Family::RunIceClave,
        };
        let (cfg, probe) = (&self.cfg, &mut *self.probe);
        let r = self.split.run(|| {
            probe.call(family, 0, NONE, NONE, 1, || {
                catch_unwind(AssertUnwindSafe(|| {
                    run(mode, kind, cfg, &Overrides::none())
                }))
            })
        });
        self.tally
            .call(&format!("run({mode}, {kind})"), r.map_err(|_| "panicked"))
    }

    /// Host-mode runtimes of `programs` (the speedup baseline), each
    /// checked against the answer the inputs were generated with.
    fn host(&mut self, programs: &[Program]) -> Vec<SimDuration> {
        programs
            .iter()
            .map(|p| match self.experiment(Mode::Host, p.kind) {
                Some(r) => {
                    self.tally
                        .check(checks::outputs_agree(&[p.output, r.output]), || {
                            format!("{}: Host output differs", p.kind)
                        });
                    r.total
                }
                None => SimDuration::ZERO,
            })
            .collect()
    }

    fn inputs(&mut self, programs: &[Program]) {
        let config = ssd_config(Mode::IceClave);
        let v = &mut self.v;
        v.set(
            "workloads.batches",
            programs.iter().map(|p| p.batches.len()).sum::<usize>() as f64,
        );
        v.set(
            "workloads.flash_pages",
            programs.iter().map(Program::flash_pages).sum::<u64>() as f64,
        );
        v.set(
            "workloads.dram_lines",
            programs.iter().map(Program::dram_lines).sum::<u64>() as f64,
        );
        // The 128 KiB counter cache holds one split-counter block per
        // 4 KiB page (8 MiB of data) or one major block per eight pages
        // (64 MiB); the CMT caches 512 mapping entries per 4 KiB page.
        let split_reach = (config.mee.counter_cache.as_bytes() / 64 * PAGE_SIZE) as f64;
        let cmt_reach = (config.platform.ftl.cmt_capacity.as_bytes() * 512) as f64;
        let largest = programs
            .iter()
            .map(|p| p.working_set.as_bytes())
            .max()
            .unwrap_or(0) as f64;
        let dataset: u64 = programs.iter().map(|p| p.dataset_pages * PAGE_SIZE).sum();
        v.set("workloads.working_set_mib", largest / f64::from(1 << 20));
        v.set(
            "workloads.working_set_per_counter_reach",
            largest / split_reach,
        );
        v.set(
            "workloads.dataset_per_cmt_reach",
            dataset as f64 / cmt_reach,
        );
        for p in programs {
            self.detail.push(format!(
                "input {:<10} batches {:>5}  flash pages {:>6}  dram lines {:>8}  working set {:>8.2} MiB \
                 ({:.3} of split-counter reach, {:.3} of major)  dataset {:.2} MiB",
                p.kind.label(),
                p.batches.len(),
                p.flash_pages(),
                p.dram_lines(),
                p.working_set.as_mib_f64(),
                p.working_set.as_bytes() as f64 / split_reach,
                p.working_set.as_bytes() as f64 / (split_reach * 8.0),
                (p.dataset_pages * PAGE_SIZE) as f64 / f64::from(1 << 20),
            ));
        }
    }

    /// Per-layer values of the workload's primary IceClave-config leg.
    fn layers(&mut self, dev: &Device, leg: &Leg, c: &Counters) {
        let v = &mut self.v;
        let ice = &dev.ice;
        let mee = ice.mee().stats();
        let traffic = &mee.meta_traffic;
        v.set("mee.counter_hit_rate", traffic.counter_hit_rate());
        v.set("mee.mac_hit_rate", traffic.mac_hit_rate());
        v.set("mee.tree_hit_rate", traffic.tree_hit_rate());
        v.set("mee.l2_hit_rate", mee.l2_hit_rate());
        v.set("mee.enc_traffic", mee.encryption_traffic_overhead());
        v.set("mee.ver_traffic", mee.verification_traffic_overhead());
        v.set(
            "mee.read_overhead_ns",
            mee.mean_read_overhead().as_nanos_f64(),
        );
        v.set(
            "mee.write_overhead_ns",
            mee.mean_write_overhead().as_nanos_f64(),
        );
        v.set(
            "mee.overflow_per_write",
            ratio(mee.overflow_reencryptions as f64, mee.data_writes as f64),
        );
        v.set("mee.migrations", mee.migrations as f64);
        v.set("mee.fill_lines", mee.fill_writes as f64);
        v.set("mee.seal_lines", mee.seal_reads as f64);

        let flash = ice.platform().ftl.flash();
        let span = leg.span.as_ps() as f64;
        v.set("flash.reads", c.flash_reads as f64);
        v.set("flash.programs", c.flash_programs as f64);
        v.set("flash.erases", c.flash_erases as f64);
        v.set(
            "flash.channel_util",
            ratio(
                c.channel_busy.as_ps() as f64,
                span * flash.channels().len() as f64,
            ),
        );
        v.set(
            "flash.die_util",
            ratio(c.die_busy.as_ps() as f64, span * flash.dies().len() as f64),
        );
        v.set(
            "flash.read_latency_p99_us",
            flash.stats().read_latency_ns.quantile(0.99) as f64 / 1_000.0,
        );

        v.set("ftl.translations", c.translations as f64);
        v.set(
            "ftl.cmt_miss_rate",
            ratio(c.cmt_misses as f64, (c.cmt_hits + c.cmt_misses) as f64),
        );
        v.set("ftl.gc_runs", c.gc_runs as f64);
        v.set(
            "ftl.write_amplification",
            ratio(c.flash_programs as f64, c.logical_writes as f64),
        );
        v.set("ftl.access_denied", c.access_denied as f64);
        self.tally.check(checks::no_denials(c.access_denied), || {
            format!("{} accesses denied by the ID-bit check", c.access_denied)
        });

        v.set("journal.records", c.journal_records as f64);
        v.set("journal.pages", c.journal_pages as f64);
        v.set(
            "journal.records_per_page",
            ratio(c.journal_records as f64, c.journal_pages as f64),
        );

        v.set("dram.accesses", c.dram_accesses as f64);
        v.set(
            "dram.row_hit_rate",
            ratio(c.dram_row_hits as f64, c.dram_accesses as f64),
        );
        v.set(
            "dram.mean_latency_ns",
            ratio(c.dram_latency.as_nanos_f64(), c.dram_accesses as f64),
        );
        let rt = ice.stats();
        v.set("cipher.pages", (rt.pages_loaded + rt.pages_stored) as f64);
        v.set("trustzone.world_switches", c.switches as f64);
        v.set(
            "trustzone.switches_per_write_ticket",
            ratio(c.switches as f64, leg.write_tickets as f64),
        );
        v.set("cpu.busy_ms", ms(c.core_busy));

        v.set(
            "exec.inflight_tickets_mean",
            ratio(leg.inflight_sum as f64, leg.inflight_samples as f64),
        );
        v.set(
            "wfq.queued_mean",
            ratio(leg.queued_sum as f64, leg.queued_samples as f64),
        );
        v.set("wfq.queued_max", leg.queued_max as f64);

        let lat = &leg.lat;
        for ((p50, p99), samples) in READ_STAGES
            .into_iter()
            .zip(&lat.read_stages)
            .chain(WRITE_STAGES.into_iter().zip(&lat.write_stages))
        {
            if let Some(t) = tail(samples) {
                v.set(p50, t.p50_us);
                v.set(p99, t.p99_us.unwrap_or(0.0));
            }
        }
        for (samples, p50, p99, n) in [
            (
                &lat.read,
                "read_page_p50_us",
                "read_page_p99_us",
                "read_page_samples",
            ),
            (
                &lat.write,
                "write_page_p50_us",
                "write_page_p99_us",
                "write_page_samples",
            ),
        ] {
            if let Some(t) = tail(samples) {
                v.set(p50, t.p50_us);
                v.set(p99, t.p99_us.unwrap_or(0.0));
                v.set(n, t.samples as f64);
                if t.p99_us.is_none() {
                    self.detail.push(format!(
                        "{p99} withheld: fewer than 10 of {} samples lie beyond it",
                        t.samples
                    ));
                }
            }
        }
        v.set("obs.trace_records", leg.trace_records as f64);
        v.set("obs.trace_bytes", leg.trace_bytes as f64);
    }

    fn program_detail(
        &mut self,
        programs: &[&Program],
        legs: &[(&str, &Leg)],
        host: &[SimDuration],
    ) {
        for (i, p) in programs.iter().enumerate() {
            let mut line = format!("sim {:<10}", p.kind.label());
            for (label, leg) in legs {
                line += &format!("  {label} {:>10.3} ms", ms(leg.runtimes[i]));
            }
            line += &format!("  Host {:>10.3} ms", ms(host[i]));
            self.detail.push(line);
        }
    }

    fn scan(&mut self, programs: &[Program]) {
        let refs: Vec<&Program> = programs.iter().collect();
        let tenants: Vec<u32> = (0..refs.len() as u32).collect();
        let plan = |leg: u8| LegPlan {
            programs: &refs,
            tenants: &tenants,
            concurrent: false,
            capture: false,
            leg,
        };
        let (dev, ice, c) = self.leg(ssd_config(Mode::IceClave), &plan(0));
        self.layers(&dev, &ice, &c);
        drop(dev);
        let (_, isc, _) = self.leg(ssd_config(Mode::Isc), &plan(1));
        let host = self.host(programs);
        self.v.set("sim_runtime_ms", ms(ice.span));
        self.v
            .set("runtime_vs_isc", vs_isc(&ice.runtimes, &isc.runtimes));
        self.v.set("speedup_vs_host", speedup(&host, &ice.runtimes));
        self.program_detail(&refs, &[("IceClave", &ice), ("ISC", &isc)], &host);
    }

    fn txn(&mut self, programs: &[Program]) {
        let refs: Vec<&Program> = programs.iter().collect();
        let tenants: Vec<u32> = (0..refs.len() as u32).collect();
        let plan = |leg: u8| LegPlan {
            programs: &refs,
            tenants: &tenants,
            concurrent: false,
            capture: false,
            leg,
        };
        let journaled = |mode| {
            let mut config = ssd_config(mode);
            config.platform.ftl.journal_blocks = JOURNAL_BLOCKS;
            config
        };
        let (mut dev, ice, c) = self.leg(journaled(Mode::IceClave), &plan(0));
        // Read the layers before the reboot discards the volatile state.
        self.layers(&dev, &ice, &c);
        let (probe, tally) = (&mut *self.probe, &mut *self.tally);
        let rebooted = self
            .split
            .run(|| dev.reboot_and_read_back(&ice.written, ice.end, probe, tally));
        drop(dev);
        if let Some((stats, done)) = rebooted {
            self.pages += ice.written.len() as u64;
            self.pages_drained += ice.written.len() as u64;
            self.v.set("recovery_ms", ms(stats.recovery_time));
            self.v
                .set("journal.replay_records", stats.records_replayed as f64);
            self.v.set("journal.replay_pages", stats.pages_read as f64);
            self.tally.check(
                checks::readback_complete(&ice.written, &done, stats.pages_lost),
                || {
                    format!(
                        "read-back after recover: {} of {} written LPNs Done, {} pages lost",
                        done.len(),
                        ice.written.len(),
                        stats.pages_lost
                    )
                },
            );
        }
        let (_, isc, _) = self.leg(journaled(Mode::Isc), &plan(1));
        let host = self.host(programs);
        self.v.set("sim_runtime_ms", ms(ice.span));
        self.v
            .set("runtime_vs_isc", vs_isc(&ice.runtimes, &isc.runtimes));
        self.v.set("speedup_vs_host", speedup(&host, &ice.runtimes));
        self.program_detail(&refs, &[("IceClave", &ice), ("ISC", &isc)], &host);
    }

    fn colocated(&mut self, programs: &[Program]) {
        let refs: Vec<&Program> = programs.iter().collect();
        let tenants: Vec<u32> = (0..refs.len() as u32).collect();
        let mix = |leg: u8, capture: bool| LegPlan {
            programs: &refs,
            tenants: &tenants,
            concurrent: true,
            capture,
            leg,
        };
        let (dev, ice, c) = self.leg(ssd_config(Mode::IceClave), &mix(0, true));
        self.layers(&dev, &ice, &c);
        drop(dev);
        let (_, isc, _) = self.leg(ssd_config(Mode::Isc), &mix(1, false));
        let mut solo = Vec::with_capacity(refs.len());
        for (i, p) in refs.iter().enumerate() {
            let plan = LegPlan {
                programs: std::slice::from_ref(p),
                tenants: &tenants[i..=i],
                concurrent: false,
                capture: false,
                leg: 2 + i as u8,
            };
            let (_, leg, _) = self.leg(ssd_config(Mode::IceClave), &plan);
            solo.push(leg);
        }
        let host = self.host(programs);
        let solo_pages: Vec<u64> = solo.iter().map(|l| l.retired[0]).collect();
        self.tally
            .check(checks::solo_counts_match(&ice.retired, &solo_pages), || {
                format!(
                    "colocated tenants retired {:?} pages, alone {solo_pages:?}",
                    ice.retired
                )
            });
        let slowdowns: Vec<f64> = solo
            .iter()
            .zip(&ice.runtimes)
            .map(|(alone, &together)| 1.0 - alone.runtimes[0] / together)
            .collect();
        self.v.set("sim_runtime_ms", ms(ice.span));
        self.v
            .set("runtime_vs_isc", vs_isc(&ice.runtimes, &isc.runtimes));
        self.v.set("speedup_vs_host", speedup(&host, &ice.runtimes));
        self.v.set("colocation_slowdown", mean(&slowdowns));
        self.v.set(
            "colocation_slowdown_max",
            slowdowns.iter().copied().fold(f64::MIN, f64::max),
        );
        self.program_detail(
            &refs,
            &[("colocated", &ice), ("ISC colocated", &isc)],
            &host,
        );
        for (p, alone) in refs.iter().zip(&solo) {
            self.detail.push(format!(
                "sim {:<10}  alone {:>10.3} ms",
                p.kind.label(),
                ms(alone.runtimes[0])
            ));
        }
    }

    fn fig11(&mut self, programs: &[Program]) {
        let mut host = Vec::new();
        let mut isc = Vec::new();
        let mut ice: Vec<RunResult> = Vec::new();
        for p in programs {
            let runs: Vec<Option<RunResult>> = [Mode::Host, Mode::Isc, Mode::IceClave]
                .into_iter()
                .map(|m| self.experiment(m, p.kind))
                .collect();
            let [Some(h), Some(s), Some(i)] = <[Option<RunResult>; 3]>::try_from(runs)
                .unwrap_or_else(|_| unreachable!("three modes"))
            else {
                continue;
            };
            self.tally.check(
                checks::outputs_agree(&[p.output, h.output, s.output, i.output]),
                || format!("{}: outputs differ across Host, ISC and IceClave", p.kind),
            );
            self.pages += 3 * p.flash_pages();
            self.detail.push(format!(
                "sim {:<10}  IceClave {:>10.3} ms  ISC {:>10.3} ms  Host {:>10.3} ms",
                p.kind.label(),
                ms(i.total),
                ms(s.total),
                ms(h.total)
            ));
            host.push(h.total);
            isc.push(s.total);
            ice.push(i);
        }
        let totals: Vec<SimDuration> = ice.iter().map(|r| r.total).collect();
        let all = |f: fn(&RunResult) -> f64| mean(&ice.iter().map(f).collect::<Vec<f64>>());
        let sum = |f: fn(&RunResult) -> SimDuration| ice.iter().map(f).sum::<SimDuration>();
        let total: SimDuration = totals.iter().copied().sum();
        let v = &mut self.v;
        v.set("sim_runtime_ms", ms(total));
        v.set("runtime_vs_isc", vs_isc(&totals, &isc));
        v.set("speedup_vs_host", speedup(&host, &totals));
        v.set("ftl.cmt_miss_rate", all(|r| r.cmt_miss_rate));
        v.set("mee.counter_hit_rate", all(|r| r.counter_hit_rate));
        v.set("mee.mac_hit_rate", all(|r| r.mac_hit_rate));
        v.set("mee.tree_hit_rate", all(|r| r.tree_hit_rate));
        v.set("mee.l2_hit_rate", all(|r| r.l2_hit_rate));
        v.set("mee.enc_traffic", all(|r| r.enc_traffic));
        v.set("mee.ver_traffic", all(|r| r.ver_traffic));
        v.set(
            "mee.read_overhead_ns",
            all(|r| r.mean_read_overhead.as_nanos_f64()),
        );
        v.set(
            "trustzone.world_switches",
            ice.iter().map(|r| r.world_switches).sum::<u64>() as f64,
        );
        v.set("cpu.busy_ms", ms(sum(|r| r.ops_time)));
        v.set(
            "experiments.load_share",
            ratio(sum(|r| r.load_stall).as_ps() as f64, total.as_ps() as f64),
        );
        v.set(
            "experiments.mem_encrypt_share",
            ratio(sum(|r| r.sec_overhead).as_ps() as f64, total.as_ps() as f64),
        );
    }
}
