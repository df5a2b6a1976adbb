//! The metric catalogue: every name the benchmark emits, its unit,
//! which clock it is measured on, and what it should move.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-tests keep the two in step.

use std::collections::BTreeMap;

use iceclave_obs::json;
use iceclave_obs::Percentiles;
use iceclave_types::SimDuration;

/// Which clock a metric is measured on.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Clock {
    /// Simulated time, or a count or ratio of the model: deterministic,
    /// so one seed always gives bit-identical values.
    Sim,
    /// How many public calls the benchmark made in a family (traced run
    /// only): deterministic like `Sim`.
    Calls,
    /// Host (wall-clock) time or host resources: noisy.
    Host,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Calls => "count",
            Clock::Host => "host",
        }
    }
}

/// One metric of the catalogue.
#[derive(Copy, Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub clock: Clock,
    /// End-to-end metrics: what the number is. Per-layer metrics: the
    /// end-to-end metric a change to this layer should move.
    pub note: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    note: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        clock,
        note,
    }
}

use Clock::{Calls, Host, Sim};

/// Metrics a user of the simulator sees, reported by the untraced run
/// (`--trace 0`) on every workload.
pub const END_TO_END: &[Spec] = &[
    spec(
        "sim_runtime_ms",
        "ms",
        "lower",
        Sim,
        "first offload to last teardown on the IceClave config (fig11: sum of IceClave totals)",
    ),
    spec(
        "runtime_vs_isc",
        "ratio",
        "lower",
        Sim,
        "IceClave / ISC simulated runtime on the same inputs, mean over programs (1 + overhead)",
    ),
    spec(
        "speedup_vs_host",
        "x",
        "higher",
        Sim,
        "Host / IceClave simulated runtime, geomean over programs",
    ),
    spec(
        "host_s",
        "s",
        "lower",
        Host,
        "host time to simulate the workload after set-up, fastest repetition",
    ),
    spec(
        "setup_s",
        "s",
        "lower",
        Host,
        "input generation, IceClave::new and populate, median over repetitions",
    ),
    spec(
        "peak_rss_mib",
        "MiB",
        "lower",
        Host,
        "peak resident set of the process after its first repetition",
    ),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Spec] = &[
    // Workload-specific end-to-end numbers (zero where not applicable).
    spec("read_page_p50_us", "us", "lower", Sim, "end-to-end: read page, submission to ready"),
    spec("read_page_p99_us", "us", "lower", Sim, "end-to-end: read page, submission to ready (0 when fewer than 10 samples lie beyond the p99)"),
    spec("read_page_samples", "count", "higher", Sim, "end-to-end: read pages behind the percentiles"),
    spec("write_page_p50_us", "us", "lower", Sim, "end-to-end: written page, submission to durable"),
    spec("write_page_p99_us", "us", "lower", Sim, "end-to-end: written page, submission to durable (0 when fewer than 10 samples lie beyond the p99)"),
    spec("write_page_samples", "count", "higher", Sim, "end-to-end: written pages behind the percentiles"),
    spec("colocation_slowdown", "ratio", "lower", Sim, "end-to-end: mean over tenants of 1 - solo / colocated runtime"),
    spec("colocation_slowdown_max", "ratio", "lower", Sim, "end-to-end: 1 - solo / colocated runtime of the worst tenant"),
    spec("recovery_ms", "ms", "lower", Sim, "end-to-end: recovery time of the reboot after the run"),
    spec("failed_share", "ratio", "lower", Sim, "end-to-end: failed operations / attempted"),
    // workloads
    spec("workloads.gen.host_s", "s", "lower", Host, "setup_s"),
    spec("workloads.gen.calls", "count", "lower", Calls, "setup_s"),
    spec("workloads.batches", "count", "lower", Sim, "host_s"),
    spec("workloads.flash_pages", "count", "lower", Sim, "sim_runtime_ms"),
    spec("workloads.dram_lines", "count", "lower", Sim, "sim_runtime_ms"),
    spec("workloads.working_set_mib", "MiB", "lower", Sim, "runtime_vs_isc (input property)"),
    spec("workloads.working_set_per_counter_reach", "ratio", "lower", Sim, "runtime_vs_isc (input property)"),
    spec("workloads.dataset_per_cmt_reach", "ratio", "lower", Sim, "runtime_vs_isc (input property)"),
    // core: the IceClave API, host time per call family
    spec("core.submit_read.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.submit_read.calls", "count", "lower", Calls, "host_s"),
    spec("core.mem_read.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.mem_read.calls", "count", "lower", Calls, "host_s"),
    spec("core.mem_write.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.mem_write.calls", "count", "lower", Calls, "host_s"),
    spec("core.compute.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.compute.calls", "count", "lower", Calls, "host_s"),
    spec("core.submit_write.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.submit_write.calls", "count", "lower", Calls, "host_s"),
    spec("core.drain.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.drain.calls", "count", "lower", Calls, "host_s"),
    spec("core.drain.host_ns_per_page", "ns/page", "lower", Host, "host_s"),
    spec("core.lifecycle.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.lifecycle.calls", "count", "lower", Calls, "host_s"),
    spec("core.recover.host_ns", "ns", "lower", Host, "host_s"),
    spec("core.recover.calls", "count", "lower", Calls, "host_s"),
    spec("core.populate.host_s", "s", "lower", Host, "setup_s"),
    spec("core.populate.calls", "count", "lower", Calls, "setup_s"),
    spec("core.attributed_share", "ratio", "higher", Host, "host_s (share of host_s inside named call families)"),
    // exec + sim-core
    spec("exec.events", "count", "lower", Sim, "host_s"),
    spec("exec.events_per_page", "events/page", "lower", Sim, "host_s"),
    spec("exec.host_ns_per_event", "ns/event", "lower", Host, "host_s"),
    spec("exec.inflight_tickets_mean", "tickets", "lower", Sim, "host_s"),
    // stages of drained completions (LatencyBreakdown)
    spec("stage.read.prepare_us_p50", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.prepare_us_p99", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.flash_us_p50", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.flash_us_p99", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.cipher_us_p50", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.cipher_us_p99", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.fill_us_p50", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.read.fill_us_p99", "us", "lower", Sim, "read_page_p99_us"),
    spec("stage.write.seal_us_p50", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.seal_us_p99", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.cipher_us_p50", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.cipher_us_p99", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.program_us_p50", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.program_us_p99", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.durable_us_p50", "us", "lower", Sim, "write_page_p99_us"),
    spec("stage.write.durable_us_p99", "us", "lower", Sim, "write_page_p99_us"),
    // ftl
    spec("ftl.translations", "count", "lower", Sim, "stage.read.prepare_us_p99"),
    spec("ftl.cmt_miss_rate", "ratio", "lower", Sim, "stage.read.prepare_us_p99"),
    spec("ftl.gc_runs", "count", "lower", Sim, "write_page_p99_us"),
    spec("ftl.write_amplification", "ratio", "lower", Sim, "write_page_p99_us"),
    spec("ftl.access_denied", "count", "lower", Sim, "failed_share"),
    // ftl::wfq
    spec("wfq.queued_mean", "pages", "lower", Sim, "colocation_slowdown_max"),
    spec("wfq.queued_max", "pages", "lower", Sim, "colocation_slowdown_max"),
    // flash
    spec("flash.reads", "count", "lower", Sim, "sim_runtime_ms"),
    spec("flash.programs", "count", "lower", Sim, "sim_runtime_ms"),
    spec("flash.erases", "count", "lower", Sim, "sim_runtime_ms"),
    spec("flash.channel_util", "ratio", "higher", Sim, "sim_runtime_ms"),
    spec("flash.die_util", "ratio", "higher", Sim, "sim_runtime_ms"),
    spec("flash.read_latency_p99_us", "us", "lower", Sim, "sim_runtime_ms"),
    // flash::journal
    spec("journal.records", "count", "lower", Sim, "write_page_p99_us"),
    spec("journal.pages", "count", "lower", Sim, "write_page_p99_us"),
    spec("journal.records_per_page", "ratio", "higher", Sim, "write_page_p99_us"),
    spec("journal.replay_records", "count", "lower", Sim, "recovery_ms"),
    spec("journal.replay_pages", "count", "lower", Sim, "recovery_ms"),
    // mee
    spec("mee.counter_hit_rate", "ratio", "higher", Sim, "runtime_vs_isc"),
    spec("mee.mac_hit_rate", "ratio", "higher", Sim, "runtime_vs_isc"),
    spec("mee.tree_hit_rate", "ratio", "higher", Sim, "runtime_vs_isc"),
    spec("mee.l2_hit_rate", "ratio", "higher", Sim, "runtime_vs_isc"),
    spec("mee.enc_traffic", "ratio", "lower", Sim, "runtime_vs_isc"),
    spec("mee.ver_traffic", "ratio", "lower", Sim, "runtime_vs_isc"),
    spec("mee.read_overhead_ns", "ns", "lower", Sim, "runtime_vs_isc"),
    spec("mee.write_overhead_ns", "ns", "lower", Sim, "runtime_vs_isc"),
    spec("mee.overflow_per_write", "ratio", "lower", Sim, "runtime_vs_isc"),
    spec("mee.migrations", "count", "lower", Sim, "runtime_vs_isc"),
    spec("mee.fill_lines", "count", "lower", Sim, "runtime_vs_isc"),
    spec("mee.seal_lines", "count", "lower", Sim, "runtime_vs_isc"),
    // dram
    spec("dram.accesses", "count", "lower", Sim, "sim_runtime_ms"),
    spec("dram.row_hit_rate", "ratio", "higher", Sim, "sim_runtime_ms"),
    spec("dram.mean_latency_ns", "ns", "lower", Sim, "sim_runtime_ms"),
    // cipher
    spec("cipher.pages", "count", "lower", Sim, "runtime_vs_isc"),
    // trustzone
    spec("trustzone.world_switches", "count", "lower", Sim, "runtime_vs_isc"),
    spec("trustzone.switches_per_write_ticket", "ratio", "lower", Sim, "runtime_vs_isc"),
    // cpu
    spec("cpu.busy_ms", "ms", "lower", Sim, "sim_runtime_ms"),
    // obs
    spec("obs.trace_records", "count", "lower", Sim, "host_s"),
    spec("obs.trace_bytes", "bytes", "lower", Sim, "host_s"),
    spec("obs.take_trace.host_ns", "ns", "lower", Host, "host_s"),
    spec("obs.take_trace.calls", "count", "lower", Calls, "host_s"),
    // experiments
    spec("experiments.host.host_s", "s", "lower", Host, "host_s"),
    spec("experiments.host.calls", "count", "lower", Calls, "host_s"),
    spec("experiments.isc.host_s", "s", "lower", Host, "host_s"),
    spec("experiments.isc.calls", "count", "lower", Calls, "host_s"),
    spec("experiments.iceclave.host_s", "s", "lower", Host, "host_s"),
    spec("experiments.iceclave.calls", "count", "lower", Calls, "host_s"),
    spec("experiments.load_share", "ratio", "lower", Sim, "speedup_vs_host"),
    spec("experiments.mem_encrypt_share", "ratio", "lower", Sim, "speedup_vs_host"),
    // the benchmark itself
    spec("sim_pages_per_host_s", "pages/s", "higher", Host, "host_s (normalises it)"),
    spec("trace_overhead", "ratio", "lower", Host, "host_s (traced / untraced host_s - 1)"),
];

/// The paper's value for each paper-comparable metric.
pub const PAPER: &[(&str, f64, &str)] = &[
    (
        "runtime_vs_isc",
        1.076,
        "Fig. 11: 7.6% over ISC, all eleven programs",
    ),
    (
        "speedup_vs_host",
        2.31,
        "Fig. 11, geomean of all eleven programs",
    ),
    ("colocation_slowdown", 0.214, "Fig. 18, four colocated TEEs"),
    (
        "mee.enc_traffic",
        0.2026,
        "Table 6, mean of all eleven programs",
    ),
    (
        "mee.ver_traffic",
        0.1451,
        "Table 6, mean of all eleven programs",
    ),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Metric values by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Every catalogue metric measured on `clock`, at zero.
    pub fn zeroed(clock: Clock) -> Values {
        Values(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .filter(|s| s.clock == clock)
                .map(|s| (s.name, 0.0))
                .collect(),
        )
    }

    /// Sets `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "{name} is not in the catalogue");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// True when both hold the same names with bit-identical values.
    pub fn identical(&self, other: &Values) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
    }

    /// Names whose values differ between the two sets.
    pub fn differences(&self, other: &Values) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(k, v)| other.get(k).map(f64::to_bits) != Some(v.to_bits()))
            .map(|(&k, _)| k)
            .collect()
    }
}

/// A latency distribution summarised for the report: the median, and
/// the p99 only when at least ten samples lie beyond it.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Tail {
    pub p50_us: f64,
    pub p99_us: Option<f64>,
    pub samples: usize,
}

/// Samples that rank beyond the nearest-rank p99 of `n` samples.
pub fn beyond_p99(n: usize) -> usize {
    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

pub fn tail(samples: &[SimDuration]) -> Option<Tail> {
    let p = Percentiles::from_durations(samples)?;
    Some(Tail {
        p50_us: p.p50 / 1_000.0,
        p99_us: (beyond_p99(samples.len()) >= 10).then_some(p.p99 / 1_000.0),
        samples: samples.len(),
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object
/// with `correct`, `attempted`, `failed` and the metrics of `specs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &Values,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(s.name),
                json::number(values.get(s.name).unwrap_or(0.0)),
                json::escape(s.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(name_ok(s.name), "bad name {}", s.name);
            assert!(unit_ok(s.unit), "bad unit {} of {}", s.unit, s.name);
            assert!(matches!(s.better, "lower" | "higher"), "{}", s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, _, _) in PAPER {
            assert!(
                find(name).is_some(),
                "paper reference {name} names no metric"
            );
        }
    }

    #[test]
    fn host_time_names_pair_with_calls() {
        for s in PER_LAYER {
            if let Some(family) = s
                .name
                .strip_suffix(".host_ns")
                .or_else(|| s.name.strip_suffix(".host_s"))
            {
                assert_eq!(s.clock, Clock::Host, "{}", s.name);
                let calls = format!("{family}.calls");
                assert!(find(&calls).is_some(), "{} has no {calls}", s.name);
            }
        }
    }

    /// Every emitted name and unit matches `BENCHMARK.json`, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(json::Value::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ns = |n: u64| -> Vec<SimDuration> { (1..=n).map(SimDuration::from_nanos).collect() };
        assert_eq!(beyond_p99(999), 9);
        assert_eq!(beyond_p99(1000), 10);
        assert_eq!(tail(&ns(999)).map(|t| t.p99_us), Some(None));
        let t = tail(&ns(1000)).expect("samples");
        assert_eq!(t.p99_us, Some(0.99));
        assert_eq!(t.p50_us, 0.5);
        assert_eq!(t.samples, 1000);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_result_keys() {
        let mut v = Values::zeroed(Clock::Sim);
        v.set("sim_runtime_ms", 1.25);
        let line = result_line(true, 7, 0, &END_TO_END[..1], &v);
        let doc = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("sim_runtime_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(json::Value::as_f64),
            Some(1.25)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(json::Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn determinism_check_catches_a_tampered_value() {
        let a = Values::zeroed(Clock::Sim);
        let mut b = a.clone();
        assert!(a.identical(&b));
        b.set("sim_runtime_ms", 1e-12);
        assert!(!a.identical(&b));
        assert_eq!(a.differences(&b), ["sim_runtime_ms"]);
    }

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
