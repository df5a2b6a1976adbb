//! The unified bench-report schema and the regression gate.
//!
//! # Schema (`iceclave.bench_report.v1`)
//!
//! ```json
//! {
//!   "schema": "iceclave.bench_report.v1",
//!   "bench": "simspeed",
//!   "fingerprint": "9f2c41aa00b37e12",
//!   "config": { "tees": "2", "channels": "16" },
//!   "metrics": [
//!     { "name": "simulated_pages_per_iter", "unit": "pages",
//!       "value": 2304.0, "direction": "higher", "tol": 0.0, "gate": true }
//!   ]
//! }
//! ```
//!
//! * `fingerprint` is the FxHash (hex) of the bench id and every
//!   `config` key/value pair, in emission order. The gate fails on a
//!   fingerprint mismatch: changing a bench's configuration requires
//!   regenerating its committed baseline, never silently comparing
//!   incomparable runs.
//! * `direction` says which way the metric is allowed to drift:
//!   `higher` means larger is better (a drop is a regression), `lower`
//!   the opposite, `either` means any drift beyond tolerance fails.
//! * `tol` is the *relative* tolerance band (0.05 = ±5%). Deterministic
//!   simulated metrics use tight or zero bands; wall-clock metrics are
//!   emitted with `gate: false` and are purely informational.
//!
//! The gate itself ([`check`]) compares a candidate report against its
//! committed baseline metric-by-metric and reports every violation;
//! `check_regression` (this crate's binary) maps that over a directory
//! pair and sets the process exit code for CI.

use std::hash::Hasher;

use iceclave_types::{FxHasher, SimDuration};

use crate::json::{self, Value};

/// Schema identifier emitted in (and required of) every report.
pub const SCHEMA: &str = "iceclave.bench_report.v1";

/// Which direction of drift counts as a regression for a metric.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Direction {
    /// Larger is better: a drop below `baseline * (1 - tol)` fails.
    Higher,
    /// Smaller is better: a rise above `baseline * (1 + tol)` fails.
    Lower,
    /// Any drift beyond the band fails.
    Either,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
            Direction::Either => "either",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            "either" => Some(Direction::Either),
            _ => None,
        }
    }
}

/// One named measurement in a [`BenchReport`].
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    /// Stable metric name (the gate matches baselines by name).
    pub name: String,
    /// Unit label, e.g. `pages/s`, `ns`, `ratio`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Which drift direction regresses.
    pub direction: Direction,
    /// Relative tolerance band (0.05 = ±5%).
    pub tol: f64,
    /// Whether the regression gate enforces this metric. Wall-clock
    /// measurements set `false` (machine-dependent, informational).
    pub gate: bool,
}

/// A latency percentile set, for emission as a metric family.
///
/// Computed from per-page latencies (e.g. `LatencyBreakdown::total`)
/// so every bench reports tails the same way.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Percentiles (nearest-rank) of `latencies`, in nanoseconds.
    /// Returns `None` for an empty set.
    pub fn from_durations(latencies: &[SimDuration]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        let mut ns: Vec<f64> = latencies.iter().map(|d| d.as_nanos_f64()).collect();
        ns.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let idx = ((p * ns.len() as f64).ceil() as usize).clamp(1, ns.len()) - 1;
            ns[idx]
        };
        Some(Percentiles {
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: ns[ns.len() - 1],
        })
    }
}

/// One bench run's worth of metrics, in the unified schema.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchReport {
    /// Bench identifier (e.g. `simspeed`).
    pub bench: String,
    /// Configuration key/value pairs, in emission order; folded into
    /// the fingerprint.
    pub config: Vec<(String, String)>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// An empty report for `bench`.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            config: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends one configuration pair (builder style).
    pub fn config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Appends one metric.
    pub fn push_metric(
        &mut self,
        name: impl Into<String>,
        unit: &str,
        value: f64,
        direction: Direction,
        tol: f64,
        gate: bool,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.to_string(),
            value,
            direction,
            tol,
            gate,
        });
    }

    /// The config fingerprint: FxHash (hex) over the bench id and every
    /// config pair in order.
    pub fn fingerprint(&self) -> String {
        let mut h = FxHasher::default();
        h.write(self.bench.as_bytes());
        for (k, v) in &self.config {
            h.write(k.as_bytes());
            h.write(v.as_bytes());
        }
        format!("{:016x}", h.finish())
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes the report (pretty-printed, deterministic member
    /// order, shortest-round-trip numbers).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.metrics.len() * 128);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(SCHEMA)));
        out.push_str(&format!("  \"bench\": {},\n", json::escape(&self.bench)));
        out.push_str(&format!(
            "  \"fingerprint\": {},\n",
            json::escape(&self.fingerprint())
        ));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json::escape(k), json::escape(v)));
        }
        if !self.config.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"name\": {}, \"unit\": {}, \"value\": {}, \
                 \"direction\": {}, \"tol\": {}, \"gate\": {} }}",
                json::escape(&m.name),
                json::escape(&m.unit),
                json::number(m.value),
                json::escape(m.direction.as_str()),
                json::number(m.tol),
                m.gate
            ));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses and schema-validates a report.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: malformed JSON, a
    /// missing/mistyped member, an unknown schema id, or a fingerprint
    /// that does not match the embedded config.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema {schema:?} (want {SCHEMA:?})"));
        }
        let bench = v
            .get("bench")
            .and_then(Value::as_str)
            .ok_or("missing \"bench\"")?
            .to_string();
        let config = v
            .get("config")
            .and_then(Value::as_object)
            .ok_or("missing \"config\" object")?
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("config {k:?} is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut metrics = Vec::new();
        for (i, m) in v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("missing \"metrics\" array")?
            .iter()
            .enumerate()
        {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("metric #{i} missing {key:?}"))
            };
            let name = field("name")?
                .as_str()
                .ok_or_else(|| format!("metric #{i} name is not a string"))?
                .to_string();
            let unit = field("unit")?
                .as_str()
                .ok_or_else(|| format!("metric {name:?} unit is not a string"))?
                .to_string();
            let value = field("value")?
                .as_f64()
                .ok_or_else(|| format!("metric {name:?} value is not a number"))?;
            let direction = field("direction")?
                .as_str()
                .and_then(Direction::from_str)
                .ok_or_else(|| format!("metric {name:?} has an invalid direction"))?;
            let tol = field("tol")?
                .as_f64()
                .ok_or_else(|| format!("metric {name:?} tol is not a number"))?;
            let gate = field("gate")?
                .as_bool()
                .ok_or_else(|| format!("metric {name:?} gate is not a boolean"))?;
            metrics.push(Metric {
                name,
                unit,
                value,
                direction,
                tol,
                gate,
            });
        }
        let report = BenchReport {
            bench,
            config,
            metrics,
        };
        let claimed = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("missing \"fingerprint\"")?;
        if claimed != report.fingerprint() {
            return Err(format!(
                "fingerprint {claimed:?} does not match the embedded config \
                 (recomputed {:?})",
                report.fingerprint()
            ));
        }
        Ok(report)
    }

    /// Writes the report to the path named by the environment variable
    /// `env_var` (falling back to `default_path`), echoing the target.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self, env_var: &str, default_path: &str) -> std::io::Result<String> {
        let path = std::env::var(env_var).unwrap_or_else(|_| default_path.to_string());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// One gate failure found by [`check`].
#[derive(Clone, PartialEq, Debug)]
pub struct GateViolation {
    /// The metric that failed (or a pseudo-name for report-level
    /// problems like a fingerprint mismatch).
    pub metric: String,
    /// What happened.
    pub detail: String,
}

impl std::fmt::Display for GateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.metric, self.detail)
    }
}

/// Compares `candidate` against `baseline`, returning every violation
/// (empty = gate passes).
///
/// Rules, in order: bench ids must match; fingerprints must match
/// (changed configs require a regenerated baseline); every *gated*
/// baseline metric must exist in the candidate; each must sit inside
/// the baseline's tolerance band in the harmless direction. Candidate
/// metrics absent from the baseline pass (new metrics need a baseline
/// refresh to become enforced, but never break CI).
pub fn check(baseline: &BenchReport, candidate: &BenchReport) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    if baseline.bench != candidate.bench {
        violations.push(GateViolation {
            metric: "<report>".to_string(),
            detail: format!(
                "bench id mismatch: baseline {:?} vs candidate {:?}",
                baseline.bench, candidate.bench
            ),
        });
        return violations;
    }
    if baseline.fingerprint() != candidate.fingerprint() {
        violations.push(GateViolation {
            metric: "<report>".to_string(),
            detail: format!(
                "config fingerprint changed ({} -> {}): regenerate the committed baseline",
                baseline.fingerprint(),
                candidate.fingerprint()
            ),
        });
        return violations;
    }
    for base in baseline.metrics.iter().filter(|m| m.gate) {
        let Some(cand) = candidate.metric(&base.name) else {
            violations.push(GateViolation {
                metric: base.name.clone(),
                detail: "gated metric missing from candidate report".to_string(),
            });
            continue;
        };
        let delta = if base.value == 0.0 {
            // Zero baselines (e.g. failed-page counts) tolerate only
            // zero candidates under a relative band.
            if cand.value == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (cand.value - base.value) / base.value
        };
        let harmful = match base.direction {
            Direction::Higher => -delta,
            Direction::Lower => delta,
            Direction::Either => delta.abs(),
        };
        if harmful > base.tol {
            violations.push(GateViolation {
                metric: base.name.clone(),
                detail: format!(
                    "{} {} -> {} ({delta:+.2}% vs ±{:.2}% band, direction {})",
                    base.unit,
                    base.value,
                    cand.value,
                    base.tol * 100.0,
                    base.direction.as_str(),
                    delta = delta * 100.0,
                ),
            });
        }
    }
    violations
}

/// Returns `candidate` with every gated metric degraded by `frac`
/// (e.g. 0.10) in its harmful direction — the gate self-test: [`check`]
/// against the original must fail for every gated metric whose
/// tolerance is below `frac`.
pub fn degrade(report: &BenchReport, frac: f64) -> BenchReport {
    let mut out = report.clone();
    for m in out.metrics.iter_mut().filter(|m| m.gate) {
        let magnitude = if m.value == 0.0 { 1.0 } else { m.value.abs() };
        match m.direction {
            Direction::Higher => m.value -= magnitude * frac,
            Direction::Lower | Direction::Either => m.value += magnitude * frac,
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("unit_test")
            .config("tees", 2)
            .config("channels", 16);
        r.push_metric(
            "pages_per_s",
            "pages/s",
            150_000.0,
            Direction::Higher,
            0.05,
            true,
        );
        r.push_metric("p99_ns", "ns", 42_000.0, Direction::Lower, 0.05, true);
        r.push_metric("failed_pages", "pages", 0.0, Direction::Either, 0.0, true);
        r.push_metric("wall_rate", "pages/s", 1.0e6, Direction::Higher, 0.0, false);
        r
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        let r = sample();
        let good = r.to_json();
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json(&good.replace(SCHEMA, "other.v9")).is_err());
        // Tampering with the config without refreshing the fingerprint
        // is caught by validation itself.
        assert!(BenchReport::from_json(&good.replace("\"16\"", "\"32\"")).is_err());
        // A metric with a bogus direction is rejected.
        assert!(BenchReport::from_json(&good.replace("\"lower\"", "\"sideways\"")).is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = sample();
        assert!(check(&r, &r).is_empty());
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = sample();
        let mut cand = sample();
        cand.metrics[0].value *= 0.97; // -3% on a ±5% band
        cand.metrics[1].value *= 1.04; // +4% on a ±5% band
        assert!(check(&base, &cand).is_empty());
    }

    #[test]
    fn ten_percent_regression_fails_each_gated_metric() {
        let base = sample();
        let degraded = degrade(&base, 0.10);
        let violations = check(&base, &degraded);
        let failed: Vec<&str> = violations.iter().map(|v| v.metric.as_str()).collect();
        assert_eq!(failed, vec!["pages_per_s", "p99_ns", "failed_pages"]);
        // The ungated wall-clock metric never trips the gate.
        assert!(!failed.contains(&"wall_rate"));
    }

    #[test]
    fn improvements_pass_directional_gates() {
        let base = sample();
        let mut cand = sample();
        cand.metrics[0].value *= 2.0; // higher-is-better doubled
        cand.metrics[1].value *= 0.5; // lower-is-better halved
        assert!(check(&base, &cand).is_empty());
    }

    #[test]
    fn missing_gated_metric_and_fingerprint_mismatch_fail() {
        let base = sample();
        let mut missing = sample();
        missing.metrics.retain(|m| m.name != "p99_ns");
        assert_eq!(check(&base, &missing)[0].metric, "p99_ns");
        let reconfigured = sample().config("extra", "yes");
        let violations = check(&base, &reconfigured);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("fingerprint"));
    }

    #[test]
    fn zero_baselines_only_accept_zero() {
        let base = sample();
        let mut cand = sample();
        cand.metrics[2].value = 1.0;
        let violations = check(&base, &cand);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "failed_pages");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let latencies: Vec<SimDuration> = (1..=100).map(SimDuration::from_nanos).collect();
        let p = Percentiles::from_durations(&latencies).unwrap();
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p90, 90.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert!(Percentiles::from_durations(&[]).is_none());
    }

    #[test]
    fn fingerprint_tracks_config_and_bench_id() {
        let a = BenchReport::new("a").config("k", 1);
        let b = BenchReport::new("a").config("k", 2);
        let c = BenchReport::new("c").config("k", 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            BenchReport::new("a").config("k", 1).fingerprint()
        );
    }
}
