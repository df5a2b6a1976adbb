//! Host-time spans around the public calls the benchmark makes.
//!
//! The traced run wraps every call into the simulator in a span kept in
//! memory and written out when the benchmark ends. Consecutive calls of
//! one family for one batch (the `mem_read`s of a batch, say) share a
//! span that records how many calls it covers, so the trace stays small
//! and the timer is read twice per span, not twice per call. The
//! untraced run reads no timer at all.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// A family of public calls, named after the layer it enters.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Family {
    Gen,
    Populate,
    SubmitRead,
    MemRead,
    MemWrite,
    Compute,
    SubmitWrite,
    Drain,
    Lifecycle,
    Recover,
    TakeTrace,
    RunHost,
    RunIsc,
    RunIceClave,
}

impl Family {
    pub const ALL: [Family; 14] = [
        Family::Gen,
        Family::Populate,
        Family::SubmitRead,
        Family::MemRead,
        Family::MemWrite,
        Family::Compute,
        Family::SubmitWrite,
        Family::Drain,
        Family::Lifecycle,
        Family::Recover,
        Family::TakeTrace,
        Family::RunHost,
        Family::RunIsc,
        Family::RunIceClave,
    ];

    /// The metric prefix of the family (`<prefix>.calls`, and
    /// `<prefix>.host_ns` or `<prefix>.host_s`).
    pub fn prefix(self) -> &'static str {
        match self {
            Family::Gen => "workloads.gen",
            Family::Populate => "core.populate",
            Family::SubmitRead => "core.submit_read",
            Family::MemRead => "core.mem_read",
            Family::MemWrite => "core.mem_write",
            Family::Compute => "core.compute",
            Family::SubmitWrite => "core.submit_write",
            Family::Drain => "core.drain",
            Family::Lifecycle => "core.lifecycle",
            Family::Recover => "core.recover",
            Family::TakeTrace => "obs.take_trace",
            Family::RunHost => "experiments.host",
            Family::RunIsc => "experiments.isc",
            Family::RunIceClave => "experiments.iceclave",
        }
    }

    /// Set-up families run outside `host_s`.
    pub fn in_setup(self) -> bool {
        matches!(self, Family::Gen | Family::Populate)
    }
}

/// One span: `calls` consecutive calls of `family` made for `batch` of
/// `tenant` in `leg`, from `start_ns` to `end_ns` after the probe was
/// created.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub family: Family,
    pub leg: u8,
    pub tenant: u8,
    pub batch: u32,
    pub calls: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Tenant and batch ids of spans that belong to no batch (set-up,
/// lifecycle, drains).
pub const NONE: u32 = u32::MAX;

#[derive(Debug)]
pub struct Probe {
    epoch: Option<Instant>,
    keep_spans: bool,
    spans: Vec<Span>,
    calls: [u64; 14],
    ns: [u64; 14],
}

impl Probe {
    /// The untraced probe: calls run bare.
    pub fn off() -> Probe {
        Probe {
            epoch: None,
            keep_spans: false,
            spans: Vec::new(),
            calls: [0; 14],
            ns: [0; 14],
        }
    }

    /// The traced probe; `keep_spans` also keeps every span for
    /// [`write_spans`].
    pub fn on(keep_spans: bool) -> Probe {
        Probe {
            epoch: Some(Instant::now()),
            keep_spans,
            ..Probe::off()
        }
    }

    /// Runs `f`, the next `calls` calls of `family`, inside a span.
    #[inline]
    pub fn call<R>(
        &mut self,
        family: Family,
        leg: u8,
        tenant: u32,
        batch: u32,
        calls: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let i = family as usize;
        self.calls[i] += u64::from(calls);
        self.ns[i] += (end - start).as_nanos() as u64;
        if self.keep_spans {
            self.spans.push(Span {
                family,
                leg,
                tenant: tenant.min(u32::from(u8::MAX)) as u8,
                batch,
                calls,
                start_ns: (start - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
            });
        }
        out
    }

    pub fn calls(&self, family: Family) -> u64 {
        self.calls[family as usize]
    }

    pub fn host_ns(&self, family: Family) -> u64 {
        self.ns[family as usize]
    }

    /// Host time inside named call families that run within `host_s`.
    pub fn attributed_ns(&self) -> u64 {
        Family::ALL
            .iter()
            .filter(|f| !f.in_setup())
            .map(|&f| self.host_ns(f))
            .sum()
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// The share of `host_ns` that named call families account for.
pub fn attributed_share(attributed_ns: u64, host_ns: u64) -> f64 {
    if host_ns == 0 {
        0.0
    } else {
        attributed_ns as f64 / host_ns as f64
    }
}

/// Writes `spans` as CSV (`family,leg,tenant,batch,calls,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "family,leg,tenant,batch,calls,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.family.prefix(),
            s.leg,
            s.tenant,
            s.batch,
            s.calls,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributed_share_arithmetic() {
        assert_eq!(attributed_share(900, 1_000), 0.9);
        assert_eq!(attributed_share(0, 0), 0.0);
        let mut p = Probe::on(true);
        p.call(Family::Populate, 0, NONE, NONE, 1, || ());
        p.call(Family::MemRead, 0, 1, 7, 64, || ());
        p.call(Family::MemRead, 0, 1, 8, 32, || ());
        p.call(Family::Drain, 0, NONE, NONE, 1, || ());
        assert_eq!(p.calls(Family::MemRead), 96);
        // Set-up time is not part of host_s and is left out.
        assert_eq!(
            p.attributed_ns(),
            p.host_ns(Family::MemRead) + p.host_ns(Family::Drain)
        );
        assert_eq!(p.take_spans().len(), 4);
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let mut p = Probe::off();
        assert_eq!(p.call(Family::Compute, 0, 0, 0, 1, || 5), 5);
        assert_eq!(p.calls(Family::Compute), 0);
        assert!(p.take_spans().is_empty());
    }

    #[test]
    fn every_family_maps_to_catalogue_metrics() {
        for f in Family::ALL {
            let calls = format!("{}.calls", f.prefix());
            assert!(crate::metrics::find(&calls).is_some(), "{calls}");
            let ns = format!("{}.host_ns", f.prefix());
            let s = format!("{}.host_s", f.prefix());
            assert!(
                crate::metrics::find(&ns).is_some() || crate::metrics::find(&s).is_some(),
                "{f:?} has no host-time metric"
            );
        }
    }
}
