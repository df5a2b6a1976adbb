//! Op-log capture and replay for the runtime: the `iceclave_obs`
//! bridge.
//!
//! Capture hangs an [`iceclave_obs::TraceCapture`] observer off the
//! executor's completion queue ([`IceClave::enable_tracing`]); every
//! retired ticket is encoded into the in-memory [`TraceLog`] with its
//! stage timestamps, per-page outcomes and the fault activity the
//! stage machine charged to it. With no observer installed the hook is
//! a single `Option` check on the retire path — capture-off costs
//! nothing measurable (the `simspeed` bench keeps a datapoint on both
//! sides).
//!
//! Replay implements [`ReplayTarget`] for [`IceClave`], so a captured
//! log can be fed back through the asynchronous batch API by
//! [`iceclave_obs::replay()`] in paced or as-fast-as-possible mode. Because the executor is deterministic, an AFAP replay of a
//! capture against an identically configured device reproduces the
//! captured completion sequence exactly.

use iceclave_obs::trace::{TraceCapture, TraceLog};
use iceclave_obs::ReplayTarget;
use iceclave_types::{CompletionEvent, Lpn, SimTime, TeeId, Ticket};

use crate::runtime::{IceClave, IceClaveError};

impl IceClave {
    /// Starts capturing an op-log of every retiring ticket.
    ///
    /// Replaces (and discards) any capture already in progress; the
    /// new log records only tickets that *close* from now on, so
    /// enable tracing before submitting the workload of interest.
    pub fn enable_tracing(&mut self) {
        self.exec.install_observer(Box::new(TraceCapture::new()));
    }

    /// Whether an op-log capture is currently installed.
    pub fn tracing_enabled(&self) -> bool {
        self.exec.has_observer()
    }

    /// Stops capturing and returns the log recorded since
    /// [`IceClave::enable_tracing`], or `None` if tracing was off.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        let observer = self.exec.take_observer()?;
        let capture = observer.into_any().downcast::<TraceCapture>().ok()?;
        Some(capture.into_log())
    }
}

impl ReplayTarget for IceClave {
    type Error = IceClaveError;

    fn replay_read(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        at: SimTime,
    ) -> Result<Ticket, Self::Error> {
        self.submit_batch_async(tee, lpns, at)
    }

    fn replay_write(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        at: SimTime,
    ) -> Result<Ticket, Self::Error> {
        self.submit_write_batch_async(tee, lpns, at)
    }

    fn replay_poll(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        self.poll_completions(now)
    }

    fn replay_drain(&mut self) -> Vec<CompletionEvent> {
        self.drain_completions()
    }
}
