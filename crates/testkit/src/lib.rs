//! Test-only models of the IceClave reproduction. The simulated device
//! never runs them; only `[dev-dependencies]` name this crate, and CI
//! fails if a normal dependency edge reaches it.
//!
//! * Ordering oracles: [`RefExecutor`] for [`iceclave_exec::Executor`]
//!   and [`TriviumRef`] for [`iceclave_cipher::Trivium`].
//! * The functional MEE: [`SecureMemory`] encrypts with [`Aes128`] pads
//!   and verifies per-line MACs and a [`MerkleTree`], so the
//!   threat-model tests can show tampering, splicing and replay being
//!   detected.
//! * [`IscRuntime`], below: the insecure in-storage computing baseline
//!   of §2.2–§2.3, with a *software* privilege table in ordinary SSD
//!   DRAM that a privilege-escalation attack rewrites. The evaluation's
//!   ISC numbers come from `iceclave_core` on the plain-link
//!   configuration, not from this model.
//! * [`CountingAlloc`]: a global allocator that counts live and peak
//!   heap bytes, for memory-footprint tests and benches.
//!
//! ```
//! use iceclave_core::PlatformConfig;
//! use iceclave_testkit::IscRuntime;
//! use iceclave_types::{Lpn, SimTime};
//!
//! let mut isc = IscRuntime::new(PlatformConfig::tiny());
//! let t = isc.platform.populate(Lpn::new(0), 8, SimTime::ZERO)?;
//! let grant = 0..4;
//! let task = isc.offload(vec![grant]);
//! // Within the granted range: allowed.
//! assert!(isc.read_page(task, Lpn::new(2), t).is_ok());
//! // Outside it: the software check stops an honest program...
//! assert!(isc.read_page(task, Lpn::new(6), t).is_err());
//! // ...but a privilege-escalation attack rewrites the table (§2.3).
//! isc.corrupt_privilege_table(task, 0..8);
//! assert!(isc.read_page(task, Lpn::new(6), t).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aes;
pub mod alloc;
pub mod reference;
pub mod secure;
pub mod tree;
pub mod trivium;

pub use aes::Aes128;
pub use alloc::CountingAlloc;
pub use reference::{RefExecutor, RefStageMachine};
pub use secure::{SecureMemory, VerifyError};
pub use tree::MerkleTree;
pub use trivium::TriviumRef;

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

use iceclave_core::{PlatformConfig, SsdPlatform};
use iceclave_ftl::{FtlError, Requestor};
use iceclave_types::{Lpn, SimTime};

/// A baseline in-storage task handle.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TaskId(u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Errors from the baseline runtime.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum IscError {
    /// The task id was never offloaded.
    UnknownTask(TaskId),
    /// The software privilege table denied the access.
    Denied {
        /// The offending task.
        task: TaskId,
        /// The page it asked for.
        lpn: Lpn,
    },
    /// FTL-level failure.
    Ftl(FtlError),
}

impl fmt::Display for IscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IscError::UnknownTask(t) => write!(f, "{t} was never offloaded"),
            IscError::Denied { task, lpn } => {
                write!(f, "software check denied {task} access to {lpn}")
            }
            IscError::Ftl(e) => write!(f, "ftl: {e}"),
        }
    }
}

impl Error for IscError {}

impl From<FtlError> for IscError {
    fn from(e: FtlError) -> Self {
        IscError::Ftl(e)
    }
}

/// The baseline runtime: software privilege table, no TEE, plaintext
/// data path.
#[derive(Debug)]
pub struct IscRuntime {
    /// The underlying platform (public: the baseline gives programs the
    /// run of the house, which is rather the point).
    pub platform: SsdPlatform,
    privileges: HashMap<TaskId, Vec<Range<u64>>>,
    next_task: u64,
}

impl IscRuntime {
    /// Creates the runtime on a fresh platform.
    pub fn new(config: PlatformConfig) -> Self {
        IscRuntime {
            platform: SsdPlatform::new(config),
            privileges: HashMap::new(),
            next_task: 0,
        }
    }

    /// Offloads a program granted the given LPN ranges; a copy of the
    /// privilege information is kept in SSD DRAM (§2.3).
    pub fn offload(&mut self, allowed: Vec<Range<u64>>) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.privileges.insert(id, allowed);
        id
    }

    /// Reads a flash page on behalf of a task: software permission check
    /// followed by an unchecked host-privilege translation and flash
    /// read (there are no hardware ID bits in the baseline).
    ///
    /// # Errors
    ///
    /// [`IscError::Denied`] when the software table says no;
    /// [`IscError::UnknownTask`]; FTL errors.
    pub fn read_page(&mut self, task: TaskId, lpn: Lpn, now: SimTime) -> Result<SimTime, IscError> {
        let allowed = self
            .privileges
            .get(&task)
            .ok_or(IscError::UnknownTask(task))?;
        if !allowed.iter().any(|r| r.contains(&lpn.raw())) {
            return Err(IscError::Denied { task, lpn });
        }
        let platform = &mut self.platform;
        let translation =
            platform
                .ftl
                .translate(Requestor::Host, lpn, &mut platform.monitor, now)?;
        let span = platform
            .ftl
            .flash_mut()
            .read_page(translation.ppn, translation.ready_at)
            .map_err(FtlError::from)?;
        Ok(span.end)
    }

    /// **Attack hook (§2.3):** a malicious program exploits a memory
    /// vulnerability to rewrite its own privilege entry in SSD DRAM —
    /// privilege escalation. Nothing in the baseline prevents it.
    pub fn corrupt_privilege_table(&mut self, task: TaskId, grant: Range<u64>) {
        self.privileges.entry(task).or_default().push(grant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> IscRuntime {
        IscRuntime::new(PlatformConfig::tiny())
    }

    #[test]
    fn populate_then_read() {
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 4, SimTime::ZERO)
            .unwrap();
        let grant = 0..4;
        let task = isc.offload(vec![grant]);
        assert!(isc.read_page(task, Lpn::new(0), t).is_ok());
    }

    #[test]
    fn unknown_task_is_rejected() {
        let mut isc = runtime();
        let ghost = TaskId(99);
        assert_eq!(
            isc.read_page(ghost, Lpn::new(0), SimTime::ZERO),
            Err(IscError::UnknownTask(ghost))
        );
    }

    #[test]
    fn software_check_blocks_honest_overreach() {
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 8, SimTime::ZERO)
            .unwrap();
        let grant = 0..2;
        let task = isc.offload(vec![grant]);
        assert!(matches!(
            isc.read_page(task, Lpn::new(5), t),
            Err(IscError::Denied { .. })
        ));
    }

    #[test]
    fn privilege_escalation_succeeds_in_baseline() {
        // The vulnerability IceClave exists to fix.
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 8, SimTime::ZERO)
            .unwrap();
        let grant = 0..1;
        let task = isc.offload(vec![grant]);
        assert!(isc.read_page(task, Lpn::new(7), t).is_err());
        isc.corrupt_privilege_table(task, 0..8);
        assert!(isc.read_page(task, Lpn::new(7), t).is_ok());
    }
}
