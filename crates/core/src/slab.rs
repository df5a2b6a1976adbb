//! The exec driver's ticket error list. Its jobs and per-LPN IVs live
//! in [`iceclave_types::WindowTable`] and [`iceclave_types::DenseTable`].

use crate::runtime::IceClaveError;

/// Ticket-level errors of batches that failed mid-flight. Failures
/// are rare and the set is swept every drain cycle, so a plain sorted
/// list beats a hash map: zero footprint on the (failure-free) hot
/// path and deterministic iteration order for free.
#[derive(Debug, Default)]
pub(crate) struct ErrorSlab {
    entries: Vec<(u64, IceClaveError)>,
}

impl ErrorSlab {
    pub(crate) fn new() -> Self {
        ErrorSlab {
            entries: Vec::new(),
        }
    }

    /// Records the ticket's *first* error; later errors of the same
    /// ticket are dropped (the `entry().or_insert()` semantics the
    /// driver relies on).
    pub(crate) fn record(&mut self, ticket: u64, error: IceClaveError) {
        match self.entries.binary_search_by_key(&ticket, |(id, _)| *id) {
            Ok(_) => {}
            Err(pos) => self.entries.insert(pos, (ticket, error)),
        }
    }

    pub(crate) fn remove(&mut self, ticket: u64) -> Option<IceClaveError> {
        match self.entries.binary_search_by_key(&ticket, |(id, _)| *id) {
            Ok(pos) => Some(self.entries.remove(pos).1),
            Err(_) => None,
        }
    }

    /// Drops every entry `keep` rejects.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.entries.retain(|(id, _)| keep(*id));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_types::TeeId;

    #[test]
    fn error_slab_keeps_first_error_per_ticket() {
        let mut errs = ErrorSlab::new();
        let tee = TeeId::new(1).unwrap();
        errs.record(7, IceClaveError::NotRunning(tee));
        errs.record(
            7,
            IceClaveError::UnknownTicket(iceclave_types::Ticket::new(7)),
        );
        assert_eq!(errs.remove(7), Some(IceClaveError::NotRunning(tee)));
        assert_eq!(errs.remove(7), None);
    }
}
