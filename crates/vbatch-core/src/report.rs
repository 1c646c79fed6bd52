//! Batch-level error reporting.
//!
//! The paper's conclusion raises LAPACK compliance: how should a batched
//! routine report per-matrix numerical errors? We adopt the scheme MAGMA
//! later standardized (and the Batched BLAS proposal follows): a
//! device-resident `info` array with one LAPACK-style code per matrix,
//! returned to the host as a [`BatchReport`]. A numerical breakdown in
//! one matrix never poisons the others.

use crate::recover::{Outcome, RecoveryReport};

/// Per-matrix factorization outcome for a whole batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// LAPACK-style `info` per matrix: `0` success, `k > 0` breakdown at
    /// column `k` (1-based), as in `xPOTRF`/`xGETRF`; `k < 0` means the
    /// runtime quarantined the matrix after detecting non-finite data in
    /// column `−k` (see [`crate::recover`]).
    pub info: Vec<i32>,
    /// Recovery actions the driver took (retries, window splits,
    /// scrubber quarantines, injected faults observed).
    pub recovery: RecoveryReport,
}

impl BatchReport {
    /// Builds a report from a downloaded device `info` array.
    #[must_use]
    pub fn from_info(info: Vec<i32>) -> Self {
        Self {
            info,
            recovery: RecoveryReport::default(),
        }
    }

    /// Overall health of the run: clean, recovered, or degraded.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        self.recovery.outcome()
    }

    /// `true` when every matrix factorized successfully.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.info.iter().all(|&i| i == 0)
    }

    /// Indices of matrices that failed, with their `info` codes.
    #[must_use]
    pub fn failures(&self) -> Vec<(usize, i32)> {
        self.info
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
            .collect()
    }

    /// Number of failed matrices.
    #[must_use]
    pub fn failure_count(&self) -> usize {
        self.info.iter().filter(|&&v| v != 0).count()
    }
}

/// Errors of the vbatched drivers (distinct from per-matrix numerical
/// breakdowns, which go through [`BatchReport`]).
#[derive(Debug)]
pub enum VbatchError {
    /// The device rejected a kernel launch.
    Launch(vbatch_gpu_sim::LaunchError),
    /// Device memory exhausted (workspaces).
    Oom(vbatch_gpu_sim::OomError),
    /// Arguments violate a documented precondition.
    InvalidArgument(&'static str),
}

impl std::fmt::Display for VbatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VbatchError::Launch(e) => write!(f, "{e}"),
            VbatchError::Oom(e) => write!(f, "{e}"),
            VbatchError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for VbatchError {}

impl From<vbatch_gpu_sim::LaunchError> for VbatchError {
    fn from(e: vbatch_gpu_sim::LaunchError) -> Self {
        VbatchError::Launch(e)
    }
}

impl From<vbatch_gpu_sim::OomError> for VbatchError {
    fn from(e: vbatch_gpu_sim::OomError) -> Self {
        VbatchError::Oom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_queries() {
        let r = BatchReport::from_info(vec![0, 3, 0, 1]);
        assert!(!r.all_ok());
        assert_eq!(r.failure_count(), 2);
        assert_eq!(r.failures(), vec![(1, 3), (3, 1)]);
        let ok = BatchReport::from_info(vec![0; 5]);
        assert!(ok.all_ok());
        assert!(ok.failures().is_empty());
        assert_eq!(ok.outcome(), Outcome::Clean);
    }

    #[test]
    fn negative_info_is_quarantine() {
        let r = BatchReport::from_info(vec![0, -2, 4, -1]);
        assert_eq!(r.failure_count(), 3, "quarantined matrices are failures");
        assert!(!r.all_ok());
    }
}
