//! Typed error taxonomy for the evolution pipeline.
//!
//! Every fallible `try_*` entry point in this crate reports failures through
//! [`EvolveError`] instead of panicking. The variants partition the failure
//! space of the propagation stack:
//!
//! - [`EvolveError::InvalidInput`] — the caller handed us something that can
//!   never be evolved (NaN time, mismatched qubit counts, zero shots, …).
//! - [`EvolveError::NonFiniteState`] — a NaN or infinity appeared in the
//!   state vector (or an intermediate series norm) during evolution.
//! - [`EvolveError::NormDrift`] — the post-segment norm drifted away from the
//!   pre-segment norm by more than [`NORM_DRIFT_LIMIT`](crate::stepper::NORM_DRIFT_LIMIT),
//!   indicating the expansion diverged rather than merely accumulated
//!   round-off.
//! - [`EvolveError::OrderOverflow`] — a Chebyshev expansion would require an
//!   absurd polynomial order (span beyond
//!   [`MAX_EXP_SPAN`](qturbo_math::chebyshev::MAX_EXP_SPAN)).
//!
//! Recovered failures (fallback to the Taylor backend mid-schedule) are
//! reported through [`RecoveryLog`] rather than as errors.

use std::fmt;

use crate::stepper::StepperKind;

/// Typed failure reported by the fallible (`try_*`) evolution entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum EvolveError {
    /// The caller supplied an input that can never be evolved.
    InvalidInput {
        /// Human-readable description of the offending argument.
        context: String,
    },
    /// A NaN or infinity appeared in the state (or an intermediate norm).
    NonFiniteState {
        /// Backend that detected the non-finite value.
        backend: StepperKind,
        /// Schedule segment index, when evolution ran over a schedule.
        segment: Option<usize>,
    },
    /// The state norm drifted beyond the guardrail threshold.
    NormDrift {
        /// Backend that detected the drift.
        backend: StepperKind,
        /// Schedule segment index, when evolution ran over a schedule.
        segment: Option<usize>,
        /// Observed relative drift `|norm - reference| / reference`.
        relative_drift: f64,
    },
    /// A Chebyshev expansion would need an unreasonably large order.
    OrderOverflow {
        /// Backend that rejected the expansion.
        backend: StepperKind,
        /// Schedule segment index, when evolution ran over a schedule.
        segment: Option<usize>,
        /// The requested expansion span `radius * duration`.
        span: f64,
        /// The largest span the expansion supports.
        max_span: f64,
    },
}

impl EvolveError {
    /// Stamps `index` as the segment of this error if none is recorded yet.
    ///
    /// Steppers raise errors without schedule context (`segment: None`); the
    /// schedule loop uses this to attach the segment index on the way out.
    #[must_use]
    pub fn with_segment(mut self, index: usize) -> Self {
        match &mut self {
            Self::InvalidInput { .. } => {}
            Self::NonFiniteState { segment, .. }
            | Self::NormDrift { segment, .. }
            | Self::OrderOverflow { segment, .. } => {
                if segment.is_none() {
                    *segment = Some(index);
                }
            }
        }
        self
    }
}

fn segment_suffix(segment: &Option<usize>) -> String {
    match segment {
        Some(index) => format!(" (schedule segment {index})"),
        None => String::new(),
    }
}

impl fmt::Display for EvolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidInput { context } => {
                write!(f, "invalid evolution input: {context}")
            }
            Self::NonFiniteState { backend, segment } => {
                write!(
                    f,
                    "non-finite amplitudes detected by the {} backend{}",
                    backend.name(),
                    segment_suffix(segment)
                )
            }
            Self::NormDrift {
                backend,
                segment,
                relative_drift,
            } => {
                write!(
                    f,
                    "state norm drifted by a relative {relative_drift:.3e} under the {} backend{}",
                    backend.name(),
                    segment_suffix(segment)
                )
            }
            Self::OrderOverflow {
                backend,
                segment,
                span,
                max_span,
            } => {
                write!(
                    f,
                    "{} expansion span {span:.3e} exceeds the supported maximum {max_span:.3e}{}",
                    backend.name(),
                    segment_suffix(segment)
                )
            }
        }
    }
}

impl std::error::Error for EvolveError {}

/// A single recovered failure: the schedule loop fell back to the Taylor
/// backend after `backend` tripped a guardrail.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Segment index at which the failure occurred, when known.
    pub segment: Option<usize>,
    /// The backend that failed the guardrail.
    pub backend: StepperKind,
    /// The backend that re-ran the segment successfully.
    pub fallback: StepperKind,
    /// The error the failing backend reported.
    pub error: EvolveError,
}

/// Bounded log of recovered failures accumulated by a
/// [`Propagator`](crate::propagate::Propagator).
///
/// Cleared alongside the pass counters by
/// [`Propagator::reset_kernel_applications`](crate::propagate::Propagator::reset_kernel_applications).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    events: Vec<RecoveryEvent>,
}

/// Cap on recorded recovery events, mirroring the segment-decision cap.
const MAX_RECORDED_RECOVERIES: usize = 1 << 16;

impl RecoveryLog {
    /// Builds a log from a slice of events (truncated at the recording
    /// cap). Used by [`EmulatedDevice`](crate::device::EmulatedDevice) to
    /// slice a shared propagator's log into per-run views.
    #[must_use]
    pub fn from_events(events: &[RecoveryEvent]) -> RecoveryLog {
        let take = events.len().min(MAX_RECORDED_RECOVERIES);
        RecoveryLog {
            events: events[..take].to_vec(),
        }
    }

    /// The recovered failures, in schedule order.
    #[must_use]
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Number of recorded recoveries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no recovery has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    pub(crate) fn push(&mut self, event: RecoveryEvent) {
        if self.events.len() < MAX_RECORDED_RECOVERIES {
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_segment_stamps_only_missing_indices() {
        let err = EvolveError::NonFiniteState {
            backend: StepperKind::Taylor,
            segment: None,
        };
        let stamped = err.with_segment(4);
        assert_eq!(
            stamped,
            EvolveError::NonFiniteState {
                backend: StepperKind::Taylor,
                segment: Some(4),
            }
        );
        let restamped = stamped.with_segment(9);
        assert_eq!(
            restamped,
            EvolveError::NonFiniteState {
                backend: StepperKind::Taylor,
                segment: Some(4),
            }
        );
    }

    #[test]
    fn display_mentions_backend_and_segment() {
        let err = EvolveError::NormDrift {
            backend: StepperKind::Chebyshev,
            segment: Some(2),
            relative_drift: 0.5,
        };
        let text = err.to_string();
        assert!(text.contains("chebyshev"));
        assert!(text.contains("segment 2"));
    }

    #[test]
    fn recovery_log_accumulates_and_clears() {
        let mut log = RecoveryLog::default();
        assert!(log.is_empty());
        log.push(RecoveryEvent {
            segment: Some(0),
            backend: StepperKind::Chebyshev,
            fallback: StepperKind::Taylor,
            error: EvolveError::InvalidInput {
                context: "test".into(),
            },
        });
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }
}
