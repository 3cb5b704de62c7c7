//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultInjector`] attaches to a
//! [`Propagator`](crate::propagate::Propagator) and corrupts evolution at
//! chosen schedule segment indices: poisoning amplitudes with NaN/Inf/scale
//! spikes, or perturbing the spectral bound handed to the stepper. All
//! corruption is
//! seeded and deterministic, so failures found by the conformance grid in
//! `tests/prop_faults.rs` reproduce exactly.
//!
//! Faults are consumed when their segment first executes — a segment retried
//! by the fallback path is NOT re-corrupted, which is what lets recovery
//! reach the correct answer.

use qturbo_math::rng::Rng;

use crate::state::{RealizationBlock, StateVector};

/// A single injectable failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Overwrite one amplitude (seed-chosen index) with NaN.
    NanAmplitude,
    /// Overwrite one amplitude (seed-chosen index) with infinity.
    InfAmplitude,
    /// Multiply one amplitude (seed-chosen index) by `factor`.
    AmplitudeSpike {
        /// Multiplicative spike applied to the chosen amplitude.
        factor: f64,
    },
    /// Scale the spectral radius and shift the center seen by the stepper.
    BoundPerturbation {
        /// Multiplier applied to the spectral radius.
        radius_scale: f64,
        /// Additive shift applied to the spectral center.
        center_shift: f64,
    },
}

/// Seeded registry of faults keyed by schedule segment index.
///
/// ```
/// use qturbo_quantum::fault::{Fault, FaultInjector};
///
/// let injector = FaultInjector::new(7)
///     .with_fault(1, Fault::NanAmplitude)
///     .with_fault(3, Fault::InfAmplitude);
/// assert!(injector.has_faults());
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    faults: Vec<(usize, Fault)>,
}

impl FaultInjector {
    /// Creates an injector with no registered faults.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Registers `fault` to fire when schedule segment `segment` executes.
    #[must_use]
    pub fn with_fault(mut self, segment: usize, fault: Fault) -> Self {
        self.faults.push((segment, fault));
        self
    }

    /// Whether any fault remains armed.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Removes and returns the faults armed for `segment` (consume-once).
    pub(crate) fn take_faults(&mut self, segment: usize) -> Vec<Fault> {
        let mut taken = Vec::new();
        let mut index = 0;
        while index < self.faults.len() {
            if self.faults[index].0 == segment {
                taken.push(self.faults.remove(index).1);
            } else {
                index += 1;
            }
        }
        taken
    }

    /// Corrupts one amplitude of `state` in place according to `fault`.
    ///
    /// The target index is derived deterministically from the injector seed
    /// and the segment index. Non-amplitude faults are ignored here.
    pub(crate) fn corrupt_state(&self, state: &mut StateVector, segment: usize, fault: &Fault) {
        let dim = state.dim();
        if dim == 0 {
            return;
        }
        let mut rng =
            Rng::seed_from_u64(self.seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let target = rng.next_usize(dim);
        let amplitudes = state.amplitudes_mut();
        match fault {
            Fault::NanAmplitude => {
                amplitudes[target].re = f64::NAN;
            }
            Fault::InfAmplitude => {
                amplitudes[target].im = f64::INFINITY;
            }
            Fault::AmplitudeSpike { factor } => {
                amplitudes[target].re *= factor;
                amplitudes[target].im *= factor;
            }
            Fault::BoundPerturbation { .. } => {}
        }
    }

    /// Corrupts one basis amplitude of **every** realization in `block`
    /// according to `fault` — the block analog of
    /// [`corrupt_state`](FaultInjector::corrupt_state), hitting the same
    /// seed-chosen basis index so the block path reproduces the sequential
    /// path's fault scenario across all lanes.
    pub(crate) fn corrupt_block(
        &self,
        block: &mut RealizationBlock,
        segment: usize,
        fault: &Fault,
    ) {
        let dim = block.dim();
        if dim == 0 {
            return;
        }
        let mut rng =
            Rng::seed_from_u64(self.seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let target = rng.next_usize(dim);
        let (stride, realizations) = (block.stride(), block.realizations());
        let amplitudes = block.as_mut_slice();
        for r in 0..realizations {
            let amp = &mut amplitudes[target * stride + r];
            match fault {
                Fault::NanAmplitude => {
                    amp.re = f64::NAN;
                }
                Fault::InfAmplitude => {
                    amp.im = f64::INFINITY;
                }
                Fault::AmplitudeSpike { factor } => {
                    amp.re *= factor;
                    amp.im *= factor;
                }
                Fault::BoundPerturbation { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qturbo_math::Complex;

    #[test]
    fn take_faults_consumes_once() {
        let mut injector = FaultInjector::new(1)
            .with_fault(2, Fault::NanAmplitude)
            .with_fault(
                2,
                Fault::BoundPerturbation {
                    radius_scale: 0.5,
                    center_shift: 0.0,
                },
            )
            .with_fault(5, Fault::InfAmplitude);
        let taken = injector.take_faults(2);
        assert_eq!(taken.len(), 2);
        assert!(injector.take_faults(2).is_empty());
        assert!(injector.has_faults());
        assert_eq!(injector.take_faults(5), vec![Fault::InfAmplitude]);
        assert!(!injector.has_faults());
    }

    #[test]
    fn corruption_is_deterministic() {
        let injector = FaultInjector::new(42);
        let mut a = StateVector::zero_state(3);
        let mut b = StateVector::zero_state(3);
        injector.corrupt_state(&mut a, 1, &Fault::NanAmplitude);
        injector.corrupt_state(&mut b, 1, &Fault::NanAmplitude);
        let nan_count = |s: &StateVector| {
            s.amplitudes()
                .iter()
                .enumerate()
                .filter(|(_, amp)| amp.re.is_nan() || amp.im.is_nan())
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(nan_count(&a), nan_count(&b));
        assert_eq!(nan_count(&a).len(), 1);
    }

    #[test]
    fn spike_scales_one_amplitude() {
        let injector = FaultInjector::new(9);
        let mut state = StateVector::zero_state(2);
        for amp in state.amplitudes_mut() {
            *amp = Complex::new(0.5, 0.0);
        }
        injector.corrupt_state(&mut state, 0, &Fault::AmplitudeSpike { factor: 1e6 });
        let spiked = state.amplitudes().iter().filter(|amp| amp.re > 1.0).count();
        assert_eq!(spiked, 1);
    }
}
