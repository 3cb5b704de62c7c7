//! Choosing a time-evolution backend: Taylor vs Chebyshev vs the automatic
//! per-segment selection.
//!
//! The same long-time Heisenberg quench is integrated with both fixed
//! stepper backends plus `StepperKind::Auto`; each reports its `H|ψ⟩`
//! kernel-application count — the work measure the backends compete on — and
//! all final states agree to 1e-10. `Auto` (the default everywhere) prices
//! both backends per segment from the compiled spectral bound and picks the
//! cheaper: Chebyshev on this quench, Taylor on short ramp segments, as the
//! mixed schedule at the end shows. The run then drives the emulated device
//! with its default (automatic) options to show the selection threading end
//! to end.
//!
//! Run with: `cargo run --release --example stepper_backends`

use qturbo_hamiltonian::models::heisenberg_chain;
use qturbo_hamiltonian::{Pauli, PauliString};
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{EmulatedDevice, NoiseModel, Propagator, StateVector, StepperKind};

fn main() {
    let num_qubits = 10;
    let time = 25.0;
    let hamiltonian = heisenberg_chain(num_qubits, 1.0, 0.5);
    let compiled = CompiledHamiltonian::compile(&hamiltonian);
    println!(
        "Heisenberg quench: {num_qubits} qubits, t = {time} (‖H‖·t ≈ {:.0})",
        compiled.step_strength() * time
    );

    // The Néel state |0101…⟩: a genuine quench (weight across the whole
    // spectrum). A polarized state like |++…+⟩ would be an eigenstate here,
    // and its evolution a mere global phase.
    let mut amplitudes = vec![qturbo_math::Complex::ZERO; 1 << num_qubits];
    let neel_index = (1..num_qubits)
        .step_by(2)
        .fold(0usize, |acc, q| acc | 1 << q);
    amplitudes[neel_index] = qturbo_math::Complex::ONE;
    let initial = StateVector::from_amplitudes(amplitudes);
    let mut reference: Option<StateVector> = None;
    for kind in StepperKind::all() {
        let mut propagator = Propagator::with_stepper(kind);
        let mut state = initial.clone();
        propagator.evolve_in_place(&compiled, &mut state, time);
        let deviation = reference.as_ref().map_or(0.0, |r| {
            state
                .amplitudes()
                .iter()
                .zip(r.amplitudes())
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max)
        });
        assert!(deviation < 1e-10, "{} deviates by {deviation}", kind.name());
        let chosen = if kind == StepperKind::Auto {
            format!("  -> chose {}", propagator.segment_decisions()[0].name())
        } else {
            String::new()
        };
        println!(
            "  {:<9}  {:>6} kernel applications   max deviation vs taylor {deviation:.2e}{chosen}",
            kind.name(),
            propagator.kernel_applications(),
        );
        reference.get_or_insert(state);
    }

    // Auto decides per segment, not per run: a schedule mixing short ramp
    // slices with one long quench slice runs Taylor on the former and
    // Chebyshev on the latter within a single evolution.
    let mixed = CompiledSchedule::compile(&[
        (hamiltonian.clone(), 0.005),
        (hamiltonian.clone(), 15.0),
        (hamiltonian.clone(), 0.005),
    ]);
    let mut propagator = Propagator::new(); // default options = Auto
    let mut state = initial.clone();
    propagator.evolve_schedule_in_place(&mixed, &mut state);
    let decisions: Vec<&str> = propagator
        .segment_decisions()
        .iter()
        .map(|kind| kind.name())
        .collect();
    println!("  mixed schedule (0.005 / 15 / 0.005 µs) -> per-segment decisions: {decisions:?}");

    // The same selection threads through the emulated device: its default
    // options already use Auto, so a noiseless run reproduces the theory
    // curve (the device always starts from |0…0⟩) with a fraction of the
    // kernel work and zero configuration.
    let device = EmulatedDevice::new(NoiseModel::noiseless(), 0);
    assert_eq!(device.options().stepper, StepperKind::Auto);
    let run = device.run(&[(hamiltonian.clone(), time)], num_qubits, false);
    let z0 =
        qturbo_quantum::propagate::evolve(&StateVector::zero_state(num_qubits), &hamiltonian, time)
            .expectation(&PauliString::single(0, Pauli::Z));
    println!(
        "  device (auto):      <Z_0> = {:+.6} (theory curve {z0:+.6})",
        run.z[0]
    );
}
