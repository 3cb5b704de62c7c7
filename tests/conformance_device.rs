//! Device-level conformance for structure-of-arrays realization batching:
//! the block sweep ([`EvolveOptions::with_realization_block`]) is pinned
//! against the sequential per-realization reference path over a grid of
//! realization counts × stepper kinds × boundary conditions, plus the
//! regression contracts of the realization RNG streams and the fault
//! harness inside a block sweep.

use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_quantum::fault::{Fault, FaultInjector};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::state::RealizationBlock;
use qturbo_quantum::{EmulatedDevice, EvolveOptions, NoiseModel, Propagator, StepperKind};

const AGREEMENT: f64 = 1e-10;

/// A dense detuning ramp with a phase-modulated `cos φ · X + sin φ · Y`
/// drive and ZZ couplings: engages the diagonal table, the flip kernel,
/// the sign-carrying gather kernel, and per-segment weight swaps — the
/// workload realization batching is built for.
fn ramp(num_qubits: usize, segments: usize) -> Vec<(Hamiltonian, f64)> {
    (0..segments)
        .map(|index| {
            let s = index as f64 / segments as f64;
            let phase = std::f64::consts::PI * (0.25 + 0.5 * s);
            let mut terms: Vec<(f64, PauliString)> = Vec::new();
            for qubit in 0..num_qubits {
                terms.push((1.2 * (1.0 - 2.0 * s), PauliString::single(qubit, Pauli::Z)));
                terms.push((0.9 * phase.cos(), PauliString::single(qubit, Pauli::X)));
                terms.push((0.9 * phase.sin(), PauliString::single(qubit, Pauli::Y)));
            }
            for qubit in 0..num_qubits.saturating_sub(1) {
                terms.push((0.7, PauliString::two(qubit, Pauli::Z, qubit + 1, Pauli::Z)));
            }
            (Hamiltonian::from_terms(num_qubits, terms), 0.12)
        })
        .collect()
}

/// Exact-expectation noise: miscalibration spreads the realizations apart,
/// `shots: None` keeps the comparison analog (a finite-shot Bernoulli draw
/// can flip on a 1e-13 expectation difference, which is not a conformance
/// failure).
fn exact_noise() -> NoiseModel {
    NoiseModel {
        depolarizing_rate: 0.01,
        amplitude_miscalibration: 0.05,
        readout_error: 0.01,
        shots: None,
    }
}

/// The tentpole conformance grid: block and sequential sweeps agree to
/// 1e-10 on every observable for `R ∈ {1, 3, 8}` realizations, every
/// stepper kind (the block path always integrates with the batched-Taylor
/// scheme; the sequential path uses the kind under test, so this doubles as
/// a cross-backend check), and both boundary conditions.
#[test]
fn block_sweep_matches_sequential_reference() {
    let num_qubits = 4;
    let segments = ramp(num_qubits, 10);
    for &realizations in &[1usize, 3, 8] {
        for &kind in &StepperKind::all() {
            for &cyclic in &[false, true] {
                let sequential = EmulatedDevice::new(exact_noise(), 91)
                    .with_options(EvolveOptions::new(kind))
                    .run_realizations(&segments, num_qubits, cyclic, realizations);
                let block = EmulatedDevice::new(exact_noise(), 91)
                    .with_options(EvolveOptions::new(kind).with_realization_block(true))
                    .run_realizations(&segments, num_qubits, cyclic, realizations);
                assert_eq!(sequential.len(), realizations);
                assert_eq!(block.len(), realizations);
                for (r, (seq_run, block_run)) in sequential.iter().zip(block.iter()).enumerate() {
                    for (a, b) in seq_run.z.iter().zip(block_run.z.iter()) {
                        assert!(
                            (a - b).abs() < AGREEMENT,
                            "z mismatch: kind={kind:?} R={realizations} cyclic={cyclic} \
                             realization={r}: {a} vs {b}"
                        );
                    }
                    for (a, b) in seq_run.zz.iter().zip(block_run.zz.iter()) {
                        assert!(
                            (a - b).abs() < AGREEMENT,
                            "zz mismatch: kind={kind:?} R={realizations} cyclic={cyclic} \
                             realization={r}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

/// Realization `0` of a sweep is bitwise identical to a standalone
/// [`EmulatedDevice::run`] — the sweep's per-realization RNG streams and
/// evolution are exactly the single-run path, realization by realization.
#[test]
fn sweep_realization_zero_is_bitwise_run() {
    let num_qubits = 4;
    let segments = ramp(num_qubits, 8);
    let device = EmulatedDevice::new(exact_noise(), 7);
    let single = device.run(&segments, num_qubits, true);
    let sweep = device.run_realizations(&segments, num_qubits, true, 5);
    // DeviceRun equality is exact (bitwise on the observables).
    assert_eq!(sweep[0], single);
}

/// Seed-decorrelation regression: the historical additive `seed + r` stream
/// composition made seed `s`, realization `1` replay seed `s + 1`,
/// realization `0`. The SplitMix64 pair mixing must keep them distinct.
#[test]
fn realization_streams_do_not_alias_adjacent_seeds() {
    let num_qubits = 3;
    let segments = ramp(num_qubits, 6);
    let noise = NoiseModel {
        // Finite shots on top of miscalibration: any stream aliasing would
        // reproduce both the scale draw and every estimation draw.
        shots: Some(4096),
        ..exact_noise()
    };
    let runs_a =
        EmulatedDevice::new(noise.clone(), 40).run_realizations(&segments, num_qubits, false, 2);
    let runs_b = EmulatedDevice::new(noise, 41).run_realizations(&segments, num_qubits, false, 2);
    assert_ne!(
        runs_a[1], runs_b[0],
        "seed 40 realization 1 must not replay seed 41 realization 0"
    );
}

/// Fault injection inside a block sweep: a mid-schedule amplitude spike
/// corrupting every realization lane trips the per-realization drift
/// guardrail at the faulted segment, is recovered from the boundary
/// snapshot, and the sweep still lands on the clean answer.
#[test]
fn fault_recovery_inside_block_sweep() {
    let num_qubits = 3;
    let schedule = CompiledSchedule::compile(&ramp(num_qubits, 6));
    let scales = [1.0, 0.97, 1.03];
    let options = EvolveOptions::taylor();

    let mut clean = Propagator::with_options(options);
    let mut clean_block = RealizationBlock::zero_states(num_qubits, scales.len());
    clean
        .try_evolve_schedule_block(&schedule, &mut clean_block, &scales)
        .expect("clean block sweep");
    assert!(clean.recovery_log().is_empty());

    let mut faulted = Propagator::with_options(options);
    faulted.set_fault_injector(Some(
        FaultInjector::new(11).with_fault(2, Fault::AmplitudeSpike { factor: 1e8 }),
    ));
    let mut block = RealizationBlock::zero_states(num_qubits, scales.len());
    faulted
        .try_evolve_schedule_block(&schedule, &mut block, &scales)
        .expect("faulted block sweep must recover");
    assert_eq!(
        faulted.recovery_log().len(),
        1,
        "the spike must be recovered exactly once"
    );
    assert_eq!(faulted.recovery_log().events()[0].segment, Some(2));

    for r in 0..scales.len() {
        let clean_state = clean_block.extract(r);
        let recovered_state = block.extract(r);
        for (a, b) in clean_state
            .amplitudes()
            .iter()
            .zip(recovered_state.amplitudes())
        {
            assert!(
                (*a - *b).norm_sqr().sqrt() < AGREEMENT,
                "realization {r} diverged after recovery: {a:?} vs {b:?}"
            );
        }
    }
}
