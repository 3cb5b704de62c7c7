//! Cross-backend conformance harness: every [`StepperKind`] (the three
//! fixed backends **and** `Auto`) is run through every evolution path —
//! constant-Hamiltonian, recompile-per-segment piecewise, compiled-schedule,
//! and the emulated device — over a seeded family of scenario shapes:
//!
//! * Y-heavy random Hamiltonians (exercise the gather kernel and complex
//!   weights),
//! * diagonal-dominated detuning ramps (exercise the diagonal table, its
//!   incremental updates, and the tightened spectral bound),
//! * near-degenerate spectra (coefficient gaps down to 1e-9),
//! * the single-qubit `n = 1` register (the smallest mask layout, where
//!   wrap-around and bond bookkeeping historically broke),
//! * long-duration segments (`‖H‖·t ≫ 1`, the high-order backends' regime),
//! * mixed-structure schedules (multiple mask layouts in one run),
//! * a dense same-layout ramp of tiny segments (the batched multi-segment
//!   sweep's carry chaining, boundary passes, and run-end flush).
//!
//! Every `backend × path` result is pinned **pairwise** to 1e-10 and to the
//! scalar naive reference — so a new backend, a new evolution path, or a
//! data-layout change (like the columnar weight matrix) is
//! conformance-tested by construction: add it to the matrix and every
//! scenario shape exercises it against everything else.

use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::rng::Rng;
use qturbo_math::Complex;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::observable::measure_z_zz;
use qturbo_quantum::propagate::{evolve_naive, evolve_schedule_with};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{
    EmulatedDevice, EvolveOptions, NoiseModel, Propagator, StateVector, StepperKind,
};

const AGREEMENT: f64 = 1e-10;

/// One conformance scenario: a named schedule plus the register size.
struct Scenario {
    name: String,
    num_qubits: usize,
    segments: Vec<(Hamiltonian, f64)>,
}

fn random_state(rng: &mut Rng, num_qubits: usize) -> StateVector {
    let amplitudes: Vec<Complex> = (0..1usize << num_qubits)
        .map(|_| Complex::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)))
        .collect();
    StateVector::from_amplitudes(amplitudes)
}

fn random_string(rng: &mut Rng, num_qubits: usize) -> PauliString {
    PauliString::from_ops((0..num_qubits).filter_map(|qubit| match rng.next_usize(4) {
        0 => None,
        k => Some((qubit, [Pauli::X, Pauli::Y, Pauli::Z][k - 1])),
    }))
}

/// The seeded scenario generator: each call yields the full family of shapes
/// the harness pins, deterministically derived from `seed`.
fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();

    // --- Y-heavy random schedules (gather kernel, complex weights). ---
    for round in 0..3 {
        let num_qubits = 2 + rng.next_usize(2);
        let num_terms = 2 + rng.next_usize(3);
        let strings: Vec<PauliString> = (0..num_terms)
            .map(|index| {
                let mut string = random_string(&mut rng, num_qubits);
                if index % 2 == 0 {
                    let qubit = rng.next_usize(num_qubits);
                    string = PauliString::from_ops(
                        string
                            .iter()
                            .filter(|(q, _)| *q != qubit)
                            .chain(std::iter::once((qubit, Pauli::Y)))
                            .collect::<Vec<_>>(),
                    );
                }
                string
            })
            .collect();
        let segments = (0..3)
            .map(|_| {
                (
                    Hamiltonian::from_terms(
                        num_qubits,
                        strings
                            .iter()
                            .map(|s| (rng.next_range(-1.5, 1.5), s.clone())),
                    ),
                    rng.next_range(0.1, 0.8),
                )
            })
            .collect();
        out.push(Scenario {
            name: format!("y_heavy_{round}"),
            num_qubits,
            segments,
        });
    }

    // --- Diagonal-dominated detuning ramp (table + tightened bound). ---
    let num_qubits = 3;
    let segments = (0..8)
        .map(|index| {
            let s = index as f64 / 8.0;
            (
                Hamiltonian::from_terms(
                    num_qubits,
                    [
                        ((1.0 - 2.0 * s) * 2.0, PauliString::single(0, Pauli::Z)),
                        ((1.0 - 2.0 * s) * 2.0, PauliString::single(1, Pauli::Z)),
                        ((1.0 - 2.0 * s) * 2.0, PauliString::single(2, Pauli::Z)),
                        (1.5, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                        (1.5, PauliString::two(1, Pauli::Z, 2, Pauli::Z)),
                        (0.8, PauliString::identity()),
                        (0.25, PauliString::single(0, Pauli::X)),
                    ],
                ),
                0.15,
            )
        })
        .collect();
    out.push(Scenario {
        name: "diagonal_dominated_ramp".into(),
        num_qubits,
        segments,
    });

    // --- Near-degenerate spectra (1e-9 coefficient gaps). ---
    for &gap in &[1e-6, 1e-9] {
        out.push(Scenario {
            name: format!("near_degenerate_gap_{gap:e}"),
            num_qubits: 2,
            segments: vec![(
                Hamiltonian::from_terms(
                    2,
                    [
                        (1.0, PauliString::single(0, Pauli::Z)),
                        (1.0 + gap, PauliString::single(1, Pauli::Z)),
                        (0.25, PauliString::single(0, Pauli::X)),
                    ],
                ),
                3.0,
            )],
        });
    }

    // --- Single-qubit register (n = 1: the smallest mask layout). ---
    out.push(Scenario {
        name: "single_qubit".into(),
        num_qubits: 1,
        segments: vec![
            (
                Hamiltonian::from_terms(
                    1,
                    [
                        (rng.next_range(0.5, 1.5), PauliString::single(0, Pauli::X)),
                        (rng.next_range(-0.5, 0.5), PauliString::single(0, Pauli::Z)),
                    ],
                ),
                0.7,
            ),
            (
                Hamiltonian::from_terms(
                    1,
                    [
                        (rng.next_range(0.5, 1.5), PauliString::single(0, Pauli::Y)),
                        (0.2, PauliString::identity()),
                    ],
                ),
                4.0,
            ),
        ],
    });

    // --- Long ‖H‖·t (the Chebyshev regime). ---
    let h = Hamiltonian::from_terms(
        3,
        [
            (1.0, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
            (0.8, PauliString::single(1, Pauli::Y)),
            (0.5, PauliString::single(2, Pauli::X)),
            (-0.3, PauliString::identity()),
        ],
    );
    let strength = h.coefficient_l1_norm() + h.max_abs_coefficient();
    out.push(Scenario {
        name: "long_phase".into(),
        num_qubits: 3,
        segments: vec![(h, 60.0 / strength)],
    });

    // --- Mixed structures (several mask layouts in one schedule). ---
    let a = Hamiltonian::from_terms(2, [(1.1, PauliString::single(0, Pauli::X))]);
    let b = Hamiltonian::from_terms(
        2,
        [
            (0.6, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
            (-0.4, PauliString::single(1, Pauli::Z)),
        ],
    );
    out.push(Scenario {
        name: "mixed_structures".into(),
        num_qubits: 2,
        segments: vec![(a.clone(), 0.3), (b, 0.5), (a.scaled(0.7), 0.4)],
    });

    // --- Dense ramp: a long same-layout train of tiny segments, the shape
    // the batched multi-segment sweep chains through one carry-connected
    // run (every boundary pass is exercised, including the run-end flush).
    let dense_segments = 40;
    let segments = (0..dense_segments)
        .map(|index| {
            let s = index as f64 / dense_segments as f64;
            (
                Hamiltonian::from_terms(
                    3,
                    [
                        (1.0 - s, PauliString::single(0, Pauli::X)),
                        (0.3 + 0.9 * s, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                        (0.5 - 0.2 * s, PauliString::single(1, Pauli::Z)),
                        (0.2 + 0.3 * s, PauliString::single(2, Pauli::Y)),
                    ],
                ),
                0.03,
            )
        })
        .collect();
    out.push(Scenario {
        name: "dense_ramp".into(),
        num_qubits: 3,
        segments,
    });

    out
}

/// Evolution paths of the conformance matrix (the device path is handled
/// separately — it starts from `|0…0⟩` and reports observables).
const PATHS: [&str; 3] = ["constant", "piecewise", "schedule"];

/// Runs `scenario` from `initial` through one `backend × path` cell.
fn run_path(
    path: &str,
    scenario: &Scenario,
    initial: &StateVector,
    options: EvolveOptions,
) -> StateVector {
    match path {
        // The constant-Hamiltonian path, driven per segment: each segment is
        // a CompiledHamiltonian evolved in place.
        "constant" => {
            let mut propagator = Propagator::with_options(options);
            let mut state = initial.clone();
            for (hamiltonian, duration) in &scenario.segments {
                let compiled = CompiledHamiltonian::compile(hamiltonian);
                propagator.evolve_in_place(&compiled, &mut state, *duration);
            }
            state
        }
        // The recompile-per-segment piecewise driver.
        "piecewise" => {
            let mut propagator = Propagator::with_options(options);
            let mut state = initial.clone();
            propagator.evolve_piecewise_in_place(&scenario.segments, &mut state);
            state
        }
        // The shared-layout columnar compiled schedule.
        "schedule" => {
            let schedule = CompiledSchedule::compile(&scenario.segments);
            evolve_schedule_with(initial, &schedule, options)
        }
        other => unreachable!("unknown path {other}"),
    }
}

#[test]
fn every_backend_times_every_path_agrees_on_every_scenario() {
    let mut rng = Rng::seed_from_u64(0xC0F0);
    for scenario in scenarios(0x5EED) {
        // A random, deliberately unnormalized initial state (norm in
        // [~0.5, ~4]): conformance includes the linearity semantics.
        let initial = random_state(&mut rng, scenario.num_qubits);

        // The scalar naive reference: sequential evolve_naive per segment.
        let mut reference = initial.clone();
        for (hamiltonian, duration) in &scenario.segments {
            reference = evolve_naive(&reference, hamiltonian, *duration);
        }

        let mut results: Vec<(String, StateVector)> = Vec::new();
        for kind in StepperKind::all() {
            for path in PATHS {
                let state = run_path(path, &scenario, &initial, EvolveOptions::new(kind));
                results.push((format!("{}/{path}", kind.name()), state));
            }
        }

        // Pin every cell to the naive reference…
        for (label, state) in &results {
            for (index, (a, b)) in state
                .amplitudes()
                .iter()
                .zip(reference.amplitudes())
                .enumerate()
            {
                assert!(
                    (*a - *b).abs() < AGREEMENT,
                    "{}: {label} vs naive, amplitude {index}: {a} != {b}",
                    scenario.name
                );
            }
        }
        // …and pairwise to each other (tighter in practice; the explicit
        // pairwise sweep is what makes a new backend conformance-tested by
        // construction even if the naive reference were ever loosened).
        for (label_a, state_a) in &results {
            for (label_b, state_b) in &results {
                for (a, b) in state_a.amplitudes().iter().zip(state_b.amplitudes()) {
                    assert!(
                        (*a - *b).abs() < AGREEMENT,
                        "{}: {label_a} vs {label_b}: {a} != {b}",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn every_backend_agrees_through_the_device_path() {
    // The device path: |0…0⟩, noiseless, fused Z/ZZ observables. Pinned
    // pairwise across backends and against the observables of the
    // naive-evolved state.
    for scenario in scenarios(0xDE71CE) {
        let cyclic = scenario.num_qubits >= 3;
        let mut reference_state = StateVector::zero_state(scenario.num_qubits);
        for (hamiltonian, duration) in &scenario.segments {
            reference_state = evolve_naive(&reference_state, hamiltonian, *duration);
        }
        let reference = measure_z_zz(&reference_state, cyclic);

        let runs: Vec<(StepperKind, _)> = StepperKind::all()
            .into_iter()
            .map(|kind| {
                let device = EmulatedDevice::new(NoiseModel::noiseless(), 0)
                    .with_options(EvolveOptions::new(kind));
                (
                    kind,
                    device.run(&scenario.segments, scenario.num_qubits, cyclic),
                )
            })
            .collect();

        for (kind, run) in &runs {
            assert_eq!(run.z.len(), scenario.num_qubits);
            for (i, (a, b)) in run.z.iter().zip(&reference.z).enumerate() {
                assert!(
                    (a - b).abs() < AGREEMENT,
                    "{}: {}/device Z_{i}: {a} != {b}",
                    scenario.name,
                    kind.name()
                );
            }
            for (pair, (a, b)) in reference.pairs.iter().zip(run.zz.iter().zip(&reference.zz)) {
                assert!(
                    (a - b).abs() < AGREEMENT,
                    "{}: {}/device ZZ{pair:?}: {a} != {b}",
                    scenario.name,
                    kind.name()
                );
            }
        }
        for (kind_a, run_a) in &runs {
            for (kind_b, run_b) in &runs {
                for (a, b) in run_a.z.iter().zip(&run_b.z) {
                    assert!(
                        (a - b).abs() < AGREEMENT,
                        "{}: {} vs {} device Z: {a} != {b}",
                        scenario.name,
                        kind_a.name(),
                        kind_b.name()
                    );
                }
                for (a, b) in run_a.zz.iter().zip(&run_b.zz) {
                    assert!(
                        (a - b).abs() < AGREEMENT,
                        "{}: {} vs {} device ZZ: {a} != {b}",
                        scenario.name,
                        kind_a.name(),
                        kind_b.name()
                    );
                }
            }
        }
    }
}

#[test]
fn device_default_options_are_auto() {
    // The acceptance criterion made explicit: a freshly constructed device
    // (and the ideal reference device) selects backends automatically.
    assert_eq!(
        EmulatedDevice::new(NoiseModel::aquila_like(), 1)
            .options()
            .stepper,
        StepperKind::Auto
    );
    assert_eq!(EmulatedDevice::ideal().options().stepper, StepperKind::Auto);
    assert_eq!(Propagator::new().options().stepper, StepperKind::Auto);
}
