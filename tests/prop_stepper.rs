//! Property tests pinning the Taylor and Chebyshev steppers (and `Auto`) to
//! the naive reference:
//!
//! * every backend must agree with `evolve_naive` to 1e-10 on random
//!   Hamiltonians, including Y-heavy term mixes,
//! * near-degenerate spectra (coefficient gaps down to 1e-9) must not break
//!   the Chebyshev interval mapping,
//! * long-duration segments (`‖H‖·t ≫ 1`) must agree at the same 1e-10 while
//!   Chebyshev spends far fewer kernel applications,
//! * evolution must stay linear in the input norm over 1e-3…1e3 for every
//!   backend,
//! * the compiled-schedule driver must produce backend-independent results.
//!
//! Deterministically seeded sampling via `qturbo_math::rng::Rng` (no external
//! property-testing framework is vendored in this environment).

use qturbo_hamiltonian::models::{heisenberg_chain, mis_chain};
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_math::rng::Rng;
use qturbo_math::Complex;
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::propagate::{evolve_naive, evolve_schedule_with, evolve_with};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{EvolveOptions, Propagator, StateVector, StepperKind};

const AGREEMENT: f64 = 1e-10;

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

/// A random Hamiltonian with a strong `Y` presence (every other term is
/// forced to carry at least one `Y` factor).
fn random_y_heavy(rng: &mut Rng, num_qubits: usize, num_terms: usize) -> Hamiltonian {
    let mut hamiltonian = Hamiltonian::new(num_qubits);
    for index in 0..num_terms {
        let mut string = random_string(rng, num_qubits);
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
        hamiltonian.add_term(rng.next_range(-1.5, 1.5), string);
    }
    hamiltonian
}

fn assert_all_backends_match_naive(
    hamiltonian: &Hamiltonian,
    initial: &StateVector,
    time: f64,
    context: &str,
) {
    let reference = evolve_naive(initial, hamiltonian, time);
    for kind in StepperKind::all() {
        let evolved = evolve_with(initial, hamiltonian, time, EvolveOptions::new(kind));
        for (index, (a, b)) in evolved
            .amplitudes()
            .iter()
            .zip(reference.amplitudes())
            .enumerate()
        {
            assert!(
                (*a - *b).abs() < AGREEMENT,
                "{context}, backend {}, amplitude {index}: {a} != {b}",
                kind.name()
            );
        }
    }
}

#[test]
fn backends_agree_on_random_y_heavy_hamiltonians() {
    let mut rng = Rng::seed_from_u64(0xA11CE);
    for round in 0..12 {
        let num_qubits = 1 + rng.next_usize(4);
        let num_terms = 1 + rng.next_usize(2 * num_qubits + 1);
        let hamiltonian = random_y_heavy(&mut rng, num_qubits, num_terms);
        let initial = random_state(&mut rng, num_qubits);
        let time = rng.next_range(0.05, 2.5);
        assert_all_backends_match_naive(
            &hamiltonian,
            &initial,
            time,
            &format!("round {round} ({num_qubits}q, {num_terms} terms, t={time})"),
        );
    }
}

#[test]
fn backends_agree_on_near_degenerate_spectra() {
    // Hamiltonians whose eigenvalues cluster within ~1e-9 of each other
    // stress the Chebyshev interval mapping (the dynamics live in a sliver
    // of the bound interval).
    let mut rng = Rng::seed_from_u64(0xDE6E);
    for &gap in &[1e-6, 1e-9] {
        // Z₀ + (1 + gap)·Z₁: eigenvalue pairs split by `gap`.
        let h = Hamiltonian::from_terms(
            2,
            [
                (1.0, PauliString::single(0, Pauli::Z)),
                (1.0 + gap, PauliString::single(1, Pauli::Z)),
                (0.25, PauliString::single(0, Pauli::X)),
            ],
        );
        let initial = random_state(&mut rng, 2);
        assert_all_backends_match_naive(&h, &initial, 3.0, &format!("gap {gap}"));
    }
    // An exactly-degenerate pair through a shared coupling.
    let h = Hamiltonian::from_terms(
        3,
        [
            (0.8, PauliString::single(0, Pauli::Z)),
            (0.8, PauliString::single(1, Pauli::Z)),
            (0.8, PauliString::single(2, Pauli::Z)),
            (0.3, PauliString::two(0, Pauli::X, 1, Pauli::X)),
        ],
    );
    let initial = random_state(&mut rng, 3);
    assert_all_backends_match_naive(&h, &initial, 2.0, "exact degeneracy");
}

#[test]
fn backends_agree_on_long_durations_with_less_work() {
    // ‖H‖·t ≫ 1: the regime Chebyshev exists for. Accuracy must hold at
    // 1e-10 while Chebyshev applies the kernel far fewer times than
    // Taylor's ‖H‖·t/0.5 stepping.
    let mut rng = Rng::seed_from_u64(0x10A6);
    let h = random_y_heavy(&mut rng, 3, 6);
    let strength = h.coefficient_l1_norm() + h.max_abs_coefficient();
    let time = 60.0 / strength.max(1.0); // ‖H‖·t ≈ 60
    let initial = random_state(&mut rng, 3);
    assert_all_backends_match_naive(&h, &initial, time, "long duration");

    let compiled = CompiledHamiltonian::compile(&h);
    let mut work = Vec::new();
    for kind in StepperKind::fixed() {
        let mut propagator = Propagator::with_stepper(kind);
        let mut state = initial.clone();
        propagator.evolve_in_place(&compiled, &mut state, time);
        work.push(propagator.kernel_applications());
    }
    let [taylor, chebyshev] = work[..] else {
        unreachable!()
    };
    assert!(
        chebyshev * 2 < taylor,
        "chebyshev should need far fewer applications: {chebyshev} vs {taylor}"
    );
}

#[test]
fn every_backend_is_linear_in_the_input_norm() {
    let mut rng = Rng::seed_from_u64(0x11EA);
    let h = random_y_heavy(&mut rng, 2, 4);
    let unit = random_state(&mut rng, 2);
    let time = 1.3;
    for kind in StepperKind::all() {
        let options = EvolveOptions::new(kind);
        let expected = evolve_with(&unit, &h, time, options);
        for &scale in &[1e-3, 0.5, 40.0, 1e3] {
            let mut scaled = unit.clone();
            scaled.scale(scale);
            let evolved = evolve_with(&scaled, &h, time, options);
            assert!(
                (evolved.norm() - scale).abs() < 1e-9 * scale,
                "{}: norm not preserved at scale {scale}",
                kind.name()
            );
            for (a, b) in evolved.amplitudes().iter().zip(expected.amplitudes()) {
                assert!(
                    (*a - b.scale(scale)).abs() < 1e-9 * scale,
                    "{}: scale {scale}: {a} != {b:?}·{scale}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn schedule_driver_is_backend_independent() {
    // A discretized ramp driven through CompiledSchedule must give the same
    // state whichever backend integrates the segments.
    let mut rng = Rng::seed_from_u64(0x5C4E);
    let num_qubits = 3;
    let num_segments = 24;
    let segments: Vec<(Hamiltonian, f64)> = (0..num_segments)
        .map(|index| {
            let s = index as f64 / num_segments as f64;
            (
                Hamiltonian::from_terms(
                    num_qubits,
                    [
                        (1.0 - s, PauliString::single(0, Pauli::X)),
                        (0.4 + s, PauliString::two(0, Pauli::Z, 1, Pauli::Z)),
                        (0.2 + 0.3 * s, PauliString::single(2, Pauli::Y)),
                    ],
                ),
                rng.next_range(0.02, 0.3),
            )
        })
        .collect();
    let schedule = CompiledSchedule::compile(&segments);
    let initial = random_state(&mut rng, num_qubits);
    let reference = evolve_schedule_with(&initial, &schedule, EvolveOptions::taylor());
    for options in [EvolveOptions::chebyshev(), EvolveOptions::auto()] {
        let evolved = evolve_schedule_with(&initial, &schedule, options);
        for (a, b) in evolved.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(
                (*a - *b).abs() < AGREEMENT,
                "{:?}: {a} != {b}",
                options.stepper
            );
        }
    }
}

#[test]
fn auto_batches_short_ramp_segments() {
    // The MIS annealing shape: many tiny segments, where the batched Taylor
    // sweep wins over Chebyshev's per-segment setup — the "ramps batch"
    // regression. A silent crossover regression in the Auto rule fails this
    // loudly.
    let ramp = mis_chain(6, 1.0, 1.0, 1.0, 1.0, 60);
    let schedule = CompiledSchedule::compile_piecewise(&ramp);
    // Every tiny segment is batchable; the runs split only where the term
    // structure does (the segment whose summed identity coefficient crosses
    // exactly zero compiles its own layout).
    let runs = schedule.batch_runs();
    assert_eq!(
        runs.iter().map(|r| r.len()).sum::<usize>(),
        schedule.num_segments()
    );
    // Runs break only at structure boundaries (consecutive runs never share
    // a layout).
    for pair in runs.windows(2) {
        assert_ne!(
            schedule.segment_layout(pair[0].start),
            schedule.segment_layout(pair[1].start)
        );
    }
    let mut propagator = Propagator::new();
    assert_eq!(propagator.options().stepper, StepperKind::Auto);
    let mut state = StateVector::zero_state(6);
    propagator.evolve_schedule_in_place(&schedule, &mut state);
    let decisions = propagator.segment_decisions();
    assert_eq!(decisions.len(), schedule.num_segments());
    assert!(
        decisions.iter().all(|&kind| kind == StepperKind::Taylor),
        "expected all-Taylor on the short-segment ramp, got {decisions:?}"
    );
    // The work landed where the decisions say it did.
    for (kind, applications) in propagator.kernel_applications_by_backend() {
        if kind == StepperKind::Taylor {
            assert!(applications > 0);
        } else {
            assert_eq!(
                applications,
                0,
                "{} did work on an all-Taylor run",
                kind.name()
            );
        }
    }
    // An all-Taylor Auto run is the Taylor-pinned run: the same chained
    // sweep, so the same work and bitwise the same state.
    let mut taylor = Propagator::with_stepper(StepperKind::Taylor);
    let mut taylor_state = StateVector::zero_state(6);
    taylor.evolve_schedule_in_place(&schedule, &mut taylor_state);
    assert_eq!(
        propagator.kernel_applications(),
        taylor.kernel_applications()
    );
    assert_eq!(propagator.state_passes(), taylor.state_passes());
    assert_eq!(state, taylor_state);
}

#[test]
fn auto_picks_chebyshev_on_long_quench() {
    // The t = 20 Heisenberg quench: ‖H‖·t in the hundreds, the regime where
    // Chebyshev's ≈ r·t applications beat Taylor's ‖H‖·t/½ steps ~20x
    // (BENCH_stepper.json).
    let h = heisenberg_chain(6, 1.0, 0.5);
    let compiled = CompiledHamiltonian::compile(&h);
    let mut propagator = Propagator::new();
    let mut state = StateVector::zero_state(6);
    propagator.evolve_in_place(&compiled, &mut state, 20.0);
    assert_eq!(propagator.segment_decisions(), &[StepperKind::Chebyshev]);
    let taylor_work = {
        let mut taylor = Propagator::with_stepper(StepperKind::Taylor);
        let mut state = StateVector::zero_state(6);
        taylor.evolve_in_place(&compiled, &mut state, 20.0);
        taylor.kernel_applications()
    };
    assert!(
        propagator.kernel_applications() * 5 < taylor_work,
        "auto ({}) should spend far fewer applications than taylor ({taylor_work})",
        propagator.kernel_applications()
    );
    // Accuracy holds at the conformance level.
    let reference = evolve_with(
        &StateVector::zero_state(6),
        &h,
        20.0,
        EvolveOptions::taylor(),
    );
    for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
        assert!((*a - *b).abs() < AGREEMENT, "{a} != {b}");
    }
}

#[test]
fn auto_decides_per_segment_not_per_run() {
    // A schedule mixing tiny ramp segments with one long quench segment
    // must mix backends within a single run — the tentpole property.
    let h = heisenberg_chain(4, 1.0, 0.5);
    let segments = vec![(h.clone(), 0.005), (h.clone(), 20.0), (h, 0.005)];
    let schedule = CompiledSchedule::compile(&segments);
    let mut propagator = Propagator::new();
    let mut state = StateVector::zero_state(4);
    propagator.evolve_schedule_in_place(&schedule, &mut state);
    assert_eq!(
        propagator.segment_decisions(),
        &[
            StepperKind::Taylor,
            StepperKind::Chebyshev,
            StepperKind::Taylor
        ],
        "tiny ramp segments batch, the quench in the middle still goes to Chebyshev"
    );
    // Pairwise agreement with the fixed backends on the same schedule.
    for kind in StepperKind::fixed() {
        let reference = evolve_schedule_with(
            &StateVector::zero_state(4),
            &schedule,
            EvolveOptions::new(kind),
        );
        for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < AGREEMENT, "{}: {a} != {b}", kind.name());
        }
    }
}

#[test]
fn tightened_spectral_bound_cuts_chebyshev_order_on_mis_ramp() {
    // The MIS chain is detuning-dominated: its diagonal part is a sum of
    // occupation operators whose exact range is far narrower than the
    // triangle-inequality Σ|w| (occupations are 0/1-valued and the ZZ
    // penalty anticorrelates with the detuning). The exact-diagonal bound
    // must (a) stay a rigorous enclosure inside the triangle interval,
    // (b) strictly cut the Chebyshev application count, and (c) lose no
    // accuracy against the Taylor reference.
    use qturbo_quantum::stepper::{ChebyshevStepper, SpectralBound, Stepper};
    let ramp = mis_chain(6, 1.0, 1.0, 1.0, 1.0, 4);
    for segment in ramp.segments() {
        let h = &segment.hamiltonian;
        let compiled = CompiledHamiltonian::compile(h);
        let tightened = compiled.spectral_bound();
        // Triangle-inequality enclosure, rebuilt from the raw coefficients.
        let mut center = 0.0;
        let mut radius = 0.0;
        for (coefficient, string) in h.terms() {
            if string.is_identity() {
                center += coefficient;
            } else {
                radius += coefficient.abs();
            }
        }
        let triangle = SpectralBound {
            center,
            radius,
            step_strength: compiled.step_strength(),
        };
        // (a) Containment.
        assert!(
            tightened.center - tightened.radius >= triangle.center - triangle.radius - 1e-12
                && tightened.center + tightened.radius <= triangle.center + triangle.radius + 1e-12,
            "tightened interval escapes the triangle enclosure"
        );
        assert!(
            tightened.radius < triangle.radius - 0.5,
            "no meaningful tightening on the MIS segment: {} vs {}",
            tightened.radius,
            triangle.radius
        );
        // (b) Strictly fewer applications over a long segment...
        let time = 5.0;
        let initial = StateVector::plus_state(6);
        let norm = initial.norm();
        let mut tight_stepper = ChebyshevStepper::new(1e-14);
        let mut tight_state = initial.clone();
        tight_stepper.evolve_segment(compiled.kernel(), &tightened, &mut tight_state, time, norm);
        let mut triangle_stepper = ChebyshevStepper::new(1e-14);
        let mut triangle_state = initial.clone();
        triangle_stepper.evolve_segment(
            compiled.kernel(),
            &triangle,
            &mut triangle_state,
            time,
            norm,
        );
        assert!(
            tight_stepper.kernel_applications() < triangle_stepper.kernel_applications(),
            "tightened bound did not reduce work: {} vs {}",
            tight_stepper.kernel_applications(),
            triangle_stepper.kernel_applications()
        );
        // (c) ... at unchanged accuracy vs the Taylor reference.
        let reference = evolve_with(&initial, h, time, EvolveOptions::taylor());
        for (a, b) in tight_state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!((*a - *b).abs() < AGREEMENT, "{a} != {b}");
        }
    }
}

#[test]
fn taylor_estimate_is_exact_on_pure_drive_ramp_segments() {
    // The cost-model observability gap: `StepperKind::estimated_applications`
    // predictions were never compared to actuals. On a pure transverse-drive
    // ramp the Taylor estimate is provably exact: with `H = Ω·X₀`,
    // `‖Hᵏψ‖ = Ωᵏ·‖ψ‖` for *any* state (X₀ is Ω times a unitary), so the
    // spectral scale the estimate uses coincides with the norms the series
    // actually truncates on, step for step, order for order. The telemetry
    // `SegmentSpan` records both sides; any drift between the model and the
    // stepper (step splitting, series order rule, truncation threshold)
    // breaks the equality loudly.
    use qturbo_quantum::SpanEvent;
    let num_qubits = 3;
    let num_segments = 16;
    let segments: Vec<(Hamiltonian, f64)> = (0..num_segments)
        .map(|index| {
            let s = (index + 1) as f64 / num_segments as f64;
            (
                Hamiltonian::from_terms(num_qubits, [(1.8 * s, PauliString::single(0, Pauli::X))]),
                0.25,
            )
        })
        .collect();
    let schedule = CompiledSchedule::compile(&segments);
    let mut propagator = Propagator::with_options(EvolveOptions::taylor().with_telemetry(true));
    let mut state = StateVector::zero_state(num_qubits);
    propagator.evolve_schedule_in_place(&schedule, &mut state);
    let trace = propagator.trace().expect("telemetry enabled");
    let mut checked = 0;
    for event in trace.events() {
        if let SpanEvent::Segment(span) = event {
            let predicted = span.predicted_applications.expect("taylor has an estimate");
            assert_eq!(
                predicted, span.applications as f64,
                "segment {:?} predicted {predicted} != measured {}",
                span.index, span.applications
            );
            checked += 1;
        }
    }
    assert_eq!(checked, num_segments);
}

#[test]
fn relaxed_tolerance_still_converges_reasonably() {
    // A user-loosened tolerance trades accuracy for work but must stay in
    // the right ballpark (no divergence, no garbage).
    let mut rng = Rng::seed_from_u64(0x70C);
    let h = random_y_heavy(&mut rng, 3, 5);
    let initial = random_state(&mut rng, 3);
    let reference = evolve_naive(&initial, &h, 5.0);
    let options = EvolveOptions::chebyshev().with_tolerance(1e-6);
    let evolved = evolve_with(&initial, &h, 5.0, options);
    for (a, b) in evolved.amplitudes().iter().zip(reference.amplitudes()) {
        assert!((*a - *b).abs() < 1e-4, "{a} != {b}");
    }
}
