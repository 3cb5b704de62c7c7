//! Schedule-compilation benchmark: recompile-per-segment vs shared-layout
//! reuse on a discretized time-dependent ramp, plus the fused Z/ZZ
//! observable sweep vs the per-observable route, plus the **dense-ramp**
//! workload gating the automatic backend selection on long trains of tiny
//! segments.
//!
//! Writes `BENCH_schedule.json` into the current directory. The base
//! workload is the paper's MIS annealing chain (§5.3) discretized into 100
//! piecewise-constant segments — every segment shares the same term
//! structure, so [`CompiledSchedule`] compiles exactly one mask layout and
//! materializes each segment as an `O(#terms)` weight vector, while the
//! reference path re-runs the full `CompiledHamiltonian::compile` (including
//! its `O(#diag · 2ⁿ)` diagonal table) per segment.
//!
//! The dense-ramp entries (8q × 1000, 12q × 300, 16q × 100 segments) run
//! Taylor, Chebyshev, and Auto end to end, recording wall time **and
//! amplitude-pass counts**, and **assert** the acceptance gates (ci.sh runs
//! this binary, so they are CI gates): final states pairwise-matched to
//! 1e-10, and Auto never slower than the worst backend and within 10% of
//! the best. A **traced** Taylor run must match a back-to-back untraced one
//! within a 2 ms jitter allowance — the CI proof that telemetry stays off
//! the hot path — and every workload entry carries a `telemetry` JSON block
//! (work totals, recovery counts, worker-pool utilization) from one extra
//! untimed traced run.

use qturbo_bench::telemetry_report::{telemetry_json, traced_profile};
use qturbo_bench::timing::{achieved_bytes_per_sec, bench, Json, Sample};
use qturbo_hamiltonian::models::mis_chain;
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString, PiecewiseHamiltonian};
use qturbo_quantum::compiled::CompiledHamiltonian;
use qturbo_quantum::exec::LANE_WIDTH;
use qturbo_quantum::observable::{measure_z_zz, zz_pairs};
use qturbo_quantum::propagate::Propagator;
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{EvolveOptions, ExecutionContext, StateVector, StepperKind};

const SIZES: [usize; 3] = [8, 12, 16];
const NUM_SEGMENTS: usize = 100;
const TOTAL_TIME: f64 = 1.0;
/// Dense-ramp configurations: `(qubits, segments)` — long trains of tiny
/// segments, the batched Taylor sweep's target shape.
const DENSE_RAMPS: [(usize, usize); 3] = [(8, 1000), (12, 300), (16, 100)];
/// Pairwise amplitude agreement required between the backends' evolutions
/// of a dense ramp.
const DENSE_AGREEMENT: f64 = 1e-10;

fn reps_for(qubits: usize) -> usize {
    if qubits >= 16 {
        3
    } else {
        7
    }
}

/// Max |fused − per-observable| over all Z and ZZ values.
fn observable_deviation(state: &StateVector, cyclic: bool) -> f64 {
    let fused = measure_z_zz(state, cyclic);
    let mut max_diff = 0.0f64;
    for (i, z) in fused.z.iter().enumerate() {
        let direct = state.expectation(&PauliString::single(i, Pauli::Z));
        max_diff = max_diff.max((z - direct).abs());
    }
    for (&(i, j), zz) in fused.pairs.iter().zip(&fused.zz) {
        let direct = state.expectation(&PauliString::two(i, Pauli::Z, j, Pauli::Z));
        max_diff = max_diff.max((zz - direct).abs());
    }
    max_diff
}

fn size_entry(qubits: usize) -> Json {
    let ramp: PiecewiseHamiltonian = mis_chain(qubits, 1.0, 1.0, 1.0, TOTAL_TIME, NUM_SEGMENTS);
    // The ramp's structure-sharing shape, as the hamiltonian crate sees it:
    // one run means every segment can share a single compiled layout.
    let structure_runs = ramp.structure_runs().len();
    let segments: Vec<(Hamiltonian, f64)> = ramp
        .segments()
        .iter()
        .map(|s| (s.hamiltonian.clone(), s.duration))
        .collect();
    let reps = reps_for(qubits);

    // --- Compilation: full recompile per segment vs one shared layout. ---
    let compile_per_segment = bench(reps, || {
        let compiled: Vec<CompiledHamiltonian> = segments
            .iter()
            .map(|(h, _)| CompiledHamiltonian::compile(h))
            .collect();
        std::hint::black_box(&compiled);
    });
    let compile_schedule = bench(reps, || {
        let schedule = CompiledSchedule::compile(&segments);
        std::hint::black_box(&schedule);
    });
    let compile_speedup = compile_per_segment.median / compile_schedule.median.max(1e-12);

    let schedule = CompiledSchedule::compile(&segments);
    let terms = segments[0].0.num_terms();

    // --- End-to-end evolution of the ramp from |0…0⟩. Telemetry explicitly
    // off: timed runs must stay untraced even under `QTURBO_TRACE=1`. ---
    let mut propagator = Propagator::with_options(EvolveOptions::auto().with_telemetry(false));
    let mut work = StateVector::zero_state(qubits);
    let evolve_recompile = bench(reps, || {
        let mut state = StateVector::zero_state(qubits);
        propagator.evolve_piecewise_in_place(&segments, &mut state);
        work.copy_from(&state);
        std::hint::black_box(&work);
    });
    let recompile_state = work.clone();
    propagator.reset_kernel_applications();
    let evolve_schedule_sample = bench(reps, || {
        let mut state = StateVector::zero_state(qubits);
        propagator.evolve_schedule_in_place(&schedule, &mut state);
        work.copy_from(&state);
        std::hint::black_box(&work);
    });
    // Pass counter accumulated over warm-up + reps identical evolutions.
    let schedule_passes = propagator.state_passes() as f64 / (reps + 1) as f64;
    let schedule_state = work.clone();
    let evolve_speedup = evolve_recompile.median / evolve_schedule_sample.median.max(1e-12);
    let fidelity = recompile_state.fidelity(&schedule_state);

    // --- Observables on the final state: fused sweep vs 2N passes. ---
    let pairs = zz_pairs(qubits, false);
    let fused_sample = bench(reps.max(5), || {
        let observables = measure_z_zz(&schedule_state, false);
        std::hint::black_box(&observables);
    });
    let per_observable_sample = bench(reps.max(5), || {
        let z: Vec<f64> = (0..qubits)
            .map(|i| schedule_state.expectation(&PauliString::single(i, Pauli::Z)))
            .collect();
        let zz: Vec<f64> = pairs
            .iter()
            .map(|&(i, j)| schedule_state.expectation(&PauliString::two(i, Pauli::Z, j, Pauli::Z)))
            .collect();
        std::hint::black_box((&z, &zz));
    });
    let observable_speedup = per_observable_sample.median / fused_sample.median.max(1e-12);
    let max_observable_diff = observable_deviation(&schedule_state, false)
        .max(observable_deviation(&schedule_state, true));

    println!(
        "  {qubits:>2}q  compile {:>10.6}s -> {:>10.6}s ({compile_speedup:>7.1}x)  \
         evolve {:>9.4}s -> {:>9.4}s ({evolve_speedup:>5.2}x)  obs {observable_speedup:>5.2}x  \
         layouts {}  fidelity {fidelity:.12}",
        compile_per_segment.median,
        compile_schedule.median,
        evolve_recompile.median,
        evolve_schedule_sample.median,
        schedule.num_layouts(),
    );
    assert!(
        fidelity > 1.0 - 1e-10,
        "schedule/recompile evolution disagree: fidelity {fidelity}"
    );
    assert!(
        max_observable_diff < 1e-12,
        "fused observables deviate: {max_observable_diff}"
    );

    // One extra traced run (untimed) attaches the workload's telemetry
    // block; the timed measurements above all ran with telemetry off.
    let profile = traced_profile(
        &StateVector::zero_state(qubits),
        StepperKind::Auto,
        |propagator, state| propagator.evolve_schedule_in_place(&schedule, state),
    );

    let sample_fields = |s: Sample| (Json::Number(s.median), Json::Number(s.min));
    let (cps_med, cps_min) = sample_fields(compile_per_segment);
    let (cs_med, cs_min) = sample_fields(compile_schedule);
    Json::object(vec![
        ("qubits", Json::Number(qubits as f64)),
        ("segments", Json::Number(NUM_SEGMENTS as f64)),
        ("terms_per_segment", Json::Number(terms as f64)),
        ("structure_runs", Json::Number(structure_runs as f64)),
        ("layouts", Json::Number(schedule.num_layouts() as f64)),
        ("compile_per_segment_median_s", cps_med),
        ("compile_per_segment_min_s", cps_min),
        ("compile_schedule_median_s", cs_med),
        ("compile_schedule_min_s", cs_min),
        ("compile_speedup", Json::Number(compile_speedup)),
        (
            "evolve_recompile_median_s",
            Json::Number(evolve_recompile.median),
        ),
        (
            "evolve_schedule_median_s",
            Json::Number(evolve_schedule_sample.median),
        ),
        ("evolve_speedup", Json::Number(evolve_speedup)),
        (
            "evolve_bytes_per_sec",
            Json::Number(achieved_bytes_per_sec(
                schedule_passes,
                1 << qubits,
                evolve_schedule_sample.min,
            )),
        ),
        (
            "observables_fused_median_s",
            Json::Number(fused_sample.median),
        ),
        (
            "observables_per_pass_median_s",
            Json::Number(per_observable_sample.median),
        ),
        ("observable_speedup", Json::Number(observable_speedup)),
        ("cross_check_fidelity", Json::Number(fidelity)),
        ("max_observable_abs_diff", Json::Number(max_observable_diff)),
        ("telemetry", telemetry_json(StepperKind::Auto, &profile)),
    ])
}

/// One backend's end-to-end dense-ramp measurement.
struct DenseResult {
    kernel_applications: u64,
    state_passes: u64,
    wall_median_s: f64,
    wall_min_s: f64,
    final_state: StateVector,
}

fn run_dense_backend(
    schedule: &CompiledSchedule,
    qubits: usize,
    kind: StepperKind,
    reps: usize,
) -> DenseResult {
    // Telemetry explicitly off: the gated measurements must stay untraced
    // even when `QTURBO_TRACE=1` flips the process-wide default.
    let mut propagator = Propagator::with_options(EvolveOptions::new(kind).with_telemetry(false));
    let mut state = StateVector::zero_state(qubits);
    propagator.evolve_schedule_in_place(schedule, &mut state);
    let kernel_applications = propagator.kernel_applications();
    let state_passes = propagator.state_passes();
    let final_state = state.clone();
    let sample = bench(reps, || {
        let mut state = StateVector::zero_state(qubits);
        propagator.evolve_schedule_in_place(schedule, &mut state);
        std::hint::black_box(&state);
    });
    DenseResult {
        kernel_applications,
        state_passes,
        wall_median_s: sample.median,
        wall_min_s: sample.min,
        final_state,
    }
}

/// The dense-ramp workload: a long train of tiny same-layout segments
/// driven end to end by Taylor, Chebyshev, and Auto — with the Auto and
/// traced-run gates asserted.
fn dense_ramp_entry(qubits: usize, segments: usize) -> Json {
    let ramp = mis_chain(qubits, 1.0, 1.0, 1.0, TOTAL_TIME, segments);
    let compiled_segments: Vec<(Hamiltonian, f64)> = ramp
        .segments()
        .iter()
        .map(|s| (s.hamiltonian.clone(), s.duration))
        .collect();
    let schedule = CompiledSchedule::compile(&compiled_segments);
    let batch_runs = schedule.batch_runs();
    let reps = reps_for(qubits);

    let taylor = run_dense_backend(&schedule, qubits, StepperKind::Taylor, reps);
    let chebyshev = run_dense_backend(&schedule, qubits, StepperKind::Chebyshev, reps);
    let auto = run_dense_backend(&schedule, qubits, StepperKind::Auto, reps);

    let deviation_from_taylor = |r: &DenseResult| {
        r.final_state
            .amplitudes()
            .iter()
            .zip(taylor.final_state.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max)
    };
    let max_deviation = deviation_from_taylor(&chebyshev).max(deviation_from_taylor(&auto));
    println!(
        "  dense {qubits:>2}q x {segments:>4}  taylor {:>8} passes {:>9.4}s | chebyshev {:>8} passes \
         {:>9.4}s | auto {:>9.4}s | dev {max_deviation:.2e} | {} runs",
        taylor.state_passes,
        taylor.wall_median_s,
        chebyshev.state_passes,
        chebyshev.wall_median_s,
        auto.wall_median_s,
        batch_runs.len(),
    );

    // --- The CI gates: pairwise agreement, and Auto never slower than the
    // worst backend and within 10% of the best (min statistic, 2 ms jitter
    // allowance). ---
    assert!(
        max_deviation < DENSE_AGREEMENT,
        "{qubits}q dense ramp: a backend deviates from Taylor by {max_deviation}"
    );
    let best = taylor.wall_min_s.min(chebyshev.wall_min_s);
    let worst = taylor.wall_min_s.max(chebyshev.wall_min_s);
    assert!(
        auto.wall_min_s <= worst + 0.002,
        "{qubits}q dense ramp: auto ({:.4}s) slower than the worst backend ({worst:.4}s)",
        auto.wall_min_s
    );
    assert!(
        auto.wall_min_s <= best * 1.10 + 0.002,
        "{qubits}q dense ramp: auto ({:.4}s) more than 10% behind the best backend ({best:.4}s)",
        auto.wall_min_s
    );

    // --- The traced gate: a telemetry-enabled Taylor run must match a
    // back-to-back untraced one, proving tracing stays off the hot path. A
    // fresh untraced measurement and a traced one run back to back — same
    // code path modulo telemetry, no thermal/load drift between windows
    // (the samples above are minutes old by now, so comparing against them
    // would gate on machine drift, not tracing cost). One untimed traced run
    // additionally provides the telemetry JSON block. ---
    let profile = traced_profile(
        &StateVector::zero_state(qubits),
        StepperKind::Taylor,
        |propagator, state| propagator.evolve_schedule_in_place(&schedule, state),
    );
    let mut untraced_propagator =
        Propagator::with_options(EvolveOptions::taylor().with_telemetry(false));
    let untraced_sample = bench(reps, || {
        let mut state = StateVector::zero_state(qubits);
        untraced_propagator.evolve_schedule_in_place(&schedule, &mut state);
        std::hint::black_box(&state);
    });
    let mut traced_propagator =
        Propagator::with_options(EvolveOptions::taylor().with_telemetry(true));
    let traced_sample = bench(reps, || {
        let mut state = StateVector::zero_state(qubits);
        traced_propagator.evolve_schedule_in_place(&schedule, &mut state);
        std::hint::black_box(&state);
    });
    println!(
        "  dense {qubits:>2}q x {segments:>4}  traced taylor {:>9.4}s (gate: <= untraced {:.4}s + 2ms)",
        traced_sample.min, untraced_sample.min
    );
    assert!(
        traced_sample.min <= untraced_sample.min + 0.002,
        "{qubits}q dense ramp: TRACED taylor ({:.4}s) slower than the back-to-back untraced run ({:.4}s)",
        traced_sample.min,
        untraced_sample.min
    );

    let backend_json = |name: &str, r: &DenseResult| {
        Json::object(vec![
            ("backend", Json::string(name)),
            (
                "kernel_applications",
                Json::Number(r.kernel_applications as f64),
            ),
            ("state_passes", Json::Number(r.state_passes as f64)),
            ("wall_median_s", Json::Number(r.wall_median_s)),
            ("wall_min_s", Json::Number(r.wall_min_s)),
            (
                "bytes_per_sec",
                Json::Number(achieved_bytes_per_sec(
                    r.state_passes as f64,
                    1 << qubits,
                    r.wall_min_s,
                )),
            ),
        ])
    };
    Json::object(vec![
        ("workload", Json::string("dense_ramp")),
        ("qubits", Json::Number(qubits as f64)),
        ("segments", Json::Number(segments as f64)),
        ("batch_runs", Json::Number(batch_runs.len() as f64)),
        ("layouts", Json::Number(schedule.num_layouts() as f64)),
        ("max_abs_dev_vs_taylor", Json::Number(max_deviation)),
        ("traced_taylor_wall_min_s", Json::Number(traced_sample.min)),
        (
            "retimed_untraced_taylor_wall_min_s",
            Json::Number(untraced_sample.min),
        ),
        ("telemetry", telemetry_json(StepperKind::Taylor, &profile)),
        (
            "backends",
            Json::Array(vec![
                backend_json("taylor", &taylor),
                backend_json("chebyshev", &chebyshev),
                backend_json("auto", &auto),
            ]),
        ),
    ])
}

fn main() {
    println!(
        "schedule benchmark: MIS annealing ramp, {NUM_SEGMENTS} segments over {TOTAL_TIME} µs, \
         {} worker threads available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut entries: Vec<Json> = SIZES.iter().map(|&n| size_entry(n)).collect();
    println!("dense-ramp workload (Auto and traced-run gates):");
    for &(qubits, segments) in &DENSE_RAMPS {
        entries.push(dense_ramp_entry(qubits, segments));
    }

    let report = Json::object(vec![
        ("benchmark", Json::string("schedule")),
        ("model", Json::string("mis_chain(U=1,omega=1,alpha=1)")),
        ("total_time_us", Json::Number(TOTAL_TIME)),
        ("num_segments", Json::Number(NUM_SEGMENTS as f64)),
        ("initial_state", Json::string("|0...0>")),
        (
            "worker_threads_available",
            Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "worker_threads_resolved",
            Json::Number(ExecutionContext::auto().resolved_threads() as f64),
        ),
        ("lane_width", Json::Number(LANE_WIDTH as f64)),
        ("entries", Json::Array(entries)),
    ]);
    let path = "BENCH_schedule.json";
    std::fs::write(path, report.render() + "\n").expect("write benchmark report");
    println!("wrote {path}");
}
