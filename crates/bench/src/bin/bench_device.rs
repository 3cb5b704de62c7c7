//! Device noise-sweep benchmark: the sequential per-realization reference
//! path vs the structure-of-arrays realization block path
//! ([`EvolveOptions::with_realization_block`]) on a dense detuning ramp.
//!
//! Writes `BENCH_device.json` into the current directory. The workload is a
//! discretized ramp with per-qubit Z detunings (the diagonal table engages
//! and is shared unscaled across the block), a **phase-modulated drive**
//! (`cos φ · X + sin φ · Y` per qubit, the amplitude/phase controls of an
//! analog neutral-atom machine — the `Y` gathers carry per-basis-state
//! signs, the term class where within-state lanes pay per-amplitude sign
//! and permute work that the block path computes once per basis row), and
//! nearest-neighbour ZZ couplings, swept under coherent amplitude
//! miscalibration with exact (infinite-shot) readout — so every realization
//! evolves under a *different* Hamiltonian scale and the block path's
//! per-realization scale lanes are genuinely exercised.
//!
//! For every register size × realization count the report records wall
//! time and realizations/sec for both paths plus the block/sequential
//! speedup, and the run **asserts** the acceptance gates (ci.sh runs this
//! binary, so they are CI gates):
//!
//! * block and sequential observables agree to 1e-10 on every entry,
//! * a seeded block sweep is bitwise reproducible across two runs,
//! * the sequential sweep's realization 0 is bitwise identical to a
//!   standalone [`EmulatedDevice::run`],
//! * at 16 qubits the block path is at least as fast as the sequential
//!   path at R = 16, and at least 1.5× its realizations/sec at R = 64.

use qturbo_bench::timing::{bench, Json};
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{DeviceRun, EmulatedDevice, EvolveOptions, NoiseModel};

const SIZES: [usize; 3] = [8, 12, 16];
const REALIZATIONS: [usize; 3] = [4, 16, 64];
const SEGMENTS: usize = 10;
const SEGMENT_DT: f64 = 0.03;
const AGREEMENT: f64 = 1e-10;
/// Wall-clock jitter allowance on the throughput gates (sub-10 ms runs).
const JITTER_S: f64 = 0.002;

/// The dense ramp: per-qubit Z detunings sweeping sign, a phase-modulated
/// `cos φ · X + sin φ · Y` drive, nearest-neighbour ZZ couplings.
fn ramp(num_qubits: usize) -> Vec<(Hamiltonian, f64)> {
    (0..SEGMENTS)
        .map(|index| {
            let s = index as f64 / SEGMENTS as f64;
            let phase = std::f64::consts::PI * (0.25 + 0.5 * s);
            let mut terms: Vec<(f64, PauliString)> = Vec::new();
            for qubit in 0..num_qubits {
                terms.push((1.2 * (1.0 - 2.0 * s), PauliString::single(qubit, Pauli::Z)));
                terms.push((0.9 * phase.cos(), PauliString::single(qubit, Pauli::X)));
                terms.push((0.9 * phase.sin(), PauliString::single(qubit, Pauli::Y)));
            }
            for qubit in 0..num_qubits - 1 {
                terms.push((0.7, PauliString::two(qubit, Pauli::Z, qubit + 1, Pauli::Z)));
            }
            (Hamiltonian::from_terms(num_qubits, terms), SEGMENT_DT)
        })
        .collect()
}

/// Exact-expectation noise with coherent amplitude miscalibration: the
/// realizations genuinely differ (distinct Hamiltonian scales), and the
/// block/sequential comparison stays analog (finite-shot Bernoulli draws
/// could flip on 1e-13 expectation differences).
fn noise() -> NoiseModel {
    NoiseModel {
        depolarizing_rate: 0.01,
        amplitude_miscalibration: 0.05,
        readout_error: 0.01,
        shots: None,
    }
}

fn max_observable_deviation(a: &[DeviceRun], b: &[DeviceRun]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            x.z.iter()
                .zip(&y.z)
                .chain(x.zz.iter().zip(&y.zz))
                .map(|(p, q)| (p - q).abs())
        })
        .fold(0.0, f64::max)
}

fn path_json(wall_median_s: f64, wall_min_s: f64, realizations: usize) -> Json {
    Json::object(vec![
        ("wall_median_s", Json::Number(wall_median_s)),
        ("wall_min_s", Json::Number(wall_min_s)),
        (
            "realizations_per_sec",
            Json::Number(realizations as f64 / wall_min_s.max(1e-12)),
        ),
    ])
}

fn entry(
    qubits: usize,
    realizations: usize,
    segments: &[(Hamiltonian, f64)],
    schedule: &CompiledSchedule,
) -> Json {
    let sequential_device = EmulatedDevice::new(noise(), 23)
        .with_options(EvolveOptions::taylor().with_telemetry(false));
    let block_device = EmulatedDevice::new(noise(), 23).with_options(
        EvolveOptions::taylor()
            .with_telemetry(false)
            .with_realization_block(true),
    );

    // --- Conformance gates (untimed): 1e-10 agreement, bitwise block
    // reproducibility, and sweep[0] == run on the sequential reference. ---
    let sequential_runs = sequential_device.run_compiled(schedule, qubits, false, realizations);
    let block_runs = block_device.run_compiled(schedule, qubits, false, realizations);
    let deviation = max_observable_deviation(&sequential_runs, &block_runs);
    assert!(
        deviation < AGREEMENT,
        "{qubits}q R={realizations}: block deviates from sequential by {deviation}"
    );
    let block_again = block_device.run_compiled(schedule, qubits, false, realizations);
    assert_eq!(
        block_runs, block_again,
        "{qubits}q R={realizations}: seeded block sweep is not bitwise reproducible"
    );
    assert_eq!(
        sequential_runs[0],
        sequential_device.run(segments, qubits, false),
        "{qubits}q R={realizations}: sequential sweep realization 0 drifted from run()"
    );

    // --- Timed sweeps. ---
    let reps = if qubits >= 16 { 1 } else { 2 };
    let sequential_sample = bench(reps, || {
        let runs = sequential_device.run_compiled(schedule, qubits, false, realizations);
        std::hint::black_box(&runs);
    });
    let block_sample = bench(reps, || {
        let runs = block_device.run_compiled(schedule, qubits, false, realizations);
        std::hint::black_box(&runs);
    });
    let speedup = sequential_sample.min / block_sample.min.max(1e-12);
    println!(
        "  {qubits:>2}q R={realizations:<3}  sequential {:>8.4}s  block {:>8.4}s  ({speedup:>5.2}x, max dev {deviation:.2e})",
        sequential_sample.min, block_sample.min
    );

    // --- Throughput gates at the largest register. ---
    if qubits == 16 && realizations == 16 {
        assert!(
            block_sample.min <= sequential_sample.min + JITTER_S,
            "16q R=16: block ({:.4}s) is slower than sequential ({:.4}s)",
            block_sample.min,
            sequential_sample.min
        );
    }
    if qubits == 16 && realizations == 64 {
        assert!(
            block_sample.min * 1.5 <= sequential_sample.min + JITTER_S,
            "16q R=64: block ({:.4}s) is under 1.5x sequential ({:.4}s)",
            block_sample.min,
            sequential_sample.min
        );
    }

    Json::object(vec![
        ("qubits", Json::Number(qubits as f64)),
        ("realizations", Json::Number(realizations as f64)),
        ("segments", Json::Number(SEGMENTS as f64)),
        (
            "sequential",
            path_json(
                sequential_sample.median,
                sequential_sample.min,
                realizations,
            ),
        ),
        (
            "block",
            path_json(block_sample.median, block_sample.min, realizations),
        ),
        ("speedup", Json::Number(speedup)),
        ("max_abs_dev", Json::Number(deviation)),
    ])
}

fn main() {
    println!(
        "device sweep benchmark: sequential vs realization-block, {} worker threads available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut entries: Vec<Json> = Vec::new();
    for &qubits in &SIZES {
        let segments = ramp(qubits);
        let schedule = CompiledSchedule::compile(&segments);
        for &realizations in &REALIZATIONS {
            entries.push(entry(qubits, realizations, &segments, &schedule));
        }
    }
    let report = Json::object(vec![
        ("benchmark", Json::string("device")),
        ("workload", Json::string("dense_ramp_miscalibration_sweep")),
        ("agreement_threshold", Json::Number(AGREEMENT)),
        (
            "worker_threads_available",
            Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("entries", Json::Array(entries)),
    ]);
    let path = "BENCH_device.json";
    std::fs::write(path, report.render() + "\n").expect("write benchmark report");
    println!("wrote {path}");
}
