//! Time-dependent compilation (paper §5.3 / Fig. 5b): an adiabatic
//! maximum-independent-set (MIS) sweep on a chain of Rydberg atoms, compiled
//! as a piecewise-constant pulse schedule.
//!
//! Run with: `cargo run --release --example time_dependent_mis`

use qturbo::QTurboCompiler;
use qturbo_aais::rydberg::{rydberg_aais, RydbergOptions};
use qturbo_baseline::{BaselineCompiler, BaselineOptions};
use qturbo_hamiltonian::models::mis_chain;
use qturbo_quantum::observable::measure_z_zz;
use qturbo_quantum::schedule::CompiledSchedule;
use qturbo_quantum::{EvolveOptions, Propagator, StateVector, StepperKind};

fn main() {
    let num_atoms = 5;
    let total_time = 2.0;
    let num_segments = 4;
    // Annealing parameters: detuning sweep U, drive ω, blockade α.
    let target = mis_chain(num_atoms, 1.0, 1.0, 1.0, total_time, num_segments);
    let aais = rydberg_aais(num_atoms, &RydbergOptions::default());

    let result = QTurboCompiler::new()
        .compile_piecewise(&target, &aais)
        .expect("the MIS sweep compiles");

    println!("Adiabatic MIS sweep on a {num_atoms}-atom chain, {num_segments} segments:");
    println!("  compilation time : {:?}", result.stats.compile_time);
    println!(
        "  machine time     : {:.3} µs (target sweep {total_time} µs)",
        result.execution_time
    );
    println!(
        "  relative error   : {:.2} %",
        result.relative_error() * 100.0
    );
    for (index, duration) in result.stats.segment_times.iter().enumerate() {
        println!("    segment {index}: {duration:.3} µs");
    }

    // Execute the compiled schedule and look at the final ⟨Z⟩ pattern: an
    // (approximate) independent set shows alternating excitation. The pulse
    // segments share their term structure, so the mask layout is compiled
    // once and reused with per-segment weight swaps — and runs of tiny
    // same-layout segments are swept by the batched multi-segment kernel,
    // which the automatic backend selection picks on ramp-shaped trains.
    let segments = result.schedule.hamiltonians(&aais).unwrap();
    let compiled = CompiledSchedule::compile(&segments);
    println!(
        "  mask layouts     : {} (for {} segments, {} batchable runs)",
        compiled.num_layouts(),
        compiled.num_segments(),
        compiled.batch_runs().len(),
    );
    // Telemetry is opt-in (`with_telemetry` / `QTURBO_TRACE=1`); with it on,
    // the propagator records per-segment spans and a run profile.
    let mut propagator = Propagator::with_options(EvolveOptions::auto().with_telemetry(true));
    let mut final_state = StateVector::zero_state(num_atoms);
    propagator.evolve_schedule_in_place(&compiled, &mut final_state);
    let batched_segments = propagator
        .segment_decisions()
        .iter()
        .filter(|&&kind| kind == StepperKind::Taylor)
        .count();
    println!(
        "  evolution        : {}/{} segments batched, {} H|psi> applications, {} amplitude passes",
        batched_segments,
        propagator.segment_decisions().len(),
        propagator.kernel_applications(),
        propagator.state_passes(),
    );
    let observables = measure_z_zz(&final_state, false);
    println!(
        "  final per-atom <Z>: {:?}  (ZZ_avg {:.3})",
        observables
            .z
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        observables.zz_average()
    );

    // The run profile narrates what the evolution above actually did: which
    // backend each segment got, the cost model's predicted applications vs
    // the measured count, recoveries, and worker-pool utilization.
    let profile = propagator.run_profile().expect("telemetry enabled");
    println!("\n{}", profile.summary());

    // Compare against the baseline, which solves the full mixed system once
    // per segment and typically produces a much longer schedule.
    match BaselineCompiler::with_options(BaselineOptions {
        failure_threshold: 0.6,
        ..BaselineOptions::default()
    })
    .compile_piecewise(&target, &aais)
    {
        Ok(baseline) => {
            println!(
                "\nBaseline: machine time {:.3} µs, relative error {:.2} %",
                baseline.execution_time,
                baseline.relative_error() * 100.0
            );
            println!(
                "QTurbo schedule is {:.0}% shorter.",
                (1.0 - result.execution_time / baseline.execution_time) * 100.0
            );
        }
        Err(error) => println!("\nBaseline failed on the time-dependent target: {error}"),
    }
}
