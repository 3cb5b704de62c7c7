//! Stage-by-stage replay of one QTurbo compile, traced run only.
//!
//! `QTurboCompiler::compile*` is a single call, so the benchmark cannot
//! place spans inside it. To split its time across the `core` layers, the
//! traced run replays the compiler's stages through their public functions
//! on the same input (single-segment targets, identity mapping, default
//! options), each stage in its own span:
//!
//! 1. `components::partition`,
//! 2. `GlobalLinearSystem::build` + `solve`,
//! 3. `local_system::minimal_time_for_instruction` on the dynamic components,
//! 4. `local_system::solve_component_at_time` on the fixed components at the
//!    compiled reference time (the final `Δt` relaxation step only),
//! 5. `solve_component_at_time` on the dynamic components, warm-started from
//!    the timing analysis as the compiler does,
//! 6. `refine::refined_targets`, then the refined dynamic re-solve (counted
//!    with step 5).
//!
//! The replay's summed stage time divided by the compile's own time is the
//! `core.replay_coverage` metric: it shows how much of the compile the stage
//! split explains.

use crate::trace::Tracer;
use qturbo::components::{partition, LocalComponent};
use qturbo::local_system::{
    minimal_time_for_instruction, solve_component_at_time, InstructionTiming, TimingDetail,
};
use qturbo::refine::refined_targets;
use qturbo::{CompilationResult, CompileError, GlobalLinearSystem, Mapping};
use qturbo_aais::{Aais, GeneratorRef, VariableId};
use qturbo_hamiltonian::Hamiltonian;
use qturbo_math::Vector;
use std::collections::BTreeMap;

/// Targets below this magnitude are "instruction switched off" (as in the
/// compiler).
const TARGET_EPSILON: f64 = 1e-12;

/// Span names of the replayed stages, in pipeline order.
pub const STAGES: [&str; 6] = [
    "core.components.partition",
    "core.linear_system.build_solve",
    "core.local_system.timing",
    "core.local_system.fixed_solve",
    "core.local_system.dynamic_solve",
    "core.refine.refine",
];

/// Replays the stages of `compiled` (a compile of `target` over `duration`
/// on `aais`) inside a `bench.replay` span.
///
/// # Errors
///
/// Returns the first stage error; the compile itself succeeded, so an error
/// here means the replay diverged from the compiler.
pub fn replay(
    tracer: &mut Tracer,
    aais: &Aais,
    target: &Hamiltonian,
    duration: f64,
    compiled: &CompilationResult,
) -> Result<(), CompileError> {
    tracer.begin("bench.replay");
    let result = replay_stages(tracer, aais, target, duration, compiled);
    tracer.end();
    result
}

fn replay_stages(
    tracer: &mut Tracer,
    aais: &Aais,
    target: &Hamiltonian,
    duration: f64,
    compiled: &CompilationResult,
) -> Result<(), CompileError> {
    let mapped = Mapping::identity(target.num_qubits()).apply(target, aais.num_sites())?;
    let components = tracer.span(STAGES[0], || partition(aais, true));
    let fixed_variables: usize = components
        .iter()
        .filter(|c| c.is_fixed())
        .map(|c| c.variables.len())
        .sum();
    tracer.count("core.components.fixed_variables", fixed_variables as f64);

    let generator_refs = aais.generator_refs();
    let component_of =
        |gref: &GeneratorRef| components.iter().find(|c| c.generators.contains(gref));
    let dynamic_columns: Vec<bool> = generator_refs
        .iter()
        .map(|g| component_of(g).is_some_and(LocalComponent::is_dynamic))
        .collect();
    let fixed_columns: Vec<usize> = (0..generator_refs.len())
        .filter(|&k| component_of(&generator_refs[k]).is_some_and(LocalComponent::is_fixed))
        .collect();

    let (system, alpha) = tracer.span(STAGES[1], || {
        let system = GlobalLinearSystem::build(aais, &mapped, duration)?;
        let alpha = system.solve()?;
        Ok::<_, CompileError>((system, alpha))
    })?;
    let pairs = |alpha: &Vector| -> Vec<(GeneratorRef, f64)> {
        generator_refs
            .iter()
            .enumerate()
            .map(|(k, g)| (*g, alpha[k]))
            .collect()
    };
    let targets = pairs(&alpha);

    let timings = tracer.span(STAGES[2], || {
        let mut timings = BTreeMap::new();
        for component in components.iter().filter(|c| c.is_dynamic()) {
            for &instruction in &component.instructions {
                let timing = minimal_time_for_instruction(
                    aais,
                    instruction,
                    &targets,
                    aais.max_evolution_time(),
                )?;
                timings.insert(instruction, timing);
            }
        }
        Ok::<_, CompileError>(timings)
    })?;

    let time = compiled.stats.segment_times.first().copied().unwrap_or(0.0);
    let mut values = aais.default_values();
    let has_fixed_work = fixed_columns
        .iter()
        .any(|&k| alpha[k].abs() > TARGET_EPSILON);
    if has_fixed_work {
        tracer.span(STAGES[3], || {
            for component in components.iter().filter(|c| c.is_fixed()) {
                let solution = solve_component_at_time(aais, component, &targets, time, None)?;
                for (var, value) in solution.values {
                    values[var.index()] = value;
                }
            }
            Ok::<_, CompileError>(())
        })?;
    }

    tracer.span(STAGES[4], || {
        for component in components.iter().filter(|c| c.is_dynamic()) {
            let warm = warm_start(component, &timings, time);
            let solution = solve_component_at_time(aais, component, &targets, time, warm.as_ref())?;
            for (var, value) in solution.values {
                values[var.index()] = value;
            }
        }
        Ok::<_, CompileError>(())
    })?;

    let achieved: Vector = generator_refs
        .iter()
        .map(|g| aais.generator(*g).expr().eval_slice(&values) * time)
        .collect();
    let refined = tracer.span(STAGES[5], || {
        refined_targets(&system, &dynamic_columns, &achieved)
    })?;
    let refined_pairs = pairs(&refined);
    tracer.span(STAGES[4], || {
        for component in components.iter().filter(|c| c.is_dynamic()) {
            let warm: BTreeMap<VariableId, f64> = component
                .variables
                .iter()
                .map(|v| (*v, values[v.index()]))
                .collect();
            // The compiler keeps the unrefined solution when a refined
            // re-solve fails, so a failure here is not a replay error.
            if solve_component_at_time(aais, component, &refined_pairs, time, Some(&warm)).is_err()
            {
                break;
            }
        }
    });
    Ok(())
}

/// The compiler's warm start for a dynamic component: the time-critical
/// variable is the absorbed product divided by the machine time, the other
/// variables keep their absorbed solutions.
fn warm_start(
    component: &LocalComponent,
    timings: &BTreeMap<usize, InstructionTiming>,
    time: f64,
) -> Option<BTreeMap<VariableId, f64>> {
    if time <= 0.0 {
        return None;
    }
    let mut warm = BTreeMap::new();
    for instruction in &component.instructions {
        match timings.get(instruction).map(|t| &t.detail) {
            Some(TimingDetail::Absorbed {
                time_critical,
                scaled_value,
                others,
            }) => {
                warm.insert(*time_critical, scaled_value / time);
                warm.extend(others.iter().map(|(var, value)| (*var, *value)));
            }
            Some(TimingDetail::Minimized { values }) => {
                warm.extend(values.iter().map(|(var, value)| (*var, *value)));
            }
            Some(TimingDetail::Idle) | None => {}
        }
    }
    (!warm.is_empty()).then_some(warm)
}
