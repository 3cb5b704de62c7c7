//! The four workloads: their seeded inputs, their set-up, one program, the
//! traced-only extras, and the correctness checks that run after the timed
//! window.
//!
//! Every workload is a fixed design of slots (model family, size, coupling
//! design point, segment count range); the seed draws the couplings around
//! each slot's design point, the segment counts and the device-noise seed.
//! Keeping the slot design fixed keeps the mix of work the same from seed to
//! seed, so the end-to-end metrics of two seeds are comparable; the draws
//! keep the inputs from being one hand-picked point.

use crate::replay;
use crate::trace::Tracer;
use qturbo::{CompilationResult, QTurboCompiler};
use qturbo_aais::heisenberg::{heisenberg_aais, HeisenbergOptions};
use qturbo_aais::rydberg::{rydberg_aais, Layout, RydbergOptions};
use qturbo_aais::Aais;
use qturbo_hamiltonian::models::{
    heisenberg_chain, ising_chain, ising_cycle, ising_cycle_plus, kitaev, mis_chain,
};
use qturbo_hamiltonian::{Hamiltonian, PiecewiseHamiltonian};
use qturbo_math::rng::Rng;
use qturbo_quantum::observable::{z_average, zz_average};
use qturbo_quantum::propagate::{evolve_naive, evolve_schedule};
use qturbo_quantum::{
    CompiledSchedule, DeviceRun, EmulatedDevice, EvolveOptions, NoiseModel, Propagator, StateVector,
};

/// `noise_sweep`'s registers (qubits) and the noise realizations each
/// sweep runs: fewer on larger registers, so each sweep costs about the same
/// and no register dominates the workload's timings.
const SWEEPS: [(usize, usize); 3] = [(10, 32), (12, 16), (14, 4)];
/// Segments of every `noise_sweep` ramp.
const SWEEP_SEGMENTS: usize = 16;
/// Target duration of the MIS ramps: long enough that every segment's
/// machine time is set by the couplings, not by the compiler's `Δt` floor.
const RAMP_TIME: f64 = 4.0;
/// Largest register on which the fast path is checked against the naive
/// dense propagator (the conformance checks build twins of this size).
const NAIVE_CHECK_QUBITS: usize = 8;
/// Agreement required between two evolution paths of one pulse.
const AGREEMENT: f64 = 1e-10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QTurbo compiles of Ising cycle / cycle+ / chain on Rydberg devices.
    RydbergCompile,
    /// QTurbo compiles of large targets on the Heisenberg device.
    HeisenbergCompile,
    /// Compile → lower → mask-compile → evolve → observables.
    EmulatePulse,
    /// Noisy device sweeps over compiled MIS ramps of three registers.
    NoiseSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RydbergCompile,
        Workload::HeisenbergCompile,
        Workload::EmulatePulse,
        Workload::NoiseSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RydbergCompile => "rydberg_compile",
            Workload::HeisenbergCompile => "heisenberg_compile",
            Workload::EmulatePulse => "emulate_pulse",
            Workload::NoiseSweep => "noise_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a program of this workload is a compile and nothing else.
    pub fn compiles_only(self) -> bool {
        matches!(self, Workload::RydbergCompile | Workload::HeisenbergCompile)
    }

    fn stream(self) -> u64 {
        match self {
            Workload::RydbergCompile => 1,
            Workload::HeisenbergCompile => 2,
            Workload::EmulatePulse => 3,
            Workload::NoiseSweep => 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    IsingChain,
    IsingCycle,
    IsingCyclePlus,
    HeisenbergChain,
    Kitaev,
    /// Detuned MIS annealing ramp (time dependent).
    MisRamp,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::IsingChain => "ising_chain",
            Family::IsingCycle => "ising_cycle",
            Family::IsingCyclePlus => "ising_cycle_plus",
            Family::HeisenbergChain => "heisenberg_chain",
            Family::Kitaev => "kitaev",
            Family::MisRamp => "mis_ramp",
        }
    }

    fn cyclic(self) -> bool {
        matches!(self, Family::IsingCycle | Family::IsingCyclePlus)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Machine {
    Rydberg,
    Heisenberg,
}

/// A slot's design couplings `(J, h)`; the seed jitters each one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stratum {
    /// `J < h`: `(0.6, 1.3)`.
    Below,
    /// `J > h`: `(1.4, 0.7)`.
    Above,
    /// `J = h`: `(1, 1)`.
    Even,
}

impl Stratum {
    fn design(self) -> (f64, f64) {
        match self {
            Stratum::Below => (0.6, 1.3),
            Stratum::Above => (1.4, 0.7),
            Stratum::Even => (1.0, 1.0),
        }
    }
}

/// Largest relative change the seed makes to a design coupling. The slots
/// fix where each input sits (which side of `J/h = 1`, which size); the
/// draw moves it only within this band, so every seed runs the same mix of
/// work while no two seeds run identical inputs.
const JITTER: f64 = 0.01;

/// One drawn program input, before any model or device is built.
#[derive(Debug, Clone)]
struct Spec {
    family: Family,
    machine: Machine,
    qubits: usize,
    j: f64,
    h: f64,
    segments: usize,
}

impl Spec {
    fn label(&self) -> String {
        let mut label = format!(
            "{} n={} J={:.3} h={:.3}",
            self.family.name(),
            self.qubits,
            self.j,
            self.h
        );
        if self.family == Family::MisRamp {
            label += &format!(" segments={}", self.segments);
        }
        label
    }

    fn with_qubits(&self, qubits: usize) -> Spec {
        Spec {
            qubits,
            ..self.clone()
        }
    }

    fn target(&self) -> PiecewiseHamiltonian {
        let (n, j, h) = (self.qubits, self.j, self.h);
        let constant = |hamiltonian: Hamiltonian| PiecewiseHamiltonian::constant(hamiltonian, 1.0);
        match self.family {
            Family::IsingChain => constant(ising_chain(n, j, h)),
            Family::IsingCycle => constant(ising_cycle(n, j, h)),
            Family::IsingCyclePlus => constant(ising_cycle_plus(n, j, h)),
            Family::HeisenbergChain => constant(heisenberg_chain(n, j, h)),
            Family::Kitaev => constant(kitaev(n, 2.0 * j, h, 0.5 * h)),
            Family::MisRamp => mis_chain(n, j, h, j, RAMP_TIME, self.segments),
        }
    }

    fn device(&self) -> Aais {
        match self.machine {
            Machine::Rydberg if self.family.cyclic() => rydberg_aais(
                self.qubits,
                &RydbergOptions {
                    layout: Layout::Ring { spacing: 8.0 },
                    ..RydbergOptions::default()
                },
            ),
            Machine::Rydberg => rydberg_aais(self.qubits, &RydbergOptions::default()),
            Machine::Heisenberg if self.family.cyclic() => {
                heisenberg_aais(self.qubits, &HeisenbergOptions::with_cycle_connectivity())
            }
            Machine::Heisenberg => heisenberg_aais(self.qubits, &HeisenbergOptions::default()),
        }
    }
}

/// Draws `(J, h)` around the stratum's design point.
fn draw_couplings(rng: &mut Rng, stratum: Stratum) -> (f64, f64) {
    let (j, h) = stratum.design();
    let mut jitter = || rng.next_range(1.0 - JITTER, 1.0 + JITTER);
    (j * jitter(), h * jitter())
}

fn spec(rng: &mut Rng, family: Family, machine: Machine, qubits: usize, stratum: Stratum) -> Spec {
    let (j, h) = draw_couplings(rng, stratum);
    Spec {
        family,
        machine,
        qubits,
        j,
        h,
        segments: 1,
    }
}

fn ramp(rng: &mut Rng, qubits: usize, segments: (usize, usize)) -> Spec {
    let mut spec = spec(
        rng,
        Family::MisRamp,
        Machine::Rydberg,
        qubits,
        Stratum::Even,
    );
    spec.segments = segments.0 + rng.next_usize(segments.1 - segments.0 + 1);
    spec
}

/// The workload's slots in design order, with their seeded draws.
fn design(workload: Workload, rng: &mut Rng) -> Vec<Spec> {
    let both = [Stratum::Below, Stratum::Above];
    let mut specs = Vec::new();
    match workload {
        // Sizes straddle the ring error cliff between n = 21 and 24 and
        // climb to 48, where the runtime-fixed position solve dominates.
        // The six n = 48 rings hold the tail (ten samples beyond it)
        // whenever two passes fit.
        Workload::RydbergCompile => {
            use Stratum::{Above as A, Below as B, Even as E};
            let ladder: [(Family, usize, &[Stratum]); 7] = [
                (Family::IsingCycle, 20, &[B, A]),
                (Family::IsingCycle, 24, &[E]),
                (Family::IsingCyclePlus, 24, &[E]),
                (Family::IsingChain, 24, &[B]),
                (Family::IsingChain, 48, &[E]),
                (Family::IsingCycle, 32, &[B, A]),
                (Family::IsingCycle, 48, &[B, E, A]),
            ];
            for (family, n, strata) in ladder {
                for &stratum in strata {
                    specs.push(spec(rng, family, Machine::Rydberg, n, stratum));
                }
            }
            for &stratum in &[B, E, A] {
                specs.push(spec(
                    rng,
                    Family::IsingCyclePlus,
                    Machine::Rydberg,
                    48,
                    stratum,
                ));
            }
        }
        // Nine of the fifteen compiles are at n = 128, so the latency tail
        // falls inside that cluster, not in the gap between the two sizes.
        Workload::HeisenbergCompile => {
            let sizes: [(usize, &[Stratum]); 2] = [
                (64, &both),
                (128, &[Stratum::Below, Stratum::Even, Stratum::Above]),
            ];
            for (n, strata) in sizes {
                for family in [Family::Kitaev, Family::HeisenbergChain, Family::IsingCycle] {
                    for &stratum in strata {
                        specs.push(spec(rng, family, Machine::Heisenberg, n, stratum));
                    }
                }
            }
        }
        // Registers on both sides of the 2^14-amplitude worker-pool
        // threshold; ramps with more segments on the smaller registers.
        Workload::EmulatePulse => {
            let families = [Family::IsingChain, Family::HeisenbergChain, Family::Kitaev];
            for (slot, &n) in [12, 14, 16].iter().enumerate() {
                for (index, family) in families.into_iter().enumerate() {
                    let stratum = both[(slot + index) % 2];
                    specs.push(spec(rng, family, Machine::Heisenberg, n, stratum));
                }
            }
            specs.push(ramp(rng, 12, (28, 32)));
            specs.push(ramp(rng, 14, (18, 22)));
            specs.push(ramp(rng, 16, (8, 12)));
        }
        // Two registers below the 2^14-amplitude worker-pool threshold and
        // one on it: a small register alone swings by up to 2x with the
        // host's load, the pooled one much less.
        Workload::NoiseSweep => {
            for (qubits, _) in SWEEPS {
                specs.push(ramp(rng, qubits, (SWEEP_SEGMENTS, SWEEP_SEGMENTS)));
            }
        }
    }
    specs
}

/// Default evolution options with the program's own tracing off, so the
/// traced and untraced benchmark runs execute the same program code.
pub fn evolve_options() -> EvolveOptions {
    EvolveOptions::default().with_telemetry(false)
}

/// `⟨Z⟩` and `⟨ZZ⟩` averages of a state.
#[derive(Debug, Clone, Copy)]
pub struct Observables {
    z: f64,
    zz: f64,
}

impl Observables {
    fn error(&self, other: &Observables) -> f64 {
        (self.z - other.z).abs() + (self.zz - other.zz).abs()
    }
}

/// A program input with its model built.
pub struct Instance {
    /// Human-readable description of the drawn input.
    pub label: String,
    spec: Spec,
    target: PiecewiseHamiltonian,
    device: usize,
}

impl Instance {
    /// Qubits of the program's register.
    pub fn qubits(&self) -> usize {
        self.spec.qubits
    }
}

/// The compiled pulse a `noise_sweep` program runs, and how many
/// realizations it sweeps.
pub struct Sweep {
    schedule: CompiledSchedule,
    realizations: usize,
    device: EmulatedDevice,
    block_device: EmulatedDevice,
    pulse_us: f64,
    relative_error: f64,
}

/// Everything built before the first timed program.
pub struct Setup {
    devices: Vec<Aais>,
    /// Program inputs in run order.
    pub instances: Vec<Instance>,
    ideal: Vec<Observables>,
    /// One per input on `noise_sweep`, none elsewhere.
    sweeps: Vec<Sweep>,
}

/// The seeded program inputs of one run, before set-up builds them.
pub struct Inputs {
    workload: Workload,
    /// Drawn inputs in design order, which is also the run order: a fixed
    /// order keeps the allocation pattern, and so `peak_rss_mb`, the same
    /// from seed to seed.
    specs: Vec<Spec>,
    noise_seed: u64,
}

/// Draws the run's inputs from `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::seed_from_pair(seed, workload.stream());
    let specs = design(workload, &mut rng);
    Inputs {
        workload,
        specs,
        noise_seed: rng.next_u64(),
    }
}

fn ideal_observables(target: &PiecewiseHamiltonian, cyclic: bool) -> Result<Observables, String> {
    let segments: Vec<(Hamiltonian, f64)> = target
        .segments()
        .iter()
        .map(|s| (s.hamiltonian.clone(), s.duration))
        .collect();
    let mut state = StateVector::zero_state(target.num_qubits());
    Propagator::with_options(evolve_options())
        .try_evolve_piecewise_in_place(&segments, &mut state)
        .map_err(|e| format!("ideal reference evolution: {e}"))?;
    Ok(measure(&state, cyclic))
}

fn measure(state: &StateVector, cyclic: bool) -> Observables {
    Observables {
        z: z_average(state),
        zz: zz_average(state, cyclic),
    }
}

/// Builds the devices, targets and ideal reference states, compiles the
/// noise sweep's pulses, and runs one untimed warm-up program.
///
/// # Errors
///
/// Any typed error of the layers, rendered.
pub fn setup(inputs: &Inputs, tracer: &mut Tracer) -> Result<Setup, String> {
    tracer.begin("bench.setup");
    let result = build_setup(inputs, tracer);
    tracer.end();
    result
}

fn build_setup(inputs: &Inputs, tracer: &mut Tracer) -> Result<Setup, String> {
    let workload = inputs.workload;
    let (devices, device_of) = tracer.span("aais.device_build", || {
        let mut keys: Vec<(Machine, bool, usize)> = Vec::new();
        let mut devices = Vec::new();
        let mut device_of = Vec::new();
        for spec in &inputs.specs {
            let key = (spec.machine, spec.family.cyclic(), spec.qubits);
            let index = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                devices.push(spec.device());
                devices.len() - 1
            });
            device_of.push(index);
        }
        (devices, device_of)
    });
    let instances: Vec<Instance> = tracer.span("hamiltonian.models.build", || {
        inputs
            .specs
            .iter()
            .zip(device_of)
            .map(|(spec, device)| Instance {
                label: spec.label(),
                spec: spec.clone(),
                target: spec.target(),
                device,
            })
            .collect()
    });
    let ideal = tracer.span("bench.reference.ideal", || {
        if workload.compiles_only() {
            return Ok(Vec::new());
        }
        instances
            .iter()
            .map(|i| ideal_observables(&i.target, i.spec.family.cyclic()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut sweeps = Vec::new();
    if workload == Workload::NoiseSweep {
        for (instance, (_, realizations)) in instances.iter().zip(SWEEPS) {
            let aais = &devices[instance.device];
            let compiled = compile(&instance.target, aais)?;
            let lowered = compiled
                .try_lower(aais)
                .map_err(|e| format!("lower: {e}"))?;
            let schedule = CompiledSchedule::compile_piecewise(lowered.piecewise());
            check_one_layout(&schedule)?;
            let device = EmulatedDevice::new(NoiseModel::aquila_like(), inputs.noise_seed)
                .with_options(evolve_options());
            let block_device = device
                .clone()
                .with_options(evolve_options().with_realization_block(true));
            sweeps.push(Sweep {
                schedule,
                realizations,
                device,
                block_device,
                pulse_us: compiled.execution_time,
                relative_error: compiled.relative_error(),
            });
        }
    }
    let setup = Setup {
        devices,
        instances,
        ideal,
        sweeps,
    };
    // Warm-up, untraced: the first input of the smallest register, so every
    // seed warms up on the same kind of input.
    let warm = (0..setup.instances.len())
        .min_by_key(|&i| setup.instances[i].qubits())
        .unwrap_or(0);
    run_program(workload, &setup, warm, &mut Tracer::new(false))?;
    Ok(setup)
}

/// What one program produced.
pub struct Output {
    /// Every output number (pulse values, observables); compared bitwise
    /// between repeats, and through the run's digest between traced and
    /// untraced runs.
    pub values: Vec<f64>,
    /// Machine execution time of the compiled pulse (µs).
    pub pulse_us: f64,
    /// `CompilationResult::relative_error()` of the compiled pulse.
    pub relative_error: f64,
    /// `|Δ⟨Z⟩| + |Δ⟨ZZ⟩|` against the ideal target evolution, when emulated.
    pub observable_error: Option<f64>,
    compiled: Option<CompilationResult>,
    device_runs: Vec<DeviceRun>,
}

impl Output {
    /// Whether two outputs are bitwise identical.
    pub fn same_bits(&self, other: &Output) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

fn compile(target: &PiecewiseHamiltonian, aais: &Aais) -> Result<CompilationResult, String> {
    QTurboCompiler::new()
        .compile_piecewise(target, aais)
        .map_err(|e| format!("compile: {e}"))
}

fn pulse_values(compiled: &CompilationResult) -> Vec<f64> {
    let mut values = vec![
        compiled.execution_time,
        compiled.absolute_error,
        compiled.target_norm,
    ];
    for segment in compiled.schedule.segments() {
        values.push(segment.duration());
        values.extend_from_slice(segment.values());
    }
    values
}

fn check_one_layout(schedule: &CompiledSchedule) -> Result<(), String> {
    match schedule.num_layouts() {
        1 => Ok(()),
        layouts => Err(format!(
            "lowered schedule mask-compiled to {layouts} layouts, expected 1"
        )),
    }
}

fn traced_compile(
    target: &PiecewiseHamiltonian,
    aais: &Aais,
    tracer: &mut Tracer,
) -> Result<CompilationResult, String> {
    let compiled = tracer.span("core.compiler.compile", || compile(target, aais))?;
    let stats = &compiled.stats;
    tracer.count(
        "core.compiler.synthesized_variables",
        stats.num_synthesized_variables as f64,
    );
    tracer.count(
        "core.compiler.local_systems",
        stats.num_local_systems as f64,
    );
    tracer.count("core.compiler.segments", stats.num_segments as f64);
    tracer.count(
        "core.compiler.relaxation_steps",
        stats.relaxation_steps as f64,
    );
    tracer.count(
        "core.compiler.refinement_improved",
        f64::from(u8::from(stats.refinement_improved)),
    );
    Ok(compiled)
}

/// Lowers, mask-compiles, evolves from `|0…0⟩` and measures one compiled
/// pulse; returns the final state's observables.
fn emulate(
    compiled: &CompilationResult,
    aais: &Aais,
    cyclic: bool,
    tracer: &mut Tracer,
) -> Result<(Observables, StateVector, CompiledSchedule), String> {
    let lowered = tracer
        .span("aais.lowering.lower", || compiled.try_lower(aais))
        .map_err(|e| format!("lower: {e}"))?;
    tracer.count("aais.lowering.padded_terms", lowered.padded_terms() as f64);
    tracer.count(
        "aais.lowering.raw_structure_runs",
        lowered.raw_structure_runs() as f64,
    );
    let schedule = tracer.span("quantum.schedule.compile", || {
        CompiledSchedule::compile_piecewise(lowered.piecewise())
    });
    tracer.count("quantum.schedule.layouts", schedule.num_layouts() as f64);
    check_one_layout(&schedule)?;
    let mut propagator = Propagator::with_options(evolve_options());
    let mut state = StateVector::zero_state(lowered.num_qubits());
    tracer
        .span("quantum.propagate.evolve", || {
            propagator.try_evolve_schedule_in_place(&schedule, &mut state)
        })
        .map_err(|e| format!("evolve: {e}"))?;
    let passes = propagator.state_passes() as f64;
    tracer.count(
        "quantum.propagate.kernel_applications",
        propagator.kernel_applications() as f64,
    );
    tracer.count("quantum.propagate.state_passes", passes);
    tracer.count(
        "quantum.propagate.recoveries",
        propagator.recovery_log().len() as f64,
    );
    tracer.count(
        "quantum.propagate.computed_bytes",
        passes * state.dim() as f64 * 16.0,
    );
    let observables = tracer.span("quantum.observable.measure", || measure(&state, cyclic));
    Ok((observables, state, schedule))
}

/// Runs program `index` of the set-up: the timed unit of the workload.
///
/// # Errors
///
/// A rendered typed error of any layer, or a failed output check.
pub fn run_program(
    workload: Workload,
    setup: &Setup,
    index: usize,
    tracer: &mut Tracer,
) -> Result<Output, String> {
    let instance = &setup.instances[index];
    let aais = &setup.devices[instance.device];
    match workload {
        Workload::RydbergCompile | Workload::HeisenbergCompile => {
            let compiled = traced_compile(&instance.target, aais, tracer)?;
            if !(compiled.relative_error().is_finite()
                && compiled.execution_time > 0.0
                && compiled.execution_time <= aais.max_evolution_time())
            {
                return Err(format!(
                    "compiled pulse out of range: error {}, duration {}",
                    compiled.relative_error(),
                    compiled.execution_time
                ));
            }
            Ok(Output {
                values: pulse_values(&compiled),
                pulse_us: compiled.execution_time,
                relative_error: compiled.relative_error(),
                observable_error: None,
                compiled: Some(compiled),
                device_runs: Vec::new(),
            })
        }
        Workload::EmulatePulse => {
            let compiled = traced_compile(&instance.target, aais, tracer)?;
            let (observables, _, _) =
                emulate(&compiled, aais, instance.spec.family.cyclic(), tracer)?;
            let mut values = pulse_values(&compiled);
            values.extend([observables.z, observables.zz]);
            Ok(Output {
                values,
                pulse_us: compiled.execution_time,
                relative_error: compiled.relative_error(),
                observable_error: Some(observables.error(&setup.ideal[index])),
                compiled: None,
                device_runs: Vec::new(),
            })
        }
        Workload::NoiseSweep => {
            let sweep = setup
                .sweeps
                .get(index)
                .ok_or("noise sweep was not set up")?;
            let runs = tracer
                .span("quantum.device.sweep", || {
                    sweep.device.try_run_compiled(
                        &sweep.schedule,
                        instance.qubits(),
                        false,
                        sweep.realizations,
                    )
                })
                .map_err(|e| format!("device sweep: {e}"))?;
            tracer.count("quantum.device.realizations", runs.len() as f64);
            tracer.count(
                "quantum.device.recoveries",
                runs.iter().map(|r| r.recoveries.len()).sum::<usize>() as f64,
            );
            let mean =
                |f: fn(&DeviceRun) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
            let observed = Observables {
                z: mean(DeviceRun::z_average),
                zz: mean(DeviceRun::zz_average),
            };
            let values = runs
                .iter()
                .flat_map(|r| r.z.iter().chain(&r.zz))
                .copied()
                .collect();
            Ok(Output {
                values,
                pulse_us: sweep.pulse_us,
                relative_error: sweep.relative_error,
                observable_error: Some(observed.error(&setup.ideal[index])),
                compiled: None,
                device_runs: runs,
            })
        }
    }
}

/// Traced-run-only work after a program: the core stage replay on compile
/// workloads and the realization-block sweep on `noise_sweep`. Their spans
/// carry the program's id but sit outside its `bench.program` span.
///
/// # Errors
///
/// A replay that diverges from the compile, or a block sweep that fails or
/// disagrees with the default sweep beyond 1e-10.
pub fn run_traced_extras(
    workload: Workload,
    setup: &Setup,
    index: usize,
    output: &Output,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let instance = &setup.instances[index];
    if let Some(compiled) = &output.compiled {
        let segment = &instance.target.segments()[0];
        replay::replay(
            tracer,
            &setup.devices[instance.device],
            &segment.hamiltonian,
            segment.duration,
            compiled,
        )
        .map_err(|e| format!("core stage replay: {e}"))?;
    }
    if workload == Workload::NoiseSweep {
        let sweep = setup
            .sweeps
            .get(index)
            .ok_or("noise sweep was not set up")?;
        let block = tracer
            .span("quantum.device.block_sweep", || {
                sweep.block_device.try_run_compiled(
                    &sweep.schedule,
                    instance.qubits(),
                    false,
                    sweep.realizations,
                )
            })
            .map_err(|e| format!("block sweep: {e}"))?;
        let deviation = max_deviation(&output.device_runs, &block);
        if deviation > AGREEMENT {
            return Err(format!(
                "block sweep deviates from the default sweep by {deviation:e}"
            ));
        }
    }
    Ok(())
}

fn max_deviation(a: &[DeviceRun], b: &[DeviceRun]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
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

/// One post-window correctness check: its description and its outcome.
pub type Check = (String, Result<(), String>);

/// The workload-specific checks that run after the timed window:
///
/// * `emulate_pulse`: every slot's model family rebuilt at
///   [`NAIVE_CHECK_QUBITS`] qubits with the same couplings, compiled,
///   lowered and evolved on the fast path, must match `evolve_naive` on the
///   lowered segments to 1e-10 infidelity;
/// * `noise_sweep`: the first sweep must repeat bitwise, and the noiseless
///   version of every sweep must match `evolve_schedule` to 1e-10.
pub fn checks(workload: Workload, setup: &Setup, first: &Output) -> Vec<Check> {
    match workload {
        Workload::EmulatePulse => setup
            .instances
            .iter()
            .map(|instance| {
                let twin = instance.spec.with_qubits(NAIVE_CHECK_QUBITS);
                (
                    format!("fast path vs naive on {}", twin.label()),
                    naive_check(&twin),
                )
            })
            .collect(),
        Workload::NoiseSweep => {
            let repeat =
                run_program(workload, setup, 0, &mut Tracer::new(false)).and_then(|again| {
                    if again.same_bits(first) {
                        Ok(())
                    } else {
                        Err("a repeated sweep with the same seed differs".to_string())
                    }
                });
            let mut checks = vec![("noise sweep repeats bitwise".to_string(), repeat)];
            checks.extend(setup.instances.iter().enumerate().map(|(index, instance)| {
                (
                    format!("noiseless sweep vs evolve_schedule on {}", instance.label),
                    noiseless_check(setup, index),
                )
            }));
            checks
        }
        Workload::RydbergCompile | Workload::HeisenbergCompile => Vec::new(),
    }
}

fn naive_check(spec: &Spec) -> Result<(), String> {
    let aais = spec.device();
    let compiled = compile(&spec.target(), &aais)?;
    let (_, fast, _) = emulate(
        &compiled,
        &aais,
        spec.family.cyclic(),
        &mut Tracer::new(false),
    )?;
    let lowered = compiled
        .try_lower(&aais)
        .map_err(|e| format!("lower: {e}"))?;
    let mut naive = StateVector::zero_state(spec.qubits);
    for (hamiltonian, duration) in lowered.hamiltonian_segments() {
        naive = evolve_naive(&naive, &hamiltonian, duration);
    }
    let infidelity = 1.0 - fast.fidelity(&naive);
    if infidelity.abs() <= AGREEMENT {
        Ok(())
    } else {
        Err(format!("infidelity {infidelity:e} against evolve_naive"))
    }
}

fn noiseless_check(setup: &Setup, index: usize) -> Result<(), String> {
    let sweep = setup
        .sweeps
        .get(index)
        .ok_or("noise sweep was not set up")?;
    let qubits = setup.instances[index].qubits();
    let runs = EmulatedDevice::new(NoiseModel::noiseless(), 0)
        .with_options(evolve_options())
        .try_run_compiled(&sweep.schedule, qubits, false, 1)
        .map_err(|e| format!("noiseless sweep: {e}"))?;
    let state = evolve_schedule(&StateVector::zero_state(qubits), &sweep.schedule);
    let reference = measure(&state, false);
    let run = runs.first().ok_or("noiseless sweep returned no run")?;
    let deviation = (run.z_average() - reference.z).abs() + (run.zz_average() - reference.zz).abs();
    if deviation <= AGREEMENT {
        Ok(())
    } else {
        Err(format!(
            "noiseless sweep deviates from evolve_schedule by {deviation:e}"
        ))
    }
}
