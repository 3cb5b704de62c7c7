//! End-to-end benchmark of the QTurbo reproduction: program → pulse →
//! observable.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rydberg_compile|heisenberg_compile|emulate_pulse|noise_sweep> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One client in one process runs one program at a time (a closed loop),
//! in passes over the seeded inputs of the chosen workload, until the pass
//! that ends after `--seconds` seconds; every input thus runs equally often,
//! so the latency mix does not depend on where the window cut. After the
//! timed window it runs the correctness checks. It prints the host context,
//! a digest of the first pass's outputs and every metric by name and unit,
//! then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; it exits non-zero when
//! any program or check failed.
//!
//! With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
//! spans are recorded around every call into a layer, the compile
//! workloads also replay the compiler's stages (see `replay.rs`) and
//! `noise_sweep` also runs the realization-block sweep; the metrics are then
//! per-layer self times and counts per program, and the spans are written
//! to `perfbench/out/trace-<workload>-seed<n>.jsonl`. The traced run also
//! starts the same binary untraced on the same seed, for one pass, and
//! requires its output digest to equal its own.

mod replay;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Output, Workload};

/// Set-ups per run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Set-up time after which no further set-up starts once
/// [`SETUP_REPEATS`] are done; cheap set-ups repeat more, so their median
/// is steadier.
const SETUP_SECONDS: f64 = 1.0;
/// Samples that must lie beyond the reported tail latency.
const TAIL_SAMPLES: usize = 10;
/// Relative errors below this are rounding in the solvers, not compile
/// error: the Heisenberg-device compiles are exact and land anywhere between
/// 0 and 1e-10 depending on the last bits of the couplings. They count at
/// this floor, so `relative_error_pct` moves with accuracy, not rounding.
const RELATIVE_ERROR_FLOOR: f64 = 1e-9;

const USAGE: &str = "usage: qturbo-perfbench --workload <rydberg_compile|heisenberg_compile|emulate_pulse|noise_sweep> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Geometric mean of positive values: every value weighs the same in
/// relative terms, so a cheap input moves it as much as a dear one.
fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Share of samples [`trimmed_mean`] drops at each end.
const TRIM: f64 = 0.1;

/// Mean of the values left after dropping the [`TRIM`] share of the lowest
/// and of the highest (none when there are fewer than ten). The host's
/// speed switches between levels up to 2x apart for seconds to minutes; a
/// median snaps to whichever level held most of the window, a mean moves
/// in proportion to the time spent at each, and the trim drops single
/// stalls.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (TRIM * sorted.len() as f64) as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile with at least [`TAIL_SAMPLES`] samples beyond it:
/// `(percentile, value, samples beyond)`. With too few samples it falls back
/// to the maximum and says how many lie beyond (none).
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (100.0, 0.0, 0);
    }
    let index = n.saturating_sub(TAIL_SAMPLES + 1);
    (
        100.0 * (index + 1) as f64 / n as f64,
        sorted[index],
        n - 1 - index,
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB; read when the
/// timed window closes, so it covers set-up and the programs but not the
/// checks that follow.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of the host speed probe's loop (about 20 ms on a 2 GHz core).
const PROBE_ITERATIONS: u64 = 10_000_000;
/// Slots of the memory probe's pointer chase (32 MB of `u32`).
const PROBE_SLOTS: usize = 1 << 23;
/// Dependent loads per memory probe timing.
const PROBE_LOADS: usize = 1 << 19;

/// Host speed probe: the median of five timings of a fixed single-threaded
/// integer loop. Shared hosts change speed from minute to minute; printed
/// next to the metrics, the probes tell host drift from a program change.
fn host_probe_s() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..std::hint::black_box(PROBE_ITERATIONS) {
                x = (x ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(5);
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Host memory probe: the median of three timings of a pointer chase
/// through one random cycle over [`PROBE_SLOTS`] slots. The 32 MB working
/// set makes almost every load miss the private caches, so the probe reads
/// the shared cache and memory that neighbours on a shared host contend
/// for. It allocates 32 MB, so it runs only after the peak resident memory
/// has been read.
fn host_memory_probe_s() -> f64 {
    // Sattolo's shuffle gives a single cycle through every slot.
    let mut next: Vec<u32> = (0..PROBE_SLOTS as u32).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..PROBE_SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut at = 0u32;
            for _ in 0..PROBE_LOADS {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Prefix of the line that carries the output digest.
const DIGEST_PREFIX: &str = "# digest ";

/// FNV-1a hash of the bits of every output number of the first pass, in
/// input order, as 16 hex digits.
fn digest(first: &[Option<Output>]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for output in first.iter().flatten() {
        for value in &output.values {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

/// Runs this binary untraced on the same workload and seed for one pass
/// (the shortest window) and returns the output digest it prints.
fn untraced_digest(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--seconds", "1e-9", "--trace", "0"])
        .output()
        .map_err(|e| format!("could not run the untraced process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the untraced process failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|line| line.strip_prefix(DIGEST_PREFIX))
        .map(str::to_string)
        .ok_or_else(|| "the untraced process printed no digest".to_string())
}

/// The git revision of the working directory, when it is a git checkout.
fn revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

fn host_context(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let options = workloads::evolve_options();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"worker_threads\":{},\"lane_width\":{},\"profile\":\"{}\",\"revision\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        options.execution.resolved_threads(),
        qturbo_quantum::exec::LANE_WIDTH,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        revision(),
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Failure bookkeeping shared by the timed window and the checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failures.push(format!("{what}: {error}"));
        }
    }
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    for failure in &tally.failures {
        println!("FAILED {failure}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted.max(1),
        tally.failures.len(),
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_context(&args);
    println!("# host {host}");
    let probe_before = host_probe_s();
    let workload = args.workload;
    let inputs = workloads::inputs(workload, args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();

    // -- Set-up, repeated; the last one is used. -------------------------
    let mut setup_seconds = Vec::new();
    let mut setup = None;
    let setups = Instant::now();
    while setup_seconds.len() < SETUP_REPEATS || setups.elapsed().as_secs_f64() < SETUP_SECONDS {
        let started = Instant::now();
        match workloads::setup(&inputs, &mut tracer) {
            Ok(built) => setup = Some(built),
            Err(error) => {
                tally.record("setup", Err(error));
                break;
            }
        }
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let Some(setup) = setup.filter(|_| tally.failures.is_empty()) else {
        print_result(&tally, &[]);
        return ExitCode::FAILURE;
    };
    let inputs_per_pass = setup.instances.len();

    // -- Timed window: closed loop, one program at a time. ---------------
    let mut latencies = Vec::new();
    let mut first: Vec<Option<Output>> = (0..inputs_per_pass).map(|_| None).collect();
    let mut completed = 0usize;
    let budget = Duration::from_secs_f64(args.seconds);
    let window = Instant::now();
    let mut program = 0usize;
    // Whole passes over the inputs, until the pass that ends after the budget.
    while program == 0 || window.elapsed() < budget {
        for (index, instance) in setup.instances.iter().enumerate() {
            tracer.set_program(program as u64);
            tracer.begin("bench.program");
            let started = Instant::now();
            let result = workloads::run_program(workload, &setup, index, &mut tracer);
            latencies.push(started.elapsed().as_secs_f64());
            tracer.end();
            let outcome = result.and_then(|output| {
                if args.trace {
                    workloads::run_traced_extras(workload, &setup, index, &output, &mut tracer)?;
                }
                match &first[index] {
                    Some(earlier) if !earlier.same_bits(&output) => {
                        Err("a repeat of this input gave different output bits".to_string())
                    }
                    Some(_) => Ok(()),
                    None => {
                        first[index] = Some(output);
                        Ok(())
                    }
                }
            });
            completed += usize::from(outcome.is_ok());
            tally.record(&format!("program {program} ({})", instance.label), outcome);
            program += 1;
        }
    }
    let wall = window.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    println!(
        "# host_probe_s before={probe_before:.6} after={:.6} memory={:.6} (fixed integer loop and pointer chase; context, not metrics)",
        host_probe_s(),
        host_memory_probe_s()
    );

    // -- Correctness checks after the window. ----------------------------
    let digest = digest(&first);
    println!("{DIGEST_PREFIX}{digest}");
    if args.trace {
        tally.record(
            "traced vs untraced process",
            untraced_digest(&args).and_then(|untraced| {
                if untraced == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "untraced outputs have digest {untraced}, traced {digest}"
                    ))
                }
            }),
        );
    }
    if let Some(reference) = first.iter().flatten().next() {
        for (what, result) in workloads::checks(workload, &setup, reference) {
            tally.record(&what, result);
        }
    }

    // Each input's trimmed mean latency over its repeats.
    let input_latencies: Vec<f64> = (0..inputs_per_pass)
        .map(|index| {
            let own: Vec<f64> = latencies
                .iter()
                .skip(index)
                .step_by(inputs_per_pass)
                .copied()
                .collect();
            trimmed_mean(&own)
        })
        .collect();
    for ((instance, output), latency) in setup.instances.iter().zip(&first).zip(&input_latencies) {
        if let Some(output) = output {
            let observable = output
                .observable_error
                .map_or(String::new(), |e| format!(" observable_error={e:.3e}"));
            println!(
                "# input {}: latency_s={latency:.4} pulse_us={:.4} relative_error_pct={:.4}{observable}",
                instance.label,
                output.pulse_us,
                100.0 * output.relative_error
            );
        }
    }

    // -- Metrics. ---------------------------------------------------------
    let outputs: Vec<&Output> = first.iter().flatten().collect();
    let pulse_us = mean(&outputs.iter().map(|o| o.pulse_us).collect::<Vec<_>>());
    let relative_errors: Vec<f64> = outputs
        .iter()
        .map(|o| o.relative_error.max(RELATIVE_ERROR_FLOOR))
        .collect();
    let relative_error_pct = 100.0 * mean(&relative_errors);
    let observable_errors: Vec<f64> = outputs.iter().filter_map(|o| o.observable_error).collect();
    let failed_frac = tally.failures.len() as f64 / tally.attempted.max(1) as f64;

    let metrics = if args.trace {
        // Tracing adds its span bookkeeping to every program.
        let spans_per_program = tracer.program_spans() as f64 / program.max(1) as f64;
        let overhead = spans_per_program * Tracer::span_cost_s() / mean(&latencies).max(1e-12);
        per_layer_metrics(
            &tracer,
            program,
            setup_seconds.len(),
            overhead,
            mean(&observable_errors),
        )
    } else {
        let (percentile, tail_s, beyond) = tail(&latencies);
        println!(
            "# {} programs in {wall:.3} s ({} inputs per pass); latency_tail_s is p{percentile:.1} with {beyond} samples beyond",
            latencies.len(),
            inputs_per_pass
        );
        if observable_errors.is_empty() {
            println!("# observable_error = n/a (no emulation in this workload)");
        } else {
            println!(
                "# observable_error = {} (|dZ|+|dZZ|)",
                mean(&observable_errors)
            );
        }
        println!("# failed_frac = {failed_frac} fraction");
        vec![
            metric("setup_s", median(&setup_seconds), "s"),
            metric("latency_s", geometric_mean(&input_latencies), "s"),
            metric("latency_tail_s", tail_s, "s"),
            metric("programs_per_s", completed as f64 / wall, "1/s"),
            metric("pulse_us", pulse_us, "us"),
            metric("relative_error_pct", relative_error_pct, "%"),
            metric("success_frac", 1.0 - failed_frac, "fraction"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path, &host) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(error) => eprintln!("could not write {}: {error}", path.display()),
        }
    }
    print_result(&tally, &metrics);
    if tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics of the traced run: self time per program of each
/// layer's spans, counts per program, set-up layers per set-up, and the
/// share of the compile time the core stage replay accounts for.
fn per_layer_metrics(
    tracer: &Tracer,
    programs: usize,
    setups: usize,
    overhead: f64,
    observable_error: f64,
) -> Vec<Metric> {
    let programs = programs.max(1) as f64;
    let own = tracer.self_seconds(false);
    let setup = tracer.self_seconds(true);
    let counts = tracer.counts();
    let per_program = |name: &str| own.get(name).copied().unwrap_or(0.0) / programs;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0) / programs;
    let per_setup = |name: &str| setup.get(name).copied().unwrap_or(0.0) / setups.max(1) as f64;
    let compile_s = per_program("core.compiler.compile");
    let replayed_s: f64 = replay::STAGES.iter().map(|s| per_program(s)).sum();
    let coverage = if compile_s > 0.0 {
        replayed_s / compile_s
    } else {
        0.0
    };
    vec![
        metric("core.compiler.compile_s", compile_s, "s/program"),
        metric(
            "core.components.partition_s",
            per_program("core.components.partition"),
            "s/program",
        ),
        metric(
            "core.linear_system.build_solve_s",
            per_program("core.linear_system.build_solve"),
            "s/program",
        ),
        metric(
            "core.local_system.timing_s",
            per_program("core.local_system.timing"),
            "s/program",
        ),
        metric(
            "core.local_system.fixed_solve_s",
            per_program("core.local_system.fixed_solve"),
            "s/program",
        ),
        metric(
            "core.local_system.dynamic_solve_s",
            per_program("core.local_system.dynamic_solve"),
            "s/program",
        ),
        metric(
            "core.refine.refine_s",
            per_program("core.refine.refine"),
            "s/program",
        ),
        metric("core.replay_coverage", coverage, "fraction"),
        metric(
            "core.compiler.synthesized_variables",
            count("core.compiler.synthesized_variables"),
            "count/program",
        ),
        metric(
            "core.compiler.local_systems",
            count("core.compiler.local_systems"),
            "count/program",
        ),
        metric(
            "core.compiler.segments",
            count("core.compiler.segments"),
            "count/program",
        ),
        metric(
            "core.compiler.relaxation_steps",
            count("core.compiler.relaxation_steps"),
            "count/program",
        ),
        metric(
            "core.compiler.refinement_improved",
            count("core.compiler.refinement_improved"),
            "count/program",
        ),
        metric(
            "core.components.fixed_variables",
            count("core.components.fixed_variables"),
            "count/program",
        ),
        metric(
            "aais.device_build_s",
            per_setup("aais.device_build"),
            "s/setup",
        ),
        metric(
            "aais.lowering.lower_s",
            per_program("aais.lowering.lower"),
            "s/program",
        ),
        metric(
            "aais.lowering.padded_terms",
            count("aais.lowering.padded_terms"),
            "count/program",
        ),
        metric(
            "aais.lowering.raw_structure_runs",
            count("aais.lowering.raw_structure_runs"),
            "count/program",
        ),
        metric(
            "quantum.schedule.compile_s",
            per_program("quantum.schedule.compile"),
            "s/program",
        ),
        metric(
            "quantum.schedule.layouts",
            count("quantum.schedule.layouts"),
            "count/program",
        ),
        metric(
            "quantum.propagate.evolve_s",
            per_program("quantum.propagate.evolve"),
            "s/program",
        ),
        metric(
            "quantum.propagate.kernel_applications",
            count("quantum.propagate.kernel_applications"),
            "count/program",
        ),
        metric(
            "quantum.propagate.state_passes",
            count("quantum.propagate.state_passes"),
            "count/program",
        ),
        metric(
            "quantum.propagate.recoveries",
            count("quantum.propagate.recoveries"),
            "count/program",
        ),
        metric(
            "quantum.propagate.computed_bytes",
            count("quantum.propagate.computed_bytes"),
            "B/program",
        ),
        metric(
            "quantum.observable.measure_s",
            per_program("quantum.observable.measure"),
            "s/program",
        ),
        metric(
            "quantum.device.sweep_s",
            per_program("quantum.device.sweep"),
            "s/program",
        ),
        metric(
            "quantum.device.realizations",
            count("quantum.device.realizations"),
            "count/program",
        ),
        metric(
            "quantum.device.recoveries",
            count("quantum.device.recoveries"),
            "count/program",
        ),
        metric(
            "quantum.device.block_sweep_s",
            per_program("quantum.device.block_sweep"),
            "s/program",
        ),
        metric(
            "bench.reference.ideal_s",
            per_setup("bench.reference.ideal"),
            "s/setup",
        ),
        metric("bench.observable_error", observable_error, "abs"),
        metric("bench.trace_overhead_frac", overhead, "fraction"),
    ]
}
