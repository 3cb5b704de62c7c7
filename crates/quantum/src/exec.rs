//! The execution layer behind every kernel application: a shared
//! [`ExecutionContext`], a persistent worker pool, portable SIMD lane
//! types, and the instrumented pass counters used by the steppers.
//!
//! # Why a separate layer
//!
//! Before this module existed, `compiled.rs` spawned fresh threads with
//! `std::thread::scope` on **every** `H|ψ⟩` and hardcoded both the parallel
//! threshold and the worker count. The execution layer centralizes those
//! decisions:
//!
//! * [`ExecutionContext`] — a small `Copy` value describing *how* kernels
//!   run: worker count ([`ExecutionContext::with_threads`] or the
//!   `QTURBO_THREADS` environment variable), the parallel threshold
//!   ([`ExecutionContext::with_parallel_threshold`]), and the kernel path
//!   ([`KernelPath::Lane`] vs. the scalar conformance reference).
//!   Every stepper stores one and routes all kernel applications through it,
//!   so a single context is reused across schedule segments and noise
//!   realizations.
//! * [`WorkerPool`] — helper threads spawned **once** per process, parked on
//!   a condvar between calls, each with a persistent result slot, so the
//!   per-application cost of parallel dispatch is one lock handshake rather
//!   than thread creation.
//! * [`F64x4`] / [`F64x8`] — fixed-size array newtypes (stable Rust, no
//!   `std::simd`) whose elementwise loops the autovectorizer reliably lowers
//!   to packed instructions. `FusedKernel`'s lane path is written entirely in
//!   terms of these.
//! * [`Passes`] — the analytically-exact amplitude-pass counter. Every
//!   primitive state operation has a fixed cost
//!   (see the method docs on [`Passes`]); steppers tick the counter at each
//!   operation site, so `state_passes` is exact by construction for **all**
//!   backends, not just Taylor.
//!
//! # Determinism
//!
//! For a fixed `(threads, kernel path)` configuration results are bitwise
//! reproducible: chunk boundaries depend only on the dimension and the
//! resolved worker count, and every chunk is processed by exactly one
//! participant. Across different configurations amplitudes agree to
//! round-off (the per-chunk norm partial sums are reduced in a different
//! order), far inside the 1e-10 conformance pin.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::compiled::PARALLEL_THRESHOLD_QUBITS;

/// Number of complex amplitudes processed per SIMD lane block.
///
/// A block of [`LANE_WIDTH`] amplitudes is one [`F64x8`] of interleaved
/// `re, im` pairs. Pool chunk sizes are rounded up to a multiple of this so
/// the lane path never sees a partial block at a chunk boundary.
pub const LANE_WIDTH: usize = 4;

// ---------------------------------------------------------------------------
// Lane types
// ---------------------------------------------------------------------------

/// Four `f64` lanes as a plain array newtype.
///
/// Used for per-amplitude real factors (diagonal values, gather signs). All
/// operations are fixed-length elementwise loops that the autovectorizer
/// lowers to packed AVX/NEON arithmetic on stable Rust.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

/// Eight `f64` lanes: four complex amplitudes in interleaved
/// `re₀, im₀, re₁, im₁, …` order.
///
/// This is the working register of the lane kernel path — one [`F64x8`] is
/// one block of [`LANE_WIDTH`] amplitudes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F64x8(pub [f64; 8]);

impl F64x4 {
    /// All-zero lanes.
    pub const ZERO: F64x4 = F64x4([0.0; 4]);

    /// Loads four consecutive `f64`s.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than four elements.
    #[inline(always)]
    pub fn load(src: &[f64]) -> F64x4 {
        let mut out = [0.0; 4];
        out.copy_from_slice(&src[..4]);
        F64x4(out)
    }

    /// Multiplies every lane by `factor`.
    #[inline(always)]
    pub fn scale(self, factor: f64) -> F64x4 {
        let mut out = self.0;
        for lane in &mut out {
            *lane *= factor;
        }
        F64x4(out)
    }

    /// Duplicates each lane into a complex-pair position:
    /// `[a, b, c, d]` → `[a, a, b, b, c, c, d, d]`.
    ///
    /// This turns a per-amplitude real factor into an [`F64x8`] that
    /// multiplies interleaved complex amplitudes elementwise.
    #[inline(always)]
    pub fn dup_pairs(self) -> F64x8 {
        let mut out = [0.0; 8];
        for k in 0..4 {
            out[2 * k] = self.0[k];
            out[2 * k + 1] = self.0[k];
        }
        F64x8(out)
    }
}

/// Lanewise sum.
impl std::ops::Add for F64x4 {
    type Output = F64x4;

    #[inline(always)]
    fn add(self, rhs: F64x4) -> F64x4 {
        let mut out = self.0;
        for (lane, r) in out.iter_mut().zip(rhs.0) {
            *lane += r;
        }
        F64x4(out)
    }
}

/// Lanewise sum.
impl std::ops::Add for F64x8 {
    type Output = F64x8;

    #[inline(always)]
    fn add(self, rhs: F64x8) -> F64x8 {
        let mut out = self.0;
        for (lane, r) in out.iter_mut().zip(rhs.0) {
            *lane += r;
        }
        F64x8(out)
    }
}

/// Lanewise product.
impl std::ops::Mul for F64x8 {
    type Output = F64x8;

    #[inline(always)]
    fn mul(self, rhs: F64x8) -> F64x8 {
        let mut out = self.0;
        for (lane, r) in out.iter_mut().zip(rhs.0) {
            *lane *= r;
        }
        F64x8(out)
    }
}

impl F64x8 {
    /// All-zero lanes.
    pub const ZERO: F64x8 = F64x8([0.0; 8]);

    /// Loads eight consecutive `f64`s.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than eight elements.
    #[inline(always)]
    pub fn load(src: &[f64]) -> F64x8 {
        let mut out = [0.0; 8];
        out.copy_from_slice(&src[..8]);
        F64x8(out)
    }

    /// Multiplies every lane by `factor`.
    #[inline(always)]
    pub fn scale(self, factor: f64) -> F64x8 {
        let mut out = self.0;
        for lane in &mut out {
            *lane *= factor;
        }
        F64x8(out)
    }

    /// Swaps the two halves of every complex pair:
    /// `[re₀, im₀, …]` → `[im₀, re₀, …]`. Building block of
    /// [`F64x8::mul_complex`].
    #[inline(always)]
    pub fn swap_pairs(self) -> F64x8 {
        let mut out = [0.0; 8];
        for k in 0..4 {
            out[2 * k] = self.0[2 * k + 1];
            out[2 * k + 1] = self.0[2 * k];
        }
        F64x8(out)
    }

    /// Permutes complex pairs by XOR: pair `k` of the result is pair `k ^ p`
    /// of the input, for `p < LANE_WIDTH`.
    ///
    /// This is how an unaligned flip mask (`x_mask & 3 != 0`) becomes a
    /// contiguous block load followed by an in-register shuffle.
    #[inline(always)]
    pub fn permute_pairs_xor(self, p: usize) -> F64x8 {
        let mut out = [0.0; 8];
        for k in 0..4 {
            let s = (k ^ p) & 3;
            out[2 * k] = self.0[2 * s];
            out[2 * k + 1] = self.0[2 * s + 1];
        }
        F64x8(out)
    }

    /// Multiplies each interleaved complex pair by the complex scalar
    /// `(re, im)`:
    /// `(re + i·im) · (zre + i·zim)` per pair.
    #[inline(always)]
    pub fn mul_complex(self, re: f64, im: f64) -> F64x8 {
        // Pauli term weights are `i^y_count` — purely real or purely
        // imaginary — so skip the half of the product that is all zeros.
        if im == 0.0 {
            return self.scale(re);
        }
        let crossed = self.swap_pairs() * F64x8([-im, im, -im, im, -im, im, -im, im]);
        if re == 0.0 {
            return crossed;
        }
        self.scale(re) + crossed
    }

    /// Sum of all eight lanes.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f64 {
        let h = [
            self.0[0] + self.0[4],
            self.0[1] + self.0[5],
            self.0[2] + self.0[6],
            self.0[3] + self.0[7],
        ];
        (h[0] + h[2]) + (h[1] + h[3])
    }
}

// ---------------------------------------------------------------------------
// Execution context
// ---------------------------------------------------------------------------

/// Which kernel implementation [`ExecutionContext`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The SIMD lane path: [`F64x8`] blocks of four amplitudes. The default.
    ///
    /// Falls back to the scalar path per call when the kernel or dimension
    /// cannot be blocked (states smaller than [`LANE_WIDTH`] amplitudes, or a
    /// diagonal lookup table shorter than one block).
    #[default]
    Lane,
    /// The scalar reference path — one amplitude at a time, kept as the
    /// conformance baseline the lane path is pinned against (1e-10 in the
    /// test suite, though in practice the two agree to round-off).
    Scalar,
}

/// How kernel applications execute: worker count, parallel threshold, and
/// kernel path.
///
/// The context is a plain `Copy` value. [`EvolveOptions`](crate::stepper::EvolveOptions)
/// carries one, every stepper stores one, and [`Propagator`](crate::propagate::Propagator)
/// hands the same context to all backends — so one configuration is reused
/// across schedule segments and device noise realizations without
/// re-resolving threads or re-planning chunks anywhere else.
///
/// # Thread resolution
///
/// The worker count used for a state of dimension `2^n` is the minimum of:
///
/// 1. the explicitly configured count ([`ExecutionContext::with_threads`]),
///    else the `QTURBO_THREADS` environment variable (parsed once per
///    process; `0` or unset falls through), else
///    [`std::thread::available_parallelism`];
/// 2. a busy-cap `dim >> (threshold − 1)` that keeps at least two
///    threshold-sized half-chunks of work per worker.
///
/// States below `2^threshold` amplitudes always run inline on the calling
/// thread ([`ExecutionContext::worker_count`] returns 1) — small workloads
/// never pay the pool handshake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionContext {
    threads: Option<usize>,
    threshold_qubits: usize,
    kernels: KernelPath,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        ExecutionContext::auto()
    }
}

impl ExecutionContext {
    /// The default context: automatic thread count (`QTURBO_THREADS` or the
    /// machine parallelism), the default parallel threshold
    /// ([`PARALLEL_THRESHOLD_QUBITS`]), and the [`KernelPath::Lane`] path.
    pub fn auto() -> Self {
        ExecutionContext {
            threads: None,
            threshold_qubits: PARALLEL_THRESHOLD_QUBITS,
            kernels: KernelPath::Lane,
        }
    }

    /// Pins the worker count. `0` restores automatic resolution
    /// (`QTURBO_THREADS`, then the machine parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// Sets the parallel threshold: states with fewer than `2^qubits`
    /// amplitudes run inline on the calling thread.
    #[must_use]
    pub fn with_parallel_threshold(mut self, qubits: usize) -> Self {
        self.threshold_qubits = qubits;
        self
    }

    /// Selects the kernel implementation ([`KernelPath`]).
    #[must_use]
    pub fn with_kernel_path(mut self, path: KernelPath) -> Self {
        self.kernels = path;
        self
    }

    /// The pinned worker count, if any (`None` = automatic).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The parallel threshold in qubits.
    pub fn parallel_threshold_qubits(&self) -> usize {
        self.threshold_qubits
    }

    /// The configured kernel path.
    pub fn kernel_path(&self) -> KernelPath {
        self.kernels
    }

    /// The worker count after resolving the automatic sources: the pinned
    /// count, else `QTURBO_THREADS`, else the machine parallelism.
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .or_else(env_threads)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }

    /// Number of workers a kernel application over `dim` amplitudes uses
    /// (1 = inline on the calling thread). See the type-level docs for the
    /// resolution rules.
    pub fn worker_count(&self, dim: usize) -> usize {
        let threshold = self.threshold_qubits.min(usize::BITS as usize - 1);
        if dim < 1 << threshold {
            return 1;
        }
        let busy_cap = (dim >> threshold.saturating_sub(1)).max(1);
        self.resolved_threads().min(busy_cap).max(1)
    }

    /// Plans a pooled application over `dim` amplitudes: ensures the workers
    /// exist and returns `(participants, chunk)` where `chunk` is a multiple
    /// of [`LANE_WIDTH`] and `participants = ceil(dim / chunk)`.
    ///
    /// Recomputing the participant count from the rounded chunk is what
    /// guarantees `threads > chunks` never strands an idle worker on an
    /// empty range: every participant owns a non-empty chunk.
    pub(crate) fn plan(&self, dim: usize) -> (usize, usize) {
        let wanted = self.worker_count(dim);
        if wanted <= 1 {
            return (1, dim);
        }
        let available = pool().ensure(wanted);
        if available <= 1 {
            return (1, dim);
        }
        let chunk = dim.div_ceil(available).next_multiple_of(LANE_WIDTH);
        (dim.div_ceil(chunk), chunk)
    }

    /// Builds a telemetry [`ExecSpan`](crate::telemetry::ExecSpan)
    /// describing the plan this context would use for a state of `dim`
    /// amplitudes. Purely arithmetic — no workers are spawned, so calling
    /// it never perturbs the pool.
    pub fn exec_span(&self, dim: usize, pool_busy_ns: u64) -> crate::telemetry::ExecSpan {
        let workers = self.worker_count(dim);
        let (chunks, chunk_len) = if workers <= 1 || dim == 0 {
            (1, dim)
        } else {
            let chunk = dim.div_ceil(workers).next_multiple_of(LANE_WIDTH);
            (dim.div_ceil(chunk), chunk)
        };
        crate::telemetry::ExecSpan {
            lane_width: LANE_WIDTH,
            threads: self.resolved_threads(),
            workers,
            chunks,
            chunk_len,
            parallel_threshold_qubits: self.threshold_qubits,
            kernel_path: self.kernels,
            dim,
            pool_busy_ns,
        }
    }
}

/// `QTURBO_THREADS` parsed once per process. `0`, empty, or unparsable
/// values behave as unset.
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("QTURBO_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

// ---------------------------------------------------------------------------
// Pool busy-time accounting (telemetry)
// ---------------------------------------------------------------------------

/// Nanoseconds helper threads have spent inside kernel jobs, process-wide.
/// Only accumulated after [`enable_pool_timing`] — the untraced hot path
/// pays one relaxed boolean load per job, nothing more.
static POOL_BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Gates busy-time accounting so untraced runs never touch the clock.
static POOL_TIMING: AtomicBool = AtomicBool::new(false);

/// Turns on worker-pool busy-time accounting for the rest of the process.
///
/// Called by a traced [`Propagator`](crate::propagate::Propagator) when
/// telemetry is enabled; idempotent. There is deliberately no `disable`:
/// once any traced run exists the per-job cost is two clock reads per
/// helper, which is noise next to a kernel application.
pub fn enable_pool_timing() {
    POOL_TIMING.store(true, Ordering::Relaxed);
}

/// Cumulative helper-thread busy nanoseconds since [`enable_pool_timing`].
///
/// Monotonic and process-wide; telemetry consumers snapshot it before and
/// after a traced call and report the delta.
pub fn pool_busy_ns() -> u64 {
    POOL_BUSY_NS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Locks a mutex, ignoring poisoning (workers never hold the lock across
/// kernel work, so a poisoned lock still guards consistent data).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poisoning policy as [`lock`].
fn wait_on<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// One pooled job: a lifetime-erased pointer to the chunk closure plus the
/// number of participants (caller + helpers) splitting the work.
#[derive(Clone, Copy)]
struct Job {
    /// Erased `&dyn Fn(participant) -> partial_norm_sqr`. Only dereferenced
    /// by participants of the job, and [`WorkerPool::run`] does not return
    /// until every participant has finished — so the pointee outlives every
    /// dereference.
    work: *const (dyn Fn(usize) -> f64 + Sync),
    participants: usize,
}

// SAFETY: the pointer is only dereferenced while the submitting call frame
// (which owns the closure) is blocked in `WorkerPool::run`.
unsafe impl Send for Job {}

/// State shared between the submitting thread and the parked helpers.
struct PoolState {
    /// Bumped once per job; helpers use it to distinguish "new job" from a
    /// spurious wakeup.
    epoch: u64,
    job: Option<Job>,
    /// Helpers still working on the current job.
    remaining: usize,
    /// Per-participant result slots — the pool's persistent scratch; slot 0
    /// belongs to the caller and is unused.
    results: Vec<f64>,
    /// Set when a helper's chunk closure panicked.
    helper_panicked: bool,
    /// Helpers that have registered and parked at least once.
    ready: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// Signalled when `remaining` hits zero and when a helper registers.
    done: Condvar,
}

/// The process-wide persistent worker pool.
///
/// Helper threads are spawned lazily the first time a context asks for more
/// than one worker, then parked on a condvar between jobs — a kernel
/// application costs one lock/notify handshake instead of thread creation.
/// Jobs are serialized by a submission lock, so concurrent callers (e.g.
/// `cargo test`'s parallel test threads) share the pool safely. If a helper
/// thread cannot be spawned the pool degrades gracefully to however many
/// helpers exist (worst case: everything runs inline on the caller).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes jobs; the guarded value is the spawned helper count.
    submit: Mutex<usize>,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool (created on first use).
pub(crate) fn pool() -> &'static WorkerPool {
    POOL.get_or_init(WorkerPool::new)
}

/// Runs `work` across `participants` threads (the caller plus
/// `participants − 1` pool helpers) and returns the sum of all per-chunk
/// results. See [`WorkerPool::run`].
pub(crate) fn pool_run(participants: usize, work: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
    pool().run(participants, work)
}

impl WorkerPool {
    fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    results: Vec::new(),
                    helper_panicked: false,
                    ready: 0,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            submit: Mutex::new(0),
        }
    }

    /// Ensures at least `wanted − 1` helper threads are parked and ready;
    /// returns the usable participant count (`≤ wanted`). Spawning happens
    /// under the submission lock, so no job can be in flight while new
    /// helpers register.
    pub(crate) fn ensure(&self, wanted: usize) -> usize {
        let mut spawned = lock(&self.submit);
        if *spawned + 1 >= wanted {
            return wanted;
        }
        while *spawned + 1 < wanted {
            let shared = Arc::clone(&self.shared);
            let id = *spawned;
            let handle = std::thread::Builder::new()
                .name(format!("qturbo-worker-{id}"))
                .spawn(move || worker_loop(&shared, id));
            match handle {
                Ok(_) => *spawned += 1,
                // Degrade gracefully: run with the helpers we have.
                Err(_) => break,
            }
        }
        // Wait until every spawned helper has parked once, so a job
        // submitted right after `ensure` cannot race a helper that has not
        // yet recorded the current epoch.
        let mut state = lock(&self.shared.state);
        while state.ready < *spawned {
            state = wait_on(&self.shared.done, state);
        }
        (*spawned + 1).min(wanted)
    }

    /// Runs `work(participant)` for every `participant in 0..participants`
    /// — participant 0 on the calling thread, the rest on parked helpers —
    /// and returns the sum of the results. Panics in any chunk are
    /// propagated to the caller after all participants have finished.
    ///
    /// `participants` must not exceed the count returned by
    /// [`WorkerPool::ensure`].
    pub(crate) fn run(&self, participants: usize, work: &(dyn Fn(usize) -> f64 + Sync)) -> f64 {
        if participants <= 1 {
            return work(0);
        }
        let submit = lock(&self.submit);
        debug_assert!(participants <= *submit + 1, "run() without ensure()");
        // SAFETY (lifetime erasure): the raw pointer is dereferenced only by
        // this job's participants, and we block below until `remaining == 0`,
        // i.e. until every helper is done with it.
        let erased = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize) -> f64 + Sync),
                *const (dyn Fn(usize) -> f64 + Sync),
            >(work)
        };
        {
            let mut state = lock(&self.shared.state);
            state.epoch = state.epoch.wrapping_add(1);
            state.job = Some(Job {
                work: erased,
                participants,
            });
            state.remaining = participants - 1;
            if state.results.len() < participants {
                state.results.resize(participants, 0.0);
            }
            state.helper_panicked = false;
            self.shared.work.notify_all();
        }
        // Participant 0 is the calling thread.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0)));
        let (helper_sum, helper_panicked) = {
            let mut state = lock(&self.shared.state);
            while state.remaining > 0 {
                state = wait_on(&self.shared.done, state);
            }
            state.job = None;
            let sum = state.results[1..participants].iter().sum::<f64>();
            (sum, state.helper_panicked)
        };
        drop(submit);
        match own {
            Ok(value) => {
                assert!(
                    !helper_panicked,
                    "a worker thread panicked during a pooled kernel application"
                );
                value + helper_sum
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    let participant = id + 1;
    let mut last_epoch = {
        let mut state = lock(&shared.state);
        state.ready += 1;
        shared.done.notify_all();
        state.epoch
    };
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if state.epoch != last_epoch {
                    last_epoch = state.epoch;
                    if let Some(job) = state.job {
                        break job;
                    }
                }
                state = wait_on(&shared.work, state);
            }
        };
        if participant >= job.participants {
            continue;
        }
        let started = POOL_TIMING
            .load(Ordering::Relaxed)
            .then(std::time::Instant::now);
        // SAFETY: the submitter blocks in `run` until we decrement
        // `remaining` below, so the closure behind `job.work` is alive.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (*job.work)(participant)
        }));
        if let Some(started) = started {
            POOL_BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut state = lock(&shared.state);
        match result {
            Ok(value) => state.results[participant] = value,
            Err(_) => state.helper_panicked = true,
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Pass accounting
// ---------------------------------------------------------------------------

/// Analytically-exact amplitude-pass counter.
///
/// One *pass* is one sequential read **or** write stream over a state
/// vector's amplitudes — the unit the `bench_*` gates use to prove the
/// batched sweeps do less memory traffic. Each primitive operation has a
/// fixed cost, ticked at the operation site:
///
/// | operation | passes | streams |
/// |---|---|---|
/// | [`Passes::copy`] | 2 | read src, write dst |
/// | [`Passes::scale`] | 2 | read + write in place |
/// | [`Passes::norm`] | 1 | read |
/// | [`Passes::axpy`] | 3 | read x, read+write y (`y += a·x`) |
/// | [`Passes::apply`] | 2 | read input, write output |
/// | [`Passes::apply_accumulate`] | 4 | read input, write series, read+write target |
/// | [`Passes::fused_map`] | 3 | read out, read input, write out |
/// | [`Passes::rescale`] | 3 | norm (1) + scale (2) |
///
/// Because every stepper ticks these at each operation, `state_passes` is
/// exact by construction for all backends — including Chebyshev's
/// recurrence, which older revisions tallied with lumped per-iteration
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Passes(u64);

impl Passes {
    /// A zeroed counter.
    pub fn new() -> Self {
        Passes(0)
    }

    /// Total passes counted so far.
    pub fn count(&self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// Adds a raw pass count (for fused operations with bespoke costs).
    pub fn add(&mut self, passes: u64) {
        self.0 += passes;
    }

    /// One whole-vector copy: 2 passes.
    pub fn copy(&mut self) {
        self.0 += 2;
    }

    /// One in-place scale: 2 passes.
    pub fn scale(&mut self) {
        self.0 += 2;
    }

    /// One norm computation: 1 pass.
    pub fn norm(&mut self) {
        self.0 += 1;
    }

    /// One accumulate `y += a·x`: 3 passes.
    pub fn axpy(&mut self) {
        self.0 += 3;
    }

    /// One kernel application `out = H·input`: 2 passes.
    pub fn apply(&mut self) {
        self.0 += 2;
    }

    /// One fused kernel application with accumulation into a target
    /// (`series_next = H·series; target += factor·series_next`): 4 passes.
    pub fn apply_accumulate(&mut self) {
        self.0 += 4;
    }

    /// One fused affine map over an applied vector
    /// (`out = (out − center·input) / radius`): 3 passes.
    pub fn fused_map(&mut self) {
        self.0 += 3;
    }

    /// One norm-checked rescale (`norm` + `scale`): 3 passes.
    pub fn rescale(&mut self) {
        self.0 += 3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_complex_multiply_matches_scalar() {
        let amps = F64x8([1.0, 2.0, -3.0, 0.5, 0.25, -1.5, 4.0, -2.0]);
        let (re, im) = (0.7, -1.3);
        let product = amps.mul_complex(re, im);
        for k in 0..4 {
            let (zre, zim) = (amps.0[2 * k], amps.0[2 * k + 1]);
            assert_eq!(product.0[2 * k], re * zre - im * zim);
            assert_eq!(product.0[2 * k + 1], re * zim + im * zre);
        }
    }

    #[test]
    fn permute_pairs_xor_matches_index_arithmetic() {
        let amps = F64x8([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        for p in 0..4 {
            let permuted = amps.permute_pairs_xor(p);
            for k in 0..4usize {
                assert_eq!(permuted.0[2 * k], amps.0[2 * (k ^ p)]);
                assert_eq!(permuted.0[2 * k + 1], amps.0[2 * (k ^ p) + 1]);
            }
        }
    }

    #[test]
    fn dup_pairs_and_horizontal_sum() {
        let reals = F64x4([1.0, 2.0, 3.0, 4.0]);
        let wide = reals.dup_pairs();
        assert_eq!(wide.0, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        assert_eq!(wide.horizontal_sum(), 20.0);
    }

    #[test]
    fn context_worker_count_honors_threshold_and_busy_cap() {
        let ctx = ExecutionContext::auto()
            .with_threads(8)
            .with_parallel_threshold(4);
        assert_eq!(ctx.worker_count(8), 1, "below threshold runs inline");
        assert_eq!(ctx.worker_count(16), 2, "busy cap limits tiny states");
        assert_eq!(ctx.worker_count(1 << 10), 8, "large states use all workers");
        let inline = ExecutionContext::auto().with_threads(1);
        assert_eq!(inline.worker_count(1 << 20), 1);
    }

    #[test]
    fn plan_never_leaves_an_idle_participant() {
        let ctx = ExecutionContext::auto()
            .with_threads(7)
            .with_parallel_threshold(0);
        let dim = 16;
        let (participants, chunk) = ctx.plan(dim);
        assert!(chunk % LANE_WIDTH == 0);
        assert_eq!(participants, dim.div_ceil(chunk));
        // Every participant owns a non-empty range.
        for p in 0..participants {
            assert!(p * chunk < dim);
        }
    }

    #[test]
    fn pool_sums_partial_results_across_threads() {
        let ctx = ExecutionContext::auto()
            .with_threads(3)
            .with_parallel_threshold(0);
        let dim = 24;
        let (participants, chunk) = ctx.plan(dim);
        let total = pool_run(participants, &|p: usize| {
            let start = p * chunk;
            let len = chunk.min(dim - start);
            (start..start + len).map(|i| i as f64).sum()
        });
        let expected = (0..dim).map(|i| i as f64).sum::<f64>();
        assert_eq!(total, expected);
    }

    #[test]
    fn pass_costs_match_the_documented_table() {
        let mut passes = Passes::new();
        passes.copy();
        passes.scale();
        passes.norm();
        passes.axpy();
        passes.apply();
        passes.apply_accumulate();
        passes.fused_map();
        passes.rescale();
        assert_eq!(passes.count(), 2 + 2 + 1 + 3 + 2 + 4 + 3 + 3);
        passes.reset();
        assert_eq!(passes.count(), 0);
    }
}
