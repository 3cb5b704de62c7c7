//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented). Each span has
//! a name, start and end offsets from the recorder's origin, the span that
//! was open when it began (its parent), and the program it belongs to. Spans
//! stay in memory until the run ends; per-layer metrics are derived from
//! their self time (duration minus the time covered by direct children).
//!
//! A disabled recorder does nothing: `begin`/`end`/`count` return at once,
//! so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `core.compiler.compile`.
    name: &'static str,
    /// Start offset from the recorder's origin (ns).
    start_ns: u64,
    /// End offset from the recorder's origin (ns).
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Program the span belongs to ([`SETUP_PROGRAM`] for set-up work).
    program: u64,
}

/// Program id used for spans recorded outside any timed program.
const SETUP_PROGRAM: u64 = u64::MAX;

/// Span and counter recorder; a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    program: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            program: SETUP_PROGRAM,
            counts: BTreeMap::new(),
        }
    }

    /// Tags every span begun from now on with `program`.
    pub fn set_program(&mut self, program: u64) {
        self.program = program;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the currently open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            program: self.program,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Spans recorded inside timed programs.
    pub fn program_spans(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.program != SETUP_PROGRAM)
            .count()
    }

    /// Measured cost (s) of recording one span: the mean over a burst of
    /// empty spans on a fresh recorder.
    pub fn span_cost_s() -> f64 {
        const BURST: usize = 10_000;
        let mut probe = Tracer::new(true);
        let started = Instant::now();
        for _ in 0..BURST {
            probe.span("probe", || ());
        }
        started.elapsed().as_secs_f64() / BURST as f64
    }

    /// Summed counters by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Summed self time (s) of every span name, over the set-up spans when
    /// `setup` is true and over the timed programs' spans otherwise. A
    /// span's self time is its duration minus its direct children's.
    pub fn self_seconds(&self, setup: bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if (span.program == SETUP_PROGRAM) != setup {
                continue;
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        totals
    }

    /// Writes `header` (one JSON object) and then every span as one JSON
    /// object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"host\":{header}}}")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let program = if span.program == SETUP_PROGRAM {
                "null".to_string()
            } else {
                span.program.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"program\":{program}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_program(0);
        tracer.begin("outer");
        tracer.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.end();
        let times = tracer.self_seconds(false);
        assert!(times["inner"] >= 0.005);
        assert!(times["outer"] < times["inner"]);
        assert!(tracer.self_seconds(true).is_empty());

        let mut off = Tracer::new(false);
        off.span("inner", || ());
        off.count("c", 1.0);
        assert!(off.self_seconds(false).is_empty() && off.counts().is_empty());
    }
}
