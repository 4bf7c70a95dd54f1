//! Spans recorded around calls into the simulator's layers, and the
//! timing wrapper around the `armv8::Hypervisor` trait.
//!
//! Spans stay in memory until the run ends; [`Tracer::write`] then
//! writes them out as JSON lines. A disabled tracer records nothing and
//! reads no clock, which is what the untraced half of
//! `trace.overhead_ratio` runs with.

use neve_armv8::machine::{ExitInfo, Hypervisor, Machine};
use std::io::Write;
use std::time::Instant;

/// One recorded span. Spans of one cell or one request share `id`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed (`session.run`, `armv8.restore`, ...).
    pub name: &'static str,
    /// What the call worked on (a config alias, a bench, `hit`, ...).
    pub tag: &'static str,
    /// The cell or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, usable as a child's parent.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// ns since the tracer was created, for spans whose ends are stamped
    /// elsewhere (see [`Tracer::record`]).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, id: u64, parent: Open) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            tag,
            id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.ns_at(Instant::now());
        }
    }

    /// Records a span whose start and end were stamped elsewhere.
    pub fn record(&mut self, span: Span) -> Open {
        if !self.on {
            return Open(None);
        }
        self.spans.push(span);
        Open(Some(self.spans.len() - 1))
    }

    /// The root handle (no parent).
    pub fn root() -> Open {
        Open(None)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times every call into a host hypervisor: the wrapper the per-layer
/// `kvmarm.*` metrics come from. It forwards each call unchanged, so a
/// machine driven through it retires the same steps and cycles.
pub struct TimedHyp<'a> {
    inner: &'a mut dyn Hypervisor,
    /// Calls into `handle_sync` and `handle_irq`.
    pub exits: u64,
    /// Host ns spent inside those calls.
    pub ns: u64,
}

impl<'a> TimedHyp<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Hypervisor) -> Self {
        Self {
            inner,
            exits: 0,
            ns: 0,
        }
    }
}

impl Hypervisor for TimedHyp<'_> {
    fn handle_sync(&mut self, m: &mut Machine, cpu: usize, info: ExitInfo) {
        let t = Instant::now();
        self.inner.handle_sync(m, cpu, info);
        self.ns += t.elapsed().as_nanos() as u64;
        self.exits += 1;
    }

    fn handle_irq(&mut self, m: &mut Machine, cpu: usize) {
        let t = Instant::now();
        self.inner.handle_irq(m, cpu);
        self.ns += t.elapsed().as_nanos() as u64;
        self.exits += 1;
    }
}
