//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Every traced op gets a root span (`op`) and one child span per call
//! into a layer's public function. The calls run in dependency order,
//! so each artifact a call needs is already memoized and a child's
//! duration is that layer's self time. A span named [`UNTIMED`] marks
//! work inside the op's interval that is not part of the op (the
//! ground-truth gate); it is subtracted from the op's wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const UNTIMED: &str = "untimed";
const ROOT: &str = "op";

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One worker's span log, kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    worker: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `worker` keeps span ids unique when several tracers are merged.
    pub fn new(epoch: Instant, worker: u64) -> Tracer {
        Tracer { epoch, worker, next: 0, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&mut self) -> u64 {
        self.next += 1;
        (self.worker << 48) | self.next
    }

    /// Start the root span of op `op`.
    pub fn begin(&mut self, op: u64) -> OpTrace<'_> {
        let id = self.id();
        let start_ns = self.now_ns();
        OpTrace { tracer: self, op, id, start_ns, untimed_ns: 0 }
    }
}

pub struct OpTrace<'t> {
    tracer: &'t mut Tracer,
    op: u64,
    id: u64,
    start_ns: u64,
    untimed_ns: u64,
}

impl OpTrace<'_> {
    fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.tracer.id();
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.push(Span {
            id,
            parent: Some(self.id),
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Run one call into a layer under a child span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, f).0
    }

    /// Run work that is not part of the op (it is excluded from the
    /// op's wall time).
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.record(UNTIMED, f);
        self.untimed_ns += ns;
        out
    }

    /// Close the root span; returns the op's wall time in ms.
    pub fn end(self) -> f64 {
        let end_ns = self.tracer.now_ns();
        let (id, op, start_ns) = (self.id, self.op, self.start_ns);
        self.tracer.spans.push(Span { id, parent: None, op, name: ROOT, start_ns, end_ns });
        (end_ns - start_ns - self.untimed_ns) as f64 / 1e6
    }
}

/// Run a call under a span of `op` when the op is traced, bare
/// otherwise, so traced and untraced runs share one code path.
pub fn step<T>(op: &mut Option<OpTrace<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match op {
        Some(op) => op.span(name, f),
        None => f(),
    }
}

/// Per-layer self times folded from a span log.
pub struct Waterfall {
    /// Traced ops.
    pub ops: usize,
    /// Mean op wall time (ms), untimed spans excluded.
    pub wall_ms: f64,
    /// Mean self time per op (ms), by span name.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Share of summed op wall time the layer spans cover.
    pub coverage: f64,
    /// Lowest per-op coverage.
    pub coverage_min: f64,
}

impl Waterfall {
    pub fn fold(spans: &[Span]) -> Waterfall {
        let mut per_op: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new(); // root, untimed, layers
        let mut layer_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        let roots: BTreeMap<u64, u64> =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.id, s.op)).collect();
        for s in spans {
            let Some(op) = s.parent.map_or(Some(s.op), |p| roots.get(&p).copied()) else {
                continue;
            };
            let e = per_op.entry(op).or_default();
            match (s.parent, s.name) {
                (None, _) => e.0 += s.ms(),
                (_, UNTIMED) => e.1 += s.ms(),
                (_, name) => {
                    e.2 += s.ms();
                    *layer_ms.entry(name).or_default() += s.ms();
                }
            }
        }
        let ops = per_op.len();
        let n = ops.max(1) as f64;
        let (mut wall, mut covered, mut coverage_min) = (0.0, 0.0, f64::INFINITY);
        for &(root, untimed, layers) in per_op.values() {
            let w = root - untimed;
            wall += w;
            covered += layers;
            coverage_min = coverage_min.min(if w > 0.0 { layers / w } else { 1.0 });
        }
        layer_ms.values_mut().for_each(|v| *v /= n);
        Waterfall {
            ops,
            wall_ms: wall / n,
            layer_ms,
            coverage: if wall > 0.0 { covered / wall } else { 0.0 },
            coverage_min: if ops == 0 { 0.0 } else { coverage_min },
        }
    }

    /// Mean self time of one layer (0 when the workload never calls it).
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Op wall time no layer span covers.
    pub fn other_ms(&self) -> f64 {
        self.wall_ms - self.layer_ms.values().sum::<f64>()
    }
}

/// Write the span log as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
