//! Spans recorded by the benchmark's own code around the calls into each
//! layer. They stay in memory while a workload runs and are written out
//! after it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub name: &'static str,
    /// Spans of one request (or one range query) share this.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Id of a run's root span, the phase every thread's spans hang off.
pub const ROOT: u64 = 1;

/// All spans of a run: the root span of the phase that started at
/// `started` and ends now, then every thread's buffer. Empty when the run
/// was not traced (`origin` is `None`).
pub fn collect(
    name: &'static str,
    origin: Option<Instant>,
    started: Instant,
    bufs: impl IntoIterator<Item = SpanBuf>,
) -> Vec<Span> {
    let Some(origin) = origin else {
        return Vec::new();
    };
    let root = Span {
        id: ROOT,
        parent: 0,
        name,
        req: 0,
        start_ns: (started - origin).as_nanos() as u64,
        end_ns: origin.elapsed().as_nanos() as u64,
    };
    std::iter::once(root)
        .chain(bufs.into_iter().flat_map(|b| b.spans))
        .collect()
}

/// One thread's span buffer. Ids are unique across threads of a run.
pub struct SpanBuf {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// `origin` is shared by all buffers of a run so their clocks agree.
    pub fn new(origin: Instant, thread: u64) -> SpanBuf {
        SpanBuf {
            origin,
            next_id: (thread + 1) << 40,
            spans: Vec::with_capacity(1 << 17),
        }
    }

    /// Reserve an id for a span whose children are recorded before it ends.
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let id = self.open();
        self.close(id, parent, name, req, start, Instant::now());
        out
    }
}

pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, workload, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub median_ns: f64,
    /// Median of duration minus the time covered by child spans.
    pub median_self_ns: f64,
}

/// Per span name: count, median duration and median self time.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(dur as f64);
        entry.1.push(dur.saturating_sub(covered) as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (durs, selfs))| NameSummary {
            name,
            count: durs.len(),
            median_ns: crate::stats::median(durs),
            median_self_ns: crate::stats::median(selfs),
        })
        .collect()
}
