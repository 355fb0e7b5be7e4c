//! In-memory spans of the traced pass, written as JSON lines when the
//! workload ends. Nesting: workload → seed-run → `setup.*` | `run.*`.
//! Per-call layers (`contacts.next_contact`, `core.scheme`) are aggregate
//! leaves under `run` carrying `{calls, busy_ns}`; a leaf's interval starts
//! with its parent and lasts `busy_ns`, so self time = span − children.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::write_str;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    parent: Option<SpanId>,
    seed_run: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    calls: Option<u64>,
    busy_ns: Option<u64>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        seed_run: Option<u64>,
        name: &'static str,
    ) -> SpanId {
        let now = self.now_ns();
        self.record(parent, seed_run, name, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        seed_run: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            seed_run,
            name,
            start_ns,
            end_ns,
            calls: None,
            busy_ns: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Records an aggregate leaf of `calls` calls totalling `busy_ns`
    /// under `parent`.
    pub fn leaf(&mut self, parent: SpanId, name: &'static str, calls: u64, busy_ns: u64) {
        let p = &self.spans[parent.0];
        let (seed_run, start) = (p.seed_run, p.start_ns);
        let id = self.record(
            Some(parent),
            seed_run,
            name,
            start,
            start.saturating_add(busy_ns),
        );
        self.spans[id.0].calls = Some(calls);
        self.spans[id.0].busy_ns = Some(busy_ns);
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\":{id},\"parent\":");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{}", p.0);
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"seed_run\":");
            match s.seed_run {
                Some(seed) => {
                    let _ = write!(out, "{seed}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            write_str(&mut out, s.name);
            let _ = write!(out, ",\"start_ns\":{},\"end_ns\":{}", s.start_ns, s.end_ns);
            if let (Some(calls), Some(busy)) = (s.calls, s.busy_ns) {
                let _ = write!(out, ",\"calls\":{calls},\"busy_ns\":{busy}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
