//! The harness's own in-memory span recorder.  Spans are opened around calls
//! into the program's layers, kept in memory, and written as JSON lines when
//! the run ends; spans inside the program are a later change.

use std::io::Write as _;
use std::time::Instant;

/// Index of an open or closed span; [`NO_SPAN`] when recording is off or a
/// span has no parent.
pub type SpanId = usize;
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// The slide the span belongs to (0 outside slides), so a manager slide
    /// can be matched with the bare-engine replay of the same bucket.
    slide: u64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; untraced repeats record nothing.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, slide: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            slide,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent, slide`
    /// (`parent` is the line number of the causing span, -1 for a root).
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"slide\": {}}}",
                s.name, s.start_ns, s.end_ns, s.slide
            )?;
        }
        out.flush()
    }
}
