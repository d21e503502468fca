//! The benchmark's own span recorder: spans around the calls it makes into
//! each layer, kept in memory and written as JSONL when the run ends. The
//! program's own `mttkrp_obs` capture stays off throughout.

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory spans of one run. Every span shares the run's trace id; a
/// span's parent is the phase or call that caused it.
pub struct Recorder {
    epoch: Instant,
    trace_id: u64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Recorder {
    pub fn new(trace_id: u64) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            trace_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span and returns its id (a child's parent).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(SpanRecord {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet (a phase that
    /// parents calls made during it); [`Recorder::close`] fills it in.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> u64 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Sets the end of a span reserved with [`Recorder::open`] to now.
    pub fn close(&self, id: u64) {
        let end = self.epoch.elapsed();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[(id - 1) as usize].end = end;
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                self.trace_id,
                s.id,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        Ok(())
    }
}
