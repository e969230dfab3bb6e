//! In-memory span recorder for the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::call`], which always returns
//! the call's host duration (the end-to-end metrics need it) and, when
//! tracing is on, also records a span: name, start, end, parent span
//! and query id. Spans stay in memory and are written out once, at the
//! end of the run, so tracing adds no I/O to the measured calls.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval; times are nanoseconds since the tracer began.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<usize>,
}

pub struct Tracer {
    t0: Instant,
    /// `None` while tracing is off.
    spans: Option<Vec<Span>>,
    /// Indices of the enclosing spans opened with [`Tracer::open`].
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { t0: Instant::now(), spans: enabled.then(Vec::new), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns_since_t0(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.t0).as_nanos()).expect("a run lasts under 584 years")
    }

    fn now_ns(&self) -> u64 {
        self.ns_since_t0(Instant::now())
    }

    /// Run `f` as one timed call and return its result with its host
    /// time in milliseconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let start_ns = self.ns_since_t0(start);
        let end_ns = self.now_ns();
        let parent = self.open.last().copied();
        if let Some(spans) = &mut self.spans {
            spans.push(Span { name, start_ns, end_ns, parent, query });
        }
        (out, ms)
    }

    /// Open an enclosing span; calls until the matching
    /// [`Tracer::close`] become its children.
    pub fn open(&mut self, name: &'static str, query: Option<usize>) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        if let Some(spans) = &mut self.spans {
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
            self.open.push(spans.len() - 1);
        }
    }

    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        if let Some(spans) = &mut self.spans {
            let idx = self.open.pop().expect("close() matches an open()");
            spans[idx].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations, ms, of the recorded spans with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The spans as JSON lines, one object per span; `id` is the
    /// span's index, which `parent` refers to.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"query\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.query)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
