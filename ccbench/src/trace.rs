//! In-memory spans recorded by the benchmark around its calls into the
//! program, exported as Chrome trace-event JSON (loadable in Perfetto).
//!
//! A span has a name, a parent span, a request id (rank, task or job) and
//! up to two intervals: host time (nanoseconds since the trace epoch) and
//! virtual time (the model's seconds). Spans are kept in memory and only
//! written out when the run ends. Rank threads record into their own
//! [`RankSpans`] and hand them back with the rank's result, so tracing
//! adds no lock to the program's threads.

use std::fmt::Write as _;
use std::time::Instant;

use cc_mpi::{Comm, World};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `"cc_core::object_get_vara"`.
    pub name: String,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// Request id: rank, task or job.
    pub request: u64,
    /// Host interval, nanoseconds since the trace epoch.
    pub host: Option<(u64, u64)>,
    /// Virtual interval, model seconds.
    pub virt: Option<(f64, f64)>,
}

/// All spans of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose host clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The host-clock origin, for [`RankSpans`] recorders.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a host span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            host: Some((now, now)),
            virt: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some((start, _)) = self.spans[id].host {
            self.spans[id].host = Some((start, now));
        }
    }

    /// Runs `f` inside a host span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a span taken from a program report (virtual time only).
    pub fn virtual_span(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start: f64,
        end: f64,
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            host: None,
            virt: Some((start, end)),
        });
    }

    /// Appends spans recorded on rank threads.
    pub fn absorb(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// The trace as Chrome trace-event JSON: process 1 holds host-clock
    /// spans, process 2 virtual-clock spans; the thread id is the request.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"host clock\"}},\n",
        );
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"virtual clock\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let name = escape(&s.name);
            let mut event = |pid: u32, ts_us: f64, dur_us: f64| {
                let _ = write!(
                    out,
                    ",\n{{\"name\":\"{name}\",\"cat\":\"ccbench\",\"ph\":\"X\",\"pid\":{pid},\
                     \"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
                     \"args\":{{\"span\":{id},\"parent\":{parent}}}}}",
                    s.request
                );
            };
            if let Some((a, b)) = s.host {
                event(1, a as f64 / 1e3, (b - a) as f64 / 1e3);
            }
            if let Some((a, b)) = s.virt {
                event(2, a * 1e6, (b - a) * 1e6);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Where a traced pass records: the run's trace and the pass's span.
pub type Tracing<'a> = Option<(&'a mut Trace, usize)>;

/// Runs `f` on every rank of `world` with a [`RankSpans`] recorder, and
/// moves what the ranks recorded into the traced pass's trace, if any.
pub fn run_ranks<R: Send>(
    world: &World,
    tracing: &mut Tracing<'_>,
    f: impl Fn(&mut Comm, &mut RankSpans) -> R + Send + Sync,
) -> Vec<R> {
    let (epoch, parent) = match tracing {
        Some((t, p)) => (Some(t.epoch()), Some(*p)),
        None => (None, None),
    };
    let out = world.run(|comm| {
        let mut spans = RankSpans::new(epoch, parent, comm.rank() as u64);
        let result = f(comm, &mut spans);
        (result, spans.into_spans())
    });
    let (results, spans): (Vec<R>, Vec<Vec<Span>>) = out.into_iter().unzip();
    if let Some((trace, _)) = tracing {
        trace.absorb(spans.into_iter().flatten());
    }
    results
}

/// A rank thread's span recorder. With no epoch (tracing off) every call
/// passes straight through and nothing is recorded.
#[derive(Debug)]
pub struct RankSpans {
    epoch: Option<Instant>,
    parent: Option<usize>,
    request: u64,
    spans: Vec<Span>,
}

impl RankSpans {
    /// A recorder for rank `request` under span `parent`; `epoch` is the
    /// trace's epoch, or `None` for an untraced pass.
    pub fn new(epoch: Option<Instant>, parent: Option<usize>, request: u64) -> Self {
        Self {
            epoch,
            parent,
            request,
            spans: Vec::new(),
        }
    }

    /// Runs one call into the program on this rank, recording its host and
    /// virtual interval when tracing.
    pub fn call<R>(&mut self, name: &str, comm: &mut Comm, f: impl FnOnce(&mut Comm) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(comm);
        };
        let v0 = comm.clock().secs();
        let h0 = epoch.elapsed().as_nanos() as u64;
        let out = f(comm);
        let h1 = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.parent,
            request: self.request,
            host: Some((h0, h1)),
            virt: Some((v0, comm.clock().secs())),
        });
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_is_wellformed() {
        let mut t = Trace::new();
        let p = t.open("pass", None, 0);
        t.virtual_span("bin \"0\"", Some(p), 3, 0.5, 0.75);
        t.close(p);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"bin \\\"0\\\"\""));
        assert!(json.contains("\"ts\":500000.000,\"dur\":250000.000"));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
