//! Spans around every call the benchmark makes into a simulator layer.
//!
//! The benchmark is single-threaded, so the recorder is a thread-local
//! stack: [`span`] opens a span, runs the call, and closes it, and the
//! span open at that moment becomes its parent. Spans are kept in memory
//! and only turned into reports (self time per layer, Chrome trace JSON)
//! after the timed passes. With recording off, [`span`] only checks a flag.
//!
//! A span's *self time* is its duration minus the durations of its
//! children. Spans nest strictly, so the self times of every span of a
//! pass, the root included, add up to the root's duration exactly (integer
//! nanoseconds): the root's self time is the time no layer claimed.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `<module>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Pass index within the workload.
    pub pass: u32,
    /// Step within the pass (batch, rate point, crash case, ...).
    pub step: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    pass: u32,
    step: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        workload: "",
        pass: 0,
        step: 0,
    });
}

/// Starts recording spans of `workload`'s pass `pass` (step 0).
pub fn begin_pass(workload: &'static str, pass: u32) {
    REC.with_borrow_mut(|r| {
        r.on = true;
        r.workload = workload;
        r.pass = pass;
        r.step = 0;
    });
}

/// Stops recording; spans recorded so far stay until [`take`].
pub fn stop() {
    REC.with_borrow_mut(|r| r.on = false);
}

/// Tags spans opened from now on with `step`.
pub fn step(step: u64) {
    REC.with_borrow_mut(|r| r.step = step);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    REC.with_borrow_mut(|r| std::mem::take(&mut r.spans))
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = REC.with_borrow_mut(|r| {
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied(),
            workload: r.workload,
            pass: r.pass,
            step: r.step,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with_borrow_mut(|r| {
            let end = r.origin.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = end;
            let top = r.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        });
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_ns();
        }
    }
    own
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Chrome trace-event JSON (complete `X` events, microseconds) of `spans`:
/// one process per workload, the span's parent index and pass/step ids in
/// `args`. Loads in Perfetto and `chrome://tracing`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut workloads: Vec<&str> = Vec::new();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let pid = match workloads.iter().position(|w| *w == s.workload) {
            Some(p) => p,
            None => {
                workloads.push(s.workload);
                workloads.len() - 1
            }
        } + 1;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{},\"pass\":{},\"step\":{}}}}}",
            json_str(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.pass,
            s.step,
        );
    }
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            out,
            ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
            i + 1,
            json_str(w)
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
            pass: 0,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 60, Some(0)),
            sp("b", 20, 30, Some(1)),
            sp("c", 70, 90, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 50 - 20, 50 - 10, 10, 20]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times sum to the root");
    }

    #[test]
    fn recorder_nests_and_is_off_by_default() {
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty(), "nothing is recorded while off");
        begin_pass("w", 3);
        span("outer", || {
            step(5);
            span("inner", || ());
        });
        stop();
        span("after", || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[1].pass, spans[1].step), (3, 5));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"inner\",\"cat\":\"bench\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":0"));
    }
}
