//! Host-side measurement: process CPU time and peak memory from
//! `/proc`, medians, and the in-memory phase-span recorder of the
//! traced run.

use omx_sim::walltime::Stopwatch;
use std::fmt::Write as _;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every mainstream Linux architecture).
const CLOCK_TICKS: f64 = 100.0;

/// Median of `v` (mean of the middle two for even lengths); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of the sorted `v`, nearest rank below.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    v[((v.len() - 1) as f64 * q) as usize]
}

/// User plus system CPU seconds of this process so far, threads that
/// already exited included.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may hold spaces; the fields after its closing
    // parenthesis start at field 3, so utime (14) and stime (15) are
    // the 12th and 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / CLOCK_TICKS
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// Phase spans held in memory and written out once, at exit. With
/// recording off a span still times its body (the caller needs the
/// duration) but stores nothing.
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub recording: bool,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording,
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span; returns its result and its host seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_ns = self.clock.elapsed_nanos();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let end_ns = self.clock.elapsed_nanos();
        if let Some(id) = id {
            self.spans[id].end_ns = end_ns;
            self.stack.pop();
        }
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Spans as Chrome trace-event JSON (complete events, microsecond
    /// timestamps; `args.parent` is the index of the enclosing span).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        out
    }
}
