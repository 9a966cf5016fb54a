//! Repository benchmark for the Open-MX / I/OAT simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed 17] [--seconds 10] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up time, then the
//! workload repeated for `--seconds`, every repetition verified.
//! `--trace 1` is the separate traced run for the per-layer metrics:
//! phase spans, knob differencing and per-call probes. Human-readable
//! lines come first; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for every metric.

mod host;
mod probe;
mod workload;

use host::{median, quantile, Tracer};
use omx_sim::walltime::Stopwatch;
use std::collections::BTreeMap;
use workload::{setup_secs, Outcome, Variant, Workload};

const DEFAULT_SEED: u64 = 17;
const DEFAULT_SECONDS: f64 = 10.0;
/// Repetitions measured however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Host time given to each block of repeated set-ups, and the count
/// limits of a block.
const SETUP_BLOCK_S: f64 = 0.05;
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 500;
/// The paper's Fig. 9 receive results with I/OAT (Goglin, CLUSTER 2008).
const PAPER_MIBS: f64 = 1114.0;
const PAPER_RX_UTIL: f64 = 0.60;
/// Fingerprints of the default-seed outputs, one `<workload> <hex>` a line.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

const USAGE: &str =
    "usage: perfbench --workload <a2a_tiny_256|a2a_tiny_256_p2|stream_ioat_4m|incast_faulty_256k> \
     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {val}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn committed_fingerprint(w: Workload) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == w.name()).then(|| u64::from_str_radix(hex.trim(), 16).expect("hex fingerprint"))
    })
}

/// Operations attempted and failed; every failure is explained on
/// standard error.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: {what} FAILED: {}", problems.join("; "));
        }
    }
}

/// Checks that relate one run to the others of the same process.
struct Consistency {
    w: Workload,
    seed: u64,
    /// `(neutral, fingerprint)` of the first default run.
    first: Option<(u64, u64)>,
}

impl Consistency {
    fn check(&mut self, v: Variant, o: &Outcome) -> Vec<String> {
        let mut problems = o.problems.clone();
        if v == Variant::Ranks64 {
            return problems;
        }
        let &mut (neutral, fingerprint) = self.first.get_or_insert((o.neutral, o.fingerprint));
        if v == Variant::Default {
            if o.fingerprint != fingerprint {
                problems.push(format!(
                    "fingerprint {:016x} differs from the first run's",
                    o.fingerprint
                ));
            }
            if self.seed == DEFAULT_SEED {
                match committed_fingerprint(self.w) {
                    Some(c) if c == o.fingerprint => {}
                    c => problems.push(format!(
                        "fingerprint {:016x} differs from the committed {:016x?}",
                        o.fingerprint, c
                    )),
                }
            }
        } else if o.neutral != neutral {
            problems.push(format!(
                "{} changed the simulated output (Stats, events, end, marks)",
                v.name()
            ));
        }
        problems
    }
}

/// One reported metric; `applies == false` marks a layer the workload
/// does not exercise, reported as 0.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    applies: bool,
}

struct Report {
    ledger: Ledger,
    metrics: Vec<Metric>,
}

impl Report {
    fn new(ledger: Ledger) -> Report {
        Report {
            ledger,
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            applies: true,
        });
    }

    /// `value` where `applies`, else 0 flagged as not applicable.
    fn put_if(
        &mut self,
        applies: bool,
        name: &'static str,
        value: impl FnOnce() -> f64,
        unit: &'static str,
    ) {
        if applies {
            self.put(name, value(), unit);
        } else {
            self.metrics.push(Metric {
                name,
                value: 0.0,
                unit,
                applies: false,
            });
        }
    }

    fn print(&self) {
        for m in &self.metrics {
            if m.applies {
                println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
            } else {
                println!(
                    "{:<36} {:>18} {} (n/a: reported as 0)",
                    m.name, "n/a", m.unit
                );
            }
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.ledger.attempted, self.ledger.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ledger.failed == 0,
            self.ledger.attempted,
            self.ledger.failed,
            metrics.join(",")
        );
    }
}

/// Add one block of repeated set-ups to `samples`. Blocks run before
/// every repetition, so the set-up median samples the same host
/// conditions as the run itself.
fn setup_block(w: Workload, seed: u64, t: &mut Tracer, samples: &mut Vec<f64>) {
    let budget = Stopwatch::start();
    let mut n = 0;
    while n < SETUP_MIN || (n < SETUP_MAX && budget.elapsed_secs() < SETUP_BLOCK_S) {
        samples.push(t.span("setup", |_| setup_secs(w, seed)).0);
        n += 1;
    }
}

fn us(p: omx_sim::Ps) -> f64 {
    p.as_ps() as f64 / 1e6
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn measured(a: &Args) -> Report {
    let w = a.workload;
    let mut ledger = Ledger::default();
    let mut consistency = Consistency {
        w,
        seed: a.seed,
        first: None,
    };
    let (mut setups, mut walls, mut cpu) = (Vec::new(), Vec::new(), 0.0);
    let mut quiet = Tracer::new(false);
    let mut reps: Vec<(u64, Vec<String>)> = Vec::new();
    let mut last = None;
    let clock = Stopwatch::start();
    while reps.len() < MIN_REPS || clock.elapsed_secs() < a.seconds {
        setup_block(w, a.seed, &mut quiet, &mut setups);
        let cpu0 = host::cpu_secs();
        let sw = Stopwatch::start();
        let raw = workload::run(w, a.seed, Variant::Default);
        walls.push(sw.elapsed_secs());
        cpu += host::cpu_secs() - cpu0;
        let o = workload::verify(w, Variant::Default, raw);
        reps.push((o.neutral, consistency.check(Variant::Default, &o)));
        last = Some(o);
    }
    let peak_rss_mib = host::peak_rss_mib();
    if w == Workload::A2aTiny256P2 {
        // The single-engine twin, after the measured loop so it shows in
        // neither the times nor the peak memory.
        let o = workload::verify(
            w,
            Variant::SingleEngine,
            workload::run(w, a.seed, Variant::SingleEngine),
        );
        let problems = consistency.check(Variant::SingleEngine, &o);
        for (neutral, p) in &mut reps {
            if *neutral != o.neutral {
                p.push("partitioned output differs from the single engine".into());
            }
        }
        ledger.record("single-engine twin", &problems);
    }
    for (i, (_, p)) in reps.iter().enumerate() {
        ledger.record(&format!("repetition {i}"), p);
    }
    let o = last.expect("at least one repetition");
    let n = walls.len();
    let wall = median(&mut walls);
    let setup = median(&mut setups);
    let mut r = Report::new(ledger);
    r.put("wall_s", wall, "s");
    r.put("cpu_s", cpu / n as f64, "s");
    r.put("setup_s", setup, "s");
    r.put("peak_rss_mib", peak_rss_mib, "MiB");
    r.put("sim_end_us", us(o.sim_end), "sim_us");
    r.put("sim_iter_us", us(o.sim_iter), "sim_us");
    r.put("sim_mibs", o.sim_mibs, "MiB/s");
    r.put("sim_rx_cpu_util", o.sim_rx_util, "cores");
    println!(
        "workload {} seed {}: wall_s over {n} repetitions min {} median {wall} max {}; \
         setup_s over {} set-ups q1 {} median {setup} q3 {}",
        w.name(),
        a.seed,
        walls[0],
        walls[n - 1],
        setups.len(),
        quantile(&setups, 0.25),
        quantile(&setups, 0.75)
    );
    if w == Workload::StreamIoat4m {
        println!(
            "error vs paper (Fig. 9, I/OAT): sim_mibs {:.1} vs {PAPER_MIBS} MiB/s ({:+.1} %), \
             sim_rx_cpu_util {:.3} vs {PAPER_RX_UTIL} ({:+.1} %)",
            o.sim_mibs,
            (o.sim_mibs / PAPER_MIBS - 1.0) * 100.0,
            o.sim_rx_util,
            (o.sim_rx_util / PAPER_RX_UTIL - 1.0) * 100.0
        );
    }
    r
}

/// The variants of one traced round, the untraced default excluded.
fn traced_variants(w: Workload) -> Vec<Variant> {
    let mut v = vec![Variant::Default, Variant::MetricsOff, Variant::Wheel2];
    match w {
        Workload::A2aTiny256P2 => v.push(Variant::SingleEngine),
        Workload::A2aTiny256 => v.push(Variant::Ranks64),
        _ => {}
    }
    v
}

/// `--trace 1`: the per-layer metrics. Every run is verified; the
/// spans are written to `perfbench/traces/` at exit.
fn traced(a: &Args) -> Report {
    let w = a.workload;
    let mut t = Tracer::new(true);
    let mut ledger = Ledger::default();
    let mut consistency = Consistency {
        w,
        seed: a.seed,
        first: None,
    };
    let mut setups = Vec::new();
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut verify_s, mut untraced, mut cpu_default) = (Vec::new(), Vec::new(), 0.0);
    let mut outcomes: BTreeMap<&str, Outcome> = BTreeMap::new();
    let clock = Stopwatch::start();
    let mut round = 0;
    while round == 0 || clock.elapsed_secs() < a.seconds {
        // The untraced default run alternates sides with the traced
        // one, so drift in host speed does not land on one of them.
        let untraced_first = round % 2 == 0;
        setup_block(w, a.seed, &mut t, &mut setups);
        for v in traced_variants(w) {
            if v == Variant::Default && untraced_first {
                untraced.push(untraced_run(
                    w,
                    a.seed,
                    &mut t,
                    &mut consistency,
                    &mut ledger,
                ));
            }
            let cpu0 = host::cpu_secs();
            let (raw, secs) = t.span(&format!("run:{}", v.name()), |_| {
                workload::run(w, a.seed, v)
            });
            if v == Variant::Default {
                cpu_default += host::cpu_secs() - cpu0;
            }
            let (o, vsecs) = t.span("verify", |_| workload::verify(w, v, raw));
            ledger.record(v.name(), &consistency.check(v, &o));
            walls.entry(v.name()).or_default().push(secs);
            if v == Variant::Default {
                verify_s.push(vsecs);
                if !untraced_first {
                    untraced.push(untraced_run(
                        w,
                        a.seed,
                        &mut t,
                        &mut consistency,
                        &mut ledger,
                    ));
                }
            }
            outcomes.entry(v.name()).or_insert(o);
        }
        round += 1;
    }
    let shape = probe::Shape::of(w);
    let p = |t: &mut Tracer, name: &str, f: &dyn Fn() -> f64| {
        t.span(&format!("probe:{name}"), |_| f()).0
    };
    let engine = t.span("probe:engine", |_| probe::engine()).0;
    let ns_record = p(&mut t, "metrics", &|| probe::metrics_record(&shape));
    let ns_transmit = p(&mut t, "link", &|| probe::link_transmit(&shape));
    let ns_deliver = p(&mut t, "nic", &|| probe::nic_deliver(&shape));
    let ns_bh = p(&mut t, "bh", &|| probe::bh_frame(&shape));
    let (ns_submit, ns_batched) = t.span("probe:ioat", |_| probe::ioat()).0;
    let ns_copy_time = p(&mut t, "mem", &|| probe::mem_copy_time(&shape));
    let ns_touch = p(&mut t, "cache", &|| probe::cache_touch(&shape));
    let ns_match = p(&mut t, "match", &|| probe::match_incoming(&shape));

    let rounds = walls["default"].len() as f64;
    let med: BTreeMap<&str, f64> = walls.iter_mut().map(|(k, v)| (*k, median(v))).collect();
    let wall = med["default"];
    let wall_untraced = median(&mut untraced);
    let wall_moff = med["metrics_off"];
    let wall_w2 = med["wheel2"];
    let o = &outcomes["default"];
    let s = &o.stats;
    let c = &s.counters;
    let bd = &o.breakdown;
    let p2 = w == Workload::A2aTiny256P2;
    let sharded = !o.shards.is_empty();
    let peak_pending = o.shards.iter().map(|l| l.peak_pending).max().unwrap_or(0) as f64;
    let metrics_host_s = wall - wall_moff;
    // Host time the probes account for: per-call cost × the run's
    // deterministic call count, plus the differenced metrics cost.
    let nic_frames = s.frames_sent.saturating_sub(s.frames_lost) as f64;
    let delivered_frames = s
        .frames_sent
        .saturating_sub(s.frames_lost + s.frames_corrupt_dropped + s.frames_ring_dropped)
        as f64;
    let attributed_s = (engine[4] * o.events as f64
        + ns_transmit * s.frames_sent as f64
        + ns_deliver * nic_frames
        + ns_bh * delivered_frames
        + ns_submit * c.copies_offloaded as f64
        + (ns_copy_time + ns_touch) * c.copies_memcpy as f64
        + ns_match * s.messages_delivered as f64)
        / 1e9
        + metrics_host_s;

    let mut r = Report::new(ledger);
    r.put("phase.setup_s", median(&mut setups), "s");
    r.put("phase.run_s", wall, "s");
    r.put("phase.verify_s", median(&mut verify_s), "s");
    r.put("trace.overhead_s", wall - wall_untraced, "s");
    r.put("engine.events", o.events as f64, "count");
    r.put_if(sharded, "engine.peak_pending", || peak_pending, "count");
    r.put(
        "engine.host_ns_per_event",
        wall * 1e9 / o.events as f64,
        "ns",
    );
    r.put("engine.ns_per_event.distinct", engine[0], "ns");
    r.put("engine.ns_per_event.same_instant", engine[1], "ns");
    r.put("engine.ns_per_event.far_future", engine[2], "ns");
    r.put("engine.ns_per_event.cancel_heavy", engine[3], "ns");
    r.put("engine.ns_per_event.chain", engine[4], "ns");
    r.put("engine.wheel2_delta_s", wall_w2 - wall, "s");
    r.put("metrics.host_s", metrics_host_s, "s");
    r.put("metrics.host_frac", metrics_host_s / wall, "ratio");
    r.put("metrics.ns_per_record", ns_record, "ns");
    r.put_if(
        p2,
        "partition.speedup",
        || med["single_engine"] / wall,
        "ratio",
    );
    r.put(
        "partition.cpu_over_wall",
        cpu_default / rounds / wall,
        "ratio",
    );
    r.put_if(
        p2,
        "partition.shard_event_imbalance",
        || {
            let max = o.shards.iter().map(|l| l.events).max().unwrap_or(0) as f64;
            max * o.shards.len() as f64 / o.events as f64
        },
        "ratio",
    );
    r.put_if(
        sharded,
        "partition.peak_pending_max",
        || peak_pending,
        "count",
    );
    r.put("link.frames", s.frames_sent as f64, "count");
    r.put("link.wire_busy_us", bd.wire_ns / 1e3, "sim_us");
    r.put("link.ns_per_transmit", ns_transmit, "ns");
    r.put("nic.ring_drops", s.frames_ring_dropped as f64, "count");
    r.put("nic.ns_per_deliver", ns_deliver, "ns");
    r.put("bh.copy_busy_us", bd.bh_copy_ns / 1e3, "sim_us");
    r.put("bh.ns_per_frame", ns_bh, "ns");
    r.put("fault.lost", s.frames_lost as f64, "count");
    r.put("fault.corrupt", s.frames_corrupt_dropped as f64, "count");
    r.put("fault.duplicated", s.frames_duplicated as f64, "count");
    r.put("fault.reordered", s.frames_reordered as f64, "count");
    r.put("ioat.copies", c.copies_offloaded as f64, "count");
    r.put("ioat.bytes", c.bytes_offloaded as f64, "bytes");
    r.put("ioat.channel_busy_us", bd.ioat_channel_ns / 1e3, "sim_us");
    r.put("ioat.submit_cpu_us", bd.submit_cpu_ns / 1e3, "sim_us");
    r.put("ioat.poll_wait_us", bd.poll_wait_ns / 1e3, "sim_us");
    r.put("ioat.ns_per_submit", ns_submit, "ns");
    r.put("ioat.ns_per_batched_desc", ns_batched, "ns");
    r.put("mem.copies", c.copies_memcpy as f64, "count");
    r.put("mem.bytes", c.bytes_memcpy as f64, "bytes");
    r.put("mem.ns_per_copy_time", ns_copy_time, "ns");
    r.put("cache.ns_per_touch", ns_touch, "ns");
    r.put("driver.retransmissions", s.retransmissions as f64, "count");
    r.put(
        "driver.pull_retransmissions",
        s.pull_retransmissions as f64,
        "count",
    );
    r.put("driver.acks", s.acks_sent as f64, "count");
    r.put("driver.dups_dropped", s.duplicates_dropped as f64, "count");
    r.put("driver.credit_nacks", s.credit_nacks as f64, "count");
    r.put("driver.credit_shrinks", s.credit_shrinks as f64, "count");
    r.put("driver.credit_stalls", s.credit_stalls as f64, "count");
    r.put(
        "driver.frames_per_msg",
        s.frames_sent as f64 / s.messages_delivered as f64,
        "ratio",
    );
    r.put(
        "driver.delivered_frac",
        delivered_frames / s.frames_sent as f64,
        "ratio",
    );
    r.put("match.unexpected", c.unexpected as f64, "count");
    r.put("match.ns_per_match", ns_match, "ns");
    r.put_if(
        w == Workload::A2aTiny256,
        "cluster.ns_per_event_ratio_256_64",
        || {
            let small = &outcomes["ranks64"];
            (wall / o.events as f64) / (med["ranks64"] / small.events as f64)
        },
        "ratio",
    );
    r.put(
        "cluster.unattributed_frac",
        1.0 - attributed_s / wall,
        "ratio",
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", w.name(), a.seed));
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    std::fs::write(&path, t.chrome_json()).expect("write the trace file");
    println!(
        "workload {} seed {} traced rounds {rounds}; spans written to {}",
        w.name(),
        a.seed,
        path.display()
    );
    r
}

/// The default run with span recording off: the untraced side of the
/// tracing-overhead difference.
fn untraced_run(
    w: Workload,
    seed: u64,
    t: &mut Tracer,
    consistency: &mut Consistency,
    ledger: &mut Ledger,
) -> f64 {
    t.recording = false;
    let (raw, secs) = t.span("run:untraced", |_| workload::run(w, seed, Variant::Default));
    t.recording = true;
    let o = workload::verify(w, Variant::Default, raw);
    ledger.record("untraced default", &consistency.check(Variant::Default, &o));
    secs
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        measured(&args)
    };
    report.print();
}
