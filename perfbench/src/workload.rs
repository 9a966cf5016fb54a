//! The four benchmark workloads: their parameters, one run through the
//! public harness entry points, the per-run correctness checks, and the
//! stand-alone set-up measurement.

use omx_hw::CoreId;
use omx_mpi::runner::{run_kernel, KernelResult, Layout, ShardLoad};
use omx_mpi::{Kernel, Script};
use omx_sim::{Ps, Sim};
use open_mx::app::{App, AppCtx, Completion};
use open_mx::cluster::{Cluster, ClusterParams, Stats};
use open_mx::config::OmxConfig;
use open_mx::fault::FaultPlan;
use open_mx::harness::{
    run_incast, run_stream, ComponentBreakdown, IncastConfig, IncastResult, StreamConfig,
    StreamResult,
};
use open_mx::NodeId;

/// Ranks of the Alltoall workloads.
pub const A2A_RANKS: usize = 256;
/// Ranks of the small twin used for the per-event scaling ratio.
pub const A2A_SMALL_RANKS: usize = 64;
/// Alltoall message size (medium class: copied by the BH with memcpy).
pub const A2A_BYTES: u64 = 256;
/// IMB iterations per Alltoall run.
pub const A2A_ITERS: u32 = 2;
/// Stream message size (large class: rendezvous pull, I/OAT offload).
pub const STREAM_BYTES: u64 = 4 << 20;
/// Messages per stream run.
pub const STREAM_COUNT: u32 = 256;
/// Incast sender hosts.
pub const INCAST_SENDERS: u32 = 16;
/// Incast message size.
pub const INCAST_BYTES: u64 = 256 << 10;
/// Messages per incast sender.
pub const INCAST_COUNT: u32 = 256;
/// RX queues of every incast host.
pub const INCAST_QUEUES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    A2aTiny256,
    A2aTiny256P2,
    StreamIoat4m,
    IncastFaulty256k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::A2aTiny256,
        Workload::A2aTiny256P2,
        Workload::StreamIoat4m,
        Workload::IncastFaulty256k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::A2aTiny256 => "a2a_tiny_256",
            Workload::A2aTiny256P2 => "a2a_tiny_256_p2",
            Workload::StreamIoat4m => "stream_ioat_4m",
            Workload::IncastFaulty256k => "incast_faulty_256k",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A configuration of one workload. Every variant except
/// [`Variant::Ranks64`] must produce byte-identical simulated output:
/// they only switch engine and bookkeeping knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Default,
    /// Metrics registry off.
    MetricsOff,
    /// Two-level timing wheel.
    Wheel2,
    /// One partition, one worker (the twin of `a2a_tiny_256_p2`).
    SingleEngine,
    /// The same Alltoall at 64 ranks (per-event cost scaling).
    Ranks64,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::MetricsOff => "metrics_off",
            Variant::Wheel2 => "wheel2",
            Variant::SingleEngine => "single_engine",
            Variant::Ranks64 => "ranks64",
        }
    }
}

/// Cluster parameters of `w` at `seed` under `v`. The seed enters only
/// `OmxConfig::seed`.
pub fn params(w: Workload, seed: u64, v: Variant) -> ClusterParams {
    let mut cfg = OmxConfig {
        seed,
        ..OmxConfig::with_ioat()
    };
    // Registration cache off: a cached registration legitimately stays
    // pinned, so only with the cache off is `end_pinned_regions == 0`
    // a leak check.
    cfg.regcache = false;
    if w == Workload::IncastFaulty256k {
        cfg.pull_credits = true;
        cfg.fault_plan = FaultPlan::dirty_fiber();
    }
    match v {
        Variant::MetricsOff => cfg.metrics = false,
        Variant::Wheel2 => cfg.wheel_levels = 2,
        _ => {}
    }
    let mut p = ClusterParams::with_cfg(cfg);
    match w {
        Workload::A2aTiny256 | Workload::A2aTiny256P2 => {
            p.nodes = ranks(v);
            if w == Workload::A2aTiny256P2 && v != Variant::SingleEngine {
                p.partitions = 2;
                p.partition_workers = 2;
            }
        }
        Workload::StreamIoat4m => {}
        Workload::IncastFaulty256k => {
            p.nic.num_queues = INCAST_QUEUES;
            p.nodes = 1 + INCAST_SENDERS as usize;
        }
    }
    p
}

fn ranks(v: Variant) -> usize {
    if v == Variant::Ranks64 {
        A2A_SMALL_RANKS
    } else {
        A2A_RANKS
    }
}

/// What one run produced, reduced to what the benchmark reports and
/// checks.
pub struct Outcome {
    /// FNV-1a of Stats, event count, end time and marks: equal across
    /// every output-neutral variant.
    pub neutral: u64,
    /// `neutral` plus the component breakdown (which reads zero with
    /// metrics off): the digest committed for the default seed.
    pub fingerprint: u64,
    /// Failed checks, empty when the run is correct.
    pub problems: Vec<String>,
    pub events: u64,
    /// Simulated completion time.
    pub sim_end: Ps,
    /// Simulated time per iteration: one Alltoall, one stream message,
    /// one delivered incast message.
    pub sim_iter: Ps,
    /// Simulated delivered throughput, MiB/s.
    pub sim_mibs: f64,
    /// Receiver CPU utilisation in simulated time (see README).
    pub sim_rx_util: f64,
    pub stats: Stats,
    pub breakdown: ComponentBreakdown,
    /// Per-shard engine load (Alltoall only; the stream and incast
    /// harnesses do not expose it).
    pub shards: Vec<ShardLoad>,
    /// Messages the workload delivers when correct.
    pub messages: u64,
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digests(
    stats: &Stats,
    events: u64,
    end: Ps,
    marks: &[Ps],
    bd: &ComponentBreakdown,
) -> (u64, u64) {
    let marks: Vec<u64> = marks.iter().map(|m| m.as_ps()).collect();
    let neutral = format!(
        "{{\"stats\":{},\"events\":{},\"end_ps\":{},\"marks_ps\":{:?}}}",
        serde_json::to_string(stats).expect("stats serialize"),
        events,
        end.as_ps(),
        marks
    );
    let full = format!(
        "{neutral}{}",
        serde_json::to_string(bd).expect("breakdown serialize")
    );
    (fnv1a(&neutral), fnv1a(&full))
}

fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// The harness result of one run, before any checking.
pub enum Raw {
    Kernel(KernelResult),
    Stream(StreamResult),
    Incast(IncastResult),
}

/// Run `w` once under `v` through its public harness entry point.
pub fn run(w: Workload, seed: u64, v: Variant) -> Raw {
    let p = params(w, seed, v);
    match w {
        Workload::A2aTiny256 | Workload::A2aTiny256P2 => {
            let layout = Layout::Nodes(p.nodes);
            Raw::Kernel(run_kernel(
                Kernel::Alltoall,
                layout,
                A2A_BYTES,
                A2A_ITERS,
                p,
            ))
        }
        Workload::StreamIoat4m => {
            let mut c = StreamConfig::new(p, STREAM_BYTES);
            c.count = STREAM_COUNT;
            Raw::Stream(run_stream(c))
        }
        Workload::IncastFaulty256k => Raw::Incast(run_incast(IncastConfig::new(
            p,
            INCAST_SENDERS,
            INCAST_BYTES,
            INCAST_COUNT,
        ))),
    }
}

/// Check everything a single run of `w` under `v` can show and reduce
/// it to what the benchmark reports.
pub fn verify(w: Workload, v: Variant, raw: Raw) -> Outcome {
    let mut problems = Vec::new();
    let (verified, skbuffs, pinned) = match &raw {
        Raw::Kernel(r) => (r.verified, r.end_skbuffs_held, r.end_pinned_regions),
        Raw::Stream(r) => (r.verified, r.end_skbuffs_held, r.end_pinned_regions),
        Raw::Incast(r) => (r.verified, r.end_skbuffs_held, r.end_pinned_regions),
    };
    check(&mut problems, verified, || {
        "harness did not verify the run".into()
    });
    check(&mut problems, skbuffs == 0, || {
        format!("{skbuffs} skbuffs held at end")
    });
    check(&mut problems, pinned == 0, || {
        format!("{pinned} pinned regions at end")
    });
    let mut o = match raw {
        Raw::Kernel(r) => {
            let np = ranks(v);
            let (neutral, fingerprint) =
                digests(&r.stats, r.events_executed, r.end, &r.marks, &r.breakdown);
            let b = &r.breakdown;
            Outcome {
                neutral,
                fingerprint,
                problems: Vec::new(),
                events: r.events_executed,
                sim_end: r.end,
                sim_iter: r.time_per_iter,
                sim_mibs: mibs(r.stats.bytes_delivered, r.end),
                sim_rx_util: (b.bh_copy_ns + b.submit_cpu_ns + b.poll_wait_ns)
                    / (np as f64 * b.elapsed_ns),
                messages: (np * (np - 1)) as u64 * u64::from(A2A_ITERS),
                stats: r.stats,
                breakdown: r.breakdown,
                shards: r.shards,
            }
        }
        Raw::Stream(r) => {
            let (neutral, fingerprint) =
                digests(&r.stats, r.events_executed, r.elapsed, &[], &r.breakdown);
            Outcome {
                neutral,
                fingerprint,
                problems: Vec::new(),
                events: r.events_executed,
                sim_end: r.elapsed,
                sim_iter: r.elapsed / u64::from(STREAM_COUNT),
                sim_mibs: r.throughput_mibs,
                sim_rx_util: r.bh_util,
                messages: u64::from(STREAM_COUNT),
                stats: r.stats,
                breakdown: r.breakdown,
                shards: Vec::new(),
            }
        }
        Raw::Incast(r) => {
            check(&mut problems, r.delivered == r.expected, || {
                format!("incast delivered {} of {}", r.delivered, r.expected)
            });
            let (neutral, fingerprint) =
                digests(&r.stats, r.events_executed, r.elapsed, &[], &r.breakdown);
            let b = &r.breakdown;
            Outcome {
                neutral,
                fingerprint,
                problems: Vec::new(),
                events: r.events_executed,
                sim_end: r.elapsed,
                sim_iter: r.per_msg,
                sim_mibs: mibs(u64::from(r.delivered) * INCAST_BYTES, r.elapsed),
                sim_rx_util: (b.bh_copy_ns + b.submit_cpu_ns + b.poll_wait_ns) / b.elapsed_ns,
                messages: u64::from(r.expected),
                stats: r.stats,
                breakdown: r.breakdown,
                shards: Vec::new(),
            }
        }
    };
    coverage(w, v, &o, &mut problems);
    o.problems = problems;
    o
}

fn mibs(bytes: u64, t: Ps) -> f64 {
    bytes as f64 / t.as_secs_f64().max(1e-18) / (1u64 << 20) as f64
}

/// Workload-coverage assertions: each workload must keep exercising
/// the layer it was chosen for, and not the layers it was chosen to
/// bypass.
fn coverage(w: Workload, v: Variant, o: &Outcome, problems: &mut Vec<String>) {
    let c = &o.stats.counters;
    match w {
        Workload::A2aTiny256 | Workload::A2aTiny256P2 => {
            check(problems, c.copies_offloaded == 0, || {
                format!("a2a offloaded {} copies", c.copies_offloaded)
            });
        }
        Workload::StreamIoat4m => {
            check(problems, c.copies_offloaded > 0, || {
                "stream offloaded no copy".into()
            });
        }
        Workload::IncastFaulty256k => {}
    }
    let faulty = w == Workload::IncastFaulty256k;
    check(problems, (o.stats.retransmissions > 0) == faulty, || {
        format!("{} retransmissions", o.stats.retransmissions)
    });
    let sharded = w == Workload::A2aTiny256P2 && v != Variant::SingleEngine;
    check(problems, (o.shards.len() == 2) == sharded, || {
        format!("{} shards", o.shards.len())
    });
    check(problems, o.stats.messages_delivered >= o.messages, || {
        format!(
            "{} messages delivered, {} expected",
            o.stats.messages_delivered, o.messages
        )
    });
    check(problems, o.stats.sends_failed == 0, || {
        format!("{} sends failed", o.stats.sends_failed)
    });
}

/// An endpoint that holds what the real app would hold and does
/// nothing: set-up measurement only.
struct Idle {
    _script: Script,
}

impl App for Idle {
    fn on_start(&mut self, _ctx: &mut AppCtx<'_>) {}
    fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _comp: Completion) {}
}

fn idle() -> Box<dyn App> {
    Box::new(Idle {
        _script: Vec::new(),
    })
}

/// Install `w`'s endpoints on the nodes `cluster` owns, in the same
/// node, core and per-node order as the harness does.
fn install(w: Workload, cluster: &mut Cluster) {
    match w {
        Workload::A2aTiny256 | Workload::A2aTiny256P2 => {
            let layout = Layout::Nodes(cluster.p.nodes);
            let np = layout.np();
            for rank in 0..np {
                let (node, core) = layout.spec(rank);
                if cluster.owns(node) {
                    let script = Kernel::Alltoall.rank_script(rank, np, A2A_BYTES, A2A_ITERS);
                    cluster.add_endpoint(node, core, Box::new(Idle { _script: script }));
                }
            }
        }
        Workload::StreamIoat4m => {
            cluster.add_endpoint(NodeId(0), CoreId(2), idle());
            cluster.add_endpoint(NodeId(1), CoreId(2), idle());
        }
        Workload::IncastFaulty256k => {
            if cluster.owns(NodeId(0)) {
                for e in 0..open_mx::harness::incast::RECV_ENDPOINTS {
                    cluster.add_endpoint(NodeId(0), CoreId(1 + 2 * e), idle());
                }
            }
            for s in 0..INCAST_SENDERS {
                if cluster.owns(NodeId(1 + s)) {
                    cluster.add_endpoint(NodeId(1 + s), CoreId(2), idle());
                }
            }
        }
    }
}

/// Host seconds from workload parameters to the first simulated event:
/// cluster build, endpoint install (with the rank scripts) and start.
/// A partitioned workload builds its shards on parallel workers, so
/// its set-up is the slowest shard's.
pub fn setup_secs(w: Workload, seed: u64) -> f64 {
    let p = params(w, seed, Variant::Default);
    let parts = p.partitions.clamp(1, p.nodes.max(1));
    (0..parts)
        .map(|my| {
            let p = p.clone();
            let sw = omx_sim::walltime::Stopwatch::start();
            let mut cluster = if parts == 1 {
                Cluster::new(p)
            } else {
                Cluster::new_shard(p, my)
            };
            let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
            install(w, &mut cluster);
            cluster.start(&mut sim);
            let secs = sw.elapsed_secs();
            drop((sim, cluster));
            secs
        })
        .fold(0.0, f64::max)
}
