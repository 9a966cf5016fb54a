//! Job assembly and execution: place ranks on nodes/cores, run the
//! scripts on a cluster, extract per-iteration timing.

use crate::kernels::Kernel;
use crate::ops::{match_info, Phase, Script};
use omx_hw::CoreId;
use omx_sim::{Ps, Sim};
use open_mx::app::{App, AppCtx, Completion};
use open_mx::cluster::{Cluster, ClusterParams};
use open_mx::{EpAddr, EpIdx, NodeId, ReqId};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Rank placement across the two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One process per node: ranks 0,1 on nodes 0,1 (np = 2).
    OnePerNode,
    /// Two processes per node, round-robin placement (the common
    /// mpirun default of the era): ranks 0,2 on node 0, ranks 1,3 on
    /// node 1 (np = 4). Ranks 0 and 1 stay remote — IMB PingPong with
    /// 2 ppn still measures the network — while even/odd pairs on one
    /// host exercise the shared-memory path. The two local ranks sit
    /// on different sockets (no shared L2).
    TwoPerNode,
    /// `n` nodes, one rank per node (rank `r` on node `r`, core 2) —
    /// the scale layout for 1k–10k-rank jobs, partitionable across
    /// engine shards because no two ranks share a node.
    Nodes(usize),
}

impl Layout {
    /// Number of ranks.
    pub fn np(&self) -> usize {
        match self {
            Layout::OnePerNode => 2,
            Layout::TwoPerNode => 4,
            Layout::Nodes(n) => *n,
        }
    }

    /// Number of hosts the layout occupies.
    pub fn nodes(&self) -> usize {
        match self {
            Layout::OnePerNode | Layout::TwoPerNode => 2,
            Layout::Nodes(n) => *n,
        }
    }

    /// Node and core of one rank.
    pub fn spec(&self, rank: usize) -> (NodeId, CoreId) {
        match self {
            Layout::OnePerNode => (NodeId(rank as u32), CoreId(2)),
            Layout::TwoPerNode => {
                let node = NodeId((rank % 2) as u32);
                let core = if rank / 2 == 0 { CoreId(2) } else { CoreId(4) };
                (node, core)
            }
            Layout::Nodes(_) => (NodeId(rank as u32), CoreId(2)),
        }
    }

    /// Endpoint address of one rank (add order is rank order).
    pub fn addr(&self, rank: usize) -> EpAddr {
        let (node, _) = self.spec(rank);
        let ep = match self {
            Layout::OnePerNode | Layout::Nodes(_) => 0,
            Layout::TwoPerNode => (rank / 2) as u8,
        };
        EpAddr {
            node,
            ep: EpIdx(ep),
        }
    }
}

/// Result of one kernel run.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Steady-state time per iteration (rank 0 mark spacing, warm-up
    /// marks skipped).
    pub time_per_iter: Ps,
    /// Simulation end time.
    pub end: Ps,
    /// Rank-0 mark timestamps.
    pub marks: Vec<Ps>,
    /// Per-component time accounting over the whole job.
    pub breakdown: open_mx::harness::ComponentBreakdown,
    /// Whether no send was aborted by retransmission exhaustion and —
    /// unless the configuration deliberately injects faults — the wire
    /// stayed clean (no ring or FCS drops).
    pub verified: bool,
    /// Engine events executed over the whole job (deterministic; feeds
    /// benchrun's events/sec figure and the perf-smoke fingerprint).
    pub events_executed: u64,
    /// Aggregate cluster counters at the end of the job, fault and
    /// recovery events included.
    pub stats: open_mx::cluster::Stats,
    /// Skbuffs still held by pending copies after the job drained
    /// (leak detector: must be zero).
    pub end_skbuffs_held: u64,
    /// Pinned regions still registered at the end, summed over every
    /// endpoint (with the registration cache disabled this must be
    /// zero).
    pub end_pinned_regions: u64,
    /// Per-shard deterministic load figures, in shard order (one entry
    /// for an unpartitioned run). The scale ablation renders these as
    /// its events / peak-memory-proxy columns.
    pub shards: Vec<ShardLoad>,
}

/// One shard's deterministic load and footprint figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Engine events this shard executed.
    pub events: u64,
    /// Peak simultaneous pending events on this shard's wheel — the
    /// engine's peak-memory proxy (event pool + slab occupancy track
    /// the pending population), deterministic per schedule.
    pub peak_pending: usize,
    /// Ranks whose scripts lived on this shard.
    pub ranks: usize,
}

impl KernelResult {
    /// IMB-style throughput for a ping-pong-like kernel: bytes per
    /// half-iteration, in MiB/s.
    pub fn pingpong_mibs(&self, size: u64) -> f64 {
        size as f64 / (self.time_per_iter / 2).as_secs_f64() / (1u64 << 20) as f64
    }
}

#[derive(Default)]
struct JobShared {
    marks: Vec<Ps>,
    done_ranks: usize,
    /// Ranks installed on this shard (owned nodes only).
    ranks_installed: usize,
}

struct RankApp {
    rank: usize,
    script: Script,
    pc: usize,
    /// Rank → endpoint table, shared by every rank on this shard (at
    /// 10k ranks a per-app copy would be ~800 MB across the job).
    addrs: Rc<Vec<EpAddr>>,
    waiting: BTreeSet<ReqId>,
    shared: Rc<RefCell<JobShared>>,
    done: bool,
    finished_count: bool,
}

impl RankApp {
    /// Stable buffer identity per (peer, tag, direction) so repeated
    /// iterations reuse registrations (the Fig 11 regcache effect).
    fn buf_tag(&self, peer: usize, tag: u32, send: bool) -> u64 {
        ((self.rank as u64) << 40) | ((peer as u64) << 24) | ((tag as u64) << 1) | u64::from(send)
    }

    fn advance(&mut self, ctx: &mut AppCtx<'_>) {
        while self.pc < self.script.len() {
            let phase: Phase = self.script[self.pc].clone();
            if phase.sends.is_empty() && phase.recvs.is_empty() {
                if phase.compute > Ps::ZERO {
                    ctx.compute(phase.compute);
                }
                if phase.mark {
                    self.shared.borrow_mut().marks.push(ctx.now());
                }
                self.pc += 1;
                continue;
            }
            for r in &phase.recvs {
                let req = ctx.irecv(
                    match_info(r.from, r.tag),
                    u64::MAX,
                    r.bytes,
                    Some(self.buf_tag(r.from, r.tag, false)),
                );
                self.waiting.insert(req);
            }
            for s in &phase.sends {
                let req = ctx.isend(
                    self.addrs[s.to],
                    match_info(self.rank, s.tag),
                    vec![0xC5u8; s.bytes as usize],
                    Some(self.buf_tag(s.to, s.tag, true)),
                );
                self.waiting.insert(req);
            }
            return; // wait for the phase to drain
        }
        if !self.done {
            self.done = true;
            if !self.finished_count {
                self.finished_count = true;
                self.shared.borrow_mut().done_ranks += 1;
            }
        }
    }
}

impl App for RankApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.advance(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let req = comp.req();
        if !self.waiting.remove(&req) {
            return;
        }
        if !self.waiting.is_empty() {
            return;
        }
        // Phase drained: apply compute and marks, then continue.
        let phase = &self.script[self.pc];
        if phase.compute > Ps::ZERO {
            ctx.compute(phase.compute);
        }
        if phase.mark {
            self.shared.borrow_mut().marks.push(ctx.now());
        }
        self.pc += 1;
        self.advance(ctx);
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Run arbitrary per-rank scripts on a cluster.
pub fn run_scripts(params: ClusterParams, layout: Layout, scripts: Vec<Script>) -> KernelResult {
    let np = layout.np();
    assert_eq!(scripts.len(), np, "one script per rank");
    run_job(params, layout, move |rank| scripts[rank].clone())
}

/// Run one job from a per-rank script generator, partitioned per
/// `params.partitions` and fanned across `params.partition_workers`
/// threads (results are identical for any value of either knob).
///
/// `gen(rank)` builds rank `rank`'s script; each shard invokes it only
/// for the ranks whose nodes it owns, so a 4k-rank job never holds all
/// 4k scripts in one place.
pub fn run_job<G>(mut params: ClusterParams, layout: Layout, gen: G) -> KernelResult
where
    G: Fn(usize) -> Script + Sync,
{
    let np = layout.np();
    params.nodes = params.nodes.max(layout.nodes());
    let install = |cluster: &mut Cluster, _shard: usize| {
        let shared = Rc::new(RefCell::new(JobShared::default()));
        let addrs = Rc::new((0..np).map(|r| layout.addr(r)).collect::<Vec<EpAddr>>());
        for rank in 0..np {
            let (node, core) = layout.spec(rank);
            if !cluster.owns(node) {
                continue;
            }
            shared.borrow_mut().ranks_installed += 1;
            cluster.add_endpoint(
                node,
                core,
                Box::new(RankApp {
                    rank,
                    script: gen(rank),
                    pc: 0,
                    addrs: addrs.clone(),
                    waiting: BTreeSet::new(),
                    shared: shared.clone(),
                    done: false,
                    finished_count: false,
                }),
            );
        }
        shared
    };
    let finish = |_shard: usize,
                  sim: &mut Sim<Cluster>,
                  _cluster: &mut Cluster,
                  shared: Rc<RefCell<JobShared>>| {
        let sh = shared.take();
        let load = ShardLoad {
            events: sim.events_executed(),
            peak_pending: sim.events_peak_pending(),
            ranks: sh.ranks_installed,
        };
        (sh.marks, sh.done_ranks, load)
    };
    let (run, tallies) = open_mx::run_partitioned(params, install, finish);
    let mut marks = Vec::new();
    let mut done_ranks = 0usize;
    let mut shards = Vec::with_capacity(tallies.len());
    for (m, done, load) in tallies {
        marks.extend(m);
        done_ranks += done;
        shards.push(load);
    }
    assert_eq!(
        done_ranks, np,
        "job deadlocked: {done_ranks}/{np} ranks finished"
    );
    // Marks from one shard are chronological; the merged sequence is
    // re-sorted (stably — the single-shard case is untouched) so the
    // timeline reads the same however the marking ranks were dealt.
    marks.sort();
    let time_per_iter = iter_time(&marks);
    KernelResult {
        time_per_iter,
        end: run.end,
        marks,
        breakdown: open_mx::harness::ComponentBreakdown::from_totals(&run.busy, run.end),
        verified: run.clean_wire && run.stats.sends_failed == 0,
        events_executed: run.events,
        end_skbuffs_held: run.end_skbuffs_held,
        end_pinned_regions: run.end_pinned_regions,
        stats: run.stats,
        shards,
    }
}

/// Steady-state iteration period from rank-0 marks, skipping warm-up.
fn iter_time(marks: &[Ps]) -> Ps {
    assert!(marks.len() >= 2, "need at least two marks for timing");
    let skip = (marks.len() / 4).min(2);
    let usable = &marks[skip..];
    if usable.len() >= 2 {
        (*usable.last().expect("nonempty") - usable[0]) / (usable.len() as u64 - 1)
    } else {
        (*marks.last().expect("nonempty") - marks[0]) / (marks.len() as u64 - 1)
    }
}

/// Run one IMB kernel.
pub fn run_kernel(
    kernel: Kernel,
    layout: Layout,
    size: u64,
    iters: u32,
    params: ClusterParams,
) -> KernelResult {
    let np = layout.np();
    run_job(params, layout, move |rank| {
        kernel.rank_script(rank, np, size, iters)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use open_mx::config::{OmxConfig, StackKind};

    fn params(stack: StackKind, ioat: bool) -> ClusterParams {
        let base = if ioat {
            OmxConfig::with_ioat()
        } else {
            OmxConfig::default()
        };
        ClusterParams::with_cfg(OmxConfig { stack, ..base })
    }

    #[test]
    fn layouts_place_ranks() {
        assert_eq!(Layout::OnePerNode.np(), 2);
        assert_eq!(Layout::TwoPerNode.np(), 4);
        assert_eq!(Layout::TwoPerNode.spec(0), (NodeId(0), CoreId(2)));
        assert_eq!(
            Layout::TwoPerNode.spec(1),
            (NodeId(1), CoreId(2)),
            "round-robin: rank 1 is remote"
        );
        assert_eq!(Layout::TwoPerNode.spec(2), (NodeId(0), CoreId(4)));
        assert_eq!(Layout::TwoPerNode.spec(3), (NodeId(1), CoreId(4)));
        assert_eq!(Layout::TwoPerNode.addr(3).ep, EpIdx(1));
    }

    #[test]
    fn pingpong_kernel_runs_on_openmx() {
        let r = run_kernel(
            Kernel::PingPong,
            Layout::OnePerNode,
            4096,
            8,
            params(StackKind::OpenMx, false),
        );
        assert!(r.time_per_iter > Ps::us(5), "{}", r.time_per_iter);
        assert!(r.time_per_iter < Ps::us(100), "{}", r.time_per_iter);
        assert_eq!(r.marks.len(), 8);
    }

    #[test]
    fn pingpong_kernel_runs_on_mxoe() {
        let r = run_kernel(
            Kernel::PingPong,
            Layout::OnePerNode,
            4096,
            8,
            params(StackKind::Mxoe, false),
        );
        // MX must beat Open-MX at this size.
        let omx = run_kernel(
            Kernel::PingPong,
            Layout::OnePerNode,
            4096,
            8,
            params(StackKind::OpenMx, false),
        );
        assert!(r.time_per_iter < omx.time_per_iter);
    }

    #[test]
    fn all_kernels_complete_both_layouts() {
        for k in Kernel::ALL {
            for layout in [Layout::OnePerNode, Layout::TwoPerNode] {
                let r = run_kernel(k, layout, 16 << 10, 4, params(StackKind::OpenMx, false));
                assert!(
                    r.time_per_iter > Ps::ZERO,
                    "{} {:?} produced no timing",
                    k.name(),
                    layout
                );
            }
        }
    }

    #[test]
    fn nodes_layout_places_one_rank_per_node() {
        let l = Layout::Nodes(8);
        assert_eq!(l.np(), 8);
        assert_eq!(l.nodes(), 8);
        assert_eq!(l.spec(5), (NodeId(5), CoreId(2)));
        assert_eq!(l.addr(5).ep, EpIdx(0));
    }

    #[test]
    fn partitioned_alltoall_matches_single_engine() {
        // The same 8-rank, 8-node alltoall split across 4 shards (on 4
        // worker threads) must reproduce the single-engine run exactly
        // — marks, end time, event count and the full serialized
        // stats. This is the job-level version of the harness identity
        // tests, crossing partition boundaries on every pairwise step.
        let run = |partitions: usize, workers: usize| {
            let mut p = params(StackKind::OpenMx, true);
            p.partitions = partitions;
            p.partition_workers = workers;
            run_kernel(Kernel::Alltoall, Layout::Nodes(8), 64 << 10, 3, p)
        };
        let single = run(1, 1);
        for (name, other) in [
            ("4 shards, 1 worker", run(4, 1)),
            ("4 shards, 4 workers", run(4, 4)),
        ] {
            assert_eq!(single.marks, other.marks, "{name}: marks");
            assert_eq!(single.end, other.end, "{name}: end time");
            assert_eq!(
                single.events_executed, other.events_executed,
                "{name}: event count"
            );
            assert_eq!(
                serde_json::to_string(&single.stats).unwrap(),
                serde_json::to_string(&other.stats).unwrap(),
                "{name}: serialized stats"
            );
        }
    }

    #[test]
    fn ioat_speeds_up_large_alltoall() {
        let base = run_kernel(
            Kernel::Alltoall,
            Layout::OnePerNode,
            1 << 20,
            4,
            params(StackKind::OpenMx, false),
        );
        let ioat = run_kernel(
            Kernel::Alltoall,
            Layout::OnePerNode,
            1 << 20,
            4,
            params(StackKind::OpenMx, true),
        );
        assert!(
            ioat.time_per_iter < base.time_per_iter,
            "I/OAT {} vs memcpy {}",
            ioat.time_per_iter,
            base.time_per_iter
        );
    }
}
