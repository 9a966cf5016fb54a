//! Node-partitioned execution of one cluster simulation.
//!
//! The cluster world is split into `P` shards; shard `s` owns nodes
//! `i % P == s` and runs them on its own engine. The only interaction
//! between nodes in different shards is an Ethernet frame, and every
//! inter-node frame pays the full wire latency (sender NIC latency +
//! propagation + receiver NIC latency) before it can touch the
//! destination — that latency is the **lookahead** of the conservative
//! window protocol in [`omx_sim::partition`]. [`Cluster::deliver_frame`]
//! routes frames for foreign nodes into the partition outbox as
//! [`RemoteFrame`]s; the executor exchanges outboxes between windows
//! and injects them in one canonical order, so the result is
//! bit-identical for any partition count and any worker count.
//!
//! `partitions = 1` never enters this module's executor at all:
//! [`run_partitioned`] runs the classic build → install → start →
//! [`Sim::run`] sequence, byte-identical to the pre-partitioning
//! engine by construction.

use crate::cluster::{Cluster, ClusterParams, Stats};
use crate::harness::BusyTotals;
use crate::NodeId;
use omx_ethernet::{EthFrame, LinkParams};
use omx_sim::{run_shards, Ps, Shard, ShardBuilder, Sim};
use std::cmp::Ordering;

/// Partition bookkeeping carried by every [`Cluster`]: which shard
/// this world is, and the outbox of frames bound for other shards.
#[derive(Debug)]
pub struct PartitionCtx {
    my: usize,
    parts: usize,
    /// Per-shard emission sequence: the tie-breaker that makes every
    /// [`RemoteFrame`] key unique and preserves this shard's own
    /// emission order among same-instant frames.
    emitted: u64,
    outbox: Vec<(usize, RemoteFrame)>,
}

impl PartitionCtx {
    pub(crate) fn new(my: usize, parts: usize) -> Self {
        debug_assert!(parts >= 1 && my < parts);
        PartitionCtx {
            my,
            parts,
            emitted: 0,
            outbox: Vec::new(),
        }
    }

    /// Whether this world owns `node`.
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.parts == 1 || node.0 as usize % self.parts == self.my
    }

    /// Whether this world is one shard of a multi-shard run (and wire
    /// deliveries must therefore go through the exchange).
    pub(crate) fn partitioned(&self) -> bool {
        self.parts > 1
    }

    /// Queue a frame for the shard owning `frame.dst` — possibly this
    /// very shard: in a partitioned run *every* inter-node frame goes
    /// through the exchange, co-located pairs included, so the
    /// same-instant injection order is one canonical order and does
    /// not depend on which nodes happen to share a shard.
    pub(crate) fn push_remote(&mut self, sent_at: Ps, arrival: Ps, frame: EthFrame) {
        let dst_shard = frame.dst as usize % self.parts;
        let msg = RemoteFrame {
            arrival,
            sent_at,
            src_node: frame.src,
            emit_seq: self.emitted,
            frame,
        };
        self.emitted += 1;
        self.outbox.push((dst_shard, msg));
    }

    pub(crate) fn take_outbox(&mut self) -> Vec<(usize, RemoteFrame)> {
        std::mem::take(&mut self.outbox)
    }
}

/// One Ethernet frame crossing a partition boundary.
///
/// The ordering key `(arrival, sent_at, src_node, emit_seq)` fixes one
/// global injection order per exchange round: arrival time first (the
/// engine's order), then emission time and emitting node, then the
/// per-shard emission sequence. The key is unique — a shard owns its
/// source nodes exclusively and stamps `emit_seq` itself — so the
/// post-exchange sort is a total order independent of which worker
/// delivered which message first.
#[derive(Debug)]
pub struct RemoteFrame {
    /// When the frame is fully received at the destination NIC.
    arrival: Ps,
    /// When the sending shard emitted it (`Sim::now` at the send).
    sent_at: Ps,
    /// The emitting node.
    src_node: u32,
    /// Emission sequence on the emitting shard.
    emit_seq: u64,
    /// The frame itself.
    frame: EthFrame,
}

impl RemoteFrame {
    fn key(&self) -> (Ps, Ps, u32, u64) {
        (self.arrival, self.sent_at, self.src_node, self.emit_seq)
    }
}

impl PartialEq for RemoteFrame {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for RemoteFrame {}
impl PartialOrd for RemoteFrame {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RemoteFrame {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl Shard for Cluster {
    type Msg = RemoteFrame;

    fn msg_at(msg: &RemoteFrame) -> Ps {
        msg.arrival
    }

    fn take_outbox(&mut self) -> Vec<(usize, RemoteFrame)> {
        self.part.take_outbox()
    }

    fn inject(&mut self, sim: &mut Sim<Cluster>, msg: RemoteFrame) {
        let dst = NodeId(msg.frame.dst);
        debug_assert!(self.owns(dst), "injected frame for unowned node");
        let frame = msg.frame;
        sim.schedule_at(msg.arrival, move |c: &mut Cluster, s| {
            c.on_frame(s, dst, frame);
        });
    }
}

/// The conservative-window lookahead for a cluster: the fixed latency
/// every inter-node frame pays on top of serialization — sending-NIC
/// latency, cable propagation, receiving-NIC latency. A frame emitted
/// at `t` arrives no earlier than `t + lookahead + serialization`,
/// strictly beyond `t + lookahead`, which is exactly the bound the
/// window protocol needs (see `omx_sim::partition`).
pub fn lookahead(link: &LinkParams) -> Ps {
    link.tx_latency + link.propagation + link.rx_latency
}

/// The harness-independent reduction of one run, merged over every
/// shard.
///
/// Each shard contributes exactly the events, frames, busy intervals
/// and driver state of the nodes it owns, so integer sums (and the
/// latest shard clock) equal what one unpartitioned engine reports —
/// with `partitions = 1` the merge is the identity.
#[derive(Debug, Clone, Default)]
pub struct RunTally {
    /// Aggregate statistics with every endpoint's counters folded in
    /// ([`Cluster::stats_snapshot`] per shard, then
    /// [`Stats::absorb`]).
    pub stats: Stats,
    /// Integer busy totals behind the component breakdown.
    pub busy: BusyTotals,
    /// Engine events executed, summed over shards.
    pub events: u64,
    /// Simulation end time (the latest shard clock).
    pub end: Ps,
    /// Skbuffs still held by pending copies after the run drained
    /// (leak detector: must be zero).
    pub end_skbuffs_held: u64,
    /// Pinned regions still registered at the end, summed over every
    /// endpoint (with the registration cache disabled this must be
    /// zero).
    pub end_pinned_regions: u64,
    /// Whether the wire stayed clean enough to call the run verified:
    /// the configuration deliberately injects faults (drops are then
    /// expected and recovery is what is tested), or no frame was lost
    /// to ring overflow or FCS corruption.
    pub clean_wire: bool,
}

impl RunTally {
    /// Reduce one drained shard. Debug builds first assert that every
    /// lifecycle handle (skbuff, pinned region, I/OAT descriptor, pull
    /// handle) was completed or released — the sanitizer is
    /// thread-local, so this runs on the worker that ran the shard.
    fn of(sim: &Sim<Cluster>, cluster: &Cluster) -> Self {
        omx_sim::sanitize::SimSanitizer::assert_quiesced();
        RunTally {
            stats: cluster.stats_snapshot(),
            busy: BusyTotals::of(cluster),
            events: sim.events_executed(),
            end: sim.now(),
            end_skbuffs_held: cluster.nodes.iter().map(|n| n.driver.skbuffs_held).sum(),
            end_pinned_regions: cluster
                .nodes
                .iter()
                .flat_map(|n| n.endpoints.iter())
                .map(|e| e.regions.pinned_count() as u64)
                .sum(),
            // A property of the merged stats: set once every shard is in.
            clean_wire: false,
        }
    }

    fn absorb(&mut self, o: &RunTally) {
        self.stats.absorb(&o.stats);
        self.busy.absorb(&o.busy);
        self.events += o.events;
        self.end = self.end.max(o.end);
        self.end_skbuffs_held += o.end_skbuffs_held;
        self.end_pinned_regions += o.end_pinned_regions;
    }
}

/// Run one cluster simulation, partitioned per `params.partitions`
/// and fanned across `params.partition_workers` threads.
///
/// `install(cluster, shard)` adds this shard's endpoints — it must add
/// endpoints **only for owned nodes** (`cluster.owns(node)`), in the
/// same per-node order as the unpartitioned run, and returns whatever
/// per-shard state the caller's apps share (result collectors etc.).
/// `finish` reduces the caller's own per-shard values after the whole
/// simulation drained; it runs on the thread that ran the shard.
/// Returns the merged [`RunTally`] and the `finish` results in shard
/// order.
///
/// With `partitions <= 1` this is the classic engine, byte-identical
/// to the pre-partitioning code path: build, install, start, run to
/// completion, finish.
pub fn run_partitioned<S, R, I, F>(
    params: ClusterParams,
    install: I,
    finish: F,
) -> (RunTally, Vec<R>)
where
    I: Fn(&mut Cluster, usize) -> S + Sync,
    F: Fn(usize, &mut Sim<Cluster>, &mut Cluster, S) -> R + Sync,
    R: Send,
{
    let faults_active = params.cfg.fault_injection_active();
    let finish = |shard: usize, sim: &mut Sim<Cluster>, cluster: &mut Cluster, state: S| {
        (
            RunTally::of(sim, cluster),
            finish(shard, sim, cluster, state),
        )
    };
    let parts = params.partitions.clamp(1, params.nodes.max(1));
    let shards = if parts <= 1 {
        let mut cluster = Cluster::new(params);
        let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
        let state = install(&mut cluster, 0);
        cluster.start(&mut sim);
        sim.run(&mut cluster);
        vec![finish(0, &mut sim, &mut cluster, state)]
    } else {
        let la = lookahead(&params.link);
        let workers = params.partition_workers.max(1);
        let install = &install;
        let builders: Vec<ShardBuilder<'_, Cluster, S>> = (0..parts)
            .map(|my| {
                let params = params.clone();
                let b: ShardBuilder<'_, Cluster, S> = Box::new(move || {
                    let mut cluster = Cluster::new_shard(params, my);
                    let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
                    let state = install(&mut cluster, my);
                    cluster.start(&mut sim);
                    (sim, cluster, state)
                });
                b
            })
            .collect();
        run_shards(builders, la, workers, finish)
    };
    let mut tally = RunTally::default();
    let mut outs = Vec::with_capacity(shards.len());
    for (t, r) in shards {
        tally.absorb(&t);
        outs.push(r);
    }
    tally.clean_wire = faults_active
        || (tally.stats.frames_ring_dropped == 0 && tally.stats.frames_corrupt_dropped == 0);
    (tally, outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_is_the_fixed_wire_latency() {
        let l = LinkParams::default();
        assert_eq!(lookahead(&l), Ps::ns(900) + Ps::ns(300) + Ps::ns(900));
    }

    #[test]
    fn ownership_deals_nodes_round_robin() {
        let ctx = PartitionCtx::new(1, 4);
        assert!(ctx.owns(NodeId(1)));
        assert!(ctx.owns(NodeId(5)));
        assert!(!ctx.owns(NodeId(0)));
        assert!(ctx.partitioned());
        let whole = PartitionCtx::new(0, 1);
        assert!(whole.owns(NodeId(17)));
        assert!(!whole.partitioned());
    }

    #[test]
    fn remote_frames_sort_by_canonical_key() {
        let f = |arrival: u64, sent: u64, src: u32, seq: u64| RemoteFrame {
            arrival: Ps::ns(arrival),
            sent_at: Ps::ns(sent),
            src_node: src,
            emit_seq: seq,
            frame: EthFrame::new(src, 0, bytes::Bytes::from_static(b"x")),
        };
        let mut v = [f(5, 1, 2, 0), f(3, 2, 1, 4), f(3, 1, 3, 0), f(3, 1, 1, 1)];
        v.sort_unstable();
        let keys: Vec<_> = v.iter().map(|m| m.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(v[0].src_node, 1, "earliest arrival, earliest sender first");
        assert_eq!(v.last().unwrap().arrival, Ps::ns(5));
    }
}
