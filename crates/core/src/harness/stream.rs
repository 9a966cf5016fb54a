//! Unidirectional stream harness (Figure 9).
//!
//! A sender pushes a stream of synchronous large messages (the next
//! send is posted when the previous completed, exactly the workload of
//! §IV-B2); the receiver re-posts a receive per message. The result
//! reports per-category CPU utilization on the receiving host —
//! user-library, driver and bottom-half — which is what Fig 9 plots
//! with and without overlapped copy offload.

use crate::app::{App, AppCtx, Completion};
use crate::cluster::{Cluster, ClusterParams};
use crate::{EpAddr, EpIdx, NodeId};
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::{Ps, Sim};
use std::cell::RefCell;
use std::rc::Rc;

const STREAM_MATCH: u64 = 0x57;

/// Stream harness configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Cluster parameters.
    pub params: ClusterParams,
    /// Message size.
    pub size: u64,
    /// Number of messages.
    pub count: u32,
    /// Sender endpoint core (node 0).
    pub send_core: CoreId,
    /// Receiver endpoint core (node 1).
    pub recv_core: CoreId,
}

impl StreamConfig {
    /// A stream moving ≈48 MiB total (enough for stable utilization).
    pub fn new(params: ClusterParams, size: u64) -> Self {
        let count = ((48u64 << 20) / size).clamp(4, 256) as u32;
        StreamConfig {
            params,
            size,
            count,
            send_core: CoreId(2),
            recv_core: CoreId(2),
        }
    }
}

/// Stream harness output.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Receive-side bottom-half CPU utilization in `[0, 1]`.
    pub bh_util: f64,
    /// Receive-side driver (syscall/pinning) CPU utilization.
    pub driver_util: f64,
    /// Receive-side user-library CPU utilization.
    pub user_util: f64,
    /// Achieved stream throughput in MiB/s.
    pub throughput_mibs: f64,
    /// Whether every payload matched its pattern, no send was aborted
    /// by retransmission exhaustion and — unless the configuration
    /// deliberately injects faults — the wire stayed clean (no ring or
    /// FCS drops).
    pub verified: bool,
    /// Engine events executed over the whole run (deterministic; feeds
    /// benchrun's events/sec figure and the perf-smoke fingerprint).
    pub events_executed: u64,
    /// Peak skbuffs held by pending I/OAT copies on the receiver (the
    /// §III-B resource bound).
    pub max_skbuffs_held: u64,
    /// Stream duration.
    pub elapsed: Ps,
    /// Per-component time accounting over the stream window.
    pub breakdown: super::ComponentBreakdown,
    /// Aggregate cluster counters at the end of the run, fault and
    /// recovery events included.
    pub stats: crate::cluster::Stats,
    /// Skbuffs still held by pending copies after the run drained
    /// (leak detector: must be zero).
    pub end_skbuffs_held: u64,
    /// Pinned regions still registered at the end, summed over every
    /// endpoint (with the registration cache disabled this must be
    /// zero).
    pub end_pinned_regions: u64,
}

fn pattern(i: u32, size: u64) -> Vec<u8> {
    (0..size)
        .map(|b| ((b as u32).wrapping_add(i.wrapping_mul(131))) as u8)
        .collect()
}

#[derive(Default)]
struct SharedState {
    received: u32,
    corrupt: u64,
    first_recv_post: Ps,
    last_recv: Ps,
    done: bool,
}

struct StreamSender {
    peer: EpAddr,
    size: u64,
    count: u32,
    sent: u32,
}

impl App for StreamSender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.sent = 1;
        ctx.isend(self.peer, STREAM_MATCH, pattern(0, self.size), Some(10));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if !matches!(comp, Completion::Send { .. }) {
            return;
        }
        if self.sent < self.count {
            let i = self.sent;
            self.sent += 1;
            ctx.isend(self.peer, STREAM_MATCH, pattern(i, self.size), Some(10));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

struct StreamReceiver {
    size: u64,
    count: u32,
    shared: Rc<RefCell<SharedState>>,
}

impl App for StreamReceiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.shared.borrow_mut().first_recv_post = ctx.now();
        ctx.irecv(STREAM_MATCH, u64::MAX, self.size, Some(11));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv { data, .. } = comp else {
            return;
        };
        let mut sh = self.shared.borrow_mut();
        if data != pattern(sh.received, self.size) {
            sh.corrupt += 1;
        }
        sh.received += 1;
        sh.last_recv = ctx.now();
        if sh.received >= self.count {
            sh.done = true;
            return;
        }
        drop(sh);
        ctx.irecv(STREAM_MATCH, u64::MAX, self.size, Some(11));
    }

    fn is_done(&self) -> bool {
        self.shared.borrow().done
    }
}

/// What the receiving node's shard measured: its collector plus the
/// receive-side CPU utilization over the stream window.
struct ReceiverSide {
    shared: SharedState,
    elapsed: Ps,
    bh_util: f64,
    driver_util: f64,
    user_util: f64,
    max_skbuffs_held: u64,
}

/// Run one stream experiment (partitioned per
/// `cfg.params.partitions`; results are identical for every value).
pub fn run_stream(cfg: StreamConfig) -> StreamResult {
    let (send, recv) = (NodeId(0), NodeId(1));
    let recv_addr = EpAddr {
        node: recv,
        ep: EpIdx(0),
    };
    let (size, count) = (cfg.size, cfg.count);
    let (send_core, recv_core) = (cfg.send_core, cfg.recv_core);
    let install = |cluster: &mut Cluster, _shard: usize| {
        let shared = Rc::new(RefCell::new(SharedState::default()));
        if cluster.owns(send) {
            cluster.add_endpoint(
                send,
                send_core,
                Box::new(StreamSender {
                    peer: recv_addr,
                    size,
                    count,
                    sent: 0,
                }),
            );
        }
        if cluster.owns(recv) {
            cluster.add_endpoint(
                recv,
                recv_core,
                Box::new(StreamReceiver {
                    size,
                    count,
                    shared: shared.clone(),
                }),
            );
        }
        shared
    };
    let finish = |_shard: usize,
                  _sim: &mut Sim<Cluster>,
                  cluster: &mut Cluster,
                  shared: Rc<RefCell<SharedState>>| {
        if !cluster.owns(recv) {
            return None;
        }
        let shared = shared.take();
        let elapsed = shared.last_recv - shared.first_recv_post;
        let horizon = elapsed.max(Ps::ps(1));
        let recv_node = cluster.node(recv);
        let meter = recv_node.cpus.merged_meter();
        let util = |cat: &str| meter.total(cat).as_ps() as f64 / horizon.as_ps() as f64;
        Some(ReceiverSide {
            elapsed,
            bh_util: util(category::BH) + util(category::IRQ),
            driver_util: util(category::DRIVER),
            user_util: util(category::USER_LIB),
            max_skbuffs_held: recv_node.driver.skbuffs_held_max,
            shared,
        })
    };
    let (run, shards) = crate::partition::run_partitioned(cfg.params, install, finish);
    let rx = shards
        .into_iter()
        .flatten()
        .next()
        .expect("the receiver node ran");
    assert!(rx.shared.done, "stream did not complete");
    let horizon = rx.elapsed.max(Ps::ps(1));
    let bytes = size * count as u64;
    StreamResult {
        bh_util: rx.bh_util,
        driver_util: rx.driver_util,
        user_util: rx.user_util,
        throughput_mibs: bytes as f64 / horizon.as_secs_f64() / (1u64 << 20) as f64,
        verified: rx.shared.corrupt == 0 && run.stats.sends_failed == 0 && run.clean_wire,
        events_executed: run.events,
        max_skbuffs_held: rx.max_skbuffs_held,
        elapsed: rx.elapsed,
        breakdown: super::ComponentBreakdown::from_totals(&run.busy, horizon),
        end_skbuffs_held: run.end_skbuffs_held,
        end_pinned_regions: run.end_pinned_regions,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmxConfig;

    #[test]
    fn memcpy_stream_saturates_bh() {
        let mut cfg = StreamConfig::new(ClusterParams::default(), 1 << 20);
        cfg.count = 8;
        let r = run_stream(cfg);
        assert!(r.verified);
        assert!(
            r.bh_util > 0.80,
            "no-I/OAT large stream must be BH-bound: {}",
            r.bh_util
        );
        assert!(r.throughput_mibs > 500.0, "rate {}", r.throughput_mibs);
    }

    #[test]
    fn ioat_stream_cuts_bh_usage_and_raises_rate() {
        let params = ClusterParams::with_cfg(OmxConfig::with_ioat());
        let mut cfg = StreamConfig::new(params, 1 << 20);
        cfg.count = 8;
        let ioat = run_stream(cfg);
        let mut base_cfg = StreamConfig::new(ClusterParams::default(), 1 << 20);
        base_cfg.count = 8;
        let base = run_stream(base_cfg);
        assert!(ioat.verified);
        assert!(
            ioat.bh_util < base.bh_util - 0.1,
            "I/OAT must relieve the BH: {} vs {}",
            ioat.bh_util,
            base.bh_util
        );
        assert!(ioat.throughput_mibs > base.throughput_mibs);
        assert!(ioat.max_skbuffs_held > 0, "async copies must hold skbuffs");
    }
}
