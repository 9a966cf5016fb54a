//! Per-call probes: each layer's public functions timed in isolation on
//! inputs shaped like the workload (scope count, frame size, queue
//! count, match-queue depth, cache working set). A probe reports the
//! median host nanoseconds per call over several timed batches; the
//! traced run multiplies it by the run's deterministic call count.

use crate::workload::{Workload, A2A_BYTES, A2A_RANKS, INCAST_QUEUES, INCAST_SENDERS};
use bytes::Bytes;
use omx_ethernet::{
    spread_queue_cores, BottomHalfQueue, EthFrame, Link, LinkParams, Nic, NicParams, Skbuff,
};
use omx_hw::cache::RegionKey;
use omx_hw::mem::CopyContext;
use omx_hw::{
    CacheModel, CopySegment, Distance, HwParams, IoatEngine, MemModel, SubchipId, Topology,
};
use omx_mpi::ops::match_info;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::walltime::Stopwatch;
use omx_sim::{Metrics, Ps, Sim};
use open_mx::matching::{Matcher, PostedRecv};
use open_mx::ReqId;
use std::hint::black_box;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 15;

/// The input shape a workload presents to each layer.
pub struct Shape {
    /// Metrics scopes (one per simulated host).
    scopes: u32,
    /// Payload bytes of a typical data frame.
    frame_bytes: usize,
    /// RX queues per NIC.
    queues: usize,
    /// Receives posted at once on one endpoint.
    match_depth: usize,
    /// Distinct buffers one core copies into.
    regions: u64,
}

impl Shape {
    pub fn of(w: Workload) -> Shape {
        match w {
            Workload::A2aTiny256 | Workload::A2aTiny256P2 => Shape {
                scopes: A2A_RANKS as u32,
                frame_bytes: A2A_BYTES as usize,
                queues: 1,
                match_depth: A2A_RANKS - 1,
                regions: (A2A_RANKS - 1) as u64,
            },
            Workload::StreamIoat4m => Shape {
                scopes: 2,
                frame_bytes: 4096,
                queues: 1,
                match_depth: 1,
                regions: 1,
            },
            Workload::IncastFaulty256k => Shape {
                scopes: 1 + INCAST_SENDERS,
                frame_bytes: 4096,
                queues: INCAST_QUEUES,
                match_depth: 4,
                regions: 4,
            },
        }
    }
}

/// Median nanoseconds per call of `batch`, which performs `calls`
/// calls and is timed as a whole.
fn per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy state
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sw = Stopwatch::start();
            batch();
            sw.elapsed_nanos() as f64 / calls as f64
        })
        .collect();
    crate::host::median(&mut ns)
}

/// Per-event cost of the benchrun engine shapes on the production
/// (single-level) wheel: `[distinct, same_instant, far_future,
/// cancel_heavy, chain]`.
pub fn engine() -> [f64; 5] {
    const N: u64 = 20_000;
    let distinct = per_call(N, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for i in 0..N {
            sim.schedule_at(Ps::ns(i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        black_box(world);
    });
    let same_instant = per_call(N, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for _ in 0..N {
            sim.schedule_at(Ps::us(3), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        black_box(world);
    });
    let far_future = per_call(N, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for i in 0..N {
            sim.schedule_at(Ps::us(3 * (1 + i)), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        black_box(world);
    });
    let cancel_heavy = per_call(N, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        let ids: Vec<_> = (0..N)
            .map(|i| sim.schedule_at_cancellable(Ps::ns(10 + i), |w: &mut u64, _| *w += 1))
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            if i % 4 != 0 {
                sim.cancel(id);
            }
        }
        sim.run(&mut world);
        black_box(world);
    });
    fn tick(limit: u64) -> impl Fn(&mut u64, &mut Sim<u64>) {
        move |w, sim| {
            *w += 1;
            if *w < limit {
                sim.schedule_in(Ps::ns(120), tick(limit));
            }
        }
    }
    let chain = per_call(N, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        sim.schedule_at(Ps::ZERO, tick(N));
        sim.run(&mut world);
        black_box(world);
    });
    [distinct, same_instant, far_future, cancel_heavy, chain]
}

/// Registry names the simulator records per frame, in rotation.
const RECORD_NAMES: [&str; 8] = [
    "nic.frames",
    "nic.bytes",
    "nic.irqs",
    "bh.enqueued",
    "bh.drained",
    "link.frames",
    "ioat.bytes",
    "ioat.descriptors",
];

/// `Metrics::count` / `Metrics::busy` on a registry populated with
/// every scope of the workload.
pub fn metrics_record(s: &Shape) -> f64 {
    let m = Metrics::new();
    for scope in 0..s.scopes {
        for name in RECORD_NAMES {
            m.count(scope, name, 1);
        }
        m.busy(scope, "bh.copy", Ps::ns(1));
    }
    let calls = 4096u64;
    let mut i = 0u64;
    per_call(calls, || {
        for _ in 0..calls {
            let scope = ((i * 7) % u64::from(s.scopes)) as u32;
            if i % 4 == 3 {
                m.busy(scope, "bh.copy", Ps::ns(100));
            } else {
                m.count(scope, RECORD_NAMES[(i % 8) as usize], 1);
            }
            i += 1;
        }
    })
}

fn frame(s: &Shape) -> EthFrame {
    EthFrame::new(1, 0, Bytes::from(vec![0x5Au8; s.frame_bytes]))
}

/// `Link::transmit` of one typical frame, back to back.
pub fn link_transmit(s: &Shape) -> f64 {
    let mut link = Link::new(LinkParams::default());
    link.attach_metrics(Metrics::new(), 0);
    let f = frame(s);
    let mut now = Ps::ZERO;
    let calls = 4096u64;
    per_call(calls, || {
        for _ in 0..calls {
            now = link.transmit(black_box(now), &f);
        }
    })
}

/// `Nic::deliver` (ring deposit, IRQ moderation, BH enqueue) into the
/// frame's RSS queue, batches of 64 frames with the ring drained and
/// replenished between batches (untimed).
pub fn nic_deliver(s: &Shape) -> f64 {
    let params = NicParams {
        num_queues: s.queues,
        ..NicParams::default()
    };
    let mut nic = Nic::new(params);
    nic.attach_metrics(Metrics::new(), 0);
    nic.bind_queue_cores(&spread_queue_cores(&params, &Topology::default()));
    let proto = frame(s);
    let queue = nic.rss_queue(&proto);
    let mut bh = BottomHalfQueue::new();
    const BATCH: usize = 64;
    let mut now = Ps::ZERO;
    let mut ns = Vec::with_capacity(BATCHES * 8);
    for _ in 0..BATCHES * 8 {
        let frames: Vec<EthFrame> = (0..BATCH).map(|_| proto.clone()).collect();
        let sw = Stopwatch::start();
        for f in frames {
            now += Ps::ns(400);
            black_box(nic.deliver(now, queue, f, &mut bh));
        }
        ns.push(sw.elapsed_nanos() as f64 / BATCH as f64);
        bh.begin_run();
        while let Some(skb) = bh.pop_next() {
            release(skb);
        }
        bh.finish_run();
        nic.replenish(queue, BATCH);
    }
    crate::host::median(&mut ns)
}

fn release(skb: Skbuff) {
    SimSanitizer::complete(skb.token());
    SimSanitizer::release(skb.token());
}

/// `BottomHalfQueue::enqueue` plus the drain (`begin_run`, `pop_next`,
/// `finish_run`) of one skbuff.
pub fn bh_frame(s: &Shape) -> f64 {
    let mut bh = BottomHalfQueue::new();
    bh.attach_metrics(Metrics::new(), 0);
    let data = Bytes::from(vec![0x5Au8; s.frame_bytes]);
    const BATCH: u64 = 64;
    per_call(BATCH, || {
        for i in 0..BATCH {
            bh.enqueue(Skbuff::new(1, data.clone(), Ps::ns(i)));
        }
        bh.begin_run();
        while let Some(skb) = bh.pop_next() {
            release(black_box(skb));
        }
        bh.finish_run();
    })
}

/// `IoatEngine::submit` of one page-sized descriptor, round-robin over
/// the channels, and the same descriptors as one chained
/// `submit_batch`: `(ns per submit, ns per batched descriptor)`.
pub fn ioat() -> (f64, f64) {
    let hw = HwParams::default();
    const N: usize = 64;
    let mut eng = IoatEngine::new(&hw);
    eng.attach_metrics(Metrics::new(), 0);
    let channels = eng.num_channels();
    let mut handles = Vec::with_capacity(N);
    let single = per_call(N as u64, || {
        for i in 0..N {
            handles.push(eng.submit(&hw, Ps::ZERO, i % channels, 4096, 1));
        }
        for h in handles.drain(..) {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
    });
    let segments: Vec<CopySegment> = (0..N)
        .map(|i| CopySegment {
            channel: i % channels,
            bytes: 4096,
            descriptors: 1,
        })
        .collect();
    let batched = per_call(N as u64, || {
        eng.submit_batch(&hw, Ps::ZERO, &segments, &mut handles);
        for h in handles.drain(..) {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
    });
    (single, batched)
}

/// `MemModel::copy_time_paged` for one frame's copy.
pub fn mem_copy_time(s: &Shape) -> f64 {
    let hw = HwParams::default();
    let ctx = CopyContext::uncached(Distance::SameSubchip);
    let calls = 4096u64;
    per_call(calls, || {
        for _ in 0..calls {
            black_box(MemModel::copy_time_paged(
                &hw,
                black_box(s.frame_bytes as u64),
                &ctx,
            ));
        }
    })
}

/// `CacheModel::touch` of one frame's bytes, cycling over the
/// workload's destination buffers.
pub fn cache_touch(s: &Shape) -> f64 {
    let hw = HwParams::default();
    let mut cache = CacheModel::new();
    let calls = 4096u64;
    let mut i = 0u64;
    per_call(calls, || {
        for _ in 0..calls {
            cache.touch(
                &hw,
                SubchipId(0),
                RegionKey(i % s.regions),
                s.frame_bytes as u64,
            );
            i += 1;
        }
    })
}

/// One incoming message matched against the workload's posted-receive
/// depth (`Matcher::match_incoming`), the receive re-posted after.
pub fn match_incoming(s: &Shape) -> f64 {
    let mut m = Matcher::new();
    for peer in 0..s.match_depth {
        m.post_recv(PostedRecv {
            req: ReqId(peer as u64),
            match_info: match_info(peer, 0),
            mask: u64::MAX,
            len: A2A_BYTES,
        });
    }
    let calls = 1024u64;
    let mut i = 0usize;
    per_call(calls, || {
        for _ in 0..calls {
            let peer = (i * 7919) % s.match_depth;
            i += 1;
            let r = m
                .match_incoming(black_box(match_info(peer, 0)))
                .expect("every peer has a posted receive");
            m.post_recv(r);
        }
    })
}
