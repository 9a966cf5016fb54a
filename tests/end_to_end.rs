//! Cross-crate integration: full-stack transfers with payload
//! verification across every message class, configuration and path.

use openmx_repro::hw::CoreId;
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::{OmxConfig, StackKind, SyncWaitPolicy};
use openmx_repro::omx::harness::{run_pingpong, PingPongConfig, PingPongResult, Placement};

fn run(size: u64, cfg: OmxConfig, placement: Placement) -> PingPongResult {
    let params = ClusterParams::with_cfg(cfg);
    let mut c = PingPongConfig::new(params, size, placement);
    c.iters = 6;
    c.warmup = 2;
    let r = run_pingpong(c);
    assert!(r.verified, "payload corrupted at {size} B");
    r
}

fn pingpong(size: u64, cfg: OmxConfig, placement: Placement) -> f64 {
    run(size, cfg, placement).throughput_mibs
}

fn net() -> Placement {
    Placement::TwoNodes {
        core_a: CoreId(2),
        core_b: CoreId(2),
    }
}

#[test]
fn every_message_class_delivers_verified_payloads() {
    // Tiny, small, medium (single and multi fragment), large across
    // the rendezvous threshold, multi-block pulls.
    for size in [
        1u64,
        32,
        33,
        128,
        129,
        4096,
        4097,
        32 << 10,
        (32 << 10) + 1,
        256 << 10,
    ] {
        pingpong(size, OmxConfig::default(), net());
    }
}

#[test]
fn every_class_with_ioat_enabled() {
    for size in [16u64, 4096, 32 << 10, 64 << 10, 1 << 20] {
        pingpong(size, OmxConfig::with_ioat(), net());
    }
}

#[test]
fn counterfactual_and_regcache_toggles_stay_correct() {
    let nocopy = OmxConfig {
        ignore_bh_copy: true,
        ..OmxConfig::default()
    };
    pingpong(1 << 20, nocopy, net());
    let mut nrc = OmxConfig::with_ioat();
    nrc.regcache = false;
    pingpong(1 << 20, nrc, net());
}

#[test]
fn extension_paths_stay_correct() {
    // Kernel matching (single event per medium message).
    let kmatch = OmxConfig {
        kernel_matching: true,
        ..OmxConfig::with_ioat()
    };
    for size in [4096u64, 16 << 10, 32 << 10] {
        pingpong(size, kmatch.clone(), net());
    }
    // Synchronous medium offload.
    let msync = OmxConfig {
        ioat_medium_sync: true,
        ..OmxConfig::with_ioat()
    };
    pingpong(16 << 10, msync, net());
    // `ioat_enabled` is the master switch: the medium-sync knob alone
    // must not reach the engine.
    let msync_off = OmxConfig {
        ioat_medium_sync: true,
        ..OmxConfig::default()
    };
    let r = run(16 << 10, msync_off, net());
    assert_eq!(r.stats.counters.copies_offloaded, 0, "{:?}", r.stats);
    // Warm-copy head.
    let warm = OmxConfig {
        warm_copy_head_bytes: 32 << 10,
        ..OmxConfig::with_ioat()
    };
    pingpong(1 << 20, warm, net());
    // Multi-channel split + sleep-predicted sync waits (shm).
    let multi = OmxConfig {
        ioat_multichannel_split: true,
        sync_wait: SyncWaitPolicy::SleepPredicted,
        ioat_shm_threshold: 64 << 10,
        ..OmxConfig::with_ioat()
    };
    pingpong(
        2 << 20,
        multi,
        Placement::SameNode {
            core_a: CoreId(0),
            core_b: CoreId(4),
        },
    );
}

#[test]
fn shm_placements_deliver() {
    for size in [16u64, 4096, 32 << 10, 1 << 20, 4 << 20] {
        pingpong(
            size,
            OmxConfig::default(),
            Placement::SameNode {
                core_a: CoreId(0),
                core_b: CoreId(1),
            },
        );
        pingpong(
            size,
            OmxConfig::with_ioat(),
            Placement::SameNode {
                core_a: CoreId(0),
                core_b: CoreId(4),
            },
        );
    }
}

#[test]
fn mxoe_baseline_delivers_and_outruns_openmx_when_it_should() {
    let mx = OmxConfig {
        stack: StackKind::Mxoe,
        ..OmxConfig::default()
    };
    for size in [16u64, 4096, 32 << 10, 1 << 20] {
        let mx_rate = pingpong(size, mx.clone(), net());
        let omx_rate = pingpong(size, OmxConfig::default(), net());
        assert!(
            mx_rate > omx_rate,
            "zero-copy MX must beat plain Open-MX at {size} B: {mx_rate} vs {omx_rate}"
        );
    }
}

#[test]
fn ioat_crossover_sits_at_the_threshold() {
    // Below the 64 kB offload threshold the two configs are identical.
    let below_base = pingpong(32 << 10, OmxConfig::default(), net());
    let below_ioat = pingpong(32 << 10, OmxConfig::with_ioat(), net());
    assert!((below_base - below_ioat).abs() < 1.0);
    // Above it, I/OAT clearly wins.
    let above_base = pingpong(256 << 10, OmxConfig::default(), net());
    let above_ioat = pingpong(256 << 10, OmxConfig::with_ioat(), net());
    assert!(above_ioat > above_base * 1.2);
}

#[test]
fn unexpected_messages_are_buffered_and_adopted() {
    // The ponger posts its receive *late*: messages arrive unexpected
    // and must be matched by the subsequent irecv.
    use openmx_repro::omx::app::{App, AppCtx, Completion};
    use openmx_repro::omx::cluster::Cluster;
    use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
    use openmx_repro::sim::{Ps, Sim};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct LateReceiver {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl App for LateReceiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            // Post the receives 300 us after the sends happened.
            ctx.compute(Ps::us(300));
            ctx.irecv(7, u64::MAX, 64 << 10, None);
            ctx.irecv(8, u64::MAX, 100, None);
            ctx.irecv(9, u64::MAX, 8 << 10, None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { data, .. } = comp {
                self.got.borrow_mut().push(data);
            }
        }
        fn is_done(&self) -> bool {
            self.got.borrow().len() == 3
        }
    }
    struct EarlySender {
        peer: EpAddr,
    }
    impl App for EarlySender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.isend(self.peer, 7, vec![7u8; 64 << 10], None); // large rndv
            ctx.isend(self.peer, 8, vec![8u8; 100], None); // small
            ctx.isend(self.peer, 9, vec![9u8; 8 << 10], None); // medium
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    let got = Rc::new(RefCell::new(Vec::new()));
    let mut cluster = Cluster::new(ClusterParams::default());
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    cluster.add_endpoint(NodeId(0), CoreId(2), Box::new(EarlySender { peer }));
    cluster.add_endpoint(
        NodeId(1),
        CoreId(2),
        Box::new(LateReceiver { got: got.clone() }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let got = got.borrow();
    assert_eq!(got.len(), 3, "all unexpected messages adopted");
    let mut lens: Vec<usize> = got.iter().map(|d| d.len()).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![100, 8 << 10, 64 << 10]);
    for d in got.iter() {
        let tag = match d.len() {
            100 => 8u8,
            8192 => 9,
            _ => 7,
        };
        assert!(d.iter().all(|&b| b == tag), "adopted payload intact");
    }
}

/// One sender posts `msgs` (all with match information 7) at t = 0;
/// the receiver computes for `delay`, then posts one 64 KiB receive per
/// message. Returns what each receive got, in post order (`None`: it
/// never completed), and the receiver's `counters.unexpected`.
fn late_receives(
    cfg: OmxConfig,
    msgs: &[Vec<u8>],
    delay: openmx_repro::sim::Ps,
) -> (Vec<Option<Vec<u8>>>, u64) {
    use openmx_repro::omx::app::{App, AppCtx, Completion};
    use openmx_repro::omx::cluster::Cluster;
    use openmx_repro::omx::{EpAddr, EpIdx, NodeId, ReqId};
    use openmx_repro::sim::{Ps, Sim};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Got = Rc<RefCell<Vec<(ReqId, Option<Vec<u8>>)>>>;
    struct Receiver {
        n: usize,
        delay: Ps,
        got: Got,
    }
    impl App for Receiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.compute(self.delay);
            for _ in 0..self.n {
                let req = ctx.irecv(7, u64::MAX, 64 << 10, None);
                self.got.borrow_mut().push((req, None));
            }
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { req, data, .. } = comp {
                let mut got = self.got.borrow_mut();
                let slot = got.iter_mut().find(|(r, _)| *r == req).expect("posted");
                slot.1 = Some(data);
            }
        }
    }
    struct Sender {
        peer: EpAddr,
        msgs: Vec<Vec<u8>>,
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            for m in self.msgs.drain(..) {
                ctx.isend(self.peer, 7, m, None);
            }
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
    }

    let got: Got = Rc::new(RefCell::new(Vec::new()));
    let mut cluster = Cluster::new(ClusterParams::with_cfg(cfg));
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    let sender = Sender {
        peer,
        msgs: msgs.to_vec(),
    };
    cluster.add_endpoint(NodeId(0), CoreId(2), Box::new(sender));
    let receiver = Receiver {
        n: msgs.len(),
        delay,
        got: got.clone(),
    };
    cluster.add_endpoint(NodeId(1), CoreId(2), Box::new(receiver));
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let unexpected = cluster.ep(peer).counters.unexpected;
    let got = got.borrow().iter().map(|(_, d)| d.clone()).collect();
    (got, unexpected)
}

fn kmatch_cfg() -> OmxConfig {
    OmxConfig {
        kernel_matching: true,
        ..OmxConfig::default()
    }
}

fn mx_cfg() -> OmxConfig {
    OmxConfig {
        stack: StackKind::Mxoe,
        ..OmxConfig::default()
    }
}

/// What went wrong with one receive, if anything (a short message:
/// payloads run to kilobytes).
fn mismatch(got: &Option<Vec<u8>>, want: &[u8]) -> Option<String> {
    match got {
        None => Some("never completed".to_string()),
        Some(d) if d[..] != *want => Some(format!("got {} B starting {:?}", d.len(), d.first())),
        Some(_) => None,
    }
}

/// An unexpected medium must not be overtaken by a later message from
/// the same sender with the same match information: the first-posted
/// receive gets the first-sent message, under library matching,
/// kernel matching (medium then tiny) and MXoE (medium then large).
#[test]
fn unexpected_medium_is_not_overtaken_by_a_later_message() {
    use openmx_repro::sim::Ps;
    let medium = vec![1u8; 1000];
    let cases = [
        ("library", OmxConfig::default(), vec![2u8; 16], Ps::us(500)),
        ("kernel matching", kmatch_cfg(), vec![2u8; 16], Ps::us(500)),
        ("MXoE", mx_cfg(), vec![2u8; 64 << 10], Ps::us(2000)),
    ];
    let mut failures = Vec::new();
    for (name, cfg, second, delay) in cases {
        let (got, _) = late_receives(cfg, &[medium.clone(), second.clone()], delay);
        for (i, want) in [&medium, &second].into_iter().enumerate() {
            if let Some(m) = mismatch(&got[i], want) {
                failures.push(format!("{name}: receive {i}: {m}"));
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Under kernel matching, a receive posted while an unexpected 16 KiB
/// medium is still arriving adopts it mid-assembly and completes with
/// the right bytes, whatever the posting delay.
#[test]
fn kernel_matching_adopts_a_medium_still_arriving() {
    use openmx_repro::sim::Ps;
    let msg: Vec<u8> = (0..16 << 10).map(|i| (i % 251) as u8).collect();
    let mut failures = Vec::new();
    for half_us in 0..=80u64 {
        let delay = Ps::ns(half_us * 500);
        let (got, _) = late_receives(kmatch_cfg(), std::slice::from_ref(&msg), delay);
        if let Some(m) = mismatch(&got[0], &msg) {
            failures.push(format!("posted at {delay:?}: {m}"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Every unmatched eager message counts once in `counters.unexpected`
/// — a multi-fragment medium included — on all three eager paths.
#[test]
fn an_unexpected_medium_counts_once() {
    use openmx_repro::sim::Ps;
    let msg = vec![3u8; 16 << 10];
    let mut failures = Vec::new();
    for (name, cfg) in [
        ("library", OmxConfig::default()),
        ("kernel matching", kmatch_cfg()),
        ("MXoE", mx_cfg()),
    ] {
        let (got, unexpected) = late_receives(cfg, std::slice::from_ref(&msg), Ps::us(500));
        if let Some(m) = mismatch(&got[0], &msg) {
            failures.push(format!("{name}: {m}"));
        }
        if unexpected != 1 {
            failures.push(format!("{name}: counted {unexpected} times"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
