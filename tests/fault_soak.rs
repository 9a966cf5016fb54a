//! Fault-injection soak: named fault plans (bursty loss, reordering,
//! duplication, FCS corruption, I/OAT channel stalls/deaths) must
//! degrade the stack gracefully — every workload completes with
//! byte-verified payloads, no leaked skbuffs or pinned regions, the
//! recovery machinery (memcpy fallback, channel quarantine, adaptive
//! retransmit backoff) actually fires, and the slowdown stays bounded.
//!
//! The flip side is also proven here: an inert fault plan costs
//! nothing — same seeds, same timings, bit for bit.

use openmx_repro::hw::CoreId;
use openmx_repro::mpi::{run_kernel, Kernel, Layout};
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::{FaultPlan, IoatChannelFault, NodeFaultParams};
use openmx_repro::omx::harness::{
    run_pingpong, run_stream, PingPongConfig, PingPongResult, Placement, StreamConfig,
};
use openmx_repro::sim::Ps;

const SEEDS: [u64; 3] = [11, 23, 47];

/// An I/OAT-enabled configuration under `plan`. The registration cache
/// is disabled so `end_pinned_regions == 0` proves every region was
/// actually released (a cached region legitimately stays pinned).
fn faulty_cfg(plan: FaultPlan, seed: u64) -> OmxConfig {
    OmxConfig {
        fault_plan: plan,
        seed,
        regcache: false,
        ..OmxConfig::with_ioat()
    }
}

fn pingpong(cfg: OmxConfig, size: u64, iters: u32) -> PingPongResult {
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(cfg),
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = iters;
    c.warmup = 1;
    run_pingpong(c)
}

#[test]
fn flaky_10g_pingpong_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let r = pingpong(faulty_cfg(FaultPlan::flaky_10g(), seed), 256 << 10, 12);
        assert!(r.verified, "seed {seed}: payload corrupted or send failed");
        assert_eq!(r.end_skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.end_pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.stats.ioat_fallback_copies >= 1,
            "seed {seed}: the stalled channel must force at least one memcpy fallback, stats {:?}",
            r.stats
        );
        assert!(
            r.stats.backoff_escalations >= 1,
            "seed {seed}: bursty loss must escalate at least one retransmit timeout, stats {:?}",
            r.stats
        );
        assert!(
            r.stats.frames_lost > 0,
            "seed {seed}: ≈1 % bursty loss must actually drop frames"
        );
    }
}

#[test]
fn flaky_10g_stream_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let params = ClusterParams::with_cfg(faulty_cfg(FaultPlan::flaky_10g(), seed));
        let mut cfg = StreamConfig::new(params, 1 << 20);
        cfg.count = 12;
        let r = run_stream(cfg);
        assert!(r.verified, "seed {seed}: payload corrupted or send failed");
        assert_eq!(r.end_skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.end_pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.stats.ioat_fallback_copies >= 1,
            "seed {seed}: no memcpy fallback recorded, stats {:?}",
            r.stats
        );
        assert!(
            r.stats.backoff_escalations >= 1,
            "seed {seed}: no backoff escalation recorded, stats {:?}",
            r.stats
        );
    }
}

#[test]
fn flaky_10g_alltoall_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let params = ClusterParams {
            nodes: 2,
            ..ClusterParams::with_cfg(faulty_cfg(FaultPlan::flaky_10g(), seed))
        };
        let r = run_kernel(Kernel::Alltoall, Layout::TwoPerNode, 4 << 20, 2, params);
        assert!(
            r.verified,
            "seed {seed}: alltoall send failed or wire dirty"
        );
        assert_eq!(r.end_skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.end_pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.stats.ioat_fallback_copies >= 1,
            "seed {seed}: no memcpy fallback recorded, stats {:?}",
            r.stats
        );
        assert!(
            r.stats.backoff_escalations >= 1,
            "seed {seed}: no backoff escalation recorded, stats {:?}",
            r.stats
        );
    }
}

#[test]
fn remaining_named_plans_complete_verified() {
    // The other named plans each stress one hazard in isolation; every
    // one must still deliver verified payloads without leaks.
    for name in ["dirty-fiber", "dup-storm", "ring-pressure", "ioat-dead"] {
        let plan = FaultPlan::named(name).expect("known plan");
        let r = pingpong(faulty_cfg(plan, 7), 256 << 10, 8);
        assert!(r.verified, "{name}: payload corrupted or send failed");
        assert_eq!(r.end_skbuffs_held, 0, "{name}: leaked skbuffs");
        assert_eq!(r.end_pinned_regions, 0, "{name}: leaked pinned regions");
    }
}

/// A permanently dead channel 0 on every node, on each receive-copy
/// path: large pull (async), kernel-matched medium (async), medium
/// ring-slot (sync) and the shared-memory one-copy pull (sync). Each
/// path runs clean and dead; the dead run must rescue or demote its
/// copies onto the CPU, quarantine the channel, finish within 10× the
/// clean run and leak nothing, and in both runs every received byte is
/// counted exactly once as offloaded or memcpy'd.
#[test]
fn dead_channel_forces_fallback_and_quarantine() {
    let net = Placement::TwoNodes {
        core_a: CoreId(2),
        core_b: CoreId(2),
    };
    let shm = Placement::SameNode {
        core_a: CoreId(0),
        core_b: CoreId(4),
    };
    let with_ioat = OmxConfig::with_ioat();
    let paths = [
        ("large pull", with_ioat.clone(), 512 << 10, net),
        (
            "kernel matching",
            OmxConfig {
                kernel_matching: true,
                ..with_ioat.clone()
            },
            16 << 10,
            net,
        ),
        (
            "medium sync",
            OmxConfig {
                ioat_medium_sync: true,
                ..with_ioat.clone()
            },
            16 << 10,
            net,
        ),
        (
            "shm",
            OmxConfig {
                ioat_shm_threshold: 64 << 10,
                ..with_ioat
            },
            2 << 20,
            shm,
        ),
    ];
    for (path, base, size, placement) in paths {
        let run = |plan: FaultPlan| {
            let cfg = OmxConfig {
                fault_plan: plan,
                seed: 3,
                regcache: false,
                ..base.clone()
            };
            let mut c = PingPongConfig::new(ClusterParams::with_cfg(cfg), size, placement);
            c.iters = 8;
            c.warmup = 1;
            run_pingpong(c)
        };
        let clean = run(FaultPlan::default());
        let dead = run(FaultPlan::ioat_dead());
        for (plan, r) in [("clean", &clean), ("ioat-dead", &dead)] {
            let c = &r.stats.counters;
            assert!(r.verified, "{path}, {plan}: not verified");
            assert_eq!(r.end_skbuffs_held, 0, "{path}, {plan}: leaked skbuffs");
            assert_eq!(r.end_pinned_regions, 0, "{path}, {plan}: leaked regions");
            assert_eq!(
                c.bytes_offloaded + c.bytes_memcpy,
                c.rx_bytes,
                "{path}, {plan}: every received byte is copied once, {c:?}"
            );
            assert_eq!(
                r.stats.ioat_fallback_copies, c.copies_fallback,
                "{path}, {plan}: the two fallback counts disagree"
            );
        }
        assert!(
            clean.stats.counters.copies_offloaded > 0,
            "{path}: the clean run never offloaded"
        );
        assert!(
            dead.stats.ioat_fallback_copies >= 1,
            "{path}: a dead channel must push copies onto the CPU, stats {:?}",
            dead.stats
        );
        assert!(
            dead.stats.ioat_quarantines >= 1,
            "{path}: the dead channel must be quarantined, stats {:?}",
            dead.stats
        );
        assert!(
            dead.end_time < clean.end_time * 10,
            "{path}: dead channel took {:?} against {:?} clean",
            dead.end_time,
            clean.end_time
        );
    }
}

#[test]
fn healthy_copies_queued_past_the_stall_deadline_are_not_rescued() {
    // A 32 MiB shared-memory pull split across every channel: the
    // segments queue behind each other on the shared memory port and
    // the last completes several stall deadlines after the driver
    // starts waiting. That is queueing, not a stall — no copy may be
    // re-done on the CPU and no channel quarantined.
    let cfg = OmxConfig {
        ioat_multichannel_split: true,
        regcache: false,
        ..OmxConfig::with_ioat()
    };
    let placement = Placement::SameNode {
        core_a: CoreId(0),
        core_b: CoreId(4),
    };
    let mut c = PingPongConfig::new(ClusterParams::with_cfg(cfg), 32 << 20, placement);
    c.iters = 2;
    c.warmup = 0;
    let r = run_pingpong(c);
    assert!(r.verified);
    assert!(
        r.stats.counters.copies_offloaded > 0,
        "{:?}",
        r.stats.counters
    );
    assert_eq!(r.stats.ioat_fallback_copies, 0, "{:?}", r.stats);
    assert_eq!(r.stats.ioat_quarantines, 0, "{:?}", r.stats);
}

#[test]
fn duplicate_everything_is_idempotent() {
    // Every frame delivered twice: pull fragments, rendezvous
    // announcements, acks, notifies. Completions must stay
    // byte-identical and unique (a double RecvLargeDone would corrupt
    // the ping-pong pattern sequence), and no skbuff may drift.
    let plan = FaultPlan {
        default_link: openmx_repro::ethernet::fault::LinkFaultParams {
            dup_prob: 1.0,
            ..Default::default()
        },
        ..FaultPlan::default()
    };
    for (size, iters) in [(256u64 << 10, 8u32), (16 << 10, 8), (100, 8)] {
        let r = pingpong(faulty_cfg(plan.clone(), 5), size, iters);
        assert!(r.verified, "{size} B: duplicate delivery corrupted data");
        assert!(
            r.stats.duplicates_dropped > 0,
            "{size} B: duplicates must be detected and dropped"
        );
        assert!(
            r.stats.frames_duplicated > 0,
            "{size} B: injection must actually duplicate frames"
        );
        assert_eq!(r.end_skbuffs_held, 0, "{size} B: skbuff drift");
        assert_eq!(r.end_pinned_regions, 0, "{size} B: pinned-region drift");
    }
}

#[test]
fn inactive_plan_is_zero_cost() {
    // The fault machinery must be free when it cannot fire. Two
    // configurations: no plan at all, and a plan whose only entry is an
    // I/OAT stall scheduled far beyond the end of the run (the plan is
    // "active", so every per-copy check still executes). Timings must
    // be bit-identical.
    let base = pingpong(
        OmxConfig {
            seed: 9,
            regcache: false,
            ..OmxConfig::with_ioat()
        },
        256 << 10,
        8,
    );
    let far_future = FaultPlan {
        nodes: vec![NodeFaultParams {
            node: 0,
            rx_ring_size: None,
            ioat_faults: vec![IoatChannelFault {
                channel: 0,
                at: Ps::secs(3000),
                duration: Some(Ps::ms(1)),
            }],
        }],
        ..FaultPlan::default()
    };
    let armed = pingpong(faulty_cfg(far_future, 9), 256 << 10, 8);
    assert_eq!(
        base.rtts, armed.rtts,
        "inert plan changed per-iteration timing"
    );
    assert_eq!(
        base.end_time, armed.end_time,
        "inert plan changed the run length"
    );
    assert_eq!(
        base.stats.ioat_fallback_copies + base.stats.backoff_escalations,
        0,
        "clean run must record no recovery events"
    );
    assert_eq!(armed.stats.ioat_fallback_copies, 0);
}

#[test]
fn flaky_slowdown_is_bounded() {
    // Graceful degradation, not collapse: the flaky wire may cost
    // retransmits and fallbacks but must stay within an order of
    // magnitude of the clean run.
    let clean = pingpong(
        OmxConfig {
            seed: 13,
            regcache: false,
            ..OmxConfig::with_ioat()
        },
        256 << 10,
        8,
    );
    let flaky = pingpong(faulty_cfg(FaultPlan::flaky_10g(), 13), 256 << 10, 8);
    assert!(clean.verified && flaky.verified);
    let ratio = flaky.end_time.as_secs_f64() / clean.end_time.as_secs_f64();
    assert!(
        ratio < 10.0,
        "flaky-10g slowed the run {ratio:.1}× (clean {}, flaky {})",
        clean.end_time,
        flaky.end_time
    );
}
