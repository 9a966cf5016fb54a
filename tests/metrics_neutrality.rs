//! Observability is output-neutral: with the metrics registry off
//! (`OmxConfig::metrics = false`) every simulated result must stay
//! byte-identical, because recording never charges simulated time.
//! Each workload runs twice, registry on and off, and the Stats JSON,
//! engine event count, end time and marks must match exactly. With
//! the registry on, the component breakdown read out of it must be
//! non-zero, so the "on" run really recorded.
//!
//! The workloads cover the three receive paths the registry
//! instruments: a 64-rank medium-message Alltoall (BH memcpy), a small
//! credit-governed incast on 4 RX queues under `dirty_fiber` faults
//! (pull, retransmits, fault draws) and a short I/OAT stream
//! (offloaded copies).

use openmx_repro::mpi::{run_kernel, Kernel, Layout};
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::harness::{
    run_incast, run_stream, ComponentBreakdown, IncastConfig, StreamConfig,
};
use openmx_repro::sim::Ps;

/// The simulated output the registry must not touch.
#[derive(Debug, PartialEq)]
struct Output {
    stats_json: String,
    events: u64,
    end: Ps,
    marks: Vec<Ps>,
}

fn output<S: serde::Serialize>(stats: &S, events: u64, end: Ps, marks: &[Ps]) -> Output {
    Output {
        stats_json: serde_json::to_string(stats).expect("stats serialize"),
        events,
        end,
        marks: marks.to_vec(),
    }
}

fn params(metrics: bool, edit: impl FnOnce(&mut ClusterParams)) -> ClusterParams {
    let mut p = ClusterParams::with_cfg(OmxConfig {
        seed: 17,
        metrics,
        ..OmxConfig::with_ioat()
    });
    edit(&mut p);
    p
}

fn alltoall(metrics: bool) -> (Output, ComponentBreakdown) {
    let p = params(metrics, |p| p.nodes = 64);
    let r = run_kernel(Kernel::Alltoall, Layout::Nodes(64), 256, 2, p);
    assert!(r.verified, "alltoall verified");
    (
        output(&r.stats, r.events_executed, r.end, &r.marks),
        r.breakdown,
    )
}

fn incast(metrics: bool) -> (Output, ComponentBreakdown) {
    let p = params(metrics, |p| {
        p.cfg.pull_credits = true;
        p.cfg.fault_plan = FaultPlan::dirty_fiber();
        p.nic.num_queues = 4;
    });
    let r = run_incast(IncastConfig::new(p, 4, 64 << 10, 16));
    assert!(r.verified, "incast verified");
    assert_eq!(r.delivered, r.expected, "incast delivered everything");
    (
        output(&r.stats, r.events_executed, r.elapsed, &[]),
        r.breakdown,
    )
}

fn stream(metrics: bool) -> (Output, ComponentBreakdown) {
    let mut c = StreamConfig::new(params(metrics, |_| {}), 1 << 20);
    c.count = 8;
    let r = run_stream(c);
    assert!(r.verified, "stream verified");
    (
        output(&r.stats, r.events_executed, r.elapsed, &[]),
        r.breakdown,
    )
}

/// Run `workload` with the registry on and off; the outputs must be
/// identical. Returns the "on" breakdown.
fn neutral(name: &str, workload: fn(bool) -> (Output, ComponentBreakdown)) -> ComponentBreakdown {
    let (on, bd) = workload(true);
    let (off, bd_off) = workload(false);
    assert_eq!(
        on, off,
        "{name}: metrics on/off changed the simulated output"
    );
    assert!(
        on.events > 0 && on.end > Ps::ZERO,
        "{name}: the run did work"
    );
    assert_eq!(bd_off.wire_ns, 0.0, "{name}: registry off records nothing");
    assert!(bd.wire_ns > 0.0, "{name}: breakdown empty with metrics on");
    bd
}

#[test]
fn alltoall_64_ranks_is_metrics_neutral() {
    let bd = neutral("alltoall", alltoall);
    assert!(bd.bh_copy_ns > 0.0, "medium frames are copied by the BH");
}

#[test]
fn faulty_credit_incast_is_metrics_neutral() {
    let bd = neutral("incast", incast);
    assert!(bd.ioat_channel_ns > 0.0, "large pulls are offloaded");
}

#[test]
fn ioat_stream_is_metrics_neutral() {
    let bd = neutral("stream", stream);
    assert!(bd.ioat_channel_ns > 0.0 && bd.submit_cpu_ns > 0.0);
}
