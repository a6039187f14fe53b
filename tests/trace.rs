//! Deterministic-trace guarantees, end to end:
//!
//! - the same seed + config produces a *byte-identical* Chrome trace JSON,
//!   run to run;
//! - the per-phase attribution summary's `bytes_persisted` sums exactly to
//!   the machine's `Stats::bytes_persisted` over the traced window.

use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_serve::{run_cluster, ArrivalShape, ClusterConfig, FaultPlan, TrafficConfig};
use gpm_sim::{chrome_trace_json, Addr, Machine, Ns, Phase, RingSink, TraceData};

/// A fresh machine with a trace sink installed and a PM region allocated.
fn traced_machine(pm_bytes: u64) -> (Machine, u64) {
    let mut m = Machine::default();
    m.set_trace_sink(Box::new(RingSink::new(1 << 20)));
    let pm = m.alloc_pm(pm_bytes).unwrap();
    (m, pm)
}

/// Runs the shared stress kernel, returning the trace and the machine's
/// persisted-byte total.
fn run_traced_kernel() -> (TraceData, u64) {
    let (mut m, pm) = traced_machine(1 << 20);
    m.set_ddio(false);
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(pm + i * 8), i * 3)?;
        ctx.compute(Ns(7.5));
        ctx.threadfence_system()
    });
    launch(&mut m, LaunchConfig::new(8, 64), &k).unwrap();
    let bytes = m.stats.bytes_persisted;
    (m.finish_trace().unwrap(), bytes)
}

#[test]
fn same_config_same_trace_bytes() {
    let (a, bytes_a) = run_traced_kernel();
    let (b, bytes_b) = run_traced_kernel();
    assert_eq!(bytes_a, bytes_b);
    let ja = chrome_trace_json(&[("m".to_string(), &a)], bytes_a);
    let jb = chrome_trace_json(&[("m".to_string(), &b)], bytes_b);
    assert_eq!(ja, jb, "same seed + config must serialize byte-identically");
}

#[test]
fn attribution_sums_to_stats_bytes_persisted() {
    let (data, bytes) = run_traced_kernel();
    assert!(bytes > 0, "the stress kernel must persist something");
    assert_eq!(data.attribution.total_bytes_persisted(), bytes);
    assert_eq!(
        data.attribution.phase(Phase::Kernel).bytes_persisted,
        bytes,
        "a bare kernel launch attributes everything to the Kernel phase"
    );
}

/// One traced serve-cluster run (with transient faults, so the Recovery
/// phase is exercised too) and its summed persisted bytes.
fn run_traced_cluster() -> (Vec<TraceData>, u64, u64) {
    let cfg = ClusterConfig {
        shards: 2,
        trace_events: Some(1 << 20),
        faults: FaultPlan {
            crash_every: Some(4),
            crash_fuel: 50,
        },
        ..ClusterConfig::quick()
    };
    let reqs = TrafficConfig {
        rate_ops_per_sec: 1.0e6,
        n_requests: 2_000,
        shape: ArrivalShape::Poisson,
        ..TrafficConfig::quick(7)
    }
    .generate();
    let out = run_cluster(&cfg, &reqs).unwrap();
    let bytes: u64 = out.shards.iter().map(|r| r.stats.bytes_persisted).sum();
    let retries = out.retries;
    let traces = out
        .shards
        .into_iter()
        .map(|r| r.trace.expect("sink installed on every shard"))
        .collect();
    (traces, bytes, retries)
}

#[test]
fn serve_cluster_trace_is_deterministic_and_attribution_balances() {
    let (ta, bytes_a, retries) = run_traced_cluster();
    let (tb, bytes_b, _) = run_traced_cluster();
    assert!(
        retries > 0,
        "the fault plan must actually trigger recoveries"
    );
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(ta, tb, "shard traces must be run-to-run deterministic");

    let shards_a: Vec<(String, &TraceData)> = ta
        .iter()
        .enumerate()
        .map(|(i, d)| (format!("shard{i}"), d))
        .collect();
    let shards_b: Vec<(String, &TraceData)> = tb
        .iter()
        .enumerate()
        .map(|(i, d)| (format!("shard{i}"), d))
        .collect();
    let ja = chrome_trace_json(&shards_a, bytes_a);
    let jb = chrome_trace_json(&shards_b, bytes_b);
    assert_eq!(ja, jb, "exported cluster trace must be byte-identical");

    // The merged attribution balances against the cluster's stats total,
    // and the crash/recovery path actually attributed persisted bytes.
    let mut merged = gpm_sim::Attribution::default();
    for t in &ta {
        merged.merge(&t.attribution);
    }
    assert_eq!(merged.total_bytes_persisted(), bytes_a);
    assert!(
        merged.phase(Phase::Recovery).spans >= retries,
        "every retry recovers in place, opening a Recovery span"
    );
    assert!(merged.phase(Phase::ServeBatch).bytes_persisted > 0);
}
