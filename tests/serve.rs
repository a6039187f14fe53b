//! Integration tests for the `gpm-serve` open-loop serving stack: library
//! determinism, explicit admission backpressure under overload, request
//! conservation across shard counts, and recovery-before-admission on a
//! shard booted over a crashed machine image.

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_serve::{
    run_cluster, serve_shard, ArrivalShape, BackendKind, BatchPolicy, ClusterConfig,
    ClusterOutcome, FaultPlan, Op, Request, Shard, TrafficConfig, Verdict,
};
use gpm_sim::Ns;
use gpm_workloads::{DbOp, DbParams, KvsParams, Mode};

/// Every float the outcome exposes, as raw bits, so equality is exact.
fn fingerprint(out: &ClusterOutcome) -> Vec<u64> {
    let mut fp = vec![
        out.offered,
        out.completed,
        out.shed,
        out.retries,
        out.batches,
        out.makespan.0.to_bits(),
        out.hist.count(),
        out.hist.mean().0.to_bits(),
        out.hist.percentile(0.50).0.to_bits(),
        out.hist.percentile(0.99).0.to_bits(),
    ];
    for s in &out.shards {
        fp.push(s.end.0.to_bits());
        fp.push(s.busy.0.to_bits());
        for r in &s.responses {
            fp.push(r.id);
            fp.push(r.latency.0.to_bits());
            fp.push(match r.verdict {
                Verdict::Done(None) => u64::MAX,
                Verdict::Done(Some(v)) => v,
                Verdict::Overloaded => u64::MAX - 1,
            });
        }
    }
    fp
}

/// Same seed and config ⇒ bit-identical outcome, down to every response's
/// latency and every histogram percentile.
#[test]
fn cluster_run_is_bit_deterministic() {
    let cfg = ClusterConfig::quick();
    let a = {
        let reqs = TrafficConfig::quick(42).generate();
        run_cluster(&cfg, &reqs).unwrap()
    };
    let b = {
        let reqs = TrafficConfig::quick(42).generate();
        run_cluster(&cfg, &reqs).unwrap()
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // And a different seed actually changes the stream (the determinism
    // above is not vacuous).
    let c = run_cluster(&cfg, &TrafficConfig::quick(43).generate()).unwrap();
    assert_ne!(fingerprint(&a), fingerprint(&c));
}

/// At 2× the shard's measured service capacity, the bounded queue sheds a
/// large fraction of the stream — and every shed request gets an explicit
/// `Overloaded` response rather than vanishing.
#[test]
fn backpressure_sheds_explicitly_at_double_overload() {
    let cfg = ClusterConfig {
        shards: 1,
        policy: BatchPolicy {
            queue_cap: 256,
            ..ClusterConfig::quick().policy
        },
        ..ClusterConfig::quick()
    };
    // Measure saturated service capacity: offer far more than the shard
    // can take and read back the completion rate.
    let probe = TrafficConfig {
        rate_ops_per_sec: 20.0e6,
        n_requests: 4_000,
        ..TrafficConfig::quick(7)
    };
    let sat = run_cluster(&cfg, &probe.generate()).unwrap();
    let capacity = sat.throughput_ops_per_sec();
    assert!(capacity > 0.0);

    let overload = TrafficConfig {
        rate_ops_per_sec: 2.0 * capacity,
        n_requests: 4_000,
        ..TrafficConfig::quick(7)
    };
    let out = run_cluster(&cfg, &overload.generate()).unwrap();
    assert_eq!(out.completed + out.shed, out.offered, "no silent drops");
    assert!(
        out.shed_rate() > 0.25 && out.shed_rate() < 0.75,
        "at 2x capacity roughly half the stream must shed, got {:.3}",
        out.shed_rate()
    );
    let explicit_sheds = out.shards[0]
        .responses
        .iter()
        .filter(|r| r.verdict == Verdict::Overloaded)
        .count() as u64;
    assert_eq!(
        explicit_sheds, out.shed,
        "every shed is an explicit verdict"
    );
}

/// The same offered stream, routed over 1, 2 or 4 shards, always yields
/// exactly one response per request id.
#[test]
fn every_request_gets_exactly_one_response_at_any_shard_count() {
    let reqs = TrafficConfig::quick(11).generate();
    for shards in [1u32, 2, 4] {
        let cfg = ClusterConfig {
            shards,
            ..ClusterConfig::quick()
        };
        let out = run_cluster(&cfg, &reqs).unwrap();
        let mut ids: Vec<u64> = out
            .shards
            .iter()
            .flat_map(|s| s.responses.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..reqs.len() as u64).collect();
        assert_eq!(ids, expected, "shards={shards}");
    }
}

/// A mid-kernel power cut followed by in-place retry is invisible to
/// clients and to the store: the faulted gpKVS run returns byte-identical
/// responses and ends with a byte-identical persistent table versus an
/// uncrashed run of the same stream. The retry path is the detectable-op
/// discipline — no rollback; the resubmitted batch's per-op descriptors
/// skip already-applied SETs.
#[test]
fn kvs_crash_and_in_place_retry_matches_uncrashed_run() {
    // 64 PUTs then 64 GETs of the same keys, all arriving at t=0 so the
    // scheduler packs aligned 32-request batches: PUT, PUT, GET, GET.
    let keys: Vec<(u64, u64)> = (0..64).map(|i| (1_001 + 2 * i, 9_000 + i)).collect();
    let stream: Vec<Request> = keys
        .iter()
        .enumerate()
        .map(|(i, &(key, value))| Request {
            class: 0,
            id: i as u64,
            arrival: Ns::ZERO,
            op: Op::Put { key, value },
        })
        .chain(keys.iter().enumerate().map(|(i, &(key, _))| Request {
            class: 0,
            id: (64 + i) as u64,
            arrival: Ns::ZERO,
            op: Op::Get { key },
        }))
        .collect();
    let policy = BatchPolicy {
        max_batch: 32,
        ..BatchPolicy::default()
    };
    let run = |faults: &FaultPlan| {
        let mut shard = Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap();
        let report = serve_shard(&mut shard, &stream, &policy, faults).unwrap();
        let (machine, workload, st) = shard.into_kvs_parts();
        let table = workload.store_image(&machine, &st).unwrap();
        let responses: Vec<(u64, Verdict)> =
            report.responses.iter().map(|r| (r.id, r.verdict)).collect();
        (report.retries, responses, table)
    };

    let (clean_retries, clean_responses, clean_table) = run(&FaultPlan::default());
    let (retries, responses, table) = run(&FaultPlan {
        crash_every: Some(2),
        crash_fuel: 40,
    });
    assert_eq!(clean_retries, 0);
    assert!(retries > 0, "the fault plan must actually cut power");
    assert_eq!(responses, clean_responses, "responses must be identical");
    assert_eq!(table, clean_table, "persistent store must be identical");
    // And the GETs really observe the PUTs (the comparison is not vacuous).
    assert!(responses
        .iter()
        .skip(64)
        .zip(&keys)
        .all(|(&(_, v), &(_, value))| v == Verdict::Done(Some(value))));
}

/// Same property for a gpDB insert shard: a mid-kernel crash plus
/// in-place retry (metadata rollback, then re-insert from the durable
/// count) leaves `durable_rows` and the persistent table byte-identical
/// to the uncrashed run.
#[test]
fn db_crash_and_in_place_retry_matches_uncrashed_run() {
    let mut p = DbParams {
        op: DbOp::Insert,
        ..DbParams::quick()
    };
    p.capacity_rows = p.initial_rows + 1_024;
    let stream: Vec<Request> = (0..64)
        .map(|i| Request {
            class: 0,
            id: i,
            arrival: Ns::ZERO,
            op: Op::Insert { rows: 8 },
        })
        .collect();
    let policy = BatchPolicy {
        max_batch: 16,
        ..BatchPolicy::default()
    };
    let run = |faults: &FaultPlan| {
        let mut shard = Shard::new_db(p, Mode::Gpm).unwrap();
        let report = serve_shard(&mut shard, &stream, &policy, faults).unwrap();
        let (machine, workload, st) = shard.into_db_parts();
        let rows = st.durable_rows(&machine).unwrap();
        let table = workload.store_image(&machine, &st).unwrap();
        let responses: Vec<(u64, Verdict)> =
            report.responses.iter().map(|r| (r.id, r.verdict)).collect();
        (report.retries, responses, rows, table)
    };

    let (clean_retries, clean_responses, clean_rows, clean_table) = run(&FaultPlan::default());
    let (retries, responses, rows, table) = run(&FaultPlan {
        crash_every: Some(2),
        crash_fuel: 40,
    });
    assert_eq!(clean_retries, 0);
    assert!(retries > 0, "the fault plan must actually cut power");
    assert_eq!(rows, p.initial_rows + 64 * 8, "every insert lands once");
    assert_eq!(rows, clean_rows);
    assert_eq!(responses, clean_responses);
    assert_eq!(table, clean_table, "persistent store must be identical");
}

/// Diurnal traffic at full amplitude (1.0) has zero-rate troughs: the
/// instantaneous rate touches zero once per period. The thinned-Poisson
/// generator must ride through the troughs without stalling, the trough
/// quarters must actually be (near-)empty, and the serving stack must
/// still answer every request — the scheduler idles across the gaps
/// instead of deadlocking on an empty queue.
#[test]
fn diurnal_full_amplitude_troughs_do_not_stall_the_stack() {
    let period = Ns::from_millis(2.0);
    let cfg = TrafficConfig {
        n_requests: 8_000,
        shape: ArrivalShape::Diurnal {
            period,
            amplitude: 1.0,
        },
        ..TrafficConfig::quick(31)
    };
    let reqs = cfg.generate();
    assert_eq!(reqs.len(), 8_000, "the generator must not stall");
    assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    // The trough window (phase 0.70..0.80, centered on sin = -1 where the
    // instantaneous rate is zero) must carry almost nothing; the mirrored
    // crest window carries ~2x the mean rate.
    let phase_count = |lo: f64, hi: f64| {
        reqs.iter()
            .filter(|r| {
                let ph = (r.arrival.0 % period.0) / period.0;
                ph >= lo && ph < hi
            })
            .count() as f64
    };
    let trough = phase_count(0.70, 0.80);
    let crest = phase_count(0.20, 0.30);
    assert!(
        trough < 0.01 * reqs.len() as f64,
        "trough window must be near-empty, got {trough}"
    );
    assert!(
        crest > 20.0 * trough.max(1.0),
        "crest {crest} vs trough {trough}"
    );
    // The full stack still conserves requests across the dead air.
    let out = run_cluster(&ClusterConfig::quick(), &reqs).unwrap();
    assert_eq!(out.completed + out.shed, out.offered);
    assert!(out.makespan >= reqs.last().unwrap().arrival);
}

/// Bursty arrivals whose burst length exceeds the batch linger: the
/// scheduler must flush multiple linger-bounded batches *within* one
/// burst (not one giant batch per burst), and conservation holds across
/// the on/off discontinuities.
#[test]
fn bursts_longer_than_the_linger_flush_multiple_batches() {
    let period = Ns::from_millis(1.0);
    let policy = BatchPolicy {
        max_batch: 4_096, // so the linger timer, not the size cap, flushes
        max_linger: Ns::from_micros(50.0),
        queue_cap: 8_192,
        ..BatchPolicy::default()
    };
    let cfg = TrafficConfig {
        rate_ops_per_sec: 2.0e6,
        n_requests: 6_000,
        shape: ArrivalShape::Bursty {
            period,
            duty: 0.5, // 500 us on-phase, 10x the 50 us linger
            mult: 1.8,
        },
        ..TrafficConfig::quick(33)
    };
    let reqs = cfg.generate();
    let burst_len = Ns(period.0 * 0.5);
    assert!(
        burst_len > policy.max_linger,
        "the scenario requires burst length > linger"
    );
    let cluster = ClusterConfig {
        shards: 1,
        policy,
        ..ClusterConfig::quick()
    };
    let out = run_cluster(&cluster, &reqs).unwrap();
    assert_eq!(out.completed + out.shed, out.offered, "no silent drops");
    assert_eq!(out.shed, 0, "the deep queue must absorb whole bursts");
    // Because the burst outlives the linger, at least some bursts must
    // split across multiple launches: strictly more batches than bursts.
    // (Batch service time — not the linger alone — bounds the flush
    // cadence under load, so one-batch-per-linger is NOT guaranteed.)
    let spanned_periods = (reqs.last().unwrap().arrival.0 / period.0).ceil();
    assert!(
        out.batches as f64 > spanned_periods,
        "{} batches over {spanned_periods} periods — bursts must flush repeatedly",
        out.batches
    );
}

/// The mixed-tenant cluster (gpKVS + gpAnalytics on shared shards) is
/// bit-deterministic over the diurnal stream, down to every response and
/// the cohort aggregates read back from the persistent session stores.
#[test]
fn mixed_tenant_diurnal_run_is_bit_deterministic() {
    let traffic = TrafficConfig {
        n_requests: 4_000,
        key_space: 512,
        shape: ArrivalShape::Diurnal {
            period: Ns::from_millis(2.0),
            amplitude: 0.8,
        },
        ..TrafficConfig::quick(37)
    };
    let cfg = ClusterConfig {
        backend: BackendKind::Mixed,
        ..ClusterConfig::quick()
    };
    let run = || {
        let reqs = traffic.generate_mixed(6, 400);
        let out = run_cluster(&cfg, &reqs).unwrap();
        let mut fp = fingerprint(&out);
        let c = out.cohorts.expect("mixed backend reports cohorts");
        fp.extend([c.users, c.sessions, c.retained, c.completions, c.matched]);
        fp.push(out.journaled_events);
        fp
    };
    assert_eq!(run(), run());
}

/// A shard booted over a machine image that crashed mid-batch replays
/// recovery *before* admitting traffic: its first GETs already observe
/// every pre-crash committed PUT, and the torn batch's writes are gone.
#[test]
fn recovery_runs_before_admission_on_a_crashed_image() {
    let committed: Vec<(u64, u64)> = (0..48).map(|i| (1_000 + 2 * i + 1, 9_000 + i)).collect();

    // Serve and commit two PUT batches, then cut power mid-way through a
    // third.
    let mut shard = Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap();
    for chunk in committed.chunks(24) {
        let batch: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, &(key, value))| Request {
                class: 0,
                id: i as u64,
                arrival: Ns::ZERO,
                op: Op::Put { key, value },
            })
            .collect();
        shard.apply(&batch, &mut FuelGauge::Unlimited).unwrap();
    }
    let torn: Vec<Request> = (0..24)
        .map(|i| Request {
            class: 0,
            id: i,
            arrival: Ns::ZERO,
            op: Op::Put {
                key: 5_000 + 2 * i + 1,
                value: 7_000 + i,
            },
        })
        .collect();
    let err = shard.apply(&torn, &mut FuelGauge::crash(10));
    assert!(
        matches!(err, Err(LaunchError::Crashed(_))),
        "the gauge must cut power mid-batch"
    );

    // Boot a successor shard over the crashed image and serve a GET
    // stream for every committed key through the full scheduler path.
    let (machine, workload, st) = shard.into_kvs_parts();
    let mut booted = Shard::boot_kvs(machine, workload, st, Mode::Gpm).unwrap();
    let boot_recovery = booted
        .recovery()
        .expect("boot over an image records recovery");
    assert!(boot_recovery > Ns::ZERO, "undo replay takes simulated time");

    let gets: Vec<Request> = committed
        .iter()
        .enumerate()
        .map(|(i, &(key, _))| Request {
            class: 0,
            id: i as u64,
            arrival: Ns::ZERO,
            op: Op::Get { key },
        })
        .collect();
    let report = serve_shard(
        &mut booted,
        &gets,
        &BatchPolicy::default(),
        &FaultPlan::default(),
    )
    .unwrap();
    assert_eq!(report.boot_recovery, Some(boot_recovery));
    assert_eq!(report.completed, committed.len() as u64);
    assert_eq!(report.shed, 0);
    for (resp, &(key, value)) in report.responses.iter().zip(&committed) {
        assert_eq!(
            resp.verdict,
            Verdict::Done(Some(value)),
            "key {key:#x} must return its pre-crash committed value"
        );
    }
}

/// The replicated cluster's failover is a simulated event, so the
/// promotion instant, the measured gap, and every acked write must be
/// identical on a rerun — the golden-counter contract extended to the
/// failure path.
#[test]
fn failover_gap_is_identical_across_reruns() {
    use gpm_serve::{run_replicated_cluster, KillPlan, ReplicationConfig};

    let reqs = TrafficConfig {
        n_requests: 3_000,
        ..TrafficConfig::quick(17)
    }
    .generate();
    let kill_at = reqs[reqs.len() / 2].arrival;
    let run = || {
        let mut cfg = ClusterConfig::quick();
        cfg.policy.max_batch = 128;
        let rep = ReplicationConfig {
            kill: Some(KillPlan {
                shard: 0,
                at: kill_at,
                fuel: 40,
            }),
            ..ReplicationConfig::default()
        };
        run_replicated_cluster(&cfg, &rep, &reqs).expect("replicated cluster run")
    };
    let first = run();
    let second = run();
    assert!(
        first.oracle.passed(),
        "no acked write may be lost: {:?}",
        first.oracle
    );
    assert_eq!(
        first.failovers.len(),
        1,
        "exactly one primary death injected"
    );
    assert_eq!(
        first.failovers, second.failovers,
        "promotion sim-time and measured gap must repeat"
    );
    assert_eq!(first.acked_writes, second.acked_writes);
    assert_eq!(first.log_ship, second.log_ship);
    assert_eq!(fingerprint(&first.outcome), fingerprint(&second.outcome));
}

/// A replica silently dropping one shipped log batch is divergence the
/// serve consistency oracle must catch — this is the in-process face of
/// the serve binary's `--inject-bug` self-test.
#[test]
fn dropped_log_batch_diverges_and_the_oracle_catches_it() {
    use gpm_serve::{run_replicated_cluster, ReplicationConfig};

    let reqs = TrafficConfig {
        n_requests: 2_000,
        get_permille: 0,
        ..TrafficConfig::quick(19)
    }
    .generate();
    let mut cfg = ClusterConfig::quick();
    cfg.policy.max_batch = 128;
    let clean = run_replicated_cluster(&cfg, &ReplicationConfig::default(), &reqs)
        .expect("clean replicated run");
    assert!(clean.oracle.passed());
    assert_eq!(clean.log_ship.dropped, 0);

    let rep = ReplicationConfig {
        drop_batch: Some(2),
        ..ReplicationConfig::default()
    };
    let broken = run_replicated_cluster(&cfg, &rep, &reqs).expect("lossy replicated run");
    assert_eq!(broken.log_ship.dropped, 1);
    assert!(
        !broken.oracle.passed(),
        "a dropped log batch must fail the consistency oracle"
    );
}
