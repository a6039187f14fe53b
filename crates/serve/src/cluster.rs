//! The sharded serving cluster: router + N shards + merged accounting.
//!
//! Shards are fully independent machines (the paper's scale-out story:
//! each GPU owns its PM image), so the cluster runs them one after the
//! other and merges their histograms — simulated time makes the result
//! identical to a concurrent run, and keeps it bit-deterministic.

use gpm_sim::{Ns, RingSink, SimResult};
use gpm_workloads::{
    AnalyticsParams, CohortStats, DbOp, DbParams, KvsParams, LatencyHistogram, Mode,
};

use crate::request::{Op, Request};
use crate::router::Router;
use crate::scheduler::{serve_engine, BatchPolicy, FaultPlan, ShardReport};
use crate::shard::Shard;

/// Which workload the shards serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// gpKVS shards (PUT/GET).
    Kvs,
    /// gpDB shards (INSERT).
    Db,
    /// gpAnalytics shards (behavioral events over a persistent session
    /// store + PM journal).
    Analytics,
    /// Mixed-tenant shards: a gpKVS OLTP instance and a gpAnalytics
    /// session store sharing every machine, fed from one routed stream.
    Mixed,
}

/// Cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of independent shards.
    pub shards: u32,
    /// Persistence mode every shard runs under.
    pub mode: Mode,
    /// Per-shard batching policy.
    pub policy: BatchPolicy,
    /// Per-shard transient-fault plan.
    pub faults: FaultPlan,
    /// Workload kind.
    pub backend: BackendKind,
    /// gpKVS sizing (the batch buffer is sized to the policy's
    /// `max_batch` automatically).
    pub kvs: KvsParams,
    /// gpDB sizing (table capacity is sized to the routed stream
    /// automatically).
    pub db: DbParams,
    /// gpAnalytics sizing (the PM journal is sized to the routed stream
    /// automatically via `batches`).
    pub analytics: AnalyticsParams,
    /// When set, install a bounded `RingSink` of this capacity on every
    /// shard's machine before serving; each `ShardReport` then carries
    /// the shard's `TraceData`.
    pub trace_events: Option<usize>,
    /// GPU persistency model every shard's kernels run under. `Some(model)`
    /// overrides every backend's params; `None` keeps each backend's own
    /// `persistency` (strict by default).
    pub persistency: Option<gpm_gpu::PersistencyModel>,
}

impl ClusterConfig {
    /// A small deterministic cluster for tests and `--quick` runs.
    pub fn quick() -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            mode: Mode::Gpm,
            policy: BatchPolicy {
                max_batch: 256,
                ..BatchPolicy::default()
            },
            faults: FaultPlan::default(),
            backend: BackendKind::Kvs,
            kvs: KvsParams::quick(),
            db: DbParams::quick(),
            analytics: AnalyticsParams::quick(),
            trace_events: None,
            persistency: None,
        }
    }
}

/// Merged outcome of one cluster run. [`Default`] is the empty cluster;
/// [`absorb`](ClusterOutcome::absorb) folds in one shard's report.
#[derive(Debug, Default)]
pub struct ClusterOutcome {
    /// Latency distribution merged over all shards.
    pub hist: LatencyHistogram,
    /// Requests offered across the cluster.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission backpressure.
    pub shed: u64,
    /// Transient-crash retries across shards.
    pub retries: u64,
    /// Kernel-launch batches across shards.
    pub batches: u64,
    /// Slowest shard's finish time (the cluster's makespan).
    pub makespan: Ns,
    /// Merged behavioral cohort aggregates read back from the persistent
    /// session stores (`Some` for analytics/mixed backends). Users are
    /// partitioned by shard, so summing the per-shard reports is exact.
    pub cohorts: Option<CohortStats>,
    /// Events durably journaled across all shards' committed batches.
    pub journaled_events: u64,
    /// Per-shard reports.
    pub shards: Vec<ShardReport>,
}

impl ClusterOutcome {
    /// Folds one shard's report into the cluster: merges its latency
    /// histogram, adds its counters, extends the makespan to its end and
    /// keeps the report.
    pub fn absorb(&mut self, report: ShardReport) {
        self.hist.merge(&report.hist);
        self.offered += report.offered;
        self.completed += report.completed;
        self.shed += report.shed;
        self.retries += report.retries;
        self.batches += report.batches;
        self.makespan = self.makespan.max(report.end);
        self.shards.push(report);
    }

    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Completed requests per simulated second (over the makespan).
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.makespan.as_secs()
        }
    }

    /// Fraction of completed requests at or under `slo` end-to-end
    /// latency.
    pub fn slo_attainment(&self, slo: Ns) -> f64 {
        self.hist.fraction_le(slo)
    }
}

/// Routes `requests` over the cluster's shards and serves every stream.
///
/// # Errors
///
/// Propagates shard setup, launch and recovery errors.
pub fn run_cluster(cfg: &ClusterConfig, requests: &[Request]) -> SimResult<ClusterOutcome> {
    let router = Router::new(cfg.shards);
    let streams = router.partition(requests);
    let mut outcome = ClusterOutcome::default();
    for stream in &streams {
        let mut shard = match cfg.backend {
            BackendKind::Kvs => {
                let params = KvsParams {
                    ops_per_batch: cfg.policy.max_batch,
                    persistency: cfg.persistency.unwrap_or(cfg.kvs.persistency),
                    ..cfg.kvs
                };
                Shard::new_kvs(params, cfg.mode)?
            }
            BackendKind::Db => {
                // Size the table for the worst case: every routed INSERT
                // commits.
                let routed: u64 = stream
                    .iter()
                    .map(|r| match r.op {
                        Op::Insert { rows } => rows,
                        _ => 0,
                    })
                    .sum();
                let params = DbParams {
                    op: DbOp::Insert,
                    capacity_rows: cfg.db.initial_rows + routed,
                    persistency: cfg.persistency.unwrap_or(cfg.db.persistency),
                    ..cfg.db
                };
                Shard::new_db(params, cfg.mode)?
            }
            BackendKind::Analytics | BackendKind::Mixed => {
                // Size the PM journal for the routed events plus a batch
                // of headroom: committed batches append exactly their
                // event count (retries rewrite in place).
                let routed = stream
                    .iter()
                    .filter(|r| matches!(r.op, Op::Event { .. }))
                    .count() as u64;
                let epb = cfg.analytics.events_per_batch;
                let an = AnalyticsParams {
                    batches: (routed / epb + 2)
                        .try_into()
                        .expect("journal batch count fits u32"),
                    persistency: cfg.persistency.unwrap_or(cfg.analytics.persistency),
                    ..cfg.analytics
                };
                if cfg.backend == BackendKind::Analytics {
                    Shard::new_analytics(an, cfg.mode)?
                } else {
                    let kvs = KvsParams {
                        ops_per_batch: cfg.policy.max_batch,
                        persistency: cfg.persistency.unwrap_or(cfg.kvs.persistency),
                        ..cfg.kvs
                    };
                    Shard::new_mixed(kvs, an, cfg.mode)?
                }
            }
        };
        if let Some(cap) = cfg.trace_events {
            // Installed after boot so the traced window (and its stats
            // delta) covers exactly the serve phase.
            shard.machine.set_trace_sink(Box::new(RingSink::new(cap)));
        }
        let report = serve_engine(&mut shard, stream, &cfg.policy, &cfg.faults)?;
        if let Some(c) = shard.cohort_stats()? {
            let agg = outcome.cohorts.get_or_insert(CohortStats::default());
            agg.users += c.users;
            agg.sessions += c.sessions;
            agg.retained += c.retained;
            agg.completions += c.completions;
            agg.matched += c.matched;
        }
        outcome.journaled_events += shard.journaled_events();
        outcome.absorb(report);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::TrafficConfig;

    #[test]
    fn cluster_completes_a_moderate_stream() {
        let cfg = ClusterConfig::quick();
        let reqs = TrafficConfig::quick(6).generate();
        let out = run_cluster(&cfg, &reqs).unwrap();
        assert_eq!(out.offered, reqs.len() as u64);
        assert_eq!(out.completed + out.shed, out.offered);
        assert!(out.throughput_ops_per_sec() > 0.0);
        assert!(out.hist.count() == out.completed);
        assert!(out.slo_attainment(Ns::from_millis(100.0)) > 0.99);
    }

    #[test]
    fn more_shards_do_not_lose_requests() {
        let reqs = TrafficConfig::quick(6).generate();
        for shards in [1u32, 3] {
            let cfg = ClusterConfig {
                shards,
                ..ClusterConfig::quick()
            };
            let out = run_cluster(&cfg, &reqs).unwrap();
            assert_eq!(out.offered, reqs.len() as u64);
            assert_eq!(out.completed + out.shed, out.offered);
            assert_eq!(out.shards.len(), shards as usize);
        }
    }

    #[test]
    fn epoch_persistency_reaches_the_shards() {
        // Pinning epoch on the cluster must actually change every shard's
        // kernel launches: epoch fences are cheaper than strict drains, so
        // the same request stream finishes at a different simulated time.
        let reqs = TrafficConfig::quick(6).generate();
        let strict = run_cluster(&ClusterConfig::quick(), &reqs).unwrap();
        let epoch_cfg = ClusterConfig {
            persistency: Some(gpm_gpu::PersistencyModel::Epoch),
            ..ClusterConfig::quick()
        };
        let epoch = run_cluster(&epoch_cfg, &reqs).unwrap();
        assert_eq!(strict.completed + strict.shed, epoch.completed + epoch.shed);
        assert_ne!(
            strict.makespan, epoch.makespan,
            "epoch model did not reach the shards' launches"
        );
    }

    #[test]
    fn analytics_cluster_folds_the_event_stream() {
        let cfg = ClusterConfig {
            backend: BackendKind::Analytics,
            ..ClusterConfig::quick()
        };
        let reqs = TrafficConfig {
            key_space: 256,
            ..TrafficConfig::quick(21)
        }
        .generate_events(6);
        let out = run_cluster(&cfg, &reqs).unwrap();
        assert_eq!(out.completed + out.shed, out.offered);
        assert_eq!(
            out.journaled_events, out.completed,
            "every completed event is durably journaled exactly once"
        );
        let stats = out.cohorts.expect("analytics backend reports cohorts");
        assert!(stats.users > 0 && stats.users <= 256);
        assert!(stats.sessions >= stats.users, "each user opens a session");
        assert!(stats.completions > 0, "the trace completes funnels");
    }

    #[test]
    fn mixed_cluster_is_deterministic_and_serves_both_tenants() {
        let cfg = ClusterConfig {
            backend: BackendKind::Mixed,
            ..ClusterConfig::quick()
        };
        let reqs = TrafficConfig {
            key_space: 256,
            ..TrafficConfig::quick(23)
        }
        .generate_mixed(6, 400);
        let out = run_cluster(&cfg, &reqs).unwrap();
        assert_eq!(out.completed + out.shed, out.offered);
        let events_offered = reqs
            .iter()
            .filter(|r| matches!(r.op, Op::Event { .. }))
            .count() as u64;
        assert!(out.journaled_events <= events_offered);
        assert!(out.journaled_events > 0, "events reached the journal");
        assert!(out.cohorts.is_some());
        // GETs are answered from the KVS tenant: some response carries a
        // value (the stream has PUT-then-GET key reuse).
        let answered = out
            .shards
            .iter()
            .flat_map(|s| &s.responses)
            .filter(|r| matches!(r.verdict, crate::request::Verdict::Done(Some(v)) if v != 0))
            .count();
        assert!(answered > 0, "no GET observed a PUT");
        // Bit-determinism: the same stream replays to identical counters.
        let out2 = run_cluster(&cfg, &reqs).unwrap();
        assert_eq!(out.completed, out2.completed);
        assert_eq!(out.makespan, out2.makespan);
        assert_eq!(out.cohorts, out2.cohorts);
        assert_eq!(out.journaled_events, out2.journaled_events);
    }

    #[test]
    fn db_cluster_serves_insert_stream() {
        let cfg = ClusterConfig {
            backend: BackendKind::Db,
            ..ClusterConfig::quick()
        };
        let reqs = TrafficConfig {
            rate_ops_per_sec: 0.2e6,
            n_requests: 400,
            ..TrafficConfig::quick(5)
        }
        .generate_inserts(8);
        let out = run_cluster(&cfg, &reqs).unwrap();
        assert_eq!(out.completed, 400, "capacity sized to the stream");
        assert_eq!(out.shed, 0);
    }
}
