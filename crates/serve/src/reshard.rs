//! Elastic resharding: live key-range migration under traffic.
//!
//! Range partitioning ([`Router::route_hash`]) makes growing a cluster a
//! *key-range ship*: going from N to M shards splits each owned hash
//! range at fixed boundaries, so exactly the entries whose hash falls in
//! a split-off slice change owner — nothing else moves.
//!
//! The run is phased, all in simulated time:
//!
//! 1. **Phase 1** — arrivals before the cutover instant are served by the
//!    original N shards under the N-way router.
//! 2. **Migration** — at a quiesce barrier (the latest phase-1 finish
//!    across the cluster), each source shard's PM hash table is scanned
//!    and every entry whose new owner differs is shipped to its target:
//!    a per-transfer fabric cost (DMA-init + bytes over PCIe bandwidth,
//!    32 bytes per slot plus a header) followed by a replay of the moved
//!    entries through the target's ordinary `apply_batch` kernel path —
//!    migration *is* a batch of PUTs, not a special-cased byte copy, so
//!    the detect layer makes a re-run of an interrupted migration
//!    exactly-once for free.
//! 3. **Phase 2** — arrivals at or after the cutover are served by all M
//!    shards under the M-way router, each target starting when its
//!    migration finished.
//!
//! Stale moved-out copies are deliberately left on the sources: the
//! M-way router never routes those keys there again, so they are dead
//! bytes, and skipping the delete keeps migration one-directional.
//!
//! The consistency audit rebuilds the expected final table of every
//! shard from the actual responses (phase-1 and phase-2 completed PUTs)
//! plus the migration scan (ground truth for moved entries), then checks
//! each shard's PM image against it — [`ReshardPlan::drop_migrated_key`]
//! injects a silently-lost migrated entry to prove the audit catches
//! divergence.

use gpm_gpu::FuelGauge;
use gpm_sim::{EventKind, Ns, OracleVerdict, SimResult};
use gpm_workloads::{KvsParams, LatencyHistogram, ServeConsistency, SLOT_BYTES};

use crate::cluster::{ClusterConfig, ClusterOutcome};
use crate::request::{acked_sets, Op, Request};
use crate::router::Router;
use crate::scheduler::serve_shard;
use crate::shard::Shard;

/// One elastic-resharding run's shape.
#[derive(Debug, Clone, Copy)]
pub struct ReshardPlan {
    /// Shard count before the cutover.
    pub shards_before: u32,
    /// Shard count after the cutover (> `shards_before` grows, `<`
    /// shrinks — both are just range re-splits).
    pub shards_after: u32,
    /// Simulated instant the router flips: arrivals before it run on the
    /// old layout, arrivals at/after it on the new one.
    pub cutover: Ns,
    /// Fabric framing bytes per migration transfer.
    pub header_bytes: u64,
    /// Fault injection for the audit self-test: this migrated key is
    /// silently dropped instead of inserted at its target.
    pub drop_migrated_key: Option<u64>,
}

impl ReshardPlan {
    /// A grow-by-one plan cutting over at `cutover`.
    pub fn grow(shards_before: u32, shards_after: u32, cutover: Ns) -> ReshardPlan {
        ReshardPlan {
            shards_before,
            shards_after,
            cutover,
            header_bytes: 64,
            drop_migrated_key: None,
        }
    }
}

/// Outcome of one resharding run.
#[derive(Debug)]
pub struct ReshardOutcome {
    /// Merged serving outcome over both phases (phase-1 reports first,
    /// then phase-2, in shard order).
    pub outcome: ClusterOutcome,
    /// Entries that changed owner and were shipped.
    pub keys_moved: u64,
    /// Fabric bytes the migration shipped (headers + slots).
    pub bytes_moved: u64,
    /// The quiesce barrier: when migration began.
    pub migration_start: Ns,
    /// Migration wall time (barrier to the last target's finish).
    pub migration_span: Ns,
    /// Consistency verdict over every final shard's PM image.
    pub oracle: OracleVerdict,
    /// Acknowledged writes the audit covered.
    pub acked_writes: u64,
}

/// Runs a live resharding: phase-1 traffic on the old layout, a key-range
/// migration at the cutover barrier, phase-2 traffic on the new layout,
/// and a full consistency audit. gpKVS only (the audit reads the hash
/// table); `cfg.shards`, `cfg.backend` and `cfg.trace_events` are ignored
/// (the plan fixes the layouts; per-phase traces are not captured).
///
/// # Errors
///
/// Propagates shard setup, launch and recovery errors; rejects streams
/// containing non-KVS operations.
///
/// # Panics
///
/// Panics if the plan's shard counts are zero.
pub fn run_resharded_cluster(
    cfg: &ClusterConfig,
    plan: &ReshardPlan,
    requests: &[Request],
) -> SimResult<ReshardOutcome> {
    let router_a = Router::new(plan.shards_before);
    let router_b = Router::new(plan.shards_after);
    let n_total = plan.shards_before.max(plan.shards_after) as usize;
    let params = KvsParams {
        ops_per_batch: cfg.policy.max_batch,
        persistency: cfg.persistency.or(cfg.kvs.persistency),
        ..cfg.kvs
    };
    let mut shards: Vec<Shard> = (0..n_total)
        .map(|_| Shard::new_kvs(params, cfg.mode))
        .collect::<SimResult<_>>()?;
    let sets = shards[0].kvs_sets().expect("kvs shards");
    let mut ledgers: Vec<ServeConsistency> = (0..plan.shards_after)
        .map(|_| ServeConsistency::new(sets))
        .collect();
    let split = requests.partition_point(|r| r.arrival < plan.cutover);
    let (phase1, phase2) = requests.split_at(split);

    let mut outcome = ClusterOutcome {
        hist: LatencyHistogram::new(),
        offered: 0,
        completed: 0,
        shed: 0,
        retries: 0,
        batches: 0,
        makespan: Ns::ZERO,
        cohorts: None,
        journaled_events: 0,
        shards: Vec::new(),
    };
    let merge = |outcome: &mut ClusterOutcome, report: crate::scheduler::ShardReport| {
        outcome.hist.merge(&report.hist);
        outcome.offered += report.offered;
        outcome.completed += report.completed;
        outcome.shed += report.shed;
        outcome.retries += report.retries;
        outcome.batches += report.batches;
        outcome.makespan = outcome.makespan.max(report.end);
        outcome.shards.push(report);
    };

    // Phase 1: old layout.
    let streams_a = router_a.partition(phase1);
    let mut migration_start = Ns::ZERO;
    for (s, stream) in streams_a.iter().enumerate() {
        let report = serve_shard(&mut shards[s], stream, &cfg.policy, &cfg.faults)?;
        // Feed the audit: an acked write's key lives, after migration, at
        // its *new* owner — record it there (last write wins in response
        // order, which is apply order under FIFO batching).
        for (key, value) in acked_sets(stream, &report.responses)? {
            ledgers[router_b.route_key(key)].acked_set(key, value);
        }
        migration_start = migration_start.max(report.end);
        merge(&mut outcome, report);
    }

    // Migration at the quiesce barrier: scan each source, ship every
    // entry whose owner changed. Scan order (set-major) and source order
    // make the transfer sequence deterministic.
    let mut keys_moved = 0u64;
    let mut bytes_moved = 0u64;
    let mut migration_end = migration_start;
    let mut transfers: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_total];
    for (s, shard) in shards
        .iter_mut()
        .enumerate()
        .take(plan.shards_before as usize)
    {
        let dev = shard.kvs_dev().expect("kvs shard");
        for (k, v) in dev.host_scan(&shard.machine)? {
            let owner = router_b.route_key(k);
            if owner != s {
                transfers[owner].push((k, v));
            }
        }
        shard.machine.clock.advance_to(migration_start);
    }
    for (t, moved) in transfers.iter().enumerate() {
        if moved.is_empty() {
            shards[t].machine.clock.advance_to(migration_start);
            continue;
        }
        let bytes = plan.header_bytes + SLOT_BYTES * moved.len() as u64;
        let cost = shards[t].machine.cfg.dma_init_overhead
            + Ns(bytes as f64 / shards[t].machine.cfg.pcie_bw);
        let start = migration_start + cost;
        shards[t].machine.clock.advance_to(start);
        if shards[t].machine.trace_enabled() {
            shards[t].machine.trace(EventKind::MigrateKeys {
                keys: moved.len() as u64,
                bytes,
            });
        }
        // Replay moved entries through the ordinary kernel path, chunked
        // to the batch budget. The scan is ground truth for the audit;
        // the injected drop corrupts only the actual insert.
        let chunk = cfg.policy.max_batch.max(1) as usize;
        for batch in moved.chunks(chunk) {
            let reqs: Vec<Request> = batch
                .iter()
                .filter(|&&(k, _)| plan.drop_migrated_key != Some(k))
                .enumerate()
                .map(|(i, &(key, value))| Request {
                    id: i as u64,
                    arrival: shards[t].now(),
                    op: Op::Put { key, value },
                    class: 0,
                })
                .collect();
            if !reqs.is_empty() {
                shards[t]
                    .apply(&reqs, &mut FuelGauge::Unlimited)
                    .map_err(|e| match e {
                        gpm_gpu::LaunchError::Sim(e) => e,
                        gpm_gpu::LaunchError::Crashed(_) => {
                            gpm_sim::SimError::Invalid("unexpected crash during migration")
                        }
                    })?;
            }
            for &(k, v) in batch {
                ledgers[t].acked_set(k, v);
            }
        }
        keys_moved += moved.len() as u64;
        bytes_moved += bytes;
        migration_end = migration_end.max(shards[t].now());
    }

    // Phase 2: new layout; every shard serves from wherever its clock
    // landed (targets from their migration finish, others from the
    // barrier).
    let streams_b = router_b.partition(phase2);
    for (s, stream) in streams_b.iter().enumerate() {
        let report = serve_shard(&mut shards[s], stream, &cfg.policy, &cfg.faults)?;
        for (key, value) in acked_sets(stream, &report.responses)? {
            ledgers[s].acked_set(key, value);
        }
        merge(&mut outcome, report);
    }

    // Audit every final shard's PM image against its expected table.
    let mut oracle = OracleVerdict::Pass;
    let mut acked_writes = 0u64;
    for s in 0..plan.shards_after as usize {
        acked_writes += ledgers[s].acked_writes();
        let dev = shards[s].kvs_dev().expect("kvs shard");
        let v = ledgers[s].verify(&shards[s].machine, &dev)?;
        if oracle.passed() && !v.passed() {
            oracle = match v {
                OracleVerdict::Fail(m) => OracleVerdict::Fail(format!("shard {s}: {m}")),
                OracleVerdict::Pass => unreachable!(),
            };
        }
    }
    Ok(ReshardOutcome {
        outcome,
        keys_moved,
        bytes_moved,
        migration_start,
        migration_span: migration_end - migration_start,
        oracle,
        acked_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::TrafficConfig;
    use crate::scheduler::BatchPolicy;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            policy: BatchPolicy {
                max_batch: 128,
                ..BatchPolicy::default()
            },
            ..ClusterConfig::quick()
        }
    }

    fn mid_cutover(reqs: &[Request]) -> Ns {
        reqs[reqs.len() / 2].arrival
    }

    #[test]
    fn grow_migrates_and_stays_consistent() {
        let reqs = TrafficConfig {
            n_requests: 2_500,
            ..TrafficConfig::quick(31)
        }
        .generate();
        let plan = ReshardPlan::grow(2, 3, mid_cutover(&reqs));
        let out = run_resharded_cluster(&quick_cfg(), &plan, &reqs).unwrap();
        assert_eq!(
            out.outcome.completed + out.outcome.shed,
            out.outcome.offered
        );
        assert!(out.keys_moved > 0, "a grow must move key ranges");
        assert!(out.migration_span > Ns::ZERO);
        assert!(out.oracle.passed(), "oracle: {:?}", out.oracle);
        // Range split: sources keep most of their range. Moving *every*
        // key would mean the partition is not range-stable.
        assert!(
            out.keys_moved < out.acked_writes,
            "moved {} of {} acked writes",
            out.keys_moved,
            out.acked_writes
        );
    }

    #[test]
    fn dropped_migrated_key_is_caught() {
        let reqs = TrafficConfig {
            n_requests: 2_500,
            get_permille: 0,
            ..TrafficConfig::quick(31)
        }
        .generate();
        let mut plan = ReshardPlan::grow(2, 3, mid_cutover(&reqs));
        let base = run_resharded_cluster(&quick_cfg(), &plan, &reqs).unwrap();
        assert!(base.oracle.passed());
        // Pick an actually-migrated key: rebuild the move set the same way
        // the migration does — any phase-1 put whose owner changes.
        let router_b = Router::new(plan.shards_after);
        let router_a = Router::new(plan.shards_before);
        let rewritten_later = |key: u64| {
            reqs.iter().any(|r| {
                r.arrival >= plan.cutover && matches!(r.op, Op::Put { key: k, .. } if k == key)
            })
        };
        let victim = reqs
            .iter()
            .filter(|r| r.arrival < plan.cutover)
            .find_map(|r| match r.op {
                // Owner changes, and no phase-2 put heals the drop.
                Op::Put { key, .. }
                    if router_a.route_key(key) != router_b.route_key(key)
                        && !rewritten_later(key) =>
                {
                    Some(key)
                }
                _ => None,
            })
            .expect("some key must change owner");
        plan.drop_migrated_key = Some(victim);
        let out = run_resharded_cluster(&quick_cfg(), &plan, &reqs).unwrap();
        assert!(
            !out.oracle.passed(),
            "a silently dropped migrated key must fail the audit"
        );
    }
}
