//! Primary/replica shard pairs: committed-batch log shipping, replica
//! promotion, and the replicated cluster entry point.
//!
//! Each replicated shard is a *pair* of full [`Shard`]s — two machines,
//! two PM images — joined by a simulated PCIe/PM fabric link. The primary
//! serves traffic through the ordinary [`ServeEngine`] loop; after every
//! committed batch it ships the batch's operation log to the replica
//! (header + per-op bytes over the link, modeled with the same DMA-init +
//! PCIe-bandwidth cost the HBM mirror rebuild uses) and the replica
//! replays it through the *identical* `apply_batch` kernel path with the
//! same per-batch sequence number, so the detect-layer tags make replay
//! exactly-once on the replica too.
//!
//! Replication is **semi-synchronous**: the primary's clock does not
//! advance past a batch until the replica has durably applied it, so an
//! acknowledged write is replica-durable *by construction* — the paper's
//! "zero lost acknowledged writes" guarantee is structural, and the
//! [`ServeConsistency`](gpm_workloads::ServeConsistency) oracle audits it
//! against the replica's actual PM image after the run.
//!
//! **Failover**: a [`KillPlan`] arms a fatal power cut on the primary at
//! a simulated instant. The serving loop sees the crash like any other
//! ([`LaunchError::Crashed`]), but recovery *promotes the replica*
//! instead of repairing the primary: the replica rebuilds its volatile
//! HBM mirror (it was a pure log-applier until now) and takes over as the
//! active shard. The measured promotion gap — crash instant to
//! first-servable instant — is the failover number the bench reports.
//! The in-flight batch was never acknowledged (semi-sync acks only after
//! replica durability), so retrying it on the new primary keeps
//! exactly-once intact.
//!
//! One deliberate limitation: the trace sink lives on the original
//! primary's machine, so post-promotion events are not captured (the
//! promotion event itself is the last one recorded).

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_sim::{EventKind, Ns, OracleVerdict, SimResult, Stats, TraceData};
use gpm_workloads::{KvsParams, LatencyHistogram, Mode, ServeConsistency};

use crate::cluster::{ClusterConfig, ClusterOutcome};
use crate::request::{acked_sets, Request};
use crate::router::Router;
use crate::scheduler::{serve_engine, FaultPlan, ServeEngine};
use crate::shard::Shard;

/// A scheduled fatal power cut on one shard's primary.
#[derive(Debug, Clone, Copy)]
pub struct KillPlan {
    /// Shard index whose primary dies.
    pub shard: u32,
    /// Simulated instant the cut arms: the first batch launched at or
    /// after this time crashes fatally.
    pub at: Ns,
    /// Fuel (kernel thread-operations) granted before the cut.
    pub fuel: u64,
}

/// Replication fabric and fault configuration for a replicated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Fixed per-shipment framing bytes (batch header + sequence tag).
    pub header_bytes: u64,
    /// Log bytes shipped per operation (key + value + descriptor).
    pub bytes_per_op: u64,
    /// Scheduled primary death, if any.
    pub kill: Option<KillPlan>,
    /// Fault injection for the divergence self-test: shard 0's *replica*
    /// silently drops the shipment with this sequence number. The
    /// consistency oracle must catch the divergence — this knob exists to
    /// prove it does.
    pub drop_batch: Option<u64>,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            header_bytes: 64,
            bytes_per_op: 24,
            kill: None,
            drop_batch: None,
        }
    }
}

/// Log-shipping counters for one replicated pair (or a cluster's sum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogShipStats {
    /// Committed batches shipped to the replica.
    pub batches: u64,
    /// Fabric bytes shipped (headers + op logs).
    pub bytes: u64,
    /// Shipments silently dropped by the injected fault.
    pub dropped: u64,
}

/// Record of one replica promotion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverInfo {
    /// Simulated instant the primary died.
    pub at: Ns,
    /// Promotion gap: primary death to the replica's first servable
    /// instant (catch-up wait + mirror rebuild).
    pub gap: Ns,
    /// Batches the replica had durably applied at promotion.
    pub replica_seq: u64,
}

/// A primary/replica pair of gpKVS shards driven as one [`ServeEngine`].
#[derive(Debug)]
pub struct ReplicatedShard {
    primary: Shard,
    replica: Shard,
    /// Instant the replica finishes its last replay (the link is FIFO: a
    /// shipment cannot start applying before its predecessor finished).
    replica_free: Ns,
    header_bytes: u64,
    bytes_per_op: u64,
    kill: Option<KillPlan>,
    drop_batch: Option<u64>,
    /// Sequence number of the next shipment (mirrors the primary's
    /// committed-batch count).
    next_seq: u64,
    /// The kill gauge has been handed out; the next crash is the fatal
    /// one and recovery must promote.
    kill_armed: bool,
    promoted: bool,
    failover: Option<FailoverInfo>,
    ship: LogShipStats,
}

impl ReplicatedShard {
    /// A fresh primary/replica pair of gpKVS shards with identical
    /// sizing. `shard_idx` selects whether this pair is the kill /
    /// drop-batch target of `rep`.
    ///
    /// # Errors
    ///
    /// Propagates setup errors.
    pub fn new_kvs(
        params: KvsParams,
        mode: Mode,
        rep: &ReplicationConfig,
        shard_idx: u32,
    ) -> SimResult<ReplicatedShard> {
        let primary = Shard::new_kvs(params, mode)?;
        let replica = Shard::new_kvs(params, mode)?;
        Ok(ReplicatedShard {
            primary,
            replica,
            replica_free: Ns::ZERO,
            header_bytes: rep.header_bytes,
            bytes_per_op: rep.bytes_per_op,
            kill: rep.kill.filter(|k| k.shard == shard_idx),
            drop_batch: if shard_idx == 0 { rep.drop_batch } else { None },
            next_seq: 0,
            kill_armed: false,
            promoted: false,
            failover: None,
            ship: LogShipStats::default(),
        })
    }

    /// The currently-active shard (primary, or the replica once
    /// promoted).
    pub fn active(&self) -> &Shard {
        if self.promoted {
            &self.replica
        } else {
            &self.primary
        }
    }

    fn active_mut(&mut self) -> &mut Shard {
        if self.promoted {
            &mut self.replica
        } else {
            &mut self.primary
        }
    }

    /// The replica shard (the promotion target / log applier).
    pub fn replica(&self) -> &Shard {
        &self.replica
    }

    /// The original primary shard (stale after a promotion).
    pub fn primary(&self) -> &Shard {
        &self.primary
    }

    /// Whether the replica has been promoted.
    pub fn promoted(&self) -> bool {
        self.promoted
    }

    /// Simulated one-way shipping latency for `bytes` over the fabric
    /// link (same DMA-init + PCIe-bandwidth model as mirror rebuilds).
    fn ship_latency(&self, bytes: u64) -> Ns {
        self.primary.machine.cfg.dma_init_overhead
            + Ns(bytes as f64 / self.primary.machine.cfg.pcie_bw)
    }
}

impl ServeEngine for ReplicatedShard {
    fn now(&self) -> Ns {
        self.active().now()
    }

    fn advance_to(&mut self, t: Ns) {
        self.active_mut().machine.clock.advance_to(t);
    }

    fn max_batch(&self) -> u64 {
        self.active().max_batch()
    }

    fn trace_enabled(&self) -> bool {
        self.active().machine.trace_enabled()
    }

    fn trace(&mut self, kind: EventKind) {
        self.active_mut().machine.trace(kind);
    }

    fn stats(&self) -> Stats {
        self.primary
            .machine
            .stats
            .merged(&self.replica.machine.stats)
    }

    fn take_trace(&mut self) -> Option<TraceData> {
        self.primary
            .machine
            .finish_trace()
            .or_else(|| self.replica.machine.finish_trace())
    }

    fn gauge_for(&mut self, faults: &FaultPlan, n: u64) -> FuelGauge {
        if !self.promoted {
            if let Some(k) = self.kill {
                if self.primary.now() >= k.at {
                    self.kill_armed = true;
                    return FuelGauge::crash(k.fuel);
                }
            }
        }
        faults.gauge_for(n)
    }

    fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError> {
        if self.promoted {
            // Post-failover: the replica IS the shard; no further
            // shipping (a second fabric hop would need a third machine).
            return self.replica.apply(batch, gauge);
        }
        self.primary.apply(batch, gauge)?;
        // Committed on the primary — ship the batch log. Semi-sync: the
        // primary's clock blocks until the replica has durably applied,
        // so the acknowledgement instant below implies replica
        // durability.
        let t_commit = self.primary.now();
        let weight: u64 = batch.iter().map(|r| r.op.weight()).sum();
        let bytes = self.header_bytes + self.bytes_per_op * weight;
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.primary.machine.trace_enabled() {
            self.primary
                .machine
                .trace(EventKind::LogShip { seq, bytes });
        }
        let start = (t_commit + self.ship_latency(bytes)).max(self.replica_free);
        self.replica.machine.clock.advance_to(start);
        if self.drop_batch == Some(seq) {
            // Injected divergence: the shipment vanishes in the fabric.
            // The replica's PM image now silently misses this batch; the
            // consistency oracle must flag it.
            self.ship.dropped += 1;
        } else {
            self.replica.apply(batch, &mut FuelGauge::Unlimited)?;
        }
        let done = self.replica.now();
        self.replica_free = done;
        self.ship.batches += 1;
        self.ship.bytes += bytes;
        self.primary.machine.clock.advance_to(done);
        if self.primary.machine.trace_enabled() {
            self.primary.machine.trace(EventKind::ReplicaAck { seq });
        }
        Ok(())
    }

    fn recover_in_place(&mut self) -> SimResult<Ns> {
        if self.kill_armed && !self.promoted {
            // The primary is dead. Promote the replica: wait out any
            // in-flight replay, rebuild its HBM mirror (it served no
            // GETs as a log applier), and make it the active shard. The
            // interrupted batch was never shipped (shipping happens only
            // after commit), so the serving loop's retry replays it on
            // the new primary without double-applying anything.
            let t_crash = self.primary.now();
            self.replica
                .machine
                .clock
                .advance_to(t_crash.max(self.replica_free));
            self.replica.recover_in_place()?;
            let ready = self.replica.now();
            let gap = ready - t_crash;
            if self.primary.machine.trace_enabled() {
                self.primary
                    .machine
                    .trace(EventKind::FailoverPromote { gap_ns: gap.0 });
            }
            self.failover = Some(FailoverInfo {
                at: t_crash,
                gap,
                replica_seq: self.next_seq,
            });
            self.promoted = true;
            Ok(gap)
        } else {
            // Transient fault on the active shard: ordinary in-place
            // retry recovery; the peer is untouched (its committed state
            // is already durable).
            self.active_mut().recover_in_place()
        }
    }

    fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>> {
        self.active().read_gets(batch)
    }

    fn failover(&self) -> Option<FailoverInfo> {
        self.failover
    }

    fn log_ship(&self) -> Option<LogShipStats> {
        Some(self.ship)
    }
}

/// Outcome of a replicated cluster run: the ordinary serving outcome plus
/// the replication audit.
#[derive(Debug)]
pub struct ReplicatedOutcome {
    /// Merged serving outcome (histograms, sheds, per-pair reports).
    pub outcome: ClusterOutcome,
    /// Replica-consistency verdict: every acknowledged write audited
    /// against the surviving shards' actual PM images.
    pub oracle: OracleVerdict,
    /// Acknowledged (completed) writes the oracle audited.
    pub acked_writes: u64,
    /// Replica promotions that happened, in shard order.
    pub failovers: Vec<FailoverInfo>,
    /// Log-shipping counters summed over all pairs.
    pub log_ship: LogShipStats,
}

/// Routes `requests` over `cfg.shards` primary/replica pairs and serves
/// every stream with semi-sync log shipping; afterwards audits every
/// acknowledged write against the replicas' (and, absent a failover, the
/// primaries') PM images.
///
/// Only the gpKVS backend replicates (the oracle audits through the
/// hash-table image); `cfg.backend` is ignored.
///
/// # Errors
///
/// Propagates shard setup, launch and recovery errors.
pub fn run_replicated_cluster(
    cfg: &ClusterConfig,
    rep: &ReplicationConfig,
    requests: &[Request],
) -> SimResult<ReplicatedOutcome> {
    let router = Router::new(cfg.shards);
    let streams = router.partition(requests);
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
        shards: Vec::with_capacity(streams.len()),
    };
    let mut oracle = OracleVerdict::Pass;
    let mut acked_writes = 0u64;
    let mut failovers = Vec::new();
    let mut log_ship = LogShipStats::default();
    for (idx, stream) in streams.iter().enumerate() {
        let params = KvsParams {
            ops_per_batch: cfg.policy.max_batch,
            persistency: cfg.persistency.or(cfg.kvs.persistency),
            ..cfg.kvs
        };
        let mut pair = ReplicatedShard::new_kvs(params, cfg.mode, rep, idx as u32)?;
        if let Some(cap) = cfg.trace_events {
            pair.primary
                .machine
                .set_trace_sink(Box::new(gpm_sim::RingSink::new(cap)));
        }
        let report = serve_engine(&mut pair, stream, &cfg.policy, &cfg.faults)?;
        // Audit: rebuild the acknowledged-write ledger from the actual
        // responses (ground truth — a shipped-log bug cannot also corrupt
        // the audit), then check it against the replica's PM image, and
        // against the primary's too when it survived.
        let sets = pair.active().kvs_sets().expect("kvs pair");
        let mut ledger = ServeConsistency::new(sets);
        for (key, value) in acked_sets(stream, &report.responses)? {
            ledger.acked_set(key, value);
        }
        acked_writes += ledger.acked_writes();
        let replica_dev = pair.replica().kvs_dev().expect("kvs pair");
        let v = ledger.verify(&pair.replica().machine, &replica_dev)?;
        if oracle.passed() && !v.passed() {
            oracle = match v {
                OracleVerdict::Fail(m) => OracleVerdict::Fail(format!("shard {idx} replica: {m}")),
                OracleVerdict::Pass => unreachable!(),
            };
        }
        if !pair.promoted() {
            let primary_dev = pair.primary().kvs_dev().expect("kvs pair");
            let v = ledger.verify(&pair.primary().machine, &primary_dev)?;
            if oracle.passed() && !v.passed() {
                oracle = match v {
                    OracleVerdict::Fail(m) => {
                        OracleVerdict::Fail(format!("shard {idx} primary: {m}"))
                    }
                    OracleVerdict::Pass => unreachable!(),
                };
            }
        }
        if let Some(f) = report.failover {
            failovers.push(f);
        }
        if let Some(s) = report.log_ship {
            log_ship.batches += s.batches;
            log_ship.bytes += s.bytes;
            log_ship.dropped += s.dropped;
        }
        outcome.hist.merge(&report.hist);
        outcome.offered += report.offered;
        outcome.completed += report.completed;
        outcome.shed += report.shed;
        outcome.retries += report.retries;
        outcome.batches += report.batches;
        outcome.makespan = outcome.makespan.max(report.end);
        outcome.shards.push(report);
    }
    Ok(ReplicatedOutcome {
        outcome,
        oracle,
        acked_writes,
        failovers,
        log_ship,
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

    #[test]
    fn replication_acks_only_replica_durable_writes() {
        let reqs = TrafficConfig::quick(11).generate();
        let out =
            run_replicated_cluster(&quick_cfg(), &ReplicationConfig::default(), &reqs).unwrap();
        assert_eq!(
            out.outcome.completed + out.outcome.shed,
            out.outcome.offered
        );
        assert!(out.acked_writes > 0);
        assert!(out.oracle.passed(), "oracle: {:?}", out.oracle);
        assert!(out.log_ship.batches > 0, "batches must ship");
        assert_eq!(out.log_ship.dropped, 0);
        assert!(out.failovers.is_empty());
    }

    #[test]
    fn dropped_shipment_is_caught_by_the_oracle() {
        let reqs = TrafficConfig {
            get_permille: 0,
            ..TrafficConfig::quick(11)
        }
        .generate();
        let rep = ReplicationConfig {
            drop_batch: Some(1),
            ..ReplicationConfig::default()
        };
        let out = run_replicated_cluster(&quick_cfg(), &rep, &reqs).unwrap();
        assert_eq!(out.log_ship.dropped, 1);
        assert!(
            !out.oracle.passed(),
            "a silently dropped log batch must diverge the replica"
        );
    }

    #[test]
    fn primary_kill_promotes_the_replica_without_losing_acks() {
        let reqs = TrafficConfig {
            n_requests: 3_000,
            ..TrafficConfig::quick(13)
        }
        .generate();
        let mid = reqs[reqs.len() / 2].arrival;
        let rep = ReplicationConfig {
            kill: Some(KillPlan {
                shard: 0,
                at: mid,
                fuel: 40,
            }),
            ..ReplicationConfig::default()
        };
        let out = run_replicated_cluster(&quick_cfg(), &rep, &reqs).unwrap();
        assert_eq!(out.failovers.len(), 1, "exactly one promotion");
        let f = out.failovers[0];
        assert!(f.gap > Ns::ZERO, "promotion takes simulated time");
        assert!(f.at >= mid);
        assert_eq!(
            out.outcome.completed + out.outcome.shed,
            out.outcome.offered
        );
        assert!(out.oracle.passed(), "oracle: {:?}", out.oracle);
    }
}
