//! One serving shard: a private `Machine` running a gpKVS or gpDB
//! instance.
//!
//! A shard owns its machine (its own PM image, HBM, clock and stats) and
//! the live workload state on it. The scheduler drives it through exactly
//! the same `apply_batch` kernel-launch path the closed-loop suite uses —
//! there is no serving-only fork of the launch logic.
//!
//! Shards come up in one of two ways:
//!
//! * [`Shard::new_kvs`] / [`Shard::new_db`] — a fresh machine with a
//!   freshly set-up instance.
//! * [`Shard::boot_kvs`] — **boot over an existing machine image**,
//!   possibly one that crashed mid-batch. Boot always replays rollback
//!   recovery (idempotent on a clean image) and rebuilds the volatile HBM
//!   mirror *before* the shard admits any traffic, so the first admitted
//!   GET already observes every pre-crash committed PUT.

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_sim::{Machine, Ns, SimError, SimResult};
use gpm_workloads::datagen::UserEvent;
use gpm_workloads::{
    AnalyticsState, AnalyticsWorkload, CohortStats, DbOp, DbState, DbWorkload, KvsOp, KvsState,
    KvsWorkload, Mode,
};

use crate::request::{Op, Request};

/// The workload instance a shard serves.
#[derive(Debug)]
enum Backend {
    Kvs {
        workload: KvsWorkload,
        st: KvsState,
    },
    Db {
        workload: DbWorkload,
        st: DbState,
        rows: u64,
    },
    Analytics {
        workload: AnalyticsWorkload,
        st: AnalyticsState,
        /// Next free event slot of the PM journal; advances only when a
        /// batch commits, so a retried batch rewrites its own slots
        /// (idempotent byte-identical appends).
        journal_base: u64,
    },
    /// Two tenants on one machine (the shared-shard scenario): a gpKVS
    /// OLTP instance and a gpAnalytics session store, each with its own
    /// PM namespace, epoch flag and undo log, fed from one mixed batch.
    Mixed {
        kvs: KvsWorkload,
        /// Boxed to keep the enum's variant sizes comparable (`KvsState`
        /// carries the HBM mirror layout inline).
        kvs_st: Box<KvsState>,
        analytics: AnalyticsWorkload,
        an_st: AnalyticsState,
        journal_base: u64,
        /// Volatile marker: the batch sequence number whose KVS leg has
        /// already committed. A crash in the analytics leg retries the
        /// batch without relaunching the committed KVS leg (the
        /// detectable ops would make a rerun exactly-once anyway; the
        /// marker just skips the wasted launches).
        kvs_done_for: Option<u64>,
    },
}

/// One serving shard: a machine plus the workload instance on it.
#[derive(Debug)]
pub struct Shard {
    /// The shard's private machine (own clock, PM image, stats).
    pub machine: Machine,
    backend: Backend,
    mode: Mode,
    seq: u64,
    recovery: Option<Ns>,
}

impl Shard {
    /// A fresh gpKVS shard on a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates setup errors.
    pub fn new_kvs(params: gpm_workloads::KvsParams, mode: Mode) -> SimResult<Shard> {
        let mut machine = Machine::default();
        let workload = KvsWorkload::new(params);
        let st = workload.setup(&mut machine, mode)?;
        Ok(Shard {
            machine,
            backend: Backend::Kvs { workload, st },
            mode,
            seq: 0,
            recovery: None,
        })
    }

    /// Boots a gpKVS shard over an existing machine image (e.g. one that
    /// crashed mid-batch): replays undo recovery and rebuilds the HBM
    /// mirror before any traffic is admitted.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors.
    pub fn boot_kvs(
        mut machine: Machine,
        workload: KvsWorkload,
        st: KvsState,
        mode: Mode,
    ) -> SimResult<Shard> {
        let t0 = machine.clock.now();
        workload.recover(&mut machine, &st)?;
        st.store().rebuild_mirror(&mut machine)?;
        let recovery = machine.clock.now() - t0;
        Ok(Shard {
            machine,
            backend: Backend::Kvs { workload, st },
            mode,
            seq: 0,
            recovery: Some(recovery),
        })
    }

    /// A fresh gpDB shard on a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates setup errors.
    pub fn new_db(params: gpm_workloads::DbParams, mode: Mode) -> SimResult<Shard> {
        let mut machine = Machine::default();
        let workload = DbWorkload::new(params);
        let st = workload.setup(&mut machine, mode)?;
        let rows = params.initial_rows;
        Ok(Shard {
            machine,
            backend: Backend::Db { workload, st, rows },
            mode,
            seq: 0,
            recovery: None,
        })
    }

    /// A fresh gpAnalytics shard on a fresh machine. Analytics shards are
    /// GPM-only: the session-store fold runs on the detectable-op
    /// protocol, which needs in-kernel persistence.
    ///
    /// # Errors
    ///
    /// Propagates setup errors; rejects non-GPM modes.
    pub fn new_analytics(params: gpm_workloads::AnalyticsParams, mode: Mode) -> SimResult<Shard> {
        if mode != Mode::Gpm {
            return Err(SimError::Invalid("analytics shards are GPM-only"));
        }
        let mut machine = Machine::default();
        let workload = AnalyticsWorkload::new(params);
        let st = workload.setup(&mut machine)?;
        Ok(Shard {
            machine,
            backend: Backend::Analytics {
                workload,
                st,
                journal_base: 0,
            },
            mode,
            seq: 0,
            recovery: None,
        })
    }

    /// A fresh mixed-tenant shard: a gpKVS instance and a gpAnalytics
    /// session store sharing one machine (distinct PM namespaces). GPM
    /// only, like [`new_analytics`](Shard::new_analytics).
    ///
    /// # Errors
    ///
    /// Propagates setup errors; rejects non-GPM modes.
    pub fn new_mixed(
        kvs_params: gpm_workloads::KvsParams,
        an_params: gpm_workloads::AnalyticsParams,
        mode: Mode,
    ) -> SimResult<Shard> {
        if mode != Mode::Gpm {
            return Err(SimError::Invalid("mixed-tenant shards are GPM-only"));
        }
        let mut machine = Machine::default();
        let kvs = KvsWorkload::new(kvs_params);
        let kvs_st = kvs.setup(&mut machine, mode)?;
        let analytics = AnalyticsWorkload::new(an_params);
        let an_st = analytics.setup(&mut machine)?;
        Ok(Shard {
            machine,
            backend: Backend::Mixed {
                kvs,
                kvs_st: Box::new(kvs_st),
                analytics,
                an_st,
                journal_base: 0,
                kvs_done_for: None,
            },
            mode,
            seq: 0,
            recovery: None,
        })
    }

    /// Simulated time recovery took at boot, if this shard booted over an
    /// existing image.
    pub fn recovery(&self) -> Option<Ns> {
        self.recovery
    }

    /// Current simulated time on this shard's clock.
    pub fn now(&self) -> Ns {
        self.machine.clock.now()
    }

    /// Largest batch (in requests) this shard's buffers can take in one
    /// launch.
    pub fn max_batch(&self) -> u64 {
        match &self.backend {
            Backend::Kvs { workload, .. } => workload.params.ops_per_batch,
            Backend::Db { .. } => u64::MAX,
            Backend::Analytics { workload, .. } => workload.params.events_per_batch,
            Backend::Mixed { kvs, analytics, .. } => kvs
                .params
                .ops_per_batch
                .min(analytics.params.events_per_batch),
        }
    }

    /// Behavioral-cohort aggregates from the shard's persistent session
    /// store (`Some` on analytics and mixed shards, `None` otherwise).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn cohort_stats(&self) -> SimResult<Option<CohortStats>> {
        match &self.backend {
            Backend::Analytics { workload, st, .. } => {
                workload.cohort_stats(&self.machine, st).map(Some)
            }
            Backend::Mixed {
                analytics, an_st, ..
            } => analytics.cohort_stats(&self.machine, an_st).map(Some),
            _ => Ok(None),
        }
    }

    /// Events durably journaled by committed batches (0 on non-analytics
    /// shards).
    pub fn journaled_events(&self) -> u64 {
        match &self.backend {
            Backend::Analytics { journal_base, .. } | Backend::Mixed { journal_base, .. } => {
                *journal_base
            }
            _ => 0,
        }
    }

    /// Applies one batch through the shared kernel-launch path. The gauge
    /// lets the scheduler's fault plan cut power mid-kernel; an
    /// [`FuelGauge::Unlimited`] gauge never crashes.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Crashed`] if the gauge ran dry mid-kernel (the
    /// machine is now in its post-crash state — call
    /// [`recover_in_place`](Shard::recover_in_place) before retrying);
    /// [`LaunchError::Sim`] on functional errors, including a request kind
    /// that doesn't match the backend.
    pub fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError> {
        match &mut self.backend {
            Backend::Kvs { workload, st } => {
                let mut ops: Vec<KvsOp> = Vec::with_capacity(batch.len());
                for r in batch {
                    match r.op {
                        Op::Put { key, value } => ops.push((key, value, false)),
                        Op::Get { key } => ops.push((key, 0, true)),
                        // A slow-poison request expands to its derived SETs
                        // inside the same kernel batch; the scheduler's
                        // weight budgeting guarantees the expansion fits.
                        Op::HeavyPut { key, value, work } => {
                            ops.extend(
                                Op::heavy_expansion(key, value, work).map(|(k, v)| (k, v, false)),
                            );
                        }
                        Op::Insert { .. } | Op::Event { .. } => {
                            return Err(LaunchError::Sim(SimError::Invalid(
                                "non-KVS op routed to a gpKVS shard",
                            )))
                        }
                    }
                }
                workload.apply_batch_gauged(
                    &mut self.machine,
                    st,
                    self.seq,
                    &ops,
                    self.mode,
                    gauge,
                )?;
            }
            Backend::Db { workload, st, rows } => {
                let mut total = 0u64;
                for r in batch {
                    match r.op {
                        Op::Insert { rows } => total += rows,
                        _ => {
                            return Err(LaunchError::Sim(SimError::Invalid(
                                "non-INSERT routed to a gpDB shard",
                            )))
                        }
                    }
                }
                workload.apply_batch_gauged(
                    &mut self.machine,
                    st,
                    self.seq as u32,
                    total,
                    rows,
                    self.mode,
                    gauge,
                )?;
            }
            Backend::Analytics {
                workload,
                st,
                journal_base,
            } => {
                let events: Vec<UserEvent> = batch
                    .iter()
                    .map(|r| match r.op {
                        Op::Event { user, etype, ts } => Ok(UserEvent { user, etype, ts }),
                        _ => Err(LaunchError::Sim(SimError::Invalid(
                            "non-Event routed to an analytics shard",
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                workload.apply_batch_gauged(
                    &mut self.machine,
                    st,
                    self.seq,
                    *journal_base,
                    &events,
                    gauge,
                )?;
                *journal_base += events.len() as u64;
            }
            Backend::Mixed {
                kvs,
                kvs_st,
                analytics,
                an_st,
                journal_base,
                kvs_done_for,
            } => {
                let mut ops: Vec<KvsOp> = Vec::new();
                let mut events: Vec<UserEvent> = Vec::new();
                for r in batch {
                    match r.op {
                        Op::Put { key, value } => ops.push((key, value, false)),
                        Op::Get { key } => ops.push((key, 0, true)),
                        Op::Event { user, etype, ts } => events.push(UserEvent { user, etype, ts }),
                        Op::Insert { .. } | Op::HeavyPut { .. } => {
                            return Err(LaunchError::Sim(SimError::Invalid(
                                "INSERT/HeavyPut routed to a mixed-tenant shard",
                            )))
                        }
                    }
                }
                // OLTP leg first; the marker keeps a retry after a crash
                // in the analytics leg from relaunching a committed leg.
                if !ops.is_empty() && *kvs_done_for != Some(self.seq) {
                    kvs.apply_batch_gauged(
                        &mut self.machine,
                        kvs_st,
                        self.seq,
                        &ops,
                        self.mode,
                        gauge,
                    )?;
                    *kvs_done_for = Some(self.seq);
                }
                if !events.is_empty() {
                    analytics.apply_batch_gauged(
                        &mut self.machine,
                        an_st,
                        self.seq,
                        *journal_base,
                        &events,
                        gauge,
                    )?;
                    *journal_base += events.len() as u64;
                }
            }
        }
        self.seq += 1;
        Ok(())
    }

    /// Prepares the shard for an in-place **retry** of the interrupted
    /// batch after a mid-kernel crash. Returns the simulated time it took.
    ///
    /// This is the detectable-op retry discipline, not rollback: gpKVS
    /// rebuilds the HBM mirror and leaves the epoch live, so resubmitting
    /// the same batch lets the kernel's per-op descriptors skip already
    /// applied SETs (exactly-once even when the crash landed after a
    /// publish). gpDB insert shards instead replay metadata rollback —
    /// for inserts, rolling the row count back *is* the retry preparation,
    /// since re-inserting from the durable count is idempotent. Boot
    /// ([`Shard::boot_kvs`]) keeps full rollback recovery; the two
    /// disciplines are mutually exclusive per crash.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors.
    pub fn recover_in_place(&mut self) -> SimResult<Ns> {
        let t0 = self.machine.clock.now();
        match &mut self.backend {
            Backend::Kvs { st, .. } => {
                st.store().recover_for_retry(&mut self.machine)?;
            }
            Backend::Db { workload, st, rows } => {
                if workload.params.op == DbOp::Update {
                    workload.recover_for_retry(&mut self.machine, st)?;
                } else {
                    workload.recover(&mut self.machine, st)?;
                }
                *rows = st.durable_rows(&self.machine)?;
            }
            Backend::Analytics { st, .. } => {
                st.store().recover_for_retry(&mut self.machine)?;
            }
            Backend::Mixed { kvs_st, an_st, .. } => {
                // Both tenants prepare for retry; each path is idempotent
                // on a tenant whose leg never started or already committed.
                kvs_st.store().recover_for_retry(&mut self.machine)?;
                an_st.store().recover_for_retry(&mut self.machine)?;
            }
        }
        Ok(self.machine.clock.now() - t0)
    }

    /// Reads the values the GETs of the just-applied batch returned
    /// (`None` for writes), index-aligned with `batch`.
    ///
    /// # Errors
    ///
    /// Propagates platform errors; gpDB shards have no GETs to read.
    pub fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>> {
        match &self.backend {
            Backend::Kvs { workload, st } => {
                // GET results index into the kernel's op buffer, where a
                // HeavyPut occupies `work` slots — walk cumulative weight,
                // not request position.
                let mut op_idx = 0u64;
                batch
                    .iter()
                    .map(|r| {
                        let at = op_idx;
                        op_idx += r.op.weight();
                        if r.op.is_get() {
                            workload.get_result(&self.machine, st, at).map(Some)
                        } else {
                            Ok(None)
                        }
                    })
                    .collect()
            }
            Backend::Db { .. } | Backend::Analytics { .. } => Ok(vec![None; batch.len()]),
            Backend::Mixed { kvs, kvs_st, .. } => {
                // GET results index into the KVS leg's ops buffer, which
                // holds the batch's PUTs and GETs in order (events are
                // routed to the analytics leg and answer `None`).
                let mut ki = 0u64;
                batch
                    .iter()
                    .map(|r| match r.op {
                        Op::Get { .. } => {
                            let v = kvs.get_result(&self.machine, kvs_st, ki)?;
                            ki += 1;
                            Ok(Some(v))
                        }
                        Op::Put { .. } => {
                            ki += 1;
                            Ok(None)
                        }
                        _ => Ok(None),
                    })
                    .collect()
            }
        }
    }

    /// The device-side hash-table handle of a gpKVS shard (`None` on
    /// other backends). Replication's consistency oracle and resharding's
    /// key-range scan audit the shard's PM table through it.
    pub fn kvs_dev(&self) -> Option<gpm_workloads::ShardDev> {
        match &self.backend {
            Backend::Kvs { workload, st } => Some(st.shard(workload.params.sets)),
            _ => None,
        }
    }

    /// Table sets of a gpKVS shard (`None` on other backends); sizes the
    /// oracle's host-side model.
    pub fn kvs_sets(&self) -> Option<u64> {
        match &self.backend {
            Backend::Kvs { workload, .. } => Some(workload.params.sets),
            _ => None,
        }
    }

    /// Tears the shard down into its parts (machine + kvs state) so a
    /// test can crash the image and boot a successor over it. Panics on a
    /// gpDB shard.
    pub fn into_kvs_parts(self) -> (Machine, KvsWorkload, KvsState) {
        match self.backend {
            Backend::Kvs { workload, st } => (self.machine, workload, st),
            _ => panic!("not a gpKVS shard"),
        }
    }

    /// Tears the shard down into its parts (machine + db state) so a test
    /// can inspect or crash the image and boot a successor over it. Panics
    /// on a gpKVS shard.
    pub fn into_db_parts(self) -> (Machine, DbWorkload, DbState) {
        match self.backend {
            Backend::Db { workload, st, .. } => (self.machine, workload, st),
            _ => panic!("not a gpDB shard"),
        }
    }
}

impl crate::scheduler::ServeEngine for Shard {
    fn now(&self) -> Ns {
        self.machine.clock.now()
    }

    fn advance_to(&mut self, t: Ns) {
        self.machine.clock.advance_to(t);
    }

    fn max_batch(&self) -> u64 {
        Shard::max_batch(self)
    }

    fn boot_recovery(&self) -> Option<Ns> {
        self.recovery
    }

    fn trace_enabled(&self) -> bool {
        self.machine.trace_enabled()
    }

    fn trace(&mut self, kind: gpm_sim::EventKind) {
        self.machine.trace(kind);
    }

    fn stats(&self) -> gpm_sim::Stats {
        self.machine.stats
    }

    fn take_trace(&mut self) -> Option<gpm_sim::TraceData> {
        self.machine.finish_trace()
    }

    fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError> {
        Shard::apply(self, batch, gauge)
    }

    fn recover_in_place(&mut self) -> SimResult<Ns> {
        Shard::recover_in_place(self)
    }

    fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>> {
        Shard::read_gets(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_workloads::KvsParams;

    fn put(id: u64, key: u64, value: u64) -> Request {
        Request {
            class: 0,
            id,
            arrival: Ns::ZERO,
            op: Op::Put { key, value },
        }
    }

    fn get(id: u64, key: u64) -> Request {
        Request {
            class: 0,
            id,
            arrival: Ns::ZERO,
            op: Op::Get { key },
        }
    }

    #[test]
    fn kvs_shard_serves_puts_then_gets() {
        let mut s = Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap();
        let puts = [put(0, 11, 101), put(1, 12, 102)];
        s.apply(&puts, &mut FuelGauge::Unlimited).unwrap();
        let gets = [get(2, 11), get(3, 12), get(4, 13)];
        s.apply(&gets, &mut FuelGauge::Unlimited).unwrap();
        let vals = s.read_gets(&gets).unwrap();
        assert_eq!(vals, vec![Some(101), Some(102), Some(0)]);
        assert!(s.now() > Ns::ZERO, "batches consume simulated time");
    }

    #[test]
    fn db_shard_counts_inserted_rows() {
        let mut p = gpm_workloads::DbParams::quick();
        p.capacity_rows = p.initial_rows + 1_024;
        let mut s = Shard::new_db(p, Mode::Gpm).unwrap();
        let reqs = [
            Request {
                class: 0,
                id: 0,
                arrival: Ns::ZERO,
                op: Op::Insert { rows: 64 },
            },
            Request {
                class: 0,
                id: 1,
                arrival: Ns::ZERO,
                op: Op::Insert { rows: 32 },
            },
        ];
        s.apply(&reqs, &mut FuelGauge::Unlimited).unwrap();
        match &s.backend {
            Backend::Db { rows, st, .. } => {
                assert_eq!(*rows, p.initial_rows + 96);
                assert_eq!(st.durable_rows(&s.machine).unwrap(), p.initial_rows + 96);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mismatched_request_kind_is_rejected() {
        let mut s = Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap();
        let wrong = [Request {
            class: 0,
            id: 0,
            arrival: Ns::ZERO,
            op: Op::Insert { rows: 1 },
        }];
        assert!(matches!(
            s.apply(&wrong, &mut FuelGauge::Unlimited),
            Err(LaunchError::Sim(SimError::Invalid(_)))
        ));
    }

    fn event(id: u64, user: u64, etype: u32, ts: u64) -> Request {
        Request {
            class: 0,
            id,
            arrival: Ns::ZERO,
            op: Op::Event { user, etype, ts },
        }
    }

    #[test]
    fn analytics_shard_folds_events_and_journals() {
        let p = gpm_workloads::AnalyticsParams::quick();
        let mut s = Shard::new_analytics(p, Mode::Gpm).unwrap();
        // User 3 completes the 3-step funnel; user 4 shows up once.
        let batch = [
            event(0, 3, 0, 10),
            event(1, 3, 1, 12),
            event(2, 3, 2, 14),
            event(3, 4, 0, 20),
        ];
        s.apply(&batch, &mut FuelGauge::Unlimited).unwrap();
        assert_eq!(s.journaled_events(), 4);
        let stats = s.cohort_stats().unwrap().expect("analytics shard");
        assert_eq!(stats.users, 2);
        assert_eq!(stats.completions, 1, "user 3 completed the funnel");
        assert!(
            Shard::new_analytics(p, Mode::CapFs).is_err(),
            "analytics shards are GPM-only"
        );
        let mut s2 = Shard::new_analytics(p, Mode::Gpm).unwrap();
        assert!(
            s2.apply(&[put(0, 9, 9)], &mut FuelGauge::Unlimited)
                .is_err(),
            "non-Event ops are rejected"
        );
    }

    #[test]
    fn mixed_shard_serves_both_tenants_and_retries_after_crash() {
        let an = gpm_workloads::AnalyticsParams::quick();
        let mut s = Shard::new_mixed(KvsParams::quick(), an, Mode::Gpm).unwrap();
        let committed = [put(0, 41, 401), event(1, 7, 0, 5)];
        s.apply(&committed, &mut FuelGauge::Unlimited).unwrap();
        // Crash mid-batch, recover in place, retry the same batch: the
        // KVS value must land exactly once and the journal must advance
        // by exactly the batch's events.
        let batch = [
            put(2, 42, 402),
            event(3, 7, 1, 8),
            get(4, 41),
            event(5, 8, 0, 9),
        ];
        let err = s.apply(&batch, &mut FuelGauge::crash(6));
        assert!(matches!(err, Err(LaunchError::Crashed(_))));
        s.recover_in_place().unwrap();
        s.apply(&batch, &mut FuelGauge::Unlimited).unwrap();
        assert_eq!(s.journaled_events(), 3, "one event, then two committed");
        let vals = s.read_gets(&batch).unwrap();
        assert_eq!(vals, vec![None, None, Some(401), None]);
        let stats = s.cohort_stats().unwrap().expect("mixed shard");
        assert_eq!(stats.users, 2, "users 7 and 8 hold session state");
    }

    #[test]
    fn crash_recover_retry_preserves_data() {
        let mut s = Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap();
        let committed = [put(0, 21, 201)];
        s.apply(&committed, &mut FuelGauge::Unlimited).unwrap();
        // Cut power mid-batch, then recover in place and retry.
        let batch = [put(1, 22, 202), put(2, 23, 203)];
        let err = s.apply(&batch, &mut FuelGauge::crash(4));
        assert!(matches!(err, Err(LaunchError::Crashed(_))));
        s.recover_in_place().unwrap();
        s.apply(&batch, &mut FuelGauge::Unlimited).unwrap();
        let gets = [get(3, 21), get(4, 22), get(5, 23)];
        s.apply(&gets, &mut FuelGauge::Unlimited).unwrap();
        assert_eq!(
            s.read_gets(&gets).unwrap(),
            vec![Some(201), Some(202), Some(203)]
        );
    }
}
