//! Recovery oracles: one judge per GPMbench workload.
//!
//! The campaign engine (`gpm_sim::campaign`) is workload-agnostic — it only
//! enumerates `(fuel, policy)` cases and tallies verdicts. This module
//! supplies the workload side: a [`RecoveryOracle`] knows how to
//!
//! 1. **record** the workload's crash schedule (one clean run under
//!    `FuelGauge::Record`, noting the fuel at every persist boundary), and
//! 2. **replay** any `(fuel, policy)` case on a fresh machine — crash
//!    mid-run, execute the workload's own recovery path, and judge the
//!    recovered state against a host-side reference.
//!
//! It is the only way a workload is crashed and judged: the campaign, the
//! §6.2 crash tests and the examples all go through [`run_case`]. A
//! workload's `run_with_recovery` is a different measurement — Table 5's
//! restoration latency, a time rather than a verdict.
//!
//! [`run_case`]: RecoveryOracle::run_case
//!
//! [`oracle_suite`] returns the full bench lineup — the same eleven
//! configurations as Figure 9, minus the GET-mix variant (its crash
//! behaviour is identical to gpKVS's: GETs never log), plus the
//! gpAnalytics session-store workload. It is the single workload registry;
//! [`oracle_names`] is the derived view that the campaign binary's
//! `--workload` handling and the EXPERIMENTS.md workload list consume.

use gpm_gpu::LaunchError;
use gpm_sim::{CrashPolicy, CrashSchedule, Machine, OracleVerdict, SimResult};

use crate::analytics::{AnalyticsParams, AnalyticsWorkload};
use crate::bfs::{BfsParams, BfsWorkload};
use crate::blackscholes::{BlkParams, BlkWorkload};
use crate::cfd::{CfdParams, CfdWorkload};
use crate::db::{DbOp, DbParams, DbWorkload};
use crate::dnn::{DnnParams, DnnWorkload};
use crate::hotspot::{HotspotParams, HotspotWorkload};
use crate::iterative::checkpoint_oracle;
use crate::kvs::{KvsParams, KvsWorkload};
use crate::prefix_sum::{PsParams, PsWorkload};
use crate::srad::{SradParams, SradWorkload};
use crate::suite::Scale;

/// A per-workload crash-recovery judge.
///
/// Implementations drive the workload's fueled region with a
/// [`FuelGauge`](gpm_gpu::FuelGauge), so the op counts recorded by [`record`] are exactly the
/// op counts at which [`run_case`] crashes — the schedule and the replay
/// share one clock.
///
/// [`record`]: RecoveryOracle::record
/// [`run_case`]: RecoveryOracle::run_case
pub trait RecoveryOracle {
    /// Display name; matches the Figure 9 configuration label.
    fn name(&self) -> &'static str;

    /// Runs the workload once on `machine` under a recording gauge and
    /// returns the crash schedule (fuel at every persist/fence/commit
    /// boundary).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule>;

    /// Replays the workload on a fresh `machine`, crashing after `fuel`
    /// ops with pending lines settled by `policy`, then runs the
    /// workload's recovery path and judges the recovered state.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (an inconsistent recovered state is a
    /// [`OracleVerdict::Fail`], not an error).
    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict>;

    /// Whether this oracle implements the double-recovery discipline
    /// ([`run_case_double_recovery`]): recovery runs *twice*, the in-flight
    /// batch is resubmitted, and the oracle judges exactly-once application
    /// (no op lands zero or two times). Workloads whose recovery is a
    /// whole-run restart (checkpointing and iterative kernels) have nothing
    /// to resubmit and keep the default `false`.
    ///
    /// [`run_case_double_recovery`]: RecoveryOracle::run_case_double_recovery
    fn supports_double_recovery(&self) -> bool {
        false
    }

    /// Like [`run_case`](RecoveryOracle::run_case), but exercises the
    /// *retry* discipline: crash after `fuel` ops, run the workload's
    /// recovery path twice back-to-back (it must be idempotent — a crash
    /// during recovery only means running it again), resubmit the in-flight
    /// batch verbatim, and judge that every operation applied exactly once.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (an exactly-once violation is a
    /// [`OracleVerdict::Fail`], not an error).
    fn run_case_double_recovery(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let _ = (machine, fuel, policy);
        Ok(OracleVerdict::Fail(
            "oracle does not support double recovery".into(),
        ))
    }
}

/// Settles a fueled drive that was *supposed* to crash: if the region ran
/// out of fuel the engine already crashed the machine with `policy`; if
/// the fuel outlasted the region (fuels past the last boundary model a
/// crash after the workload finishes), crash now with the same policy.
///
/// # Errors
///
/// Propagates platform errors from the drive.
pub fn settle_crash(
    machine: &mut Machine,
    policy: CrashPolicy,
    res: Result<(), LaunchError>,
) -> SimResult<()> {
    match res {
        Ok(()) => {
            machine.crash_with_policy(policy);
            Ok(())
        }
        Err(LaunchError::Crashed(_)) => Ok(()),
        Err(LaunchError::Sim(e)) => Err(e),
    }
}

/// Unwraps a recording drive, which must never crash.
///
/// # Errors
///
/// Propagates platform errors from the drive.
pub fn expect_clean(res: Result<(), LaunchError>) -> SimResult<()> {
    match res {
        Ok(()) => Ok(()),
        Err(LaunchError::Crashed(_)) => unreachable!("recording gauge never crashes"),
        Err(LaunchError::Sim(e)) => Err(e),
    }
}

/// The full oracle lineup at `scale`: gpKVS, gpDB (insert and update),
/// gpAnalytics, the four checkpointing apps (DNN, CFD, BLK, HS), and the
/// three long-running kernels (BFS, SRAD, PS).
///
/// This is the *single* workload registry: `campaign --workload` name
/// resolution, its unknown-name listing, and the EXPERIMENTS.md workload
/// table all derive from it (via [`oracle_names`]), so a new oracle cannot
/// be silently omitted from any of them.
pub fn oracle_suite(scale: Scale) -> Vec<Box<dyn RecoveryOracle>> {
    let quick = scale == Scale::Quick;
    let kvs = if quick {
        KvsParams::quick()
    } else {
        KvsParams::default()
    };
    let analytics = if quick {
        AnalyticsParams::quick()
    } else {
        AnalyticsParams::default()
    };
    let db = if quick {
        DbParams::quick()
    } else {
        DbParams::default()
    };
    let bfs = if quick {
        BfsParams::quick()
    } else {
        BfsParams::default()
    };
    let srad = if quick {
        SradParams::quick()
    } else {
        SradParams::default()
    };
    let ps = if quick {
        PsParams::quick()
    } else {
        PsParams::default()
    };
    vec![
        Box::new(KvsWorkload::new(kvs)),
        Box::new(DbWorkload::new(DbParams {
            op: DbOp::Insert,
            ..db
        })),
        Box::new(DbWorkload::new(DbParams {
            op: DbOp::Update,
            ..db
        })),
        Box::new(AnalyticsWorkload::new(analytics)),
        Box::new(checkpoint_oracle(DnnWorkload::new(if quick {
            DnnParams::quick()
        } else {
            DnnParams::default()
        }))),
        Box::new(checkpoint_oracle(CfdWorkload::new(if quick {
            CfdParams::quick()
        } else {
            CfdParams::default()
        }))),
        Box::new(checkpoint_oracle(BlkWorkload::new(if quick {
            BlkParams::quick()
        } else {
            BlkParams::default()
        }))),
        Box::new(checkpoint_oracle(HotspotWorkload::new(if quick {
            HotspotParams::quick()
        } else {
            HotspotParams::default()
        }))),
        Box::new(BfsWorkload::new(bfs)),
        Box::new(SradWorkload::new(srad)),
        Box::new(PsWorkload::new(ps)),
    ]
}

/// Display names of every oracle in [`oracle_suite`], in lineup order —
/// the derived view the campaign binary and documentation checks consume.
pub fn oracle_names() -> Vec<&'static str> {
    oracle_suite(Scale::Quick)
        .iter()
        .map(|o| o.name())
        .collect()
}

/// A deliberately broken variant of the named oracle for the campaign's
/// `--inject-bug` self-test: with `double_recovery` the bug is a
/// double-applying publish (the detectable-op skip checks are bypassed),
/// otherwise a rollback that drops the newest undo entry. Returns `None`
/// for oracles without self-test knobs (checkpoint/iterative workloads).
pub fn buggy_oracle(
    name: &str,
    double_recovery: bool,
    scale: Scale,
) -> Option<Box<dyn RecoveryOracle>> {
    let quick = scale == Scale::Quick;
    if name.eq_ignore_ascii_case("gpKVS") {
        let params = if quick {
            KvsParams::quick()
        } else {
            KvsParams::default()
        };
        let w = KvsWorkload::new(params);
        return Some(Box::new(if double_recovery {
            w.with_double_apply_bug()
        } else {
            w.with_recovery_bug()
        }));
    }
    if name.eq_ignore_ascii_case("gpAnalytics") {
        let params = if quick {
            AnalyticsParams::quick()
        } else {
            AnalyticsParams::default()
        };
        let w = AnalyticsWorkload::new(params);
        return Some(Box::new(if double_recovery {
            w.with_double_apply_bug()
        } else {
            w.with_recovery_bug()
        }));
    }
    // gpDB's only self-test knob is the double-applying publish.
    if double_recovery
        && (name.eq_ignore_ascii_case("gpDB (I)") || name.eq_ignore_ascii_case("gpDB (U)"))
    {
        let db = if quick {
            DbParams::quick()
        } else {
            DbParams::default()
        };
        let op = if name.eq_ignore_ascii_case("gpDB (I)") {
            DbOp::Insert
        } else {
            DbOp::Update
        };
        return Some(Box::new(
            DbWorkload::new(DbParams { op, ..db }).with_double_apply_bug(),
        ));
    }
    None
}

/// Replica-consistency judge for the serving stack: zero lost
/// acknowledged writes.
///
/// The serving layers feed it two things, both in **apply order** (the
/// order SETs reached a shard's kernel, which for the serve scheduler is
/// admission order — batches launch FIFO and packing preserves per-set
/// order):
///
/// * every SET applied to the judged table (acknowledged client PUTs,
///   but also unacknowledged work such as resharding's migrated entries),
///   via [`apply_set`](ServeConsistency::apply_set);
/// * which of those SETs were *acknowledged* to a client, via
///   [`acked_set`](ServeConsistency::acked_set).
///
/// [`verify`](ServeConsistency::verify) then replays the whole SET
/// sequence through the host [`ShardModel`] (the kernels' probe-order
/// twin) and checks that every acknowledged key is present in the durable
/// PM table with the model's final value. A replica that silently dropped
/// a shipped log batch, or a migration that lost a key range, fails with
/// the first missing or stale key named.
///
/// The judge deliberately refuses ([`OracleVerdict::Fail`]) when the
/// replayed mix evicted a live key: an 8-way set-associative store may
/// legitimately displace an acked write under extreme skew, and "evicted
/// by design" is indistinguishable from "lost by a bug" at the table. The
/// serve scenarios size their key spaces to stay eviction-free, so a
/// refusal there is itself a red flag.
#[derive(Debug, Clone)]
pub struct ServeConsistency {
    model: crate::hash_shard::ShardModel,
    acked: Vec<u64>,
}

impl ServeConsistency {
    /// A judge for one shard table of `sets` sets.
    pub fn new(sets: u64) -> ServeConsistency {
        ServeConsistency {
            model: crate::hash_shard::ShardModel::new(sets),
            acked: Vec::new(),
        }
    }

    /// Records one applied-but-not-client-acknowledged SET (e.g. a
    /// migrated entry landing on its new owner).
    pub fn apply_set(&mut self, key: u64, value: u64) {
        self.model.set(key, value);
    }

    /// Records one SET that was acknowledged to a client.
    pub fn acked_set(&mut self, key: u64, value: u64) {
        self.model.set(key, value);
        self.acked.push(key);
    }

    /// Number of acknowledged writes recorded so far.
    pub fn acked_writes(&self) -> u64 {
        self.acked.len() as u64
    }

    /// Judges the durable table behind `shard` on `machine`: every
    /// acknowledged key present with the model's final value.
    ///
    /// # Errors
    ///
    /// Propagates platform errors (a lost or stale write is an
    /// [`OracleVerdict::Fail`], not an error).
    pub fn verify(
        &self,
        machine: &Machine,
        shard: &crate::hash_shard::ShardDev,
    ) -> SimResult<OracleVerdict> {
        if self.model.evicted {
            return Ok(OracleVerdict::Fail(
                "mix evicted a live key; the judge cannot distinguish \
                 eviction from loss — size the key space down"
                    .into(),
            ));
        }
        for &key in &self.acked {
            let want = self
                .model
                .get(key)
                .expect("eviction-free model holds every acked key");
            match shard.host_find(machine, key)? {
                None => {
                    return Ok(OracleVerdict::Fail(format!(
                        "acked write lost: key {key:#x} missing from the durable table"
                    )));
                }
                Some(rec) if rec[1] != want => {
                    return Ok(OracleVerdict::Fail(format!(
                        "acked write stale: key {key:#x} holds {:#x}, expected {want:#x}",
                        rec[1]
                    )));
                }
                Some(_) => {}
            }
        }
        Ok(OracleVerdict::Pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every oracle records a non-empty schedule, and a mid-schedule crash
    /// under the two extreme pending-line policies recovers cleanly.
    #[test]
    fn every_oracle_records_and_passes_a_midpoint_case() {
        for mut o in oracle_suite(Scale::Quick) {
            let mut m = Machine::default();
            let sched = o.record(&mut m).unwrap();
            assert!(
                !sched.boundaries().is_empty(),
                "{}: empty crash schedule",
                o.name()
            );
            let mid = sched.boundaries()[sched.boundaries().len() / 2];
            for policy in [CrashPolicy::AllApplied, CrashPolicy::NoneApplied] {
                let mut m = Machine::default();
                let v = o.run_case(&mut m, mid, policy).unwrap();
                assert!(v.passed(), "{} fuel={mid} policy={policy}: {v:?}", o.name());
            }
        }
    }

    /// The workload list in EXPERIMENTS.md derives from the same registry:
    /// every oracle name must appear verbatim, so a new oracle cannot ship
    /// undocumented.
    #[test]
    fn experiments_doc_lists_every_oracle() {
        let doc = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
        for name in oracle_names() {
            assert!(
                doc.contains(name),
                "EXPERIMENTS.md is missing workload {name:?} — the list must cover oracle_names()"
            );
        }
    }

    /// Every oracle that advertises double recovery has an `--inject-bug`
    /// self-test variant, and the registry resolves names case-insensitively.
    #[test]
    fn buggy_oracle_covers_double_recovery_oracles() {
        for o in oracle_suite(Scale::Quick) {
            if o.supports_double_recovery() {
                assert!(
                    buggy_oracle(o.name(), true, Scale::Quick).is_some(),
                    "{}: no --inject-bug variant",
                    o.name()
                );
            }
        }
        assert!(buggy_oracle("GPANALYTICS", false, Scale::Quick).is_some());
        assert!(buggy_oracle("no-such-workload", false, Scale::Quick).is_none());
    }

    /// The deliberately buggy recovery (skip the newest undo entry) must be
    /// caught by the gpKVS oracle at some crash point.
    #[test]
    fn injected_recovery_bug_is_caught() {
        let mut w = KvsWorkload::new(KvsParams::quick()).with_recovery_bug();
        let mut m = Machine::default();
        let sched = w.record(&mut m).unwrap();
        let caught = sched.boundaries().iter().any(|&fuel| {
            let mut m = Machine::default();
            !w.run_case(&mut m, fuel, CrashPolicy::AllApplied)
                .unwrap()
                .passed()
        });
        assert!(caught, "deliberate recovery bug went undetected");
    }
}
