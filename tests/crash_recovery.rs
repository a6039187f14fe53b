//! The §6.2 recoverability stress test: crash every GPMbench workload with
//! a recovery path at many points through its [`RecoveryOracle`] and judge
//! the recovered state — the reproduction of the paper's NVBitFI campaign
//! ("We successfully recovered the state of every program after crashes").
//! Each seed picks the pending-line subset that survives the crash
//! (`CrashPolicy::Random`).

use gpm_sim::{CrashPolicy, Machine, MachineConfig};
use gpm_workloads::{
    BfsParams, BfsWorkload, DbOp, DbParams, DbWorkload, KvsParams, KvsWorkload, PsParams,
    PsWorkload, RecoveryOracle, SradParams, SradWorkload,
};

fn machine(seed: u64) -> Machine {
    Machine::new(MachineConfig::default().with_seed(seed))
}

#[test]
fn gpkvs_recovers_from_mid_transaction_crashes() {
    for fuel in [37u64, 400, 3_000, 12_000] {
        for seed in [1u64, 99] {
            let v = KvsWorkload::new(KvsParams::quick())
                .run_case(&mut Machine::default(), fuel, CrashPolicy::Random(seed))
                .unwrap();
            assert!(v.passed(), "gpKVS fuel={fuel} seed={seed}: {v:?}");
        }
    }
}

#[test]
fn gpdb_recovers_both_query_types() {
    for op in [DbOp::Insert, DbOp::Update] {
        let mut p = DbParams::quick();
        p.op = op;
        let mut m = machine(5);
        let r = DbWorkload::new(p).run_with_recovery(&mut m).unwrap();
        assert!(r.verified, "{op:?} rollback failed");
    }
}

#[test]
fn bfs_resumes_from_any_crash_point() {
    for fuel in [1_500u64, 9_000, 60_000, 400_000] {
        for seed in [2u64, 77] {
            let v = BfsWorkload::new(BfsParams::quick())
                .run_case(&mut Machine::default(), fuel, CrashPolicy::Random(seed))
                .unwrap();
            assert!(v.passed(), "BFS fuel={fuel} seed={seed}: {v:?}");
        }
    }
}

#[test]
fn srad_resumes_from_any_crash_point() {
    for fuel in [2_000u64, 15_000, 80_000] {
        let v = SradWorkload::new(SradParams::quick())
            .run_case(&mut Machine::default(), fuel, CrashPolicy::Random(fuel))
            .unwrap();
        assert!(v.passed(), "SRAD fuel={fuel}: {v:?}");
    }
}

#[test]
fn prefix_sum_resumes_and_skips_completed_blocks() {
    for fuel in [900u64, 6_000, 30_000] {
        let v = PsWorkload::new(PsParams::quick())
            .run_case(&mut Machine::default(), fuel, CrashPolicy::Random(fuel * 3))
            .unwrap();
        assert!(v.passed(), "PS fuel={fuel}: {v:?}");
    }
}

#[test]
fn double_crash_during_recovery_is_survivable() {
    // Crash mid-batch, then exhaust the undo kernel's own fuel so the
    // machine crashes *inside the recovery path*, then recover again:
    // gpKVS's log-based undo must be idempotent — "to ensure
    // recoverability during recovery itself, the log entry is only removed
    // after successfully updating and persisting" (§5.2). Sweep the second
    // crash from the undo kernel's first ops to deep in the drain.
    let w = KvsWorkload::new(KvsParams::quick());
    for fuel in [700u64, 3_000, 12_000] {
        for recovery_fuel in [1u64, 5, 37, 200, 1_500] {
            for seed in [1234u64, 77] {
                let mut m = machine(seed);
                let ok = w.run_double_crash(&mut m, fuel, recovery_fuel).unwrap();
                assert!(
                    ok,
                    "fuel={fuel} recovery_fuel={recovery_fuel} seed={seed}: \
                     re-recovery after a crash inside recovery is not idempotent"
                );
            }
        }
    }
}

#[test]
fn many_seeds_many_outcomes_all_recover() {
    // The crash applies a random subset of pending lines; sweep seeds so
    // different subsets (including all-applied and none-applied tails) are
    // exercised.
    for seed in 0..12u64 {
        let v = KvsWorkload::new(KvsParams::quick())
            .run_case(&mut Machine::default(), 1_000, CrashPolicy::Random(seed))
            .unwrap();
        assert!(v.passed(), "seed {seed}: {v:?}");
    }
}
