//! Parameter fuzzing: every workload's kernel must agree with its host
//! reference model for arbitrary (small) input shapes, not just the tuned
//! defaults.

use gpm_integration::{check, range};
use gpm_sim::{CrashPolicy, Machine, MachineConfig};
use gpm_workloads::{
    BfsParams, BfsWorkload, DbOp, DbParams, DbWorkload, KvsParams, KvsWorkload, Mode, PsParams,
    PsWorkload, RecoveryOracle, SradParams, SradWorkload,
};

/// Half the runner's default budget: each case runs a whole workload.
const CASES: u32 = 128;

#[test]
fn kvs_verifies_for_arbitrary_shapes() {
    check(
        "kvs_verifies_for_arbitrary_shapes",
        CASES,
        0,
        |rng, _| {
            let p = KvsParams {
                sets: 1 << range(rng, 8, 12),
                ops_per_batch: 1 << range(rng, 6, 9),
                batches: range(rng, 1, 4) as u32,
                get_permille: range(rng, 0, 1000) as u32,
                ..KvsParams::default()
            };
            (p, rng.next_u64())
        },
        |&(p, seed)| {
            let mut m = Machine::new(MachineConfig::default().with_seed(seed));
            let r = KvsWorkload::new(p).run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{p:?}");
            Ok(())
        },
    );
}

#[test]
fn db_verifies_for_arbitrary_shapes() {
    check(
        "db_verifies_for_arbitrary_shapes",
        CASES,
        0,
        |rng, _| {
            let initial_rows = 1u64 << range(rng, 9, 12);
            let rows_per_insert = 1u64 << range(rng, 6, 9);
            DbParams {
                initial_rows,
                capacity_rows: initial_rows + 8 * rows_per_insert,
                rows_per_insert,
                batches: range(rng, 1, 4) as u32,
                op: if rng.gen_bool(0.5) {
                    DbOp::Update
                } else {
                    DbOp::Insert
                },
                ..DbParams::default()
            }
        },
        |&p| {
            let mut m = Machine::default();
            let r = DbWorkload::new(p).run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{p:?}");
            Ok(())
        },
    );
}

#[test]
fn bfs_verifies_for_arbitrary_grids() {
    check(
        "bfs_verifies_for_arbitrary_grids",
        CASES,
        0,
        |rng, _| {
            let (w, h) = (range(rng, 3, 40), range(rng, 3, 40));
            BfsParams {
                width: w,
                height: h,
                source: range(rng, 0, 9) % (w * h),
                ..BfsParams::default()
            }
        },
        |&p| {
            let mut m = Machine::default();
            let r = BfsWorkload::new(p).run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{p:?}");
            Ok(())
        },
    );
}

#[test]
fn srad_verifies_for_arbitrary_images() {
    check(
        "srad_verifies_for_arbitrary_images",
        CASES,
        0,
        |rng, _| SradParams {
            edge: range(rng, 8, 48),
            iterations: range(rng, 1, 5) as u32,
            ..SradParams::default()
        },
        |&p| {
            let mut m = Machine::default();
            let r = SradWorkload::new(p).run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{p:?}");
            Ok(())
        },
    );
}

#[test]
fn prefix_sum_verifies_for_arbitrary_lengths() {
    check(
        "prefix_sum_verifies_for_arbitrary_lengths",
        CASES,
        0,
        |rng, _| PsParams {
            n: range(rng, 1, 24) * 256,
            ..PsParams::default()
        },
        |&p| {
            let mut m = Machine::default();
            let r = PsWorkload::new(p).run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{p:?}");
            Ok(())
        },
    );
}

#[test]
fn kvs_crash_recovery_for_arbitrary_shapes() {
    check(
        "kvs_crash_recovery_for_arbitrary_shapes",
        CASES,
        0,
        |rng, _| (range(rng, 6, 9), range(rng, 50, 20_000), rng.next_u64()),
        |&(ops_pow, fuel, seed)| {
            let p = KvsParams {
                sets: 4096,
                ops_per_batch: 1 << ops_pow,
                batches: 1,
                ..KvsParams::default()
            };
            let v = KvsWorkload::new(p)
                .run_case(&mut Machine::default(), fuel, CrashPolicy::Random(seed))
                .unwrap();
            assert!(v.passed(), "ops=2^{ops_pow} fuel={fuel} seed={seed}: {v:?}");
            Ok(())
        },
    );
}
