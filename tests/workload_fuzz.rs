//! Parameter fuzzing: every workload's kernel must agree with its host
//! reference model for arbitrary (small) input shapes, not just the tuned
//! defaults.

use gpm_integration::{check, len, range};
use gpm_sim::{CrashPolicy, Machine, MachineConfig};
use gpm_workloads::hash_shard::partition_by_set;
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

/// `partition_by_set`'s contract over random set lists, block sizes and
/// capacities: every item appears once and same-set items keep their input
/// order; the layout falls back to the input order exactly when a set's
/// group exceeds a block or the padded layout exceeds `capacity`; outside
/// the fallback the items ascend by set, no set straddles a block, and the
/// layout fits `capacity` with no more padding than the groups need.
#[test]
fn partition_by_set_keeps_its_contract() {
    check(
        "partition_by_set_keeps_its_contract",
        gpm_integration::CASES,
        96,
        |rng, size| {
            let n = len(rng, 0, size);
            let n_sets = range(rng, 1, 24);
            let sets: Vec<u64> = (0..n).map(|_| range(rng, 0, n_sets)).collect();
            let per_block = range(rng, 1, 33) as usize;
            let capacity = n + range(rng, 0, n as u64 + 8) as usize;
            (sets, per_block, capacity)
        },
        |(sets, per_block, capacity)| {
            let (n, per_block, capacity) = (sets.len(), *per_block, *capacity);
            let layout = partition_by_set(sets, per_block, capacity);
            let items: Vec<usize> = layout.iter().flatten().copied().collect();
            let mut sorted = items.clone();
            sorted.sort_unstable();
            if sorted != (0..n).collect::<Vec<_>>() {
                return Err(format!("items {items:?} are not each item once"));
            }
            for (a, &i) in items.iter().enumerate() {
                if items[a + 1..].iter().any(|&j| sets[j] == sets[i] && j < i) {
                    return Err(format!("item {i} moved ahead of a same-set item"));
                }
            }
            // The padded layout, group by group in set order.
            let mut by_set: Vec<u64> = sets.clone();
            by_set.sort_unstable();
            let mut padded = 0usize;
            let fallback = by_set.chunk_by(|a, b| a == b).any(|group| {
                if padded % per_block + group.len() > per_block {
                    padded = padded.next_multiple_of(per_block);
                }
                padded += group.len();
                group.len() > per_block || padded > capacity
            });
            if fallback {
                return if layout == (0..n).map(Some).collect::<Vec<_>>() {
                    Ok(())
                } else {
                    Err("expected the input-order fallback".into())
                };
            }
            if items.windows(2).any(|w| sets[w[0]] > sets[w[1]]) {
                return Err("items do not ascend by set".into());
            }
            if layout.len() != padded || layout.len() > capacity {
                return Err(format!(
                    "layout of {} slots, want {padded} within {capacity}",
                    layout.len()
                ));
            }
            let mut block_of = std::collections::HashMap::new();
            for (slot, item) in layout.iter().enumerate() {
                if let Some(i) = item {
                    if *block_of.entry(sets[*i]).or_insert(slot / per_block) != slot / per_block {
                        return Err(format!("set {} straddles a block", sets[*i]));
                    }
                }
            }
            Ok(())
        },
    );
}
