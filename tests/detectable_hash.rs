//! Differential test of the detectable-op hash shard: random SET/GET
//! sequences with random crash points, driven through the real gpKVS
//! kernel path (crash → retry recovery twice → resubmit), diffed against
//! a host-side `BTreeMap` replay. The slot version doubles as an apply
//! counter, so the diff catches both lost ops (applied zero times) and
//! double applies — the exactly-once contract of `gpm_core::detect`.

use std::collections::{BTreeMap, BTreeSet};

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_integration::{check, len, range, Rng, CASES};
use gpm_sim::{CrashPolicy, Machine, PersistencyModel};
use gpm_workloads::{KvsOp, KvsParams, KvsWorkload, Mode, ShardModel};

/// Drives `batches` through the detectable gpKVS path under `persistency`,
/// crashing after `fuel` kernel thread-ops with pending lines settled by
/// `policy`, then runs retry recovery twice (idempotency is part of the
/// contract), resubmits every uncommitted batch, and diffs the durable
/// table against a `BTreeMap` replay.
///
/// Sequences outside the exactly-once contract — duplicate SET keys inside
/// one batch, the key-0 sentinel, or an in-batch eviction — are skipped
/// (the contract only covers eviction-free batches with unique keys).
fn run_differential(
    batches: &[Vec<KvsOp>],
    fuel: u64,
    policy: CrashPolicy,
    persistency: PersistencyModel,
) -> Result<(), String> {
    let params = KvsParams {
        batches: batches.len() as u32,
        ..KvsParams::quick()
    }
    .with_persistency(persistency);
    let mut model = ShardModel::new(params.sets);
    for ops in batches {
        let mut seen = BTreeSet::new();
        for &(key, val, is_get) in ops {
            if is_get {
                continue;
            }
            if key == 0 || !seen.insert(key) {
                return Ok(());
            }
            model.set(key, val);
        }
    }
    if model.evicted {
        return Ok(());
    }

    let w = KvsWorkload::new(params);
    let mut m = Machine::default();
    let st = w
        .setup(&mut m, Mode::Gpm)
        .map_err(|e| format!("setup: {e:?}"))?;
    let mut gauge = FuelGauge::crash_with_policy(fuel, policy);
    let mut committed = 0usize;
    let mut crashed = false;
    for (b, ops) in batches.iter().enumerate() {
        match w.apply_batch_gauged(&mut m, &st, b as u64, ops, Mode::Gpm, &mut gauge) {
            Ok(_) => committed += 1,
            Err(LaunchError::Crashed(_)) => {
                crashed = true;
                break;
            }
            Err(LaunchError::Sim(e)) => return Err(format!("apply: {e:?}")),
        }
    }
    if !crashed {
        // Fuel outlasted the run: crash after completion — retry recovery
        // must then be a pure no-op on the committed state.
        m.crash_with_policy(policy);
    }
    st.store()
        .recover_for_retry(&mut m)
        .map_err(|e| format!("recover: {e:?}"))?;
    st.store()
        .recover_for_retry(&mut m)
        .map_err(|e| format!("second recover: {e:?}"))?;
    for (b, ops) in batches.iter().enumerate().skip(committed) {
        w.apply_batch(&mut m, &st, b as u64, ops, Mode::Gpm)
            .map_err(|e| format!("resubmit of batch {b}: {e:?}"))?;
    }

    // Reference: last value per key, plus per-key SET counts — the slot
    // version must equal the count exactly (more = double apply, fewer =
    // lost op).
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    let mut set_counts: BTreeMap<u64, u64> = BTreeMap::new();
    for ops in batches {
        for &(key, val, is_get) in ops {
            if !is_get {
                reference.insert(key, val);
                *set_counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    let shard = st.shard(w.params.sets);
    for (&key, &val) in &reference {
        match shard
            .host_find(&m, key)
            .map_err(|e| format!("find: {e:?}"))?
        {
            None => return Err(format!("key {key:#x} lost (applied zero times)")),
            Some(rec) if rec[1] != val => {
                return Err(format!(
                    "key {key:#x} holds {:#x}, model says {val:#x}",
                    rec[1]
                ))
            }
            Some(rec) if rec[2] != set_counts[&key] => {
                return Err(format!(
                    "key {key:#x}: version {} after {} SETs (exactly-once violated)",
                    rec[2], set_counts[&key]
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A deterministic op script: fresh keys, rewrites of the previous batch's
/// keys, and GETs, with values from a seeded LCG. Unique keys per batch by
/// construction.
fn script(seed: u64, n_batches: u64, ops_per_batch: u64) -> Vec<Vec<KvsOp>> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s
    };
    (0..n_batches)
        .map(|b| {
            (0..ops_per_batch)
                .map(|i| {
                    let fresh = 1 + b * ops_per_batch + i;
                    match i % 3 {
                        // A GET (of a key that may or may not exist yet).
                        2 => (1 + next() % (n_batches * ops_per_batch), 0, true),
                        // Rewrite the previous batch's fresh key at i-1.
                        1 if b > 0 => (1 + (b - 1) * ops_per_batch + (i - 1), next(), false),
                        _ => (fresh, next(), false),
                    }
                })
                .collect()
        })
        .collect()
}

/// Always-run section: fixed scripts through a grid of crash points,
/// settle policies and both persistency models.
#[test]
fn deterministic_crash_retry_matches_model() {
    let batches = script(0x5EED, 3, 24);
    for persistency in [PersistencyModel::Strict, PersistencyModel::Epoch] {
        for fuel in [0u64, 17, 150, 900, 2_500, 6_000, u64::MAX / 2] {
            for policy in [
                CrashPolicy::AllApplied,
                CrashPolicy::NoneApplied,
                CrashPolicy::GrayCode(1),
                CrashPolicy::Random(fuel ^ 0xD1FF),
            ] {
                run_differential(&batches, fuel, policy, persistency)
                    .unwrap_or_else(|e| panic!("fuel={fuel} policy={policy} {persistency:?}: {e}"));
            }
        }
    }
}

/// The skip-guards themselves must not mask a broken differential: the
/// fixed script is in-contract (no duplicate keys, no eviction), so the
/// diff really runs and really compares keys.
#[test]
fn deterministic_script_is_in_contract() {
    let batches = script(0x5EED, 3, 24);
    let mut model = ShardModel::new(KvsParams::quick().sets);
    for ops in &batches {
        let mut seen = BTreeSet::new();
        for &(key, _, is_get) in ops {
            if !is_get {
                assert_ne!(key, 0);
                assert!(seen.insert(key), "duplicate SET key {key:#x} in a batch");
            }
        }
        for &(key, val, is_get) in ops {
            if !is_get {
                model.set(key, val);
            }
        }
    }
    assert!(!model.evicted, "script must stay eviction-free");
}

/// Whatever the op mix, crash point, settle policy and persistency
/// model, crash + double retry-recovery + resubmission converges to
/// exactly the `BTreeMap` replay, with every op applied exactly once.
#[test]
fn detectable_shard_matches_btreemap_model() {
    check(
        "detectable_shard_matches_btreemap_model",
        CASES,
        31,
        |rng, size| {
            let batches: Vec<Vec<KvsOp>> = (0..len(rng, 1, size.min(3)))
                .map(|_| batch(rng, size))
                .collect();
            let fuel = range(rng, 0, 30_000);
            let policy = match rng.gen_range_u64(4) {
                0 => CrashPolicy::AllApplied,
                1 => CrashPolicy::NoneApplied,
                2 => CrashPolicy::GrayCode(range(rng, 1, 8)),
                _ => CrashPolicy::Random(rng.next_u64()),
            };
            let persistency = if rng.gen_bool(0.5) {
                PersistencyModel::Epoch
            } else {
                PersistencyModel::Strict
            };
            (batches, fuel, policy, persistency)
        },
        |(batches, fuel, policy, persistency)| {
            run_differential(batches, *fuel, *policy, *persistency)
        },
    );
}

/// One batch of ops whose SET keys are distinct and non-zero, so every
/// drawn sequence is inside the exactly-once contract and
/// `run_differential` skips none.
fn batch(rng: &mut Rng, size: usize) -> Vec<KvsOp> {
    let mut set_keys = BTreeSet::new();
    (0..len(rng, 1, size))
        .map(|_| {
            let is_get = rng.gen_bool(0.25);
            let key = loop {
                let key = range(rng, 1, 4_096);
                if is_get || set_keys.insert(key) {
                    break key;
                }
            };
            (key, rng.next_u64(), is_get)
        })
        .collect()
}
