//! The named serve-scenario registry: seeded, byte-deterministic drills.
//!
//! Each scenario is a fully self-contained run — traffic, cluster shape,
//! fault plan — keyed by a stable name, mirroring the recovery campaign's
//! oracle-name registry. The bench `serve` binary exposes them behind
//! `--scenario NAME` (and `--list-scenarios`), and CI runs every scenario
//! and checks its oracle. Every number below is simulated-domain only, so
//! a scenario's JSON is byte-identical run to run.
//!
//! Two scenarios double as *audit self-tests*: with `inject_bug` they
//! deliberately corrupt the replication fabric (a silently dropped log
//! batch, a silently dropped migrated key) and report whether the
//! consistency oracle caught it — CI asserts it did, proving the oracle
//! has teeth rather than rubber-stamping.

use std::fmt::Write as _;

use gpm_sim::{Ns, OracleVerdict, SimResult};
use gpm_workloads::KvsParams;

use crate::arrival::{ArrivalShape, TrafficConfig};
use crate::cluster::{run_cluster, ClusterConfig, ClusterOutcome};
use crate::replica::{run_replicated_cluster, KillPlan, ReplicationConfig};
use crate::request::{Op, Verdict};
use crate::reshard::{run_resharded_cluster, ReshardPlan};
use crate::router::Router;
use crate::scheduler::BatchPolicy;

/// Scenario names, in registry order. Two clusters: replication drills
/// first, hostile-traffic drills after.
pub const SCENARIO_NAMES: [&str; 7] = [
    "replication",
    "failover",
    "resharding",
    "hot_key",
    "flash_crowd",
    "slow_poison",
    "priority",
];

/// The registry's scenario names (the `--list-scenarios` contract).
pub fn scenario_names() -> &'static [&'static str] {
    &SCENARIO_NAMES
}

/// One scenario's result, reduced to its JSON section entry.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Registry name.
    pub name: &'static str,
    /// Which `BENCH_serve.json` section the entry belongs to
    /// (`"replication"`, `"resharding"` or `"hostile"`).
    pub section: &'static str,
    /// The entry itself: one flat JSON object, fixed decimals, simulated
    /// domain only, so it is byte-identical run to run.
    pub json: String,
    /// Consistency verdict, for scenarios that audit PM images.
    pub oracle: Option<OracleVerdict>,
    /// With `inject_bug`: whether the oracle caught the injected
    /// corruption (`None` when the scenario ran clean).
    pub bug_caught: Option<bool>,
}

/// Reported latency tail.
const QS: [f64; 3] = [0.50, 0.99, 0.999];

fn tail_json(out: &ClusterOutcome) -> String {
    let q = out.hist.quantiles(&QS);
    format!(
        "\"offered\": {}, \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.6}, \
         \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"makespan_ms\": {:.4}",
        out.offered,
        out.completed,
        out.shed,
        out.shed_rate(),
        q[0].as_micros(),
        q[1].as_micros(),
        q[2].as_micros(),
        out.makespan.as_millis(),
    )
}

fn verdict_str(v: &OracleVerdict) -> &'static str {
    if v.passed() {
        "pass"
    } else {
        "fail"
    }
}

fn base_cfg(max_batch: u64, sets: u64) -> ClusterConfig {
    ClusterConfig {
        shards: 2,
        policy: BatchPolicy {
            max_batch,
            ..BatchPolicy::default()
        },
        kvs: KvsParams {
            sets,
            ..KvsParams::quick()
        },
        ..ClusterConfig::quick()
    }
}

fn kvs_traffic(seed: u64, load_mops: f64, n: u64, key_space: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        rate_ops_per_sec: load_mops * 1e6,
        n_requests: n,
        shape: ArrivalShape::Poisson,
        get_permille: 500,
        key_space,
        key_skew: None,
        premium_permille: 0,
    }
}

/// Runs the named scenario. Returns `Ok(None)` for a name not in the
/// registry (callers decide the exit code); `inject_bug` is honored by
/// `replication` (a dropped log batch) and `resharding` (a dropped
/// migrated key) and rejected by the rest.
///
/// # Errors
///
/// Propagates platform errors; rejects `inject_bug` on scenarios with
/// nothing to corrupt.
pub fn run_scenario(
    name: &str,
    seed: u64,
    quick: bool,
    inject_bug: bool,
) -> SimResult<Option<ScenarioOutcome>> {
    if inject_bug && !matches!(name, "replication" | "resharding") {
        return Err(gpm_sim::SimError::Invalid(
            "--inject-bug is only meaningful for the replication and resharding scenarios",
        ));
    }
    match name {
        "replication" => replication(seed, quick, inject_bug).map(Some),
        "failover" => failover(seed, quick).map(Some),
        "resharding" => resharding(seed, quick, inject_bug).map(Some),
        "hot_key" => hot_key(seed, quick).map(Some),
        "flash_crowd" => flash_crowd(seed, quick).map(Some),
        "slow_poison" => slow_poison(seed, quick).map(Some),
        "priority" => priority(seed, quick).map(Some),
        _ => Ok(None),
    }
}

/// Steady-state semi-sync replication: 2 primary/replica pairs, Poisson
/// traffic, every acknowledged write audited on both images.
fn replication(seed: u64, quick: bool, inject_bug: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 4_000 } else { 16_000 };
    let cfg = base_cfg(128, 2_048);
    let reqs = kvs_traffic(seed, 1.0, n, 2_048).generate();
    let rep = ReplicationConfig {
        drop_batch: if inject_bug { Some(3) } else { None },
        ..ReplicationConfig::default()
    };
    let out = run_replicated_cluster(&cfg, &rep, &reqs)?;
    let mut json = String::from("{\"scenario\": \"replication\", \"pairs\": 2, ");
    let _ = write!(
        json,
        "{}, \"acked_writes\": {}, \"ship_batches\": {}, \"ship_bytes\": {}, \
         \"ship_dropped\": {}, \"oracle\": \"{}\"}}",
        tail_json(&out.outcome),
        out.acked_writes,
        out.log_ship.batches,
        out.log_ship.bytes,
        out.log_ship.dropped,
        verdict_str(&out.oracle),
    );
    Ok(ScenarioOutcome {
        name: "replication",
        section: "replication",
        json,
        bug_caught: inject_bug.then(|| !out.oracle.passed()),
        oracle: Some(out.oracle),
    })
}

/// The diurnal "million-user day" with a primary dying at peak: measures
/// the promotion gap, and the p999 / shed rate the ISSUE asks for, with
/// the zero-lost-acknowledged-writes audit on top.
fn failover(seed: u64, quick: bool) -> SimResult<ScenarioOutcome> {
    let (n, key_space, sets) = if quick {
        (6_000, 65_536, 2_048)
    } else {
        (20_000, 1u64 << 20, 8_192)
    };
    let period = Ns::from_millis(4.0);
    let cfg = base_cfg(128, sets);
    let reqs = TrafficConfig {
        shape: ArrivalShape::Diurnal {
            period,
            amplitude: 0.8,
        },
        ..kvs_traffic(seed, 2.0, n, key_space)
    }
    .generate();
    // Kill shard 0's primary at the first diurnal peak (sin maximum at
    // period/4).
    let rep = ReplicationConfig {
        kill: Some(KillPlan {
            shard: 0,
            at: Ns(period.0 / 4.0),
            fuel: 2_000,
        }),
        ..ReplicationConfig::default()
    };
    let out = run_replicated_cluster(&cfg, &rep, &reqs)?;
    assert_eq!(out.failovers.len(), 1, "the kill plan must fire");
    let f = out.failovers[0];
    let mut json =
        String::from("{\"scenario\": \"failover\", \"pairs\": 2, \"shape\": \"diurnal\", ");
    let _ = write!(
        json,
        "{}, \"acked_writes\": {}, \"kill_at_ms\": {:.4}, \"failover_at_ms\": {:.4}, \
         \"failover_gap_us\": {:.3}, \"replica_seq\": {}, \"oracle\": \"{}\"}}",
        tail_json(&out.outcome),
        out.acked_writes,
        Ns(period.0 / 4.0).as_millis(),
        f.at.as_millis(),
        f.gap.as_micros(),
        f.replica_seq,
        verdict_str(&out.oracle),
    );
    Ok(ScenarioOutcome {
        name: "failover",
        section: "replication",
        json,
        bug_caught: None,
        oracle: Some(out.oracle),
    })
}

/// Live grow from 2 to 3 shards mid-stream, with the key-range migration
/// audited against every final shard image.
fn resharding(seed: u64, quick: bool, inject_bug: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 2_500 } else { 10_000 };
    let cfg = base_cfg(128, 2_048);
    let reqs = kvs_traffic(seed, 1.0, n, 2_048).generate();
    let mut plan = ReshardPlan::grow(2, 3, reqs[reqs.len() / 2].arrival);
    if inject_bug {
        // Deterministically pick a key that actually migrates and is not
        // healed by a phase-2 rewrite, then drop it in the fabric.
        let router_a = Router::new(plan.shards_before);
        let router_b = Router::new(plan.shards_after);
        let rewritten_later = |key: u64| {
            reqs.iter().any(|r| {
                r.arrival >= plan.cutover && matches!(r.op, Op::Put { key: k, .. } if k == key)
            })
        };
        plan.drop_migrated_key = reqs
            .iter()
            .filter(|r| r.arrival < plan.cutover)
            .find_map(|r| match r.op {
                Op::Put { key, .. }
                    if router_a.route_key(key) != router_b.route_key(key)
                        && !rewritten_later(key) =>
                {
                    Some(key)
                }
                _ => None,
            });
        assert!(plan.drop_migrated_key.is_some(), "no migrating key found");
    }
    let out = run_resharded_cluster(&cfg, &plan, &reqs)?;
    let mut json = String::from("{\"scenario\": \"resharding\", \"before\": 2, \"after\": 3, ");
    let _ = write!(
        json,
        "{}, \"acked_writes\": {}, \"keys_moved\": {}, \"bytes_moved\": {}, \
         \"cutover_ms\": {:.4}, \"migration_span_us\": {:.3}, \"oracle\": \"{}\"}}",
        tail_json(&out.outcome),
        out.acked_writes,
        out.keys_moved,
        out.bytes_moved,
        plan.cutover.as_millis(),
        out.migration_span.as_micros(),
        verdict_str(&out.oracle),
    );
    Ok(ScenarioOutcome {
        name: "resharding",
        section: "resharding",
        json,
        bug_caught: inject_bug.then(|| !out.oracle.passed()),
        oracle: Some(out.oracle),
    })
}

/// Zipfian hot-key skew: the hot shard saturates and sheds while the cold
/// one idles — the section reports the imbalance.
fn hot_key(seed: u64, quick: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 4_000 } else { 16_000 };
    let mut cfg = base_cfg(128, 2_048);
    cfg.policy.queue_cap = 512;
    let reqs = TrafficConfig {
        key_skew: Some(1.2),
        ..kvs_traffic(seed, 3.0, n, 16_384)
    }
    .generate();
    let out = run_cluster(&cfg, &reqs)?;
    let shed_rates: Vec<f64> = out.shards.iter().map(|s| s.shed_rate()).collect();
    let max_shed = shed_rates.iter().cloned().fold(0.0f64, f64::max);
    let min_shed = shed_rates.iter().cloned().fold(1.0f64, f64::min);
    let mut json = String::from("{\"scenario\": \"hot_key\", \"theta\": 1.200, ");
    let _ = write!(
        json,
        "{}, \"hot_shard_shed_rate\": {:.6}, \"cold_shard_shed_rate\": {:.6}}}",
        tail_json(&out),
        max_shed,
        min_shed,
    );
    Ok(ScenarioOutcome {
        name: "hot_key",
        section: "hostile",
        json,
        bug_caught: None,
        oracle: None,
    })
}

/// A flash crowd: 8× the baseline rate for half a millisecond — extra
/// load, not redistributed load — and the tail/shed cost of absorbing it.
fn flash_crowd(seed: u64, quick: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 4_000 } else { 16_000 };
    let mut cfg = base_cfg(128, 2_048);
    cfg.policy.queue_cap = 512;
    let reqs = TrafficConfig {
        shape: ArrivalShape::FlashCrowd {
            at: Ns::from_millis(1.0),
            mult: 8.0,
            width: Ns::from_millis(0.5),
        },
        ..kvs_traffic(seed, 1.0, n, 4_096)
    }
    .generate();
    let out = run_cluster(&cfg, &reqs)?;
    let mut json = String::from(
        "{\"scenario\": \"flash_crowd\", \"at_ms\": 1.0000, \"mult\": 8.0, \"width_ms\": 0.5000, ",
    );
    let _ = write!(json, "{}}}", tail_json(&out));
    Ok(ScenarioOutcome {
        name: "flash_crowd",
        section: "hostile",
        json,
        bug_caught: None,
        oracle: None,
    })
}

/// Slow-poison requests: 2% of the stream are HeavyPuts that each expand
/// to 16 SETs, starving the batch budget; the section contrasts the
/// poisoned tail with a clean stream at the same arrival rate.
fn slow_poison(seed: u64, quick: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 4_000 } else { 16_000 };
    let mut cfg = base_cfg(128, 8_192);
    cfg.shards = 1;
    let t = kvs_traffic(seed, 1.0, n, 4_096);
    let clean = run_cluster(&cfg, &t.generate())?;
    let poisoned = run_cluster(&cfg, &t.generate_poison(20, 16))?;
    let clean_q = clean.hist.quantiles(&QS);
    let mut json =
        String::from("{\"scenario\": \"slow_poison\", \"poison_permille\": 20, \"work\": 16, ");
    let _ = write!(
        json,
        "{}, \"clean_p99_us\": {:.3}, \"clean_p999_us\": {:.3}, \"clean_shed_rate\": {:.6}}}",
        tail_json(&poisoned),
        clean_q[1].as_micros(),
        clean_q[2].as_micros(),
        clean.shed_rate(),
    );
    Ok(ScenarioOutcome {
        name: "slow_poison",
        section: "hostile",
        json,
        bug_caught: None,
        oracle: None,
    })
}

/// Per-tenant priority admission with hedged retries under overload:
/// standard tenants shed at the low-water mark so premium tenants keep
/// queue headroom, and shed premium requests get one hedged re-admission.
fn priority(seed: u64, quick: bool) -> SimResult<ScenarioOutcome> {
    let n = if quick { 6_000 } else { 20_000 };
    let mut cfg = base_cfg(128, 2_048);
    cfg.shards = 1;
    cfg.policy.queue_cap = 416;
    cfg.policy.priority_low_water = Some(384);
    cfg.policy.hedge_delay = Some(Ns::from_micros(30.0));
    let reqs = TrafficConfig {
        premium_permille: 100,
        ..kvs_traffic(seed, 4.0, n, 4_096)
    }
    .generate();
    let out = run_cluster(&cfg, &reqs)?;
    // Per-class accounting: request ids are the stream index, so each
    // response maps straight back to its tenant class.
    let mut offered = [0u64; 2];
    for r in &reqs {
        offered[usize::from(r.class.min(1))] += 1;
    }
    let mut shed = [0u64; 2];
    for resp in out.shards.iter().flat_map(|s| &s.responses) {
        if resp.verdict == Verdict::Overloaded {
            shed[usize::from(reqs[resp.id as usize].class.min(1))] += 1;
        }
    }
    let hedges: u64 = out.shards.iter().map(|s| s.hedges).sum();
    let rescued = hedges - shed[1];
    let rate = |s: u64, o: u64| if o == 0 { 0.0 } else { s as f64 / o as f64 };
    let mut json = String::from(
        "{\"scenario\": \"priority\", \"premium_permille\": 100, \"low_water\": 384, \
         \"hedge_delay_us\": 30.000, ",
    );
    let _ = write!(
        json,
        "{}, \"standard_shed_rate\": {:.6}, \"premium_shed_rate\": {:.6}, \
         \"hedges\": {}, \"hedge_rescued\": {}}}",
        tail_json(&out),
        rate(shed[0], offered[0]),
        rate(shed[1], offered[1]),
        hedges,
        rescued,
    );
    Ok(ScenarioOutcome {
        name: "priority",
        section: "hostile",
        json,
        bug_caught: None,
        oracle: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_total_and_unknown_names_are_none() {
        for name in scenario_names() {
            let out = run_scenario(name, 7, true, false)
                .unwrap()
                .expect("registered scenario must run");
            assert_eq!(out.name, *name);
            assert!(out.json.starts_with('{') && out.json.ends_with('}'));
            assert!(!out.json.contains('\n'), "one flat line per scenario");
            if let Some(v) = &out.oracle {
                assert!(v.passed(), "{name}: {v:?}");
            }
        }
        assert!(run_scenario("no_such_scenario", 7, true, false)
            .unwrap()
            .is_none());
    }

    /// At full scale the drill sheds and batches out of request order, so
    /// the audit must pair responses with requests by id.
    #[test]
    fn full_scale_failover_passes_its_oracle() {
        let out = run_scenario("failover", 42, false, false)
            .unwrap()
            .expect("registered scenario");
        let v = out.oracle.expect("failover audits PM images");
        assert!(v.passed(), "{v:?}");
    }

    #[test]
    fn injected_bugs_are_caught() {
        for name in ["replication", "resharding"] {
            let out = run_scenario(name, 7, true, true).unwrap().expect("runs");
            assert_eq!(out.bug_caught, Some(true), "{name} oracle must catch");
        }
        assert!(
            run_scenario("hot_key", 7, true, true).is_err(),
            "inject-bug on a bug-less scenario is an error"
        );
    }

    #[test]
    fn scenarios_are_byte_deterministic() {
        for name in ["replication", "failover", "priority"] {
            let a = run_scenario(name, 11, true, false).unwrap().unwrap();
            let b = run_scenario(name, 11, true, false).unwrap().unwrap();
            assert_eq!(a.json, b.json, "{name} must replay byte-identically");
        }
    }

    /// The scenario list in EXPERIMENTS.md derives from this registry
    /// (the same contract the campaign's oracle-name list pins): every
    /// registered scenario must appear in the docs by name.
    #[test]
    fn experiments_doc_lists_every_scenario() {
        let doc = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
        for name in scenario_names() {
            assert!(
                doc.contains(&format!("`{name}`")),
                "EXPERIMENTS.md is missing scenario {name:?} — the list must cover scenario_names()"
            );
        }
    }
}
