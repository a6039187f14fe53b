//! Serving-stack benchmark: sweeps offered load × shard count × batch
//! policy over the `gpm-serve` frontend and finds the knee — the highest
//! offered load that still meets the p99 latency SLO with zero shed.
//!
//! Everything is simulated time and seed-deterministic: the same seed and
//! flags produce a byte-identical `BENCH_serve.json` (schema
//! `gpm-serve-v2`), run to run — no wall-clock field enters the JSON.
//!
//! Flags:
//! - `--quick`       small sweep (completes in seconds; CI smoke)
//! - `--seed N`      traffic seed (default 42)
//! - `--slo-us F`    p99 SLO in microseconds (default 500)
//! - `--out PATH`    JSON output path (default `BENCH_serve.json`)
//! - `--trace PATH`  also run one traced cluster and write a Chrome
//!   trace-event JSON (schema `gpm-trace-v1`, loadable in Perfetto)
//! - `--persistency strict|epoch`  GPU persistency model on every shard
//!   (default strict)
//! - `--list-scenarios`  print the scenario registry, one per line
//! - `--scenario NAME`   run exactly one named scenario and write a
//!   single-scenario JSON to `--out`; an unknown name exits 2
//! - `--inject-bug`      with `--scenario replication|resharding`: inject
//!   the fabric corruption and exit 0 iff the consistency oracle caught
//!   it (campaign-style self-test semantics)
//! - `--help`            print the usage and exit

use std::fmt::Write as _;

use gpm_bench::cli::Usage;
use gpm_gpu::PersistencyModel;
use gpm_serve::{
    run_cluster, run_scenario, scenario_names, ArrivalShape, BackendKind, BatchPolicy,
    ClusterConfig, ClusterOutcome, FaultPlan, ScenarioOutcome, TrafficConfig,
};
use gpm_sim::{chrome_trace_json, Ns, TraceData};
use gpm_workloads::{DbParams, KvsParams};

struct Opts {
    quick: bool,
    seed: u64,
    slo_us: f64,
    out: String,
    trace: Option<String>,
    persistency: PersistencyModel,
    scenario: Option<String>,
    list_scenarios: bool,
    inject_bug: bool,
}

const USAGE: Usage = Usage {
    bin: "serve",
    text: "usage: serve [--quick] [--seed N] [--slo-us F] [--out PATH] [--trace PATH] \
           [--persistency strict|epoch] [--list-scenarios] [--scenario NAME [--inject-bug]]",
};

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        seed: 42,
        slo_us: 500.0,
        out: "BENCH_serve.json".to_string(),
        trace: None,
        persistency: PersistencyModel::Strict,
        scenario: None,
        list_scenarios: false,
        inject_bug: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => USAGE.help(),
            "--quick" => opts.quick = true,
            "--seed" => opts.seed = USAGE.parse(&mut args, "--seed", "an integer"),
            "--slo-us" => {
                opts.slo_us = USAGE.parse(&mut args, "--slo-us", "a number");
                if !opts.slo_us.is_finite() || opts.slo_us <= 0.0 {
                    USAGE.fail(format!(
                        "--slo-us needs a positive number, got {}",
                        opts.slo_us
                    ));
                }
            }
            "--out" => opts.out = USAGE.out_path(&mut args, "--out"),
            "--trace" => opts.trace = Some(USAGE.out_path(&mut args, "--trace")),
            "--persistency" => {
                opts.persistency = match USAGE.value(&mut args, "--persistency").as_str() {
                    "strict" => PersistencyModel::Strict,
                    "epoch" => PersistencyModel::Epoch,
                    other => USAGE.fail(format!(
                        "--persistency must be strict or epoch, got {other:?}"
                    )),
                };
            }
            "--scenario" => opts.scenario = Some(USAGE.value(&mut args, "--scenario")),
            "--list-scenarios" => opts.list_scenarios = true,
            "--inject-bug" => opts.inject_bug = true,
            other => USAGE.fail(format!("unknown flag {other:?}")),
        }
    }
    if opts.inject_bug && opts.scenario.is_none() {
        USAGE.fail("--inject-bug requires --scenario replication|resharding");
    }
    opts
}

/// Runs one named scenario (the `--scenario` path): writes a
/// single-scenario `gpm-serve-v2` JSON and exits with the contract CI
/// keys off — 2 for an unknown name, and under `--inject-bug` 0 iff the
/// oracle caught the injected corruption.
fn run_one_scenario(opts: &Opts) -> ! {
    let name = opts.scenario.as_deref().expect("checked by caller");
    let out = match run_scenario(name, opts.seed, opts.quick, opts.inject_bug) {
        Ok(Some(out)) => out,
        Ok(None) => {
            eprintln!(
                "serve: unknown scenario {name:?}; try --list-scenarios (known: {})",
                scenario_names().join(", ")
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("serve: scenario {name} failed: {e}");
            std::process::exit(2);
        }
    };
    let json = format!(
        "{{\n  \"schema\": \"gpm-serve-v2\",\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \
         \"scenario\": \"{}\",\n  \"section\": \"{}\",\n  \"inject_bug\": {},\n  \"data\": {}\n}}\n",
        if opts.quick { "quick" } else { "full" },
        opts.seed,
        out.name,
        out.section,
        opts.inject_bug,
        out.json,
    );
    USAGE.write(&opts.out, &json);
    println!("wrote {} (scenario {})", opts.out, out.name);
    if let Some(v) = &out.oracle {
        println!("  oracle: {}", if v.passed() { "pass" } else { "FAIL" });
    }
    if opts.inject_bug {
        match out.bug_caught {
            Some(true) => {
                println!("  injected bug was caught by the oracle — self-test passes");
                std::process::exit(0);
            }
            _ => {
                eprintln!("serve: injected bug was NOT caught — the oracle is toothless");
                std::process::exit(1);
            }
        }
    }
    // A clean scenario whose oracle failed is a real consistency bug.
    if out.oracle.as_ref().is_some_and(|v| !v.passed()) {
        eprintln!("serve: scenario {name} oracle FAILED: {:?}", out.oracle);
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// A named batching policy (one sweep axis).
struct NamedPolicy {
    name: &'static str,
    policy: BatchPolicy,
}

fn policies(quick: bool) -> Vec<NamedPolicy> {
    // Quick runs shrink the queue so the 2× overload point actually
    // overflows it within the short stream (shed-rate must go non-zero).
    let queue_cap = if quick { 512 } else { 4_096 };
    vec![
        NamedPolicy {
            name: "b256-l100",
            policy: BatchPolicy {
                max_batch: 256,
                max_linger: Ns::from_micros(100.0),
                queue_cap,
                max_retries: 3,
                ..BatchPolicy::default()
            },
        },
        NamedPolicy {
            name: "b64-l20",
            policy: BatchPolicy {
                max_batch: 64,
                max_linger: Ns::from_micros(20.0),
                queue_cap,
                max_retries: 3,
                ..BatchPolicy::default()
            },
        },
    ]
}

/// One measured sweep point, already reduced to JSON-ready numbers.
struct Point {
    shards: u32,
    policy: &'static str,
    load_mops: f64,
    out: ClusterOutcome,
}

fn traffic(seed: u64, load_mops: f64, n_requests: u64, shape: ArrivalShape) -> TrafficConfig {
    TrafficConfig {
        seed,
        rate_ops_per_sec: load_mops * 1e6,
        n_requests,
        shape,
        get_permille: 500,
        key_space: 16_384,
        key_skew: None,
        premium_permille: 0,
    }
}

/// The reported latency tail, pulled in one histogram pass.
const REPORT_QS: [f64; 4] = [0.50, 0.95, 0.99, 0.999];

fn point_json(p: &Point, slo: Ns) -> String {
    let o = &p.out;
    let q = o.hist.quantiles(&REPORT_QS);
    format!(
        "{{\"shards\": {}, \"policy\": \"{}\", \"load_mops\": {:.3}, \
         \"offered\": {}, \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.6}, \
         \"throughput_mops\": {:.4}, \"p50_us\": {:.3}, \"p95_us\": {:.3}, \
         \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"slo_attainment\": {:.6}, \
         \"batches\": {}, \"retries\": {}, \"makespan_ms\": {:.4}}}",
        p.shards,
        p.policy,
        p.load_mops,
        o.offered,
        o.completed,
        o.shed,
        o.shed_rate(),
        o.throughput_ops_per_sec() / 1e6,
        q[0].as_micros(),
        q[1].as_micros(),
        q[2].as_micros(),
        q[3].as_micros(),
        o.slo_attainment(slo),
        o.batches,
        o.retries,
        o.makespan.as_millis(),
    )
}

fn main() {
    let opts = parse_args();
    if opts.list_scenarios {
        for name in scenario_names() {
            println!("{name}");
        }
        return;
    }
    if opts.scenario.is_some() {
        run_one_scenario(&opts);
    }
    let slo = Ns(opts.slo_us * 1_000.0);
    // Every cluster in the sweep inherits the persistency model.
    let base = ClusterConfig {
        persistency: Some(opts.persistency),
        ..ClusterConfig::quick()
    };
    let (loads, shard_counts, n_requests): (Vec<f64>, Vec<u32>, u64) = if opts.quick {
        (vec![0.5, 1.0, 2.0, 3.0, 4.5, 6.0], vec![1, 2], 3_000)
    } else {
        (
            vec![0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0],
            vec![1, 2, 4, 8],
            20_000,
        )
    };
    println!(
        "serve: sweeping {} loads x {} shard counts x {} policies, {} requests/point, SLO p99 <= {:.0} us",
        loads.len(),
        shard_counts.len(),
        policies(opts.quick).len(),
        n_requests,
        opts.slo_us
    );

    // Main sweep: offered load x shard count x batch policy over gpKVS.
    let mut points: Vec<Point> = Vec::new();
    for &shards in &shard_counts {
        for np in &policies(opts.quick) {
            for &load in &loads {
                let cfg = ClusterConfig {
                    shards,
                    policy: np.policy,
                    kvs: KvsParams::quick(),
                    ..base
                };
                let reqs = traffic(opts.seed, load, n_requests, ArrivalShape::Poisson).generate();
                let out = run_cluster(&cfg, &reqs).expect("cluster run failed");
                println!(
                    "  shards={shards} policy={} load={load:.1}M -> tput={:.2}M p99={} shed={:.1}%",
                    np.name,
                    out.throughput_ops_per_sec() / 1e6,
                    out.hist.percentile(0.99),
                    out.shed_rate() * 100.0
                );
                points.push(Point {
                    shards,
                    policy: np.name,
                    load_mops: load,
                    out,
                });
            }
        }
    }

    // Arrival-shape section: same mean load, different temporal shapes.
    let shape_load = 1.5;
    let shapes: Vec<(&str, ArrivalShape)> = vec![
        ("poisson", ArrivalShape::Poisson),
        (
            "bursty",
            ArrivalShape::Bursty {
                period: Ns::from_millis(1.0),
                duty: 0.2,
                mult: 4.0,
            },
        ),
        (
            "diurnal",
            ArrivalShape::Diurnal {
                period: Ns::from_millis(4.0),
                amplitude: 0.8,
            },
        ),
    ];
    let mut shape_points: Vec<(&str, ClusterOutcome)> = Vec::new();
    for (name, shape) in shapes {
        let cfg = ClusterConfig {
            shards: 2,
            kvs: KvsParams::quick(),
            ..base
        };
        let reqs = traffic(opts.seed, shape_load, n_requests, shape).generate();
        let out = run_cluster(&cfg, &reqs).expect("shape run failed");
        println!(
            "  shape={name} load={shape_load:.1}M -> p99={} shed={:.1}%",
            out.hist.percentile(0.99),
            out.shed_rate() * 100.0
        );
        shape_points.push((name, out));
    }

    // Fault drill: transient mid-batch crashes with recover-and-retry.
    let fault_cfg = ClusterConfig {
        shards: 1,
        faults: FaultPlan {
            crash_every: Some(5),
            crash_fuel: 2_000,
        },
        kvs: KvsParams::quick(),
        ..base
    };
    let fault_reqs =
        traffic(opts.seed, 1.0, n_requests.min(2_000), ArrivalShape::Poisson).generate();
    let faults = run_cluster(&fault_cfg, &fault_reqs).expect("fault run failed");
    println!(
        "  faults: {} retries over {} batches, p99={}",
        faults.retries,
        faults.batches,
        faults.hist.percentile(0.99)
    );

    // gpAnalytics mixed-tenant scenario: behavioral events and gpKVS OLTP
    // traffic share one diurnal arrival stream and the same shards; each
    // shard folds sessions/funnels into its PM session store right next to
    // the KVS hash table, and the cohort aggregates come back from the
    // persistent state (all simulated counters, so the section is
    // byte-deterministic like the rest of the JSON).
    let an_event_permille = 400;
    let an_cfg = ClusterConfig {
        shards: 2,
        backend: BackendKind::Mixed,
        kvs: KvsParams::quick(),
        ..base
    };
    let an_reqs = traffic(
        opts.seed,
        1.0,
        n_requests.min(6_000),
        ArrivalShape::Diurnal {
            period: Ns::from_millis(4.0),
            amplitude: 0.8,
        },
    )
    .generate_mixed(6, an_event_permille);
    let an_out = run_cluster(&an_cfg, &an_reqs).expect("analytics run failed");
    let cohorts = an_out.cohorts.expect("mixed backend reports cohorts");
    println!(
        "  analytics: {} events journaled over {} requests, {} sessions / {} users, \
         {} funnel completions, p99={}",
        an_out.journaled_events,
        an_out.offered,
        cohorts.sessions,
        cohorts.users,
        cohorts.completions,
        an_out.hist.percentile(0.99)
    );

    // One gpDB INSERT point (the other backend through the same stack).
    let db_cfg = ClusterConfig {
        shards: 1,
        backend: BackendKind::Db,
        db: DbParams::quick(),
        ..base
    };
    let db_reqs = traffic(opts.seed, 0.2, 400, ArrivalShape::Poisson).generate_inserts(8);
    let db_out = run_cluster(&db_cfg, &db_reqs).expect("db run failed");
    println!(
        "  gpDB inserts: {} completed, p99={}",
        db_out.completed,
        db_out.hist.percentile(0.99)
    );

    // Knee per (shards, policy) line: highest load meeting the SLO with
    // zero shed, and the first overload point past it.
    let mut knees = String::new();
    let mut first = true;
    let mut any_knee = false;
    let mut any_overload = false;
    for &shards in &shard_counts {
        for np in &policies(opts.quick) {
            let line: Vec<&Point> = points
                .iter()
                .filter(|p| p.shards == shards && p.policy == np.name)
                .collect();
            let knee = line
                .iter()
                .filter(|p| p.out.hist.percentile(0.99) <= slo && p.out.shed == 0)
                .map(|p| p.load_mops)
                .fold(None::<f64>, |acc, l| Some(acc.map_or(l, |a: f64| a.max(l))));
            let overload = line
                .iter()
                .filter(|p| p.out.hist.percentile(0.99) > slo && p.out.shed > 0)
                .map(|p| p.load_mops)
                .fold(None::<f64>, |acc, l| Some(acc.map_or(l, |a: f64| a.min(l))));
            any_knee |= knee.is_some();
            any_overload |= overload.is_some();
            let _ = write!(
                knees,
                "{}    {{\"shards\": {}, \"policy\": \"{}\", \"knee_load_mops\": {}, \
                 \"first_overload_mops\": {}}}",
                if first { "" } else { ",\n" },
                shards,
                np.name,
                knee.map_or("null".to_string(), |k| format!("{k:.3}")),
                overload.map_or("null".to_string(), |k| format!("{k:.3}")),
            );
            first = false;
            println!(
                "  knee shards={shards} policy={}: {} Mops (first overload: {})",
                np.name,
                knee.map_or("none".to_string(), |k| format!("{k:.1}")),
                overload.map_or("none".to_string(), |k| format!("{k:.1}")),
            );
        }
    }

    // Scenario sections: replication (steady + failover), resharding, and
    // the hostile-traffic quartet, all at the sweep seed. Grouped by the
    // registry's section tag so CI can `cmp` each section independently.
    println!("serve: running {} scenarios", scenario_names().len());
    let mut by_section: Vec<(&'static str, Vec<ScenarioOutcome>)> = vec![
        ("replication", Vec::new()),
        ("resharding", Vec::new()),
        ("hostile", Vec::new()),
    ];
    for name in scenario_names() {
        let out = run_scenario(name, opts.seed, opts.quick, false)
            .expect("scenario run failed")
            .expect("registry name is known");
        assert!(
            out.oracle.as_ref().is_none_or(|v| v.passed()),
            "scenario {name} consistency oracle failed"
        );
        println!("  scenario {}: ok", out.name);
        let slot = by_section
            .iter_mut()
            .find(|(s, _)| *s == out.section)
            .expect("section is registered");
        slot.1.push(out);
    }

    let mut json = String::from("{\n  \"schema\": \"gpm-serve-v2\",\n");
    let _ = writeln!(
        json,
        "  \"scale\": \"{}\",",
        if opts.quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(
        json,
        "  \"persistency\": \"{}\",",
        match opts.persistency {
            PersistencyModel::Strict => "strict",
            PersistencyModel::Epoch => "epoch",
        }
    );
    let _ = writeln!(json, "  \"slo_us\": {:.3},", opts.slo_us);
    let _ = writeln!(json, "  \"n_requests\": {n_requests},");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            point_json(p, slo),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"shapes\": [\n");
    for (i, (name, out)) in shape_points.iter().enumerate() {
        let p = Point {
            shards: 2,
            policy: name,
            load_mops: shape_load,
            out: ClusterOutcome {
                hist: out.hist.clone(),
                offered: out.offered,
                completed: out.completed,
                shed: out.shed,
                retries: out.retries,
                batches: out.batches,
                makespan: out.makespan,
                ..ClusterOutcome::default()
            },
        };
        let _ = writeln!(
            json,
            "    {}{}",
            point_json(&p, slo).replacen("\"policy\"", "\"shape\"", 1),
            if i + 1 < shape_points.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"faults\": {{\"crash_every\": 5, \"crash_fuel\": 2000, \"retries\": {}, \
         \"batches\": {}, \"completed\": {}, \"p99_us\": {:.3}}},",
        faults.retries,
        faults.batches,
        faults.completed,
        faults.hist.percentile(0.99).as_micros()
    );
    let _ = writeln!(
        json,
        "  \"db_insert\": {{\"completed\": {}, \"shed\": {}, \"p99_us\": {:.3}, \
         \"throughput_mops\": {:.4}}},",
        db_out.completed,
        db_out.shed,
        db_out.hist.percentile(0.99).as_micros(),
        db_out.throughput_ops_per_sec() / 1e6
    );
    let an_q = an_out.hist.quantiles(&REPORT_QS);
    let _ = writeln!(
        json,
        "  \"analytics\": {{\"shards\": 2, \"shape\": \"diurnal\", \
         \"event_permille\": {an_event_permille}, \"offered\": {}, \"completed\": {}, \
         \"shed\": {}, \"journaled_events\": {}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
         \"cohorts\": {{\"users\": {}, \"sessions\": {}, \"retained\": {}, \
         \"completions\": {}, \"matched\": {}}}, \"makespan_ms\": {:.4}}},",
        an_out.offered,
        an_out.completed,
        an_out.shed,
        an_out.journaled_events,
        an_q[0].as_micros(),
        an_q[2].as_micros(),
        cohorts.users,
        cohorts.sessions,
        cohorts.retained,
        cohorts.completions,
        cohorts.matched,
        an_out.makespan.as_millis(),
    );
    for (section, outs) in &by_section {
        let _ = writeln!(json, "  \"{section}\": {{");
        for (i, o) in outs.iter().enumerate() {
            let _ = writeln!(
                json,
                "    \"{}\": {}{}",
                o.name,
                o.json,
                if i + 1 < outs.len() { "," } else { "" }
            );
        }
        json.push_str("  },\n");
    }
    let _ = writeln!(json, "  \"knees\": [\n{knees}\n  ]");
    json.push_str("}\n");

    USAGE.write(&opts.out, &json);
    println!("wrote {}", opts.out);

    // Optional traced cluster run: one small deterministic cluster with a
    // RingSink on every shard, exported as Chrome trace-event JSON. The
    // sweep above runs untraced so `--trace` cannot perturb its numbers.
    if let Some(path) = &opts.trace {
        let cfg = ClusterConfig {
            shards: 2,
            kvs: KvsParams::quick(),
            trace_events: Some(1 << 20),
            ..base
        };
        let reqs = traffic(opts.seed, 1.0, n_requests.min(3_000), ArrivalShape::Poisson).generate();
        let traced = run_cluster(&cfg, &reqs).expect("traced run failed");
        let stats_bytes: u64 = traced.shards.iter().map(|r| r.stats.bytes_persisted).sum();
        let shard_traces: Vec<(String, &TraceData)> = traced
            .shards
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let data = r.trace.as_ref().expect("trace sink was installed");
                (format!("shard{i}"), data)
            })
            .collect();
        let events: usize = shard_traces.iter().map(|(_, d)| d.events.len()).sum();
        let trace_json = chrome_trace_json(&shard_traces, stats_bytes);
        USAGE.write(path, &trace_json);
        println!(
            "wrote {path} ({events} events over {} shards, {stats_bytes} bytes persisted)",
            shard_traces.len()
        );
    }

    // A quick sweep that never finds its knee (or never drives the stack
    // into overload) is a broken benchmark; fail loudly so CI notices
    // instead of archiving a useless JSON.
    if !any_knee || !any_overload {
        eprintln!(
            "serve: sweep found {} and {} — widen the load grid",
            if any_knee { "a knee" } else { "NO knee" },
            if any_overload {
                "an overload point"
            } else {
                "NO overload point"
            },
        );
        std::process::exit(1);
    }
}
