//! Crash-consistency campaign: systematic crash-point enumeration with
//! recovery oracles across all GPMbench workloads (§6.2, systematized).
//!
//! For every workload the campaign (1) records a crash schedule — one clean
//! run under a recording fuel gauge, noting the op count at every
//! persist/fence/launch boundary — then (2) enumerates crash cases (each
//! kept boundary ±1 op, crossed with deterministic pending-line subset
//! policies) and (3) replays each case on a fresh machine, running the
//! workload's own recovery path and judging the result with its
//! `RecoveryOracle`. Results land in `BENCH_campaign.json` (schema
//! `gpm-campaign-v1`); every failure prints a one-line repro command.
//!
//! Flags:
//! - `--quick`             scaled-down workloads and fewer crash points
//! - `--workload NAME`     only the named oracle; names come from the
//!   `oracle_names()` registry (run `--list-workloads` to print them — the
//!   binary never hardcodes the list)
//! - `--list-workloads`    print every registered workload name and exit
//! - `--fuel N --policy P` single-case repro mode (requires `--workload`)
//! - `--max-points N`      crash points kept per workload (0 = all)
//! - `--double-recovery`   retry discipline instead of rollback: every case
//!   runs recovery TWICE, resubmits the in-flight batch, and the oracle
//!   asserts exactly-once application (no op lands zero or two times).
//!   Only oracles that support the discipline run.
//! - `--inject-bug`        self-test: run a deliberately broken recovery
//!   (one undo-log entry dropped); the campaign must FAIL. With
//!   `--double-recovery` the injected bug is a double-applying publish (the
//!   detectable-op skip checks are bypassed) — it must also be caught.
//!   Defaults to gpKVS; combine with `--workload` for any oracle with
//!   self-test knobs (gpKVS, gpAnalytics, gpDB under `--double-recovery`)
//! - `--out PATH`          JSON output path (default `BENCH_campaign.json`)
//! - `--trace PATH`        write a Chrome trace-event JSON (schema
//!   `gpm-trace-v1`) of the traced runs: in repro mode the single case,
//!   otherwise each workload's schedule-recording run
//! - `--help`              print the usage and exit
//!
//! The campaign always runs under strict persistency (it pins the process
//! default, so `GPM_PERSISTENCY=epoch` is ignored with a note): the oracles
//! encode the strict durability contract that the epoch model deliberately
//! relaxes.

use std::fmt::Write as _;
use std::time::Instant;

use gpm_bench::cli::Usage;
use gpm_sim::{
    chrome_trace_json, enumerate_cases, run_campaign, CampaignConfig, CampaignStats, CrashPolicy,
    CrashSchedule, Machine, RingSink, TraceData,
};
use gpm_workloads::oracle::{buggy_oracle, oracle_names};
use gpm_workloads::{oracle_suite, RecoveryOracle, Scale};

struct Opts {
    quick: bool,
    workload: Option<String>,
    fuel: Option<u64>,
    policy: Option<CrashPolicy>,
    max_points: Option<usize>,
    inject_bug: bool,
    double_recovery: bool,
    out: String,
    trace: Option<String>,
}

const USAGE: Usage = Usage {
    bin: "campaign",
    text: "usage: campaign [--quick] [--workload NAME] [--list-workloads] \
           [--fuel N --policy all|none|gray:K|random:S] [--max-points N] [--double-recovery] \
           [--inject-bug] [--out PATH] [--trace PATH]",
};

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        workload: None,
        fuel: None,
        policy: None,
        max_points: None,
        inject_bug: false,
        double_recovery: false,
        out: "BENCH_campaign.json".to_string(),
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => USAGE.help(),
            "--quick" => opts.quick = true,
            "--list-workloads" => {
                for name in oracle_names() {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--inject-bug" => opts.inject_bug = true,
            "--double-recovery" => opts.double_recovery = true,
            "--workload" => opts.workload = Some(USAGE.value(&mut args, "--workload")),
            "--fuel" => opts.fuel = Some(USAGE.parse(&mut args, "--fuel", "an op count")),
            "--policy" => {
                opts.policy =
                    Some(USAGE.parse(&mut args, "--policy", "all | none | gray:K | random:S"));
            }
            "--max-points" => {
                opts.max_points = Some(USAGE.parse(&mut args, "--max-points", "an integer"));
            }
            "--out" => opts.out = USAGE.value(&mut args, "--out"),
            "--trace" => opts.trace = Some(USAGE.value(&mut args, "--trace")),
            other => USAGE.fail(format!("unknown flag {other:?}")),
        }
    }
    if opts.fuel.is_some() && (opts.policy.is_none() || opts.workload.is_none()) {
        USAGE.fail("--fuel needs --policy and --workload");
    }
    opts
}

/// The one-line command that reproduces a single case.
fn repro_command(name: &str, fuel: u64, policy: CrashPolicy, opts: &Opts) -> String {
    let mut c = String::from("cargo run --release -p gpm-bench --bin campaign --");
    if opts.quick {
        c.push_str(" --quick");
    }
    if opts.inject_bug {
        c.push_str(" --inject-bug");
    }
    if opts.double_recovery {
        c.push_str(" --double-recovery");
    }
    let _ = write!(c, " --workload '{name}' --fuel {fuel} --policy {policy}");
    c
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes the collected per-run traces as one Chrome trace-event JSON.
fn write_trace(path: &str, shards: &[(String, TraceData)], stats_bytes: u64) {
    let refs: Vec<(String, &TraceData)> = shards.iter().map(|(n, d)| (n.clone(), d)).collect();
    let json = chrome_trace_json(&refs, stats_bytes);
    std::fs::write(path, &json).expect("write trace JSON");
    let events: usize = shards.iter().map(|(_, d)| d.events.len()).sum();
    println!(
        "wrote {path} ({events} events over {} traced runs)",
        shards.len()
    );
}

struct WorkloadReport {
    name: &'static str,
    boundaries: usize,
    total_ops: u64,
    stats: CampaignStats,
    wall_s: f64,
}

fn to_json(
    reports: &[WorkloadReport],
    scale: Scale,
    cfg: &CampaignConfig,
    double_recovery: bool,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"gpm-campaign-v1\",\n");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        if scale == Scale::Quick {
            "quick"
        } else {
            "full"
        }
    );
    let _ = writeln!(out, "  \"double_recovery\": {double_recovery},");
    let _ = writeln!(
        out,
        "  \"max_crash_points\": {},",
        cfg.max_crash_points
            .map_or("null".to_string(), |m| m.to_string())
    );
    let _ = writeln!(out, "  \"gray_steps\": {},", cfg.gray_steps);
    let _ = writeln!(out, "  \"random_subsets\": {},", cfg.random_subsets);
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    out.push_str("  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"boundaries\": {}, \"total_ops\": {}, \
             \"crash_points\": {}, \"cases\": {}, \"passed\": {}, \"wall_s\": {:.3}, \
             \"failures\": [",
            json_escape(r.name),
            r.boundaries,
            r.total_ops,
            r.stats.crash_points,
            r.stats.cases,
            r.stats.passed,
            r.wall_s
        );
        for (j, f) in r.stats.failures.iter().enumerate() {
            let msg = match &f.verdict {
                gpm_sim::OracleVerdict::Pass => String::new(),
                gpm_sim::OracleVerdict::Fail(m) => json_escape(m),
            };
            let _ = write!(
                out,
                "{}{{\"fuel\": {}, \"policy\": \"{}\", \"message\": \"{}\"}}",
                if j > 0 { ", " } else { "" },
                f.case.fuel,
                f.case.policy,
                msg
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    let total_cases: usize = reports.iter().map(|r| r.stats.cases).sum();
    let total_failures: usize = reports.iter().map(|r| r.stats.failures.len()).sum();
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"total_cases\": {total_cases},");
    let _ = writeln!(out, "  \"total_failures\": {total_failures}");
    out.push_str("}\n");
    out
}

fn main() {
    // The recovery oracles verify the strict durability contract; the epoch
    // model deliberately weakens it (fence drains defer to kernel
    // boundaries), so every epoch campaign "failure" would be the model
    // working as designed, not a recovery bug. Pin Strict before the first
    // launch resolves `GPM_PERSISTENCY` so the env knob can't silently
    // invalidate the verdicts.
    if gpm_gpu::pin_default_persistency(gpm_gpu::PersistencyModel::Strict)
        && std::env::var("GPM_PERSISTENCY")
            .map(|s| s.trim().eq_ignore_ascii_case("epoch"))
            .unwrap_or(false)
    {
        println!(
            "note: GPM_PERSISTENCY=epoch ignored — campaign oracles verify the strict contract"
        );
    }

    let opts = parse_args();
    let scale = if opts.quick {
        Scale::Quick
    } else {
        Scale::Full
    };

    let mut oracles: Vec<Box<dyn RecoveryOracle>> = if opts.inject_bug {
        // Self-test mode: build the named oracle (default gpKVS) with its
        // recovery deliberately broken — a dropped undo-log entry, or under
        // `--double-recovery` a bypassed detectable-op skip check so a
        // resubmitted op applies twice.
        let name = opts.workload.as_deref().unwrap_or("gpKVS");
        match buggy_oracle(name, opts.double_recovery, scale) {
            Some(o) => vec![o],
            None => {
                eprintln!(
                    "no injectable-bug variant of {name:?} for this mode; workloads: {}",
                    oracle_names().join(", ")
                );
                std::process::exit(2);
            }
        }
    } else {
        oracle_suite(scale)
    };
    if let Some(name) = &opts.workload {
        oracles.retain(|o| o.name().eq_ignore_ascii_case(name));
        if oracles.is_empty() {
            eprintln!(
                "no oracle named {name:?}; workloads: {}",
                oracle_names().join(", ")
            );
            std::process::exit(2);
        }
    }
    if opts.double_recovery {
        let before = oracles.len();
        oracles.retain(|o| o.supports_double_recovery());
        if oracles.len() < before {
            println!(
                "note: {} oracle(s) skipped — only workloads with resubmittable \
                 batches support --double-recovery",
                before - oracles.len()
            );
        }
        if oracles.is_empty() {
            eprintln!("no selected oracle supports --double-recovery");
            std::process::exit(2);
        }
    }

    // Single-case repro mode.
    if let Some(fuel) = opts.fuel {
        let policy = opts
            .policy
            .expect("parse_args requires --policy with --fuel");
        let mut failed = false;
        let mut traced: Vec<(String, TraceData)> = Vec::new();
        let mut trace_bytes = 0u64;
        for o in &mut oracles {
            let mut m = Machine::default();
            if opts.trace.is_some() {
                m.set_trace_sink(Box::new(RingSink::new(1 << 20)));
            }
            let v = if opts.double_recovery {
                o.run_case_double_recovery(&mut m, fuel, policy)
            } else {
                o.run_case(&mut m, fuel, policy)
            }
            .expect("platform error");
            println!("{}: fuel={fuel} policy={policy} -> {v:?}", o.name());
            failed |= !v.passed();
            if let Some(data) = m.finish_trace() {
                trace_bytes += m.stats.bytes_persisted;
                traced.push((o.name().to_string(), data));
            }
        }
        if let Some(path) = &opts.trace {
            write_trace(path, &traced, trace_bytes);
        }
        if opts.inject_bug {
            // Self-test: the deliberately broken recovery MUST be caught by
            // this case too — an unexpected pass is a failure of the
            // campaign itself and must exit non-zero.
            if !failed {
                eprintln!("inject-bug self-test FAILED: case passed despite the broken recovery");
                std::process::exit(1);
            }
            println!("inject-bug self-test passed: broken recovery was caught");
            std::process::exit(0);
        }
        std::process::exit(i32::from(failed));
    }

    let cfg = CampaignConfig {
        max_crash_points: match opts.max_points {
            Some(0) => None,
            Some(m) => Some(m),
            None => Some(if opts.quick { 4 } else { 12 }),
        },
        ..CampaignConfig::default()
    };

    let t0 = Instant::now();
    let mut reports: Vec<WorkloadReport> = Vec::new();
    let mut traced: Vec<(String, TraceData)> = Vec::new();
    let mut trace_bytes = 0u64;
    for o in &mut oracles {
        let name = o.name();
        let mut m = Machine::default();
        if opts.trace.is_some() {
            m.set_trace_sink(Box::new(RingSink::new(1 << 20)));
        }
        let sched: CrashSchedule = o.record(&mut m).expect("schedule recording failed");
        if let Some(data) = m.finish_trace() {
            trace_bytes += m.stats.bytes_persisted;
            traced.push((name.to_string(), data));
        }
        let cases = enumerate_cases(&sched, &cfg);
        println!(
            "{name:>10}: {} boundaries over {} ops -> {} cases",
            sched.boundaries().len(),
            sched.total_ops(),
            cases.len()
        );
        let t = Instant::now();
        let stats = run_campaign(&cases, |case| {
            let mut m = Machine::default();
            if opts.double_recovery {
                o.run_case_double_recovery(&mut m, case.fuel, case.policy)
            } else {
                o.run_case(&mut m, case.fuel, case.policy)
            }
            .expect("platform error")
        });
        let wall_s = t.elapsed().as_secs_f64();
        for f in &stats.failures {
            let msg = match &f.verdict {
                gpm_sim::OracleVerdict::Pass => "",
                gpm_sim::OracleVerdict::Fail(m) => m.as_str(),
            };
            println!(
                "  FAIL fuel={} policy={}: {msg}",
                f.case.fuel, f.case.policy
            );
            println!(
                "  repro: {}",
                repro_command(name, f.case.fuel, f.case.policy, &opts)
            );
        }
        println!(
            "  {}/{} passed across {} crash points in {wall_s:.2}s",
            stats.passed, stats.cases, stats.crash_points
        );
        reports.push(WorkloadReport {
            name,
            boundaries: sched.boundaries().len(),
            total_ops: sched.total_ops(),
            stats,
            wall_s,
        });
    }

    let total_cases: usize = reports.iter().map(|r| r.stats.cases).sum();
    let total_failures: usize = reports.iter().map(|r| r.stats.failures.len()).sum();
    println!(
        "campaign: {total_cases} cases, {total_failures} failures, {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    let json = to_json(&reports, scale, &cfg, opts.double_recovery);
    std::fs::write(&opts.out, &json).expect("write campaign JSON");
    println!("wrote {}", opts.out);
    if let Some(path) = &opts.trace {
        write_trace(path, &traced, trace_bytes);
    }

    if opts.inject_bug {
        // Self-test: the broken recovery MUST be caught.
        if total_failures == 0 {
            eprintln!("inject-bug self-test FAILED: no case caught the broken recovery");
            std::process::exit(1);
        }
        println!("inject-bug self-test passed: broken recovery was caught");
    } else if total_failures > 0 {
        std::process::exit(1);
    }
}
