//! `benchmark`: host wall-clock of the GPM simulator, end to end and per
//! layer.
//!
//! The simulator's figures are sim-time answers; this program measures how
//! long the host takes to produce them. Each selected workload runs timed
//! passes of identical seeded inputs on fresh machines (no warm-up: users
//! pay cold start on every run), checks every output with its own oracle,
//! and requires every pass to produce the same `sim_digest` (a hash of the
//! simulated results), so a change that only speeds up the simulator is
//! seen to leave sim-time untouched.
//!
//! Layers are timed from the benchmark's side of each call (see `trace`);
//! `--trace 1` adds traced passes and reports per-layer self time instead
//! of the end-to-end metrics. See `README.md` beside this file for the
//! metrics, workloads and how to read them.

mod cli;
mod measure;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cli::{Budget, Command, Opts, MIN_PASSES};
use trace::Span;
use workloads::{PassOutput, PhaseTimes, Phases, Scale, WorkloadKind};

/// End-to-end metrics as `(name, unit)`, reported from untraced passes.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Spans whose self time and call count are per-layer metrics
/// (`<layer>.share`, `<layer>.calls`).
const LAYERS: [&str; 19] = [
    "sim.machine_new",
    "bench.input_gen",
    "bench.oracle",
    "workloads.kvs.setup",
    "workloads.kvs.apply_batch",
    "serve.replicated_shard.new_kvs",
    "serve.serve_engine",
    "serve.engine.apply",
    "serve.engine.read_gets",
    "workloads.app.setup",
    "workloads.app.iteration",
    "workloads.app.verify",
    "workloads.iterative.gpm",
    "workloads.iterative.cap_fs",
    "workloads.suite.run",
    "workloads.oracle.record",
    "workloads.oracle.run_case",
    "workloads.oracle.run_case_double_recovery",
    "sim.campaign.enumerate_cases",
];

/// Per-layer metrics besides the `LAYERS` pairs, as `(name, unit)`.
const PER_LAYER_EXTRA: [(&str, &str); 15] = [
    ("bench.pass_s", "s"),
    ("bench.other_s", "s"),
    ("bench.other.share", "ratio"),
    ("bench.input_gen.wall_s", "s"),
    ("bench.cpu_per_wall", "ratio"),
    ("sim.host_ns_per_launch", "ns"),
    ("sim.host_ns_per_pcie_txn", "ns"),
    ("sim.kernel_launches", "count"),
    ("sim.pcie_write_txns", "count"),
    ("sim.system_fences", "count"),
    ("sim.bytes_persisted", "count"),
    ("sim.pm_block_programs", "count"),
    ("sim.crashes", "count"),
    ("serve.shed_ratio", "ratio"),
    ("serve.log_ship.bytes", "count"),
];

/// Every per-layer metric, in output order.
fn per_layer_specs() -> Vec<(String, &'static str)> {
    let mut specs: Vec<(String, &'static str)> = LAYERS
        .iter()
        .flat_map(|l| {
            [
                (format!("{l}.share"), "ratio"),
                (format!("{l}.calls"), "count"),
            ]
        })
        .collect();
    specs.extend(PER_LAYER_EXTRA.iter().map(|&(n, u)| (n.to_string(), u)));
    specs
}

/// The root span of every pass; its self time is `bench.other_s`.
const ROOT: &str = "bench.pass";

/// Largest share of a traced pass the benchmark may leave unattributed.
const MAX_OTHER_SHARE: f64 = 0.05;

/// Set-ups an untraced pass times on their own after the pass, beside its
/// own set-up. Set-up takes milliseconds, so one sample per pass leaves
/// `setup_s`'s median to a handful of noisy samples.
const EXTRA_SETUPS: usize = 4;

struct PassRecord {
    traced: bool,
    times: Option<PhaseTimes>,
    /// Seconds of the [`EXTRA_SETUPS`] set-ups timed after the pass.
    extra_setups_s: Vec<f64>,
    out: Result<PassOutput, String>,
    spans: Vec<Span>,
}

/// One pass, then (untraced) the extra set-ups. The peak-RSS mark is reset
/// before the pass, so the first pass of a process reads the peak of a
/// fresh process.
fn one_pass(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    index: u32,
    traced: bool,
) -> Result<PassRecord, String> {
    measure::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
    if traced {
        trace::begin_pass(kind.name(), index);
    }
    let mut ph = Phases::new();
    let out = trace::span(ROOT, || workloads::run_pass(kind, scale, seed, &mut ph));
    trace::stop();
    let mut extra_setups_s = Vec::new();
    if !traced {
        for _ in 0..EXTRA_SETUPS {
            // An error here also stopped the pass's own set-up, which counts it.
            if let Ok(s) = workloads::time_setup(kind, scale, seed) {
                extra_setups_s.push(s);
            }
        }
    }
    Ok(PassRecord {
        traced,
        times: ph.times(),
        extra_setups_s,
        out,
        spans: if traced { trace::take() } else { Vec::new() },
    })
}

/// Runs `kind` for `budget`, untraced; with `trace`, then as many traced
/// passes again (a seconds budget is split between the two legs).
fn run_passes(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Vec<PassRecord>, String> {
    let legs: &[bool] = if trace { &[false, true] } else { &[false] };
    let budget = match budget {
        Budget::Seconds(s) => Budget::Seconds(s / legs.len() as f64),
        b => b,
    };
    let mut passes = Vec::new();
    for &traced in legs {
        let t0 = Instant::now();
        let mut n = 0;
        loop {
            passes.push(one_pass(kind, scale, seed, passes.len() as u32, traced)?);
            n += 1;
            let done = match budget {
                Budget::Passes(p) => n >= p,
                // Stop before a pass of average length would end past the
                // budget, so a run takes about S seconds, not S plus a pass.
                Budget::Seconds(s) => {
                    let spent = t0.elapsed().as_secs_f64();
                    n >= MIN_PASSES && spent + spent / f64::from(n) > s
                }
            };
            if done {
                break;
            }
        }
    }
    Ok(passes)
}

/// Per-pass totals of one traced pass.
struct LayerPass {
    pass_ns: u64,
    /// name -> (calls, self ns)
    layers: BTreeMap<&'static str, (u64, u64)>,
}

fn layer_pass(spans: &[Span]) -> Option<LayerPass> {
    let root = spans
        .first()
        .filter(|s| s.name == ROOT && s.parent.is_none())?;
    let own = trace::self_times(spans);
    let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        let e = layers.entry(s.name).or_default();
        e.0 += 1;
        e.1 += o;
    }
    Some(LayerPass {
        pass_ns: root.dur_ns(),
        layers,
    })
}

/// Everything reported for one workload.
struct WorkloadReport {
    kind: WorkloadKind,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
    text: String,
}

/// (name, unit, value) in output order.
type Metrics = Vec<(String, String, f64)>;

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    measure::median(&v).unwrap_or(0.0)
}

fn summarize(
    kind: WorkloadKind,
    passes: &[PassRecord],
    trace: bool,
) -> Result<WorkloadReport, String> {
    let mut r = WorkloadReport {
        kind,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        text: String::new(),
    };
    // Accounting: a pass that errored, or whose simulated results differ
    // from the first good pass, fails every unit of work it attempted.
    let mut digest = None;
    let reference_ops = passes
        .iter()
        .find_map(|p| p.out.as_ref().ok().map(|o| o.ops))
        .unwrap_or(1)
        .max(1);
    for (i, p) in passes.iter().enumerate() {
        match &p.out {
            Ok(o) => {
                r.attempted += o.ops;
                r.failed += o.failed;
                r.failures.extend(o.failures.iter().cloned());
                match digest {
                    None => digest = Some(o.digest),
                    Some(d) if d != o.digest => {
                        r.failed += o.ops - o.failed;
                        r.failures.push(format!(
                            "pass {i}: sim_digest {:#018x} differs from {d:#018x}",
                            o.digest
                        ));
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                r.attempted += reference_ops;
                r.failed += reference_ops;
                r.failures.push(format!("pass {i}: {e}"));
            }
        }
    }
    let good = |traced: bool| {
        passes
            .iter()
            .filter(move |p| p.traced == traced)
            .filter_map(|p| Some((p.times?, p.out.as_ref().ok()?, p)))
    };
    let untraced: Vec<(PhaseTimes, &PassOutput, &PassRecord)> = good(false).collect();
    let traced: Vec<(PhaseTimes, &PassOutput, &PassRecord)> = good(true).collect();
    if untraced.is_empty() || (trace && traced.is_empty()) {
        return Err(format!(
            "{}: no pass completed; {}",
            kind.name(),
            r.failures.join("; ")
        ));
    }
    let wall_s = med(untraced.iter().map(|(t, _, _)| t.wall_s));
    let setups: Vec<f64> = untraced
        .iter()
        .flat_map(|(t, _, p)| {
            [t.setup_s]
                .into_iter()
                .chain(p.extra_setups_s.iter().copied())
        })
        .collect();
    let e2e = [
        wall_s,
        med(untraced.iter().map(|(t, o, _)| o.ops as f64 / t.wall_s)),
        med(setups.iter().copied()),
        med(untraced.iter().map(|(t, _, _)| t.cpu_s)),
        // The leanest pass, nearly always the first: later passes also
        // count the free memory glibc's arenas kept from earlier ones, an
        // amount that varies with thread timing.
        untraced
            .iter()
            .map(|(t, _, _)| t.peak_rss_mb)
            .fold(f64::INFINITY, f64::min),
    ];
    let first = untraced[0].1;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} ({} untraced + {} traced passes; unit: {})",
        kind.name(),
        untraced.len(),
        traced.len(),
        kind.unit()
    );
    let _ = writeln!(
        text,
        "  end to end (median of {} untraced passes; setup_s of {} set-ups; \
         peak_rss_mb of the leanest pass):",
        untraced.len(),
        setups.len()
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        let _ = writeln!(text, "    {name:<14} {v:>16.6} {unit}");
    }
    let each = |of: fn(&PhaseTimes) -> f64| {
        let v: Vec<String> = untraced
            .iter()
            .map(|(t, _, _)| format!("{:.6}", of(t)))
            .collect();
        v.join(" ")
    };
    let _ = writeln!(text, "    (wall_s of each pass: {})", each(|t| t.wall_s));
    let setups_text: Vec<String> = setups.iter().map(|s| format!("{s:.6}")).collect();
    let _ = writeln!(
        text,
        "    (setup_s of each set-up: {})",
        setups_text.join(" ")
    );
    let _ = writeln!(
        text,
        "    (peak_rss_mb of each pass: {})",
        each(|t| t.peak_rss_mb)
    );
    let failed_ratio = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "    {:<14} {failed_ratio:>16.6} ratio ({} of {} failed)",
        "failed_ratio", r.failed, r.attempted
    );
    let _ = writeln!(
        text,
        "  sim_digest {:#018x} ({})",
        digest.unwrap_or(0),
        if r.failures.iter().any(|f| f.contains("sim_digest")) {
            "DIFFERS between passes"
        } else {
            "identical across passes"
        }
    );
    for f in r.failures.iter().take(10) {
        let _ = writeln!(text, "  FAILED: {f}");
    }
    if !trace {
        r.metrics = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name.to_string(), unit.to_string(), v))
            .collect();
        r.text = text;
        return Ok(r);
    }

    // ---- per layer, from the traced passes --------------------------------
    let lps: Vec<LayerPass> = traced
        .iter()
        .filter_map(|(_, _, p)| layer_pass(&p.spans))
        .collect();
    let share = |name: &str| {
        med(lps
            .iter()
            .map(|lp| lp.layers.get(name).map_or(0, |l| l.1) as f64 / lp.pass_ns as f64))
    };
    let calls = |name: &str| {
        med(lps
            .iter()
            .map(|lp| lp.layers.get(name).map_or(0, |l| l.0) as f64))
    };
    let self_s = |name: &str| {
        med(lps
            .iter()
            .map(|lp| lp.layers.get(name).map_or(0, |l| l.1) as f64 / 1e9))
    };
    let pass_s = med(lps.iter().map(|lp| lp.pass_ns as f64 / 1e9));
    let per_unit = |count: fn(&PassOutput) -> u64| {
        med(untraced.iter().map(|(t, o, _)| {
            let n = count(o);
            if n == 0 {
                0.0
            } else {
                t.wall_s * 1e9 / n as f64
            }
        }))
    };
    let s = &first.sim;
    let mut values: Vec<f64> = LAYERS.iter().flat_map(|l| [share(l), calls(l)]).collect();
    values.extend([
        pass_s,
        self_s(ROOT),
        share(ROOT),
        self_s("bench.input_gen"),
        med(untraced.iter().map(|(t, _, _)| t.cpu_s / t.wall_s)),
        per_unit(|o| o.sim.kernel_launches),
        per_unit(|o| o.sim.pcie_write_txns),
        s.kernel_launches as f64,
        s.pcie_write_txns as f64,
        s.system_fences as f64,
        s.bytes_persisted as f64,
        s.pm_block_programs as f64,
        s.crashes as f64,
        if kind == WorkloadKind::ServeReplicated {
            first.shed as f64 / first.ops.max(1) as f64
        } else {
            0.0
        },
        first.log_ship_bytes as f64,
    ]);
    r.metrics = per_layer_specs()
        .into_iter()
        .zip(values)
        .map(|((name, unit), v)| (name, unit.to_string(), v))
        .collect();

    // Human-readable self-time table over every span name seen.
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, _, p) in &traced {
        for sp in &p.spans {
            durs.entry(sp.name)
                .or_default()
                .push(sp.dur_ns() as f64 / 1e9);
        }
    }
    let mut rows: Vec<(&'static str, f64)> = durs.keys().map(|&n| (n, self_s(n))).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(
        text,
        "  per-layer self time (median of {} traced passes; pass {pass_s:.4} s):",
        lps.len()
    );
    let _ = writeln!(
        text,
        "    {:<44} {:>9} {:>10} {:>7} {:>12}  tail (q: s, samples)",
        "layer", "calls", "self_s", "share", "call p50 s"
    );
    for (name, own) in rows {
        let d = &durs[name];
        let label = if name == ROOT {
            "bench.other_s (pass self)"
        } else {
            name
        };
        let tail = match measure::tail_percentile(d) {
            Some((q, v)) => format!("p{}: {v:.6}, n={}", q * 100.0, d.len()),
            None => format!("- (n={})", d.len()),
        };
        let _ = writeln!(
            text,
            "    {label:<44} {:>9} {own:>10.4} {:>6.2}% {:>12.6}  {tail}",
            calls(name),
            share(name) * 100.0,
            measure::median(d).unwrap_or(0.0),
        );
    }
    if kind == WorkloadKind::KvsDetect {
        let _ = writeln!(
            text,
            "    workloads.kvs.host_ns_per_op {:.1} ns",
            self_s("workloads.kvs.apply_batch") * 1e9 / first.ops.max(1) as f64
        );
    }
    let balanced = lps
        .iter()
        .all(|lp| lp.layers.values().map(|l| l.1).sum::<u64>() == lp.pass_ns);
    let other = share(ROOT);
    let _ = writeln!(
        text,
        "  check: layers + bench.other_s = pass wall time in every traced pass: {}; \
         bench.other_s {:.2}% of the pass (limit {:.0}%): {}",
        if balanced { "ok" } else { "MISMATCH" },
        other * 100.0,
        MAX_OTHER_SHARE * 100.0,
        if other <= MAX_OTHER_SHARE {
            "ok"
        } else {
            "OVER"
        }
    );
    let traced_wall = med(traced.iter().map(|(t, _, _)| t.wall_s));
    let _ = writeln!(
        text,
        "  tracing overhead: traced wall_s {traced_wall:.4} - untraced {wall_s:.4} = {:+.4} s ({:+.2}%)",
        traced_wall - wall_s,
        (traced_wall / wall_s - 1.0) * 100.0
    );
    r.text = text;
    Ok(r)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object: plain metric names for one workload, prefixed with
/// `<workload>.` when several ran.
fn result_json(reports: &[WorkloadReport]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in reports {
        for (name, unit, v) in &r.metrics {
            let key = if reports.len() == 1 {
                name.clone()
            } else {
                format!("{}.{name}", r.kind.name())
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Reads back the result line [`result_json`] writes for one workload, as
/// `(attempted, failed, metrics)`.
fn parse_result(line: &str) -> Option<(u64, u64, Metrics)> {
    let field = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..].split(',').next()?.parse().ok()
    };
    let body = line.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
    let mut metrics = Vec::new();
    // Entries are `"name": {"value": V, "unit": "U"}` joined by ", ".
    for entry in body.split("}, ").filter(|e| !e.is_empty()) {
        let (name, rest) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        let unit = unit.trim_end_matches('}').strip_suffix('"')?;
        metrics.push((name.to_string(), unit.to_string(), value.parse().ok()?));
    }
    Some((field("attempted")?, field("failed")?, metrics))
}

/// Runs one workload in this process.
fn run_workload(opts: &Opts, kind: WorkloadKind) -> Result<WorkloadReport, String> {
    let probe = gpm_gpu::LaunchConfig::new(1, 32);
    println!(
        "benchmark: seed {}, engine threads {}, persistency {:?}, host parallelism {}",
        opts.seed,
        gpm_gpu::resolved_engine_threads(&probe),
        gpm_gpu::resolved_persistency(&probe),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let passes = run_passes(kind, Scale::Full, opts.seed, opts.budget, opts.trace)?;
    let report = summarize(kind, &passes, opts.trace)?;
    print!("{}", report.text);
    if let Some(path) = &opts.trace_out {
        let spans: Vec<Span> = passes.into_iter().flat_map(|p| p.spans).collect();
        std::fs::write(path, trace::chrome_trace_json(&spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} ({} spans)", spans.len());
    }
    Ok(report)
}

/// Runs each workload in a process of its own, this program with one
/// `--workload`, so no workload's peak memory counts what another left in
/// the allocator.
fn run_each_in_own_process(opts: &Opts) -> Result<Vec<WorkloadReport>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut reports = Vec::new();
    for &kind in &opts.workloads {
        let mut args = vec![
            "--workload".to_string(),
            kind.name().to_string(),
            "--seed".to_string(),
            opts.seed.to_string(),
            "--trace".to_string(),
            u8::from(opts.trace).to_string(),
        ];
        args.extend(match opts.budget {
            Budget::Passes(n) => ["--passes".to_string(), n.to_string()],
            Budget::Seconds(s) => ["--seconds".to_string(), s.to_string()],
        });
        let child = std::process::Command::new(&exe)
            .args(&args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let stdout = stdout.trim_end();
        let (text, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
        println!("{text}");
        let (attempted, failed, metrics) = parse_result(last)
            .ok_or_else(|| format!("{}: no result line ({})", kind.name(), child.status))?;
        reports.push(WorkloadReport {
            kind,
            attempted,
            failed,
            failures: Vec::new(),
            metrics,
            text: text.to_string(),
        });
    }
    Ok(reports)
}

fn run(opts: &Opts) -> Result<bool, String> {
    let reports = match opts.workloads[..] {
        [kind] => vec![run_workload(opts, kind)?],
        _ => run_each_in_own_process(opts)?,
    };
    let json = result_json(&reports);
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{json}");
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            return;
        }
        Ok(Command::ListWorkloads) => {
            for k in WorkloadKind::ALL {
                println!("{}", k.name());
            }
            return;
        }
        Ok(Command::Run(opts)) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    // Parent and change must measure the same program: the defaults.
    for var in ["GPM_ENGINE_THREADS", "GPM_PERSISTENCY"] {
        if std::env::var_os(var).is_some() {
            eprintln!("benchmark: {var} is set; unset it so the simulator runs at its defaults");
            std::process::exit(2);
        }
    }
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "..."` values inside the JSON array that follows `key`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let workloads: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names_in(json, "workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer_specs().into_iter().map(|s| s.0).collect();
        assert_eq!(names_in(json, "per_layer"), layers);
        // Units too: each spec's unit follows its name in the file.
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer_specs())
        {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .expect("name present");
            let unit_at = json[at..].find("\"unit\": \"").expect("unit follows") + at + 9;
            assert!(
                json[unit_at..].starts_with(&format!("{unit}\"")),
                "{name}: unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_reads_back() {
        let metrics = vec![
            ("wall_s".to_string(), "s".to_string(), 2.322544167),
            (
                "ops_per_s".to_string(),
                "ops/s".to_string(),
                14108.66603338958,
            ),
            ("peak_rss_mb".to_string(), "MiB".to_string(), 104.37890625),
        ];
        for metrics in [metrics, Vec::new()] {
            let r = WorkloadReport {
                kind: WorkloadKind::KvsDetect,
                attempted: 103164,
                failed: 2,
                failures: Vec::new(),
                metrics: metrics.clone(),
                text: String::new(),
            };
            let line = result_json(&[r]);
            assert_eq!(parse_result(&line), Some((103164, 2, metrics)), "{line}");
        }
        assert_eq!(parse_result("benchmark: error"), None);
    }

    /// Every workload at smoke scale: two passes each, untraced then
    /// traced, no failed unit, one digest, and the self times of every
    /// traced pass add up to its wall time.
    #[test]
    fn smoke_run_of_every_workload_is_correct_and_deterministic() {
        for kind in WorkloadKind::ALL {
            let passes =
                run_passes(kind, Scale::Smoke, 1, Budget::Passes(1), true).expect("passes");
            assert_eq!(passes.len(), 2);
            let r = summarize(kind, &passes, true).expect("summary");
            assert_eq!(
                (r.failed, &r.failures),
                (0, &Vec::<String>::new()),
                "{}",
                kind.name()
            );
            assert!(r.attempted > 0);
            let digests: Vec<u64> = passes
                .iter()
                .map(|p| p.out.as_ref().unwrap().digest)
                .collect();
            assert_eq!(
                digests[0],
                digests[1],
                "{}: sim_digest must repeat",
                kind.name()
            );
            let lp = layer_pass(&passes[1].spans).expect("traced root span");
            assert_eq!(lp.layers.values().map(|l| l.1).sum::<u64>(), lp.pass_ns);
            assert_eq!(r.metrics.len(), per_layer_specs().len());
            let json = result_json(&[r]);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
