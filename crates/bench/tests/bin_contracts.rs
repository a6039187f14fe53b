//! Exit-code and determinism contracts of the bench binaries.
//!
//! These run the real compiled binaries (`CARGO_BIN_EXE_*`), because the
//! contracts under test are process-level: exit codes CI keys off, and
//! byte-identical artifact files.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gpm_bin_contracts");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// A repro case that trivially passes (fuel 0: crash before any work, so
/// recovery has nothing to do) must exit non-zero under `--inject-bug`:
/// the self-test's deliberately broken recovery was NOT caught, and the
/// campaign must fail loudly rather than report success.
#[test]
fn campaign_inject_bug_unexpected_pass_exits_nonzero() {
    let out = temp_path("campaign_inject_pass.json");
    let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--quick",
            "--inject-bug",
            "--workload",
            "gpKVS",
            "--fuel",
            "0",
            "--policy",
            "none",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("run campaign");
    assert!(
        !status.success(),
        "a passing case under --inject-bug must exit non-zero"
    );
}

/// The same trivially-passing case without `--inject-bug` is a clean
/// repro run and must exit zero.
#[test]
fn campaign_clean_repro_case_exits_zero() {
    let out = temp_path("campaign_clean.json");
    let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--quick",
            "--workload",
            "gpKVS",
            "--fuel",
            "0",
            "--policy",
            "none",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("run campaign");
    assert!(status.success(), "clean repro case must exit zero");
}

/// Same seed ⇒ byte-identical BENCH_serve.json, and the quick sweep must
/// report a knee: some load meets the SLO, and some higher load both
/// blows p99 past the SLO and sheds.
#[test]
fn serve_quick_is_byte_deterministic_and_reports_a_knee() {
    let run = |path: &PathBuf| {
        let status = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--quick", "--out"])
            .arg(path)
            .status()
            .expect("run serve");
        assert!(status.success(), "serve --quick must exit zero");
        std::fs::read(path).expect("read serve JSON")
    };
    let a = run(&temp_path("serve_a.json"));
    let b = run(&temp_path("serve_b.json"));
    assert_eq!(a, b, "same seed must produce byte-identical JSON");

    let json = String::from_utf8(a).expect("utf-8 JSON");
    assert!(json.contains("\"schema\": \"gpm-serve-v2\""));
    // The scenario sections ride along on the full sweep.
    for section in ["\"replication\": {", "\"resharding\": {", "\"hostile\": {"] {
        assert!(json.contains(section), "missing section {section}");
    }
    // At least one sweep line found a finite knee and a first-overload
    // point (both are numbers, not null).
    let knees = json.split("\"knees\"").nth(1).expect("knees section");
    let has_number_after = |key: &str| {
        knees.split(key).nth(1).is_some_and(|rest| {
            rest.trim_start_matches([':', ' '])
                .starts_with(|c: char| c.is_ascii_digit())
        })
    };
    assert!(has_number_after("\"knee_load_mops\""), "no knee found");
    assert!(
        has_number_after("\"first_overload_mops\""),
        "no overload point found"
    );
    // Overload points shed explicitly: some point reports a non-zero shed
    // count alongside a p99 above the 500 us SLO.
    let overloaded = json.lines().any(|l| {
        l.contains("\"shed\": ")
            && !l.contains("\"shed\": 0,")
            && l.split("\"p99_us\": ")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|p99| p99 > 500.0)
    });
    assert!(overloaded, "sweep must contain an overloaded point");
}

/// `--trace` must write a Perfetto-loadable Chrome trace that is
/// byte-identical run to run, with a `gpm-trace-v1` footer whose
/// attributed bytes reconcile (the exporter asserts the per-phase sums
/// internally; here we check the file-level contract).
#[test]
fn serve_trace_is_byte_deterministic_and_well_formed() {
    let run = |out: &PathBuf, trace: &PathBuf| {
        let status = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--quick", "--out"])
            .arg(out)
            .arg("--trace")
            .arg(trace)
            .status()
            .expect("run serve");
        assert!(status.success(), "serve --quick --trace must exit zero");
        std::fs::read_to_string(trace).expect("read trace JSON")
    };
    let a = run(&temp_path("serve_t_a.json"), &temp_path("trace_a.json"));
    let b = run(&temp_path("serve_t_b.json"), &temp_path("trace_b.json"));
    assert_eq!(a, b, "trace must be byte-identical run to run");
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.contains("\"gpmTrace\""));
    assert!(a.contains("\"schema\":\"gpm-trace-v1\""));
    assert!(
        a.contains("\"name\":\"batch\",\"cat\":\"serve\""),
        "serve batch spans present"
    );
    assert!(
        a.contains("\"dropped_events\":0"),
        "the quick trace must fit the default ring"
    );
}

/// The Makefile's campaign/serve recipes must propagate the
/// binaries' exit codes: no `|| true`-style swallowing and no make `-`
/// ignore-error prefix, otherwise CI green-lights broken runs.
#[test]
fn makefile_recipes_do_not_swallow_exit_codes() {
    let makefile =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../Makefile"))
            .expect("read Makefile");
    let mut in_target = false;
    let mut recipe_lines = 0;
    for line in makefile.lines() {
        if !line.starts_with('\t') {
            in_target = ["campaign-quick", "serve-quick", "campaign", "serve"]
                .iter()
                .any(|t| line.starts_with(&format!("{t}:")));
            continue;
        }
        if !in_target {
            continue;
        }
        recipe_lines += 1;
        let cmd = line.trim_start();
        assert!(
            !cmd.contains("|| true") && !cmd.contains("|| :"),
            "recipe swallows exit code: {line:?}"
        );
        assert!(
            !cmd.starts_with('-'),
            "recipe ignores errors via make's '-' prefix: {line:?}"
        );
    }
    assert!(recipe_lines > 0, "expected campaign/serve recipes");
}

/// `--list-scenarios` must print exactly the scenario registry, one name
/// per line — CI greps this output before keying a matrix leg off a name,
/// so a drift between the flag and the registry breaks the gate loudly.
#[test]
fn serve_list_scenarios_prints_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--list-scenarios")
        .output()
        .expect("run serve");
    assert!(out.status.success(), "--list-scenarios must exit zero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, gpm_serve::scenario_names());
}

/// An unknown scenario name must exit 2 (usage error, distinct from a
/// failed gate) and point at `--list-scenarios`.
#[test]
fn serve_unknown_scenario_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--quick", "--scenario", "nosuch", "--out"])
        .arg(temp_path("scenario_nosuch.json"))
        .output()
        .expect("run serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown scenario"), "stderr: {stderr}");
    assert!(stderr.contains("--list-scenarios"), "stderr: {stderr}");
}

/// A single-scenario run is byte-deterministic and tags itself with the
/// scenario name and section — the unit CI's `cmp` gate depends on both.
#[test]
fn serve_single_scenario_is_byte_deterministic() {
    let run = |path: &PathBuf| {
        let status = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--quick", "--scenario", "failover", "--out"])
            .arg(path)
            .status()
            .expect("run serve");
        assert!(status.success(), "scenario failover must exit zero");
        std::fs::read(path).expect("read scenario JSON")
    };
    let a = run(&temp_path("scenario_fo_a.json"));
    let b = run(&temp_path("scenario_fo_b.json"));
    assert_eq!(a, b, "same seed must produce byte-identical scenario JSON");
    let json = String::from_utf8(a).unwrap();
    assert!(json.contains("\"schema\": \"gpm-serve-v2\""));
    assert!(json.contains("\"scenario\": \"failover\""));
    assert!(json.contains("\"section\": \"replication\""));
    assert!(json.contains("\"failover_gap_us\""));
}

/// `--inject-bug` has campaign self-test semantics: exit 0 iff the
/// consistency oracle caught the injected fabric corruption, and a usage
/// error (2) on scenarios that have no fabric to corrupt.
#[test]
fn serve_inject_bug_exit_semantics() {
    let run = |scenario: &str, file: &str| {
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--quick", "--scenario", scenario, "--inject-bug", "--out"])
            .arg(temp_path(file))
            .status()
            .expect("run serve")
    };
    assert!(
        run("replication", "scenario_rep_bug.json").success(),
        "a caught dropped-log-batch must exit zero"
    );
    assert!(
        run("resharding", "scenario_rs_bug.json").success(),
        "a caught dropped-migrated-key must exit zero"
    );
    assert_eq!(
        run("hot_key", "scenario_hk_bug.json").code(),
        Some(2),
        "--inject-bug on a scenario without a fabric is a usage error"
    );
}

/// `--help` prints the usage to stdout and exits 0; an unknown flag, a
/// missing value, a malformed or out-of-range value, an output path in a
/// missing directory or a flag combination the binary cannot run prints a
/// one-line reason plus the usage to stderr and exits 2 — never a panic,
/// and never after starting the run: no `reports/` and no `BENCH_*.json`
/// appears in the working directory.
#[test]
fn help_exits_zero_and_bad_input_exits_two() {
    let bins: [(&str, &[&[&str]]); 5] = [
        (
            env!("CARGO_BIN_EXE_serve"),
            &[
                &["--seed"],
                &["--seed", "x"],
                &["--slo-us", "nan"],
                &["--slo-us", "0"],
                &["--slo-us", "-5"],
                &["--quick", "--out", "missing/BENCH_serve.json"],
                &["--quick", "--trace", "missing/trace.json"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_campaign"),
            &[
                &["--fuel"],
                &["--fuel", "x"],
                &["--quick", "--out", "missing/BENCH_campaign.json"],
                &["--quick", "--trace", "missing/trace.json"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_gpmbench"),
            &[
                &["--mode"],
                &["--mode", "x"],
                &["--workload", "gpKVS", "--recover", "--mode", "cap-fs"],
            ],
        ),
        (env!("CARGO_BIN_EXE_table5"), &[]),
        (env!("CARGO_BIN_EXE_reproduce"), &[]),
    ];
    for (exe, bad_args) in bins {
        let name = Path::new(exe).file_stem().unwrap().to_str().unwrap();
        let cwd = temp_path(&format!("cwd_{name}"));
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).expect("create temp cwd");
        let run = |args: &[&str]| {
            Command::new(exe)
                .args(args)
                .current_dir(&cwd)
                .output()
                .expect("run bin")
        };

        let help = run(&["--help"]);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let stdout = String::from_utf8(help.stdout).unwrap();
        assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");

        let mut bad: Vec<&[&str]> = vec![&["--bogus"]];
        bad.extend(bad_args);
        for args in bad {
            let out = run(args);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            let mut lines = stderr.lines();
            let reason = lines.next().unwrap_or_default();
            assert!(reason.starts_with(&format!("{name}: ")), "{stderr}");
            assert!(
                lines.next().unwrap_or_default().starts_with("usage: "),
                "{stderr}"
            );
        }
        assert!(
            !cwd.join("reports").exists(),
            "{name} wrote reports/ before rejecting its command line"
        );
        let bench_files: Vec<String> = std::fs::read_dir(&cwd)
            .expect("list temp cwd")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|f| f.starts_with("BENCH_"))
            .collect();
        assert!(
            bench_files.is_empty(),
            "{name} wrote {bench_files:?} before rejecting its command line"
        );
    }
}
