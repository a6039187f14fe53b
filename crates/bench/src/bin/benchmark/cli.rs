//! Command-line parsing. Every malformed input is a usage error (the
//! caller exits 2), never a panic.

use crate::workloads::WorkloadKind;

pub const USAGE: &str = "\
usage: benchmark [options]

Host wall-clock benchmark of the GPM simulator. Runs each selected
workload for a number of timed passes on fresh machines, checks every
output, and prints every metric by name and unit; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.

options:
  --workload NAME     run NAME (repeatable; default: every workload); with
                      several, each runs in a process of its own
  --list-workloads    print the workload names and exit
  --seed N            input seed (default 1)
  --passes N          timed passes per workload (default 5)
  --seconds S         instead of --passes: run passes while the next one
                      is expected to end within S seconds of the
                      workload's start (at least 3 passes)
  --trace 0|1         1: a traced run; report per-layer metrics instead of
                      end-to-end ones (default 0)
  --trace-out PATH    with --trace 1 and one --workload: write the spans
                      as Chrome trace JSON
  --out PATH          also write the result JSON object to PATH
  -h, --help          print this help and exit

GPM_ENGINE_THREADS and GPM_PERSISTENCY must be unset: the benchmark
measures the simulator's defaults.";

/// How many passes a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many passes.
    Passes(u32),
    /// Passes that fit in this many seconds (minimum [`MIN_PASSES`]).
    Seconds(f64),
}

/// Fewest passes a `--seconds` budget runs.
pub const MIN_PASSES: u32 = 3;

/// A validated benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workloads: Vec<WorkloadKind>,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub out: Option<String>,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Help,
    ListWorkloads,
    Run(Opts),
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a valid value"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns the usage error to print for an unknown flag, a missing or
/// malformed value, or an unknown workload.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut passes: Option<u32> = None;
    let mut seconds: Option<f64> = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--list-workloads" => return Ok(Command::ListWorkloads),
            "--workload" => {
                let name = value(a, &mut it)?;
                let kind = WorkloadKind::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload {name:?}; try --list-workloads ({})",
                        WorkloadKind::ALL.map(WorkloadKind::name).join(", ")
                    )
                })?;
                if !workloads.contains(&kind) {
                    workloads.push(kind);
                }
            }
            "--seed" => seed = number(a, value(a, &mut it)?)?,
            "--passes" => {
                let n: u32 = number(a, value(a, &mut it)?)?;
                if n == 0 {
                    return Err("--passes must be at least 1".into());
                }
                passes = Some(n);
            }
            "--seconds" => {
                let s: f64 = number(a, value(a, &mut it)?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value(a, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value(a, &mut it)?.clone()),
            "--out" => out = Some(value(a, &mut it)?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if trace_out.is_some() && !(trace && workloads.len() == 1) {
        return Err("--trace-out needs --trace 1 and exactly one --workload".into());
    }
    let budget = match (passes, seconds) {
        (Some(_), Some(_)) => return Err("give --passes or --seconds, not both".into()),
        (Some(n), None) => Budget::Passes(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Passes(5),
    };
    if workloads.is_empty() {
        workloads = WorkloadKind::ALL.to_vec();
    }
    Ok(Command::Run(Opts {
        workloads,
        seed,
        budget,
        trace,
        trace_out,
        out,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run(args: &[&str]) -> Opts {
        match p(args) {
            Ok(Command::Run(o)) => o,
            other => panic!("{args:?} -> {other:?}"),
        }
    }

    #[test]
    fn defaults_run_every_workload_for_five_passes() {
        let o = run(&[]);
        assert_eq!(o.workloads, WorkloadKind::ALL.to_vec());
        assert_eq!((o.seed, o.budget, o.trace), (1, Budget::Passes(5), false));
        assert_eq!((o.trace_out, o.out), (None, None));
    }

    #[test]
    fn full_invocation_parses() {
        let o = run(&[
            "--workload",
            "kvs_detect",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--trace-out",
            "t.json",
        ]);
        assert_eq!(o.workloads, vec![WorkloadKind::KvsDetect]);
        assert_eq!(
            (o.seed, o.budget, o.trace),
            (7, Budget::Seconds(20.0), true)
        );
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn workload_is_repeatable_and_deduplicated() {
        let o = run(&[
            "--workload",
            "crash_campaign",
            "--workload",
            "fleet_train",
            "--workload",
            "crash_campaign",
            "--passes",
            "2",
            "--out",
            "r.json",
        ]);
        assert_eq!(
            o.workloads,
            vec![WorkloadKind::CrashCampaign, WorkloadKind::FleetTrain]
        );
        assert_eq!(o.budget, Budget::Passes(2));
        assert_eq!(o.out.as_deref(), Some("r.json"));
    }

    #[test]
    fn help_and_list_short_circuit() {
        assert_eq!(p(&["--help"]), Ok(Command::Help));
        assert_eq!(p(&["--seed", "3", "-h"]), Ok(Command::Help));
        assert_eq!(p(&["--list-workloads"]), Ok(Command::ListWorkloads));
    }

    #[test]
    fn malformed_input_is_a_usage_error() {
        for bad in [
            &["--bogus"][..],
            &["--workload"],
            &["--workload", "nosuch"],
            &["--seed", "-1"],
            &["--seed", "x"],
            &["--passes", "0"],
            &["--seconds", "0"],
            &["--seconds", "NaN"],
            &["--passes", "2", "--seconds", "3"],
            &["--trace", "yes"],
            &["--trace-out", "t.json"],
            &["--trace", "1", "--trace-out", "t.json"],
            &[
                "--workload",
                "kvs_detect",
                "--workload",
                "fleet_train",
                "--trace",
                "1",
                "--trace-out",
                "t.json",
            ],
            &["--out"],
        ] {
            assert!(p(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = p(&["--workload", "nosuch"]).unwrap_err();
        assert!(err.contains("--list-workloads"), "{err}");
    }
}
