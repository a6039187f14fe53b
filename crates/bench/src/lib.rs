//! # gpm-bench — the evaluation harness
//!
//! Regenerates every figure and table of the GPM paper's evaluation against
//! the simulated platform. One binary per experiment (like the artifact's
//! `make figure_9` targets) plus `reproduce`, which runs them all and writes
//! tab-separated reports under `reports/`:
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig1a` | Figure 1a — pKVS throughput |
//! | `fig1b` | Figure 1b — GPM vs CPU-with-PM apps |
//! | `fig3` | Figure 3 — persist scaling |
//! | `fig9` | Figure 9 — CAP-mm/GPM/GPUfs over CAP-fs |
//! | `fig10` | Figure 10 — NDP & eADR analysis |
//! | `fig11a`/`fig11b` | Figure 11 — HCL vs conventional logging |
//! | `fig12` | Figure 12 — PCIe write bandwidth |
//! | `table4` | Table 4 — write amplification |
//! | `table5` | Table 5 — restoration latency |
//! | `campaign` | §6.2 — systematic crash-point enumeration with recovery oracles |
//!
//! Pass `--quick` to any binary for scaled-down inputs.

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod microbench;
pub mod report;

pub use report::Report;

use cli::Usage;
use gpm_workloads::Scale;

/// Parses the command line of a figure or table binary, whose one flag is
/// `--quick` (scaled-down inputs): `--help` prints the usage and exits 0,
/// and any other argument is a usage error (exit 2).
pub fn scale_from_args() -> Scale {
    let mut args = std::env::args();
    let argv0 = args.next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("gpm-bench");
    let text = format!("usage: {bin} [--quick]");
    let usage = Usage { bin, text: &text };
    let mut scale = Scale::Full;
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--help" => usage.help(),
            other => usage.fail(format!("unknown flag {other:?}")),
        }
    }
    scale
}

/// Runs one report generator: prints the pretty table and saves the TSV
/// under `reports/`.
pub fn emit(report: &Report) {
    println!("{}", report.to_pretty());
    let dir = std::path::Path::new("reports");
    match report.save(dir) {
        Ok(()) => println!("(saved reports/{}.txt)\n", report.name),
        Err(e) => eprintln!("warning: could not save report: {e}"),
    }
}
