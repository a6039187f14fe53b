//! Native persistence: crash a BFS mid-traversal and *resume* it (§4.3).
//!
//! Run with: `cargo run --example crash_recovery_bfs`
//!
//! The kernel persists each discovered node's cost and the search sequence
//! in place; after an injected crash, the traversal continues from the last
//! completed level instead of restarting — the new capability GPM's
//! in-kernel persistence enables. Each crash goes through the workload's
//! recovery oracle, the same path the crash-consistency campaign drives.

use gpm_sim::{CrashPolicy, Machine, SimError};
use gpm_workloads::{BfsParams, BfsWorkload, Mode, RecoveryOracle};

fn main() -> Result<(), SimError> {
    let params = BfsParams {
        width: 128,
        height: 128,
        ..BfsParams::default()
    };
    let mut workload = BfsWorkload::new(params);

    // A clean run, for reference.
    let mut machine = Machine::default();
    let clean = workload.run(&mut machine, Mode::Gpm)?;
    println!(
        "clean traversal: {} ({} bytes persisted in place), costs correct: {}",
        clean.elapsed, clean.pm_write_bytes_gpu, clean.verified
    );

    // Now crash it at several points, resume each time, and judge the final
    // costs against the host reference.
    for fuel in [5_000u64, 50_000, 500_000] {
        let mut machine = Machine::default();
        let verdict = workload.run_case(&mut machine, fuel, CrashPolicy::Random(fuel))?;
        println!("crash after ~{fuel} GPU ops -> resume, verdict: {verdict:?}");
        assert!(
            verdict.passed(),
            "resume must complete the traversal exactly"
        );
    }

    // The same workload under CAP round-trips the cost array through the
    // CPU every level — compare.
    let mut machine = Machine::default();
    let cap = workload.run(&mut machine, Mode::CapFs)?;
    println!(
        "CAP-fs needs {} ({:.1}x GPM) and moves {:.1} MB to PM",
        cap.elapsed,
        cap.elapsed / clean.elapsed,
        cap.pm_write_bytes_total() as f64 / 1e6
    );
    Ok(())
}
