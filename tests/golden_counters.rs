//! Golden-counter determinism gate.
//!
//! The engine's contract is that simulation is a pure function of the
//! machine configuration and seed: simulated elapsed times, statistics
//! counters, and crash outcomes are bit-identical run to run *and* release
//! to release. Hot-path rewrites (coalescing buffers, paged memory, fused
//! atomics) must not shift a single counter or nanosecond.
//!
//! The fixture below exercises every event class — coalesced and scattered
//! PM stores, PM loads, HBM traffic, fused atomics, system fences inside a
//! persistence window, and a mid-kernel crash — and its observable outcome
//! is pinned against committed golden values. If an engine change alters
//! the numbers, this test fails and the change must either be fixed or the
//! goldens deliberately re-pinned with a changelog entry explaining why the
//! model's output moved.

use gpm_core::{gpm_persist_begin, gpm_persist_end, GpmThreadExt};
use gpm_gpu::{launch, launch_with_fuel, FnKernel, LaunchConfig, LaunchError, ThreadCtx};
use gpm_sim::{Addr, Machine, MachineConfig, PersistencyModel, Stats};

/// Committed fingerprint of the fixture's outcome under strict persistency
/// (the default). Regenerate by running the
/// `golden_counters_match_committed_values` test and copying the "actual"
/// string from the failure message.
const GOLDEN: &str = "pm_write_bytes_gpu=4136 \
     pm_read_bytes_gpu=2048 \
     pcie_write_txns=280 \
     system_fences=256 \
     bytes_persisted=16384 \
     kernel_launches=4 \
     crashes=1 \
     pm_block_programs=280 \
     hbm_ctr=256 \
     crash_applied=117 \
     crash_dropped=144 \
     elapsed_ns_bits=0x40d7306db6db6db7";

/// Committed fingerprint under epoch persistency. Fences close lines into
/// the open epoch instead of draining them, the deferred drain lands at
/// each kernel boundary, and the mid-kernel crash resolves
/// closed-but-undrained lines through the seeded RNG — so fence timing,
/// `bytes_persisted`, and the applied/dropped split all legitimately
/// differ from the strict goldens above.
const GOLDEN_EPOCH: &str = "pm_write_bytes_gpu=4136 \
     pm_read_bytes_gpu=2048 \
     pcie_write_txns=280 \
     system_fences=256 \
     bytes_persisted=2048 \
     kernel_launches=4 \
     crashes=1 \
     pm_block_programs=280 \
     hbm_ctr=256 \
     crash_applied=117 \
     crash_dropped=144 \
     elapsed_ns_bits=0x40d755edb6db6db7";

fn fingerprint(stats: &Stats, hbm_ctr: u32, applied: u64, dropped: u64, elapsed_ns: f64) -> String {
    format!(
        "pm_write_bytes_gpu={} \
         pm_read_bytes_gpu={} \
         pcie_write_txns={} \
         system_fences={} \
         bytes_persisted={} \
         kernel_launches={} \
         crashes={} \
         pm_block_programs={} \
         hbm_ctr={} \
         crash_applied={} \
         crash_dropped={} \
         elapsed_ns_bits={:#018x}",
        stats.pm_write_bytes_gpu,
        stats.pm_read_bytes_gpu,
        stats.pcie_write_txns,
        stats.system_fences,
        stats.bytes_persisted,
        stats.kernel_launches,
        stats.crashes,
        stats.pm_block_programs,
        hbm_ctr,
        applied,
        dropped,
        elapsed_ns.to_bits(),
    )
}

/// A fixed workload touching every counter class the engine maintains, with
/// every launch under `model`.
fn run_fixture(model: PersistencyModel) -> String {
    let cfg = |grid, block| LaunchConfig::new(grid, block).with_persistency(model);
    let mut m = Machine::new(MachineConfig::default().with_seed(0xD5));
    let pm = m.alloc_pm(1 << 22).unwrap();
    let hbm = m.alloc_hbm(1 << 12).unwrap();

    // 1. Coalesced persisted stores: 256 threads, 8 bytes each, warp-fenced
    //    inside a persistence window.
    gpm_persist_begin(&mut m);
    let k1 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(pm + i * 8), i ^ 0x5A5A)?;
        ctx.gpm_persist()
    });
    launch(&mut m, cfg(4, 64), &k1).unwrap();
    gpm_persist_end(&mut m);

    // 2. Scattered stores (one transaction each) plus coalesced loads and
    //    HBM traffic, including a fused PM atomic per thread.
    let k2 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.st_u32(Addr::pm(pm + (1 << 16) + i * 4096), i as u32)?;
        let v = ctx.ld_u32(Addr::pm(pm + i * 4))?;
        ctx.st_u32(Addr::hbm(hbm + i * 4), v)?;
        ctx.atomic_add_u32(Addr::hbm(hbm + (1 << 11)), 1)?;
        ctx.atomic_add_u32(Addr::pm(pm + (1 << 20)), 1).map(|_| ())
    });
    launch(&mut m, cfg(8, 32), &k2).unwrap();
    let hbm_ctr = m.read_u32(Addr::hbm(hbm + (1 << 11))).unwrap();

    // 3. A crash mid-kernel: unfenced lines resolve through the seeded RNG,
    //    so the applied/dropped split is part of the fingerprint.
    let k3 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(pm + (1 << 21) + i * 64), i)?;
        ctx.threadfence()
    });
    let (applied, dropped) = match launch_with_fuel(&mut m, cfg(1, 32), &k3, 9) {
        Err(LaunchError::Crashed(r)) => (r.lines_applied, r.lines_dropped),
        other => panic!("fixture expected a crash, got {other:?}"),
    };

    // 4. Post-crash read-back, so recovery traffic is metered too.
    let k4 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.ld_u64(Addr::pm(pm + i * 8)).map(|_| ())
    });
    launch(&mut m, cfg(4, 32), &k4).unwrap();

    fingerprint(&m.stats, hbm_ctr, applied, dropped, m.clock.now().0)
}

const MODELS: [PersistencyModel; 2] = [PersistencyModel::Strict, PersistencyModel::Epoch];

#[test]
fn fixture_is_deterministic_within_a_process() {
    for model in MODELS {
        assert_eq!(
            run_fixture(model),
            run_fixture(model),
            "two identical {model:?} runs diverged"
        );
    }
}

#[test]
fn golden_counters_match_committed_values() {
    for (model, golden) in MODELS.into_iter().zip([GOLDEN, GOLDEN_EPOCH]) {
        let actual = run_fixture(model);
        assert_eq!(
            actual, golden,
            "\n{model:?} engine output drifted from the committed goldens\n actual: {actual}\n golden: {golden}\n"
        );
    }
}
