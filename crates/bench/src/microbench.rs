//! Microbenchmarks used by the scaling and logging figures.

use gpm_core::{
    gpm_persist_begin, gpm_persist_end, gpmlog_create_conv, gpmlog_create_hcl, GpmThreadExt,
};
use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_sim::{Addr, Machine, MachineConfig, Ns, SimResult};

/// §3.2 microbenchmark, CAP-mm side: write and persist `bytes` from the GPU
/// to PM through the CPU with `threads` persisting threads. Returns elapsed
/// simulated time.
///
/// # Errors
///
/// Propagates platform errors.
pub fn persist_cap_mm(bytes: u64, threads: u32) -> SimResult<Ns> {
    let mut m = Machine::default();
    let hbm = m.alloc_hbm(bytes)?;
    let dram = m.alloc_dram(bytes)?;
    let pm = m.alloc_pm(bytes)?;
    m.host_write(Addr::hbm(hbm), &vec![0xA5u8; bytes as usize])?;
    gpm_cap::cap_persist_region(
        &mut m,
        gpm_cap::CapFlavor::Mm { threads },
        hbm,
        dram,
        pm,
        bytes,
    )
}

/// §3.2 microbenchmark, GPM side: `gpu_threads` GPU threads write and
/// persist `bytes` of data at an 8-byte granularity (each write followed by
/// a system-scope persist). Returns elapsed simulated time.
///
/// # Errors
///
/// Propagates platform errors.
pub fn persist_gpm(bytes: u64, gpu_threads: u64) -> SimResult<Ns> {
    let mut m = Machine::default();
    let pm = m.alloc_pm(bytes)?;
    let per_thread = bytes / 8 / gpu_threads;
    gpm_persist_begin(&mut m);
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let t = ctx.global_id();
        if t >= gpu_threads {
            return Ok(());
        }
        for j in 0..per_thread {
            // Warp-interleaved layout: lane l of warp w writes the j-th
            // 8-byte word of the warp's j-th 256-byte chunk — so each
            // lockstep store coalesces.
            let warp = t / 32;
            let lane = t % 32;
            let warp_span = per_thread * 32 * 8;
            let off = warp * warp_span + j * 256 + lane * 8;
            ctx.st_u64(Addr::pm(pm + off), j)?;
            ctx.gpm_persist()?;
        }
        Ok(())
    });
    let r = launch(
        &mut m,
        LaunchConfig::for_elements(gpu_threads, 256.min(gpu_threads as u32)),
        &k,
    )?;
    gpm_persist_end(&mut m);
    Ok(r.elapsed)
}

/// Figure 11(b) microbenchmark: a fixed batch of `total_entries` 32-byte
/// records is logged by `threads` concurrent GPU threads into an HCL or
/// conventional log. Returns elapsed simulated time.
///
/// With more threads, HCL's latency stays stable (lock-free, coalesced
/// inserts hide behind parallelism) while conventional logging's lock
/// contention makes it jump — the paper's Figure 11(b).
///
/// # Errors
///
/// Propagates platform errors.
pub fn logging_microbench(
    hcl: bool,
    threads: u64,
    total_entries: u64,
    partitions: u32,
) -> SimResult<Ns> {
    let mut m = Machine::default();
    let cfg = LaunchConfig::for_elements(threads, 256.min(threads as u32));
    let entry = [0x42u8; 32];
    let per_thread = total_entries.div_ceil(threads);
    let size = cfg.total_threads() * 32 * (per_thread + 1);
    let log = if hcl {
        gpmlog_create_hcl(&mut m, "/pm/ubench_log", size, cfg.grid, cfg.block)
    } else {
        gpmlog_create_conv(
            &mut m,
            "/pm/ubench_log",
            size.max(total_entries * 64),
            partitions,
        )
    }
    .map_err(|_| gpm_sim::SimError::Invalid("log creation failed"))?;
    let dev = log.dev();
    gpm_persist_begin(&mut m);
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        if ctx.global_id() >= threads {
            return Ok(());
        }
        for _ in 0..per_thread {
            dev.insert(ctx, &entry)?;
        }
        Ok(())
    });
    let r = launch(&mut m, cfg, &k)?;
    gpm_persist_end(&mut m);
    Ok(r.elapsed)
}

/// §6.1 PM bandwidth microbenchmark: streaming GPU writes under three
/// patterns. Returns achieved GB/s.
///
/// # Errors
///
/// Propagates platform errors.
pub fn pm_bandwidth(pattern: PatternKind, bytes: u64) -> SimResult<f64> {
    let mut m = Machine::default();
    let pm = m.alloc_pm(bytes * 2)?;
    gpm_persist_begin(&mut m);
    // Sequential writers stream 256-byte chunks; random writers scatter
    // cache-line-sized accesses (no two land adjacently).
    let chunk: u64 = if pattern == PatternKind::Random {
        64
    } else {
        256
    };
    let n = bytes / chunk;
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        if i >= n {
            return Ok(());
        }
        let off = match pattern {
            PatternKind::SeqAligned => i * chunk,
            PatternKind::SeqUnaligned => i * chunk + 64,
            PatternKind::Random => {
                let slots = (bytes * 2 - chunk) / 256;
                (gpm_pmkv::hash64(i) % slots) * 256 + 64
            }
        };
        let buf = [0x5Au8; 256];
        ctx.st_bytes(Addr::pm(pm + off), &buf[..chunk as usize])?;
        if pattern == PatternKind::Random {
            // Scattered writers persist as they go.
            ctx.gpm_persist()?;
        }
        Ok(())
    });
    let r = launch(&mut m, LaunchConfig::for_elements(n, 256), &k)?;
    gpm_persist_end(&mut m);
    Ok(bytes as f64 / r.elapsed.0)
}

/// Access pattern selector for [`pm_bandwidth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Sequential, 256-byte aligned.
    SeqAligned,
    /// Sequential, misaligned by 64 bytes.
    SeqUnaligned,
    /// Random 256-byte blocks.
    Random,
}

/// Builds an eADR-mode machine (for GPM-eADR / CAP-eADR projections).
pub fn eadr_machine() -> Machine {
    Machine::new(MachineConfig::default().with_eadr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_mm_scaling_saturates() {
        let bytes = 8 << 20;
        let t1 = persist_cap_mm(bytes, 1).unwrap();
        let t64 = persist_cap_mm(bytes, 64).unwrap();
        let s = t1 / t64;
        assert!(s > 1.3 && s < 1.6, "Fig 3a plateau ≈ 1.47, got {s:.2}");
    }

    #[test]
    fn gpm_scaling_crosses_cap() {
        let bytes = 4 << 20;
        let cap1 = persist_cap_mm(bytes, 1).unwrap();
        let gpm32 = persist_gpm(bytes, 32).unwrap();
        let gpm1024 = persist_gpm(bytes, 1024).unwrap();
        assert!(
            gpm32 > cap1,
            "few GPU threads lose to one CPU thread (Fig 3b)"
        );
        assert!(gpm1024 < cap1, "many GPU threads win (Fig 3b)");
        let plateau = cap1 / gpm1024;
        assert!(
            plateau > 2.0 && plateau < 6.5,
            "Fig 3b plateau ≈ 4, got {plateau:.2}"
        );
    }

    #[test]
    fn hcl_beats_conventional_logging() {
        let conv = logging_microbench(false, 8_192, 32_768, 64).unwrap();
        let hcl = logging_microbench(true, 8_192, 32_768, 64).unwrap();
        let s = conv / hcl;
        assert!(s > 2.0, "Fig 11: HCL speedup, got {s:.2}");
    }

    #[test]
    fn conventional_latency_grows_with_threads_hcl_does_not() {
        // Fixed total work, varying concurrency — the Figure 11(b) sweep.
        let total = 32_768;
        let conv_small = logging_microbench(false, 2_048, total, 64).unwrap();
        let conv_big = logging_microbench(false, 16_384, total, 64).unwrap();
        let hcl_small = logging_microbench(true, 2_048, total, 64).unwrap();
        let hcl_big = logging_microbench(true, 16_384, total, 64).unwrap();
        let conv_growth = conv_big / conv_small;
        let hcl_growth = hcl_big / hcl_small;
        assert!(
            conv_growth > 1.5,
            "conventional latency jumps: {conv_growth:.2}"
        );
        assert!(
            hcl_growth < 1.5,
            "HCL latency stays near-stable: {hcl_growth:.2}"
        );
        assert!(
            conv_big / hcl_big > 3.0,
            "HCL wins at scale (paper: ≈3.6× avg)"
        );
    }

    /// Logs `per_thread` 32-byte entries from each of `threads` threads
    /// into a striped or unstriped HCL log, returning the elapsed time and
    /// the PM block programs.
    fn hcl_striping_run(striped: bool, threads: u64, per_thread: u64) -> (Ns, u64) {
        let mut m = Machine::default();
        let cfg = LaunchConfig::for_elements(threads, 256);
        let size = threads * 32 * (per_thread + 1);
        let create = if striped {
            gpmlog_create_hcl
        } else {
            gpm_core::gpmlog_create_hcl_unstriped
        };
        let dev = create(&mut m, "/pm/e", size, cfg.grid, cfg.block)
            .unwrap()
            .dev();
        gpm_persist_begin(&mut m);
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            for _ in 0..per_thread {
                dev.insert(ctx, &[0x42u8; 32])?;
            }
            Ok(())
        });
        let r = launch(&mut m, cfg, &k).unwrap();
        (r.elapsed, m.stats.pm_block_programs)
    }

    #[test]
    fn hcl_improves_nvm_endurance() {
        // §5.2: coalesced log writes also improve NVM endurance — fewer
        // 256-byte block programs for the same logged bytes.
        let (_, hcl) = hcl_striping_run(true, 4_096, 1);
        let (_, unstriped) = hcl_striping_run(false, 4_096, 1);
        assert!(
            hcl < unstriped,
            "striping coalesces programs: {hcl} vs {unstriped}"
        );
    }

    #[test]
    fn striping_is_what_makes_hcl_fast() {
        // The DESIGN.md ablation: HCL without striping keeps the lock-free
        // hierarchy but loses hardware coalescing — warp stores scatter
        // over 32 lines each.
        let (striped, _) = hcl_striping_run(true, 8_192, 4);
        let (unstriped, _) = hcl_striping_run(false, 8_192, 4);
        let s = unstriped / striped;
        assert!(s > 2.0, "striping should matter: {s:.2}x");
    }

    #[test]
    fn pm_pattern_bandwidths_match_section61() {
        let aligned = pm_bandwidth(PatternKind::SeqAligned, 8 << 20).unwrap();
        let unaligned = pm_bandwidth(PatternKind::SeqUnaligned, 8 << 20).unwrap();
        let random = pm_bandwidth(PatternKind::Random, 4 << 20).unwrap();
        assert!(aligned > 10.0, "≈12.5 GB/s, got {aligned:.2}");
        assert!(
            unaligned > 2.0 && unaligned < 5.0,
            "≈3.13 GB/s, got {unaligned:.2}"
        );
        assert!(random < 1.2, "≈0.72 GB/s, got {random:.2}");
        assert!(aligned > unaligned && unaligned > random);
    }
}
