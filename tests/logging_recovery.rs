//! Integration tests of HCL's failure-atomicity invariant (§5.2) under
//! arbitrary crash points, plus property tests of the striped layout.

use gpm_core::{gpm_persist_begin, gpmlog_create_hcl, gpmlog_open};
use gpm_gpu::{launch, launch_with_fuel, FnKernel, LaunchConfig, LaunchError, ThreadCtx};
use gpm_integration::{check, range, CASES};
use gpm_sim::{Machine, MachineConfig};

/// The HCL invariant: after any crash, each thread's tail is a multiple of
/// the entry size and every entry below the tail reads back intact.
fn crash_and_check(fuel: u64, entry_len: usize, threads: u32, seed: u64) {
    let mut m = Machine::new(MachineConfig::default().with_seed(seed));
    let log = gpmlog_create_hcl(&mut m, "/pm/t_log", 1 << 18, 4, threads).unwrap();
    gpm_persist_begin(&mut m);
    let dev = log.dev();
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let tid = ctx.global_id();
        // Each thread inserts two entries derived from its id.
        for round in 0..2u64 {
            let mut entry = vec![0u8; entry_len];
            for (j, b) in entry.iter_mut().enumerate() {
                *b = (tid as u8)
                    .wrapping_mul(31)
                    .wrapping_add(j as u8)
                    .wrapping_add(round as u8);
            }
            dev.insert(ctx, &entry)?;
        }
        Ok(())
    });
    let cfg = LaunchConfig::new(4, threads);
    match launch_with_fuel(&mut m, cfg, &k, fuel) {
        Ok(_) => {
            m.crash();
        }
        Err(LaunchError::Crashed(_)) => {}
        Err(LaunchError::Sim(e)) => panic!("{e}"),
    }

    // Reopen as recovery would.
    let log = gpmlog_open(&m, "/pm/t_log").unwrap();
    let dev = log.dev();
    let chunks = gpm_core::GpmLogDev::chunks_for(entry_len) as u32;
    for tid in 0..cfg.total_threads() {
        let tail = log.host_tail(&m, tid).unwrap();
        assert!(
            tail.is_multiple_of(chunks),
            "tid {tid}: tail {tail} is not a whole number of {chunks}-chunk entries"
        );
    }
    // Entries below the tail must be intact: verify via a read-back kernel.
    gpm_persist_begin(&mut m);
    let check = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let tid = ctx.global_id();
        let tail = dev.tail(ctx)?;
        let entries = tail / chunks;
        for e in 0..entries {
            let round = (entries - 1 - e) as u64; // newest first
            let mut buf = vec![0u8; entry_len];
            dev.read_top(ctx, &mut buf)?;
            for (j, b) in buf.iter().enumerate() {
                assert_eq!(
                    *b,
                    (tid as u8)
                        .wrapping_mul(31)
                        .wrapping_add(j as u8)
                        .wrapping_add(round as u8),
                    "tid {tid} entry {e} byte {j} corrupt after crash"
                );
            }
            dev.remove(ctx, entry_len)?;
        }
        Ok(())
    });
    launch(&mut m, cfg, &check).unwrap();
}

#[test]
fn hcl_entries_atomic_under_many_crash_points() {
    for fuel in [17, 150, 999, 4_321, 20_000, 100_000] {
        for seed in [1u64, 2, 3] {
            crash_and_check(fuel, 24, 64, seed);
        }
    }
}

#[test]
fn hcl_atomicity_across_entry_sizes() {
    for entry_len in [4usize, 8, 12, 24, 64, 100] {
        crash_and_check(2_500, entry_len, 32, 7);
    }
}

/// Arbitrary fuel and entry size: the tail-sentinel invariant always
/// holds.
#[test]
fn hcl_invariant_holds_for_arbitrary_crashes() {
    check(
        "hcl_invariant_holds_for_arbitrary_crashes",
        CASES,
        0,
        |rng, _| {
            (
                range(rng, 1, 30_000),
                range(rng, 1, 20) as usize,
                rng.next_u64(),
            )
        },
        |&(fuel, entry_words, seed)| {
            crash_and_check(fuel, entry_words * 4, 32, seed);
            Ok(())
        },
    );
}

#[test]
fn conventional_log_survives_reopen() {
    let mut m = Machine::default();
    let log = gpm_core::gpmlog_create_conv(&mut m, "/pm/conv_log", 1 << 16, 4).unwrap();
    gpm_persist_begin(&mut m);
    let dev = log.dev();
    launch(
        &mut m,
        LaunchConfig::new(1, 32),
        &FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if ctx.global_id() == 0 {
                dev.insert_to(ctx, &1234u64.to_le_bytes(), 2)?;
            }
            Ok(())
        }),
    )
    .unwrap();
    m.crash();
    let log = gpmlog_open(&m, "/pm/conv_log").unwrap();
    assert_eq!(
        log.host_tail(&m, 2).unwrap(),
        12,
        "len header + 8-byte entry"
    );
    let dev = log.dev();
    gpm_persist_begin(&mut m);
    launch(
        &mut m,
        LaunchConfig::new(1, 32),
        &FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if ctx.global_id() == 0 {
                let mut buf = [0u8; 8];
                dev.read_top_from(ctx, &mut buf, 2)?;
                assert_eq!(u64::from_le_bytes(buf), 1234);
            }
            Ok(())
        }),
    )
    .unwrap();
}
