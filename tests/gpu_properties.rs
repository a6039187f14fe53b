//! Property tests of the execution engine's conservation laws:
//! coalescing may merge accesses but never lose bytes, and the timing model
//! is monotone in work.

use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_integration::{check, len, range, CASES};
use gpm_sim::{Addr, Machine, Ns};

/// Bytes are conserved: the kernel's PM-write byte count equals the sum
/// of the stores the threads issued, whatever the coalescer did to the
/// transaction count.
#[test]
fn coalescing_conserves_bytes() {
    check(
        "coalescing_conserves_bytes",
        CASES,
        0,
        |rng, _| {
            let threads = range(rng, 1, 300);
            // Disjoint per-thread regions: only strides at least as wide as
            // the store are drawn.
            let width = [4usize, 8, 12, 32][rng.gen_range_usize(4)];
            let strides: Vec<u64> = [4, 8, 16, 64, 128, 256, 4096]
                .into_iter()
                .filter(|&s| s >= width as u64)
                .collect();
            (threads, strides[rng.gen_range_usize(strides.len())], width)
        },
        |&(threads, stride, width)| {
            let mut m = Machine::default();
            let span = threads * stride + width as u64;
            let pm = m.alloc_pm(span.max(4096)).unwrap();
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                if i >= threads {
                    return Ok(());
                }
                ctx.st_bytes(Addr::pm(pm + i * stride), &vec![0xCD; width])
            });
            let r = launch(&mut m, LaunchConfig::for_elements(threads, 128), &k).unwrap();
            assert_eq!(r.costs.pm_write_bytes, threads * width as u64);
            // Transactions never exceed stores (coalescing only merges) and
            // cover at least bytes/128.
            let min_txns = (threads * width as u64).div_ceil(128);
            assert!(r.costs.pcie_write_txns >= min_txns.min(threads));
            assert!(r.costs.pcie_write_txns <= threads * width.div_ceil(4) as u64);
            Ok(())
        },
    );
}

/// Dense warp writes coalesce maximally: 32 lanes × 4 bytes contiguous
/// is exactly one transaction per warp.
#[test]
fn dense_warp_writes_fully_coalesce() {
    check(
        "dense_warp_writes_fully_coalesce",
        CASES,
        0,
        |rng, _| range(rng, 1, 20) as u32,
        |&warps| {
            let mut m = Machine::default();
            let pm = m.alloc_pm(warps as u64 * 128 + 256).unwrap();
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                ctx.st_u32(Addr::pm(pm + i * 4), i as u32)
            });
            let r = launch(&mut m, LaunchConfig::new(warps, 32), &k).unwrap();
            assert_eq!(r.costs.pcie_write_txns, warps as u64);
            Ok(())
        },
    );
}

/// The written data is readable back exactly (functional correctness of
/// the coalescing path).
#[test]
fn stores_round_trip() {
    check(
        "stores_round_trip",
        CASES,
        0,
        |rng, _| (range(rng, 1, 200), rng.next_u64()),
        |&(threads, seed)| {
            let mut m = Machine::default();
            let pm = m.alloc_pm(threads * 8 + 64).unwrap();
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                if i >= threads {
                    return Ok(());
                }
                ctx.st_u64(Addr::pm(pm + i * 8), seed ^ i)
            });
            launch(&mut m, LaunchConfig::for_elements(threads, 64), &k).unwrap();
            for i in 0..threads {
                assert_eq!(m.read_u64(Addr::pm(pm + i * 8)).unwrap(), seed ^ i);
            }
            Ok(())
        },
    );
}

/// Elapsed time is monotone in compute work.
#[test]
fn timing_monotone_in_compute() {
    check(
        "timing_monotone_in_compute",
        CASES,
        0,
        |rng, _| (range(rng, 1, 50), range(rng, 1, 200)),
        |&(base_us, extra_us)| {
            let run = |us: u64| -> Ns {
                let mut m = Machine::default();
                let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                    ctx.compute(Ns::from_micros(us as f64));
                    Ok(())
                });
                launch(&mut m, LaunchConfig::new(4, 128), &k)
                    .unwrap()
                    .elapsed
            };
            let t1 = run(base_us);
            let t2 = run(base_us + extra_us);
            assert!(t2 > t1, "{t1} !< {t2}");
            Ok(())
        },
    );
}

/// Elapsed time is monotone in PM traffic.
#[test]
fn timing_monotone_in_pm_traffic() {
    check(
        "timing_monotone_in_pm_traffic",
        CASES,
        0,
        |rng, _| range(rng, 1, 64),
        |&kb| {
            let run = |bytes: u64| -> Ns {
                let mut m = Machine::default();
                let pm = m.alloc_pm(bytes * 2 + 4096).unwrap();
                let n = bytes / 8;
                let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                    let i = ctx.global_id();
                    if i >= n {
                        return Ok(());
                    }
                    ctx.st_u64(Addr::pm(pm + i * 8), i)
                });
                launch(&mut m, LaunchConfig::for_elements(n.max(1), 128), &k)
                    .unwrap()
                    .elapsed
            };
            let t1 = run(kb * 1024);
            let t2 = run(kb * 4096);
            assert!(t2 >= t1);
            Ok(())
        },
    );
}

/// The machine allocator returns non-overlapping, 256-byte-aligned
/// regions.
#[test]
fn allocator_regions_disjoint() {
    check(
        "allocator_regions_disjoint",
        CASES,
        39,
        |rng, size| {
            (0..len(rng, 1, size))
                .map(|_| range(rng, 1, 5000))
                .collect::<Vec<_>>()
        },
        |sizes| {
            let mut m = Machine::default();
            let mut regions: Vec<(u64, u64)> = Vec::new();
            for &s in sizes {
                let off = m.alloc_pm(s).unwrap();
                assert_eq!(off % 256, 0);
                for &(o, l) in &regions {
                    assert!(off >= o + l || off + s <= o, "overlap");
                }
                regions.push((off, s));
            }
            Ok(())
        },
    );
}
