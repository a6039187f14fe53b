//! Offline perf-regression harness for the simulation engine's hot paths.
//!
//! Unlike the `criterion`-based benches under `benches/` (which need a
//! registry to build), this binary is dependency-free and runs in any cold
//! sandbox: `cargo run --release -p gpm-bench --bin enginebench` (or
//! `make bench-json`). It drives the engine's stress shapes — a 1M-thread
//! coalesced-store kernel, a scattered-store kernel that defeats
//! coalescing, fence-per-store and fence-storm kernels (in strict and
//! epoch persistency variants), and a grid of 64 independent blocks — plus
//! one full GPMbench workload and the production workload fleet, and
//! reports *wall-clock* throughput in simulated thread operations per
//! second. The hot kernels implement [`gpm_gpu::Kernel::run_warp`], so this
//! harness exercises the vectorized lockstep path the production layers
//! ride on. Results land in `BENCH_engine.json` so successive checkouts can
//! be diffed for engine-speed regressions; the simulated counters in the
//! output double as a coarse determinism check. A `fence_sensitivity`
//! section (no `ops_per_sec` field, so benchdiff never gates it) sweeps the
//! system-fence latency and records strict-vs-epoch simulated time.
//!
//! Flags: `--filter <substr>` runs only benches whose name contains the
//! substring; `--reps <n>` overrides the repetition count (default 3 —
//! benchdiff-gated benches never drop below best-of-3, so a single noisy
//! scheduler tick cannot fail the ±20% perf gate); `--trace <path>`
//! additionally runs one small untimed kernel with a trace sink installed
//! and writes a Chrome trace-event JSON (schema `gpm-trace-v1`) there;
//! `--help` prints the usage.

use std::fmt::Write as _;
use std::time::Instant;

use gpm_bench::cli::Usage;
use gpm_core::{gpmcp_checkpoint, gpmcp_create, gpmcp_register};
use gpm_gpu::{
    launch, FnKernel, Kernel, LaunchConfig, PersistencyModel, ThreadCtx, WarpCtx, WARP_SIZE,
};
use gpm_sim::{chrome_trace_json, Addr, Machine, Ns, RingSink, SimResult};
use gpm_workloads::{
    run_iterative, suite, AnalyticsParams, AnalyticsWorkload, DbOp, DbParams, DbWorkload,
    DnnParams, DnnWorkload, KvsParams, KvsWorkload, Mode, Scale,
};

/// Default timed repetitions per bench (the best wall time is reported,
/// minimising scheduler noise); one untimed warm-up precedes them.
const DEFAULT_REPS: usize = 3;

/// Floor applied to every benchdiff-gated bench: whatever `--reps` says,
/// gated lines are at least best-of-3 so the ±20% gate is never one noisy
/// scheduler tick away from a false failure.
const GATED_MIN_REPS: usize = 3;

struct BenchResult {
    name: &'static str,
    threads: u64,
    /// Simulated thread operations executed per repetition.
    ops: u64,
    reps: usize,
    best_wall_s: f64,
    ops_per_sec: f64,
    /// Simulated elapsed nanoseconds of one repetition (engine output; must
    /// not drift across engine rewrites).
    sim_elapsed_ns: f64,
}

/// Runs `f` `reps` times after a warm-up; `f` returns (ops, simulated ns).
fn bench(
    name: &'static str,
    threads: u64,
    reps: usize,
    mut f: impl FnMut() -> (u64, Ns),
) -> BenchResult {
    f(); // warm-up: page in lazily-allocated simulation state
    let mut best = f64::INFINITY;
    let mut ops = 0;
    let mut sim_ns = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (o, ns) = f();
        let wall = t0.elapsed().as_secs_f64();
        best = best.min(wall);
        ops = o;
        sim_ns = ns.0;
    }
    let r = BenchResult {
        name,
        threads,
        ops,
        reps,
        best_wall_s: best,
        ops_per_sec: ops as f64 / best,
        sim_elapsed_ns: sim_ns,
    };
    println!(
        "{:>24}  {:>9} threads  {:>10} ops  {:>9.3} ms  {:>12.0} ops/s",
        r.name,
        r.threads,
        r.ops,
        r.best_wall_s * 1e3,
        r.ops_per_sec
    );
    r
}

// ---- vectorized bench kernels -----------------------------------------------
//
// Each kernel implements both `run` (the per-lane reference) and `run_warp`
// (the vectorized fast path) with identical simulated semantics: same
// addresses, values, and fences, so `sim_elapsed_ns` and every golden
// counter are unchanged from the pre-vectorization FnKernel versions while
// the wall clock measures the batched engine.

/// Lane `i` stores 8 consecutive bytes at `pm + i * 8`.
struct CoalescedStore {
    pm: u64,
}

impl Kernel for CoalescedStore {
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(self.pm + i * 8), i)
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        _shared: &mut (),
    ) -> SimResult<bool> {
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let mut vals = [0u64; WARP_SIZE as usize];
        for (l, v) in vals[..lanes].iter_mut().enumerate() {
            *v = base + l as u64;
        }
        ctx.st_u64_lanes(Addr::pm(self.pm + base * 8), 8, &vals[..lanes])?;
        Ok(true)
    }
}

/// Lane `i` stores 4 bytes at `pm + i * 1024`: no two lanes share a line.
struct ScatteredStore {
    pm: u64,
}

impl Kernel for ScatteredStore {
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        let i = ctx.global_id();
        ctx.st_u32(Addr::pm(self.pm + i * 1024), i as u32)
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        _shared: &mut (),
    ) -> SimResult<bool> {
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let mut vals = [0u32; WARP_SIZE as usize];
        for (l, v) in vals[..lanes].iter_mut().enumerate() {
            *v = (base + l as u64) as u32;
        }
        ctx.st_u32_lanes(Addr::pm(self.pm + base * 1024), 1024, &vals[..lanes])?;
        Ok(true)
    }
}

/// Lane `i` issues `FENCE_ROUNDS` store+system-fence pairs at
/// `pm + (i * FENCE_ROUNDS + j) * 8`.
struct FenceHeavy {
    pm: u64,
}

/// Store+fence rounds per thread in [`FenceHeavy`].
const FENCE_ROUNDS: u64 = 4;

impl Kernel for FenceHeavy {
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        let i = ctx.global_id();
        for j in 0..FENCE_ROUNDS {
            ctx.st_u64(Addr::pm(self.pm + (i * FENCE_ROUNDS + j) * 8), j)?;
            ctx.threadfence_system()?;
        }
        Ok(())
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        _shared: &mut (),
    ) -> SimResult<bool> {
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let stride = FENCE_ROUNDS * 8;
        let mut vals = [0u64; WARP_SIZE as usize];
        for j in 0..FENCE_ROUNDS {
            for v in vals[..lanes].iter_mut() {
                *v = j;
            }
            ctx.st_u64_lanes(
                Addr::pm(self.pm + base * stride + j * 8),
                stride,
                &vals[..lanes],
            )?;
            ctx.threadfence_system();
        }
        Ok(true)
    }
}

/// One store then `STORM_FENCES` system fences per thread: the fence
/// bookkeeping path at its purest (almost no bytes move).
struct FenceStorm {
    pm: u64,
}

/// Fences per thread in [`FenceStorm`].
const STORM_FENCES: u64 = 16;

impl Kernel for FenceStorm {
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(self.pm + i * 8), i)?;
        for _ in 0..STORM_FENCES {
            ctx.threadfence_system()?;
        }
        Ok(())
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        _shared: &mut (),
    ) -> SimResult<bool> {
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let mut vals = [0u64; WARP_SIZE as usize];
        for (l, v) in vals[..lanes].iter_mut().enumerate() {
            *v = base + l as u64;
        }
        ctx.st_u64_lanes(Addr::pm(self.pm + base * 8), 8, &vals[..lanes])?;
        for _ in 0..STORM_FENCES {
            ctx.threadfence_system();
        }
        Ok(true)
    }
}

/// Each thread stores and re-loads `PB_ROUNDS` disjoint PM lines, then
/// stores the accumulated sum back to its first slot.
struct ParallelBlocks {
    pm: u64,
}

/// Store+load rounds per thread in [`ParallelBlocks`].
const PB_ROUNDS: u64 = 8;

impl Kernel for ParallelBlocks {
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        let i = ctx.global_id();
        let mut acc = 0u64;
        for j in 0..PB_ROUNDS {
            let slot = self.pm + (i * PB_ROUNDS + j) * 128;
            ctx.st_u64(Addr::pm(slot), i ^ j)?;
            acc = acc.wrapping_add(ctx.ld_u64(Addr::pm(slot))?);
        }
        ctx.st_u64(Addr::pm(self.pm + i * PB_ROUNDS * 128), acc)
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        _shared: &mut (),
    ) -> SimResult<bool> {
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let stride = PB_ROUNDS * 128;
        let mut vals = [0u64; WARP_SIZE as usize];
        let mut loaded = [0u64; WARP_SIZE as usize];
        let mut accs = [0u64; WARP_SIZE as usize];
        for j in 0..PB_ROUNDS {
            for (l, v) in vals[..lanes].iter_mut().enumerate() {
                *v = (base + l as u64) ^ j;
            }
            let addr = Addr::pm(self.pm + base * stride + j * 128);
            ctx.st_u64_lanes(addr, stride, &vals[..lanes])?;
            ctx.ld_u64_lanes(addr, stride, &mut loaded[..lanes])?;
            for (a, &v) in accs[..lanes].iter_mut().zip(&loaded[..lanes]) {
                *a = a.wrapping_add(v);
            }
        }
        ctx.st_u64_lanes(Addr::pm(self.pm + base * stride), stride, &accs[..lanes])?;
        Ok(true)
    }
}

// ---- benches ----------------------------------------------------------------

/// 1M threads, each storing 8 consecutive bytes: every warp coalesces to
/// two 128-byte PCIe transactions per line pair. This is the engine's
/// best case and the regression gate's headline number.
fn coalesced_store(reps: usize) -> BenchResult {
    let threads: u64 = 1 << 20;
    bench("coalesced_store_1m", threads, reps, || {
        let mut m = Machine::default();
        let pm = m.alloc_pm(threads * 8).unwrap();
        let k = CoalescedStore { pm };
        let r = launch(&mut m, LaunchConfig::for_elements(threads, 256), &k).unwrap();
        (threads, r.elapsed)
    })
}

/// 256K threads striding 1 KiB apart (eight 128-byte lines): no two lanes
/// share a line, so every store is its own transaction and the line table
/// is touched at its sparsest.
fn scattered_store(reps: usize) -> BenchResult {
    let threads: u64 = 1 << 18;
    bench("scattered_store_256k", threads, reps, || {
        let mut m = Machine::default();
        let pm = m.alloc_pm(threads * 1024).unwrap();
        let k = ScatteredStore { pm };
        let r = launch(&mut m, LaunchConfig::for_elements(threads, 256), &k).unwrap();
        (threads, r.elapsed)
    })
}

/// 64K threads, each issuing four store+system-fence pairs with the
/// persistence window open: stresses fence bookkeeping and pending-line
/// drain. The `epoch` variant runs the identical kernel under
/// [`PersistencyModel::Epoch`], so its delta is pure fence-drain cost.
fn fence_heavy(reps: usize, model: PersistencyModel) -> BenchResult {
    let threads: u64 = 1 << 16;
    let name = match model {
        PersistencyModel::Strict => "fence_heavy_64k",
        PersistencyModel::Epoch => "epoch_fence_heavy_64k",
    };
    bench(name, threads, reps, move || {
        let mut m = Machine::default();
        let pm = m.alloc_pm(threads * FENCE_ROUNDS * 8).unwrap();
        m.set_ddio(false);
        let k = FenceHeavy { pm };
        let cfg = LaunchConfig::for_elements(threads, 256).with_persistency(model);
        let r = launch(&mut m, cfg, &k).unwrap();
        (threads * FENCE_ROUNDS * 2, r.elapsed)
    })
}

/// 64K threads, one store then sixteen system fences each: the fence path
/// with almost no data motion, in strict and epoch variants.
fn fence_storm(reps: usize, model: PersistencyModel) -> BenchResult {
    let threads: u64 = 1 << 16;
    let name = match model {
        PersistencyModel::Strict => "fence_storm_64k",
        PersistencyModel::Epoch => "epoch_fence_storm_64k",
    };
    bench(name, threads, reps, move || {
        let mut m = Machine::default();
        let pm = m.alloc_pm(threads * 8).unwrap();
        m.set_ddio(false);
        let k = FenceStorm { pm };
        let cfg = LaunchConfig::for_elements(threads, 256).with_persistency(model);
        let r = launch(&mut m, cfg, &k).unwrap();
        (threads * (STORM_FENCES + 1), r.elapsed)
    })
}

/// 64 independent blocks, each thread storing and re-loading eight
/// disjoint PM lines.
fn parallel_blocks(reps: usize) -> BenchResult {
    const GRID: u32 = 64;
    const BLOCK: u32 = 256;
    let threads = GRID as u64 * BLOCK as u64;
    bench("parallel_blocks", threads, reps, move || {
        let mut m = Machine::default();
        let pm = m.alloc_pm(threads * PB_ROUNDS * 128).unwrap();
        let k = ParallelBlocks { pm };
        let r = launch(&mut m, LaunchConfig::new(GRID, BLOCK), &k).unwrap();
        (threads * PB_ROUNDS * 2, r.elapsed)
    })
}

/// One full GPMbench workload (gpKVS at quick scale) end to end, so the
/// harness also covers the allocator, logging, and verification layers.
fn suite_workload(reps: usize) -> BenchResult {
    bench("suite_gpkvs_quick", 0, reps, || {
        let mut w = suite(Scale::Quick).remove(0);
        let mut m = Machine::default();
        let metrics = w.run(&mut m, Mode::Gpm).unwrap();
        assert!(metrics.verified, "gpKVS verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

// ---- workload fleet (the production Figure-3/9 kernels) ---------------------
//
// These lines measure the *production* workload kernels end to end —
// allocator, logging, verification and all — which is where the vectorized
// `run_warp` path pays.

/// The gpmcp persist phase alone: one 32 MiB HBM array streamed into the PM
/// working buffer and published (the checkpoint-class memcpy kernel; one
/// copy thread per 512-byte chunk).
fn workload_checkpoint(reps: usize) -> BenchResult {
    const BYTES: u64 = 32 << 20;
    let threads = BYTES / 512;
    bench("workload_checkpoint_32m", threads, reps, move || {
        let mut m = Machine::default();
        let hbm = m.alloc_hbm(BYTES).unwrap();
        let mut cp = gpmcp_create(&mut m, "/pm/bench/cp", BYTES, 1, 1).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(hbm), BYTES, 0).unwrap();
        let ns = gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        (threads, ns)
    })
}

/// DNN weight-update at a bench-friendly shape: the paper's 784×1024 model
/// but few passes and a small batch, so the GPU weight-update kernel (1.2M
/// params into gpmcp checkpoints) is the measured work rather than the
/// host-side gradient math (which no engine change can speed up).
fn workload_dnn(reps: usize) -> BenchResult {
    bench("workload_dnn", 0, reps, move || {
        let mut app = DnnWorkload::new(DnnParams {
            samples: 8,
            batch: 4,
            iterations: 6,
            checkpoint_every: 2,
            ..DnnParams::default()
        });
        let mut m = Machine::default();
        let metrics = run_iterative(&mut m, &mut app, Mode::Gpm, 32).unwrap();
        assert!(metrics.verified, "DNN verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

/// One evaluation-scale fig9 workload end to end under GPM, selected from
/// the suite by its Figure 9 label. `ops` is the PM write volume in u64s —
/// deterministic engine output, so the line doubles as a counter check.
fn fig9_workload(name: &'static str, fig9_name: &'static str, reps: usize) -> BenchResult {
    bench(name, 0, reps, move || {
        let mut w = suite(Scale::Full)
            .into_iter()
            .find(|w| w.name() == fig9_name)
            .expect("fig9 workload label");
        let mut m = Machine::default();
        let metrics = w.run(&mut m, Mode::Gpm).unwrap();
        assert!(metrics.verified, "{fig9_name} verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

/// gpKVS at evaluation scale under an explicitly pinned persistency model
/// (the Epoch-vs-Strict comparison where HCL commit fences dominate).
fn workload_kvs(name: &'static str, model: PersistencyModel, reps: usize) -> BenchResult {
    bench(name, 0, reps, move || {
        let w = KvsWorkload::new(KvsParams::default().with_persistency(model));
        let mut m = Machine::default();
        let metrics = w.run(&mut m, Mode::Gpm).unwrap();
        assert!(metrics.verified, "gpKVS verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

/// gpDB at evaluation scale under an explicitly pinned persistency model.
fn workload_db(name: &'static str, op: DbOp, model: PersistencyModel, reps: usize) -> BenchResult {
    bench(name, 0, reps, move || {
        let mut params = DbParams::default().with_persistency(model);
        params.op = op;
        let w = DbWorkload::new(params);
        let mut m = Machine::default();
        let metrics = w.run(&mut m, Mode::Gpm).unwrap();
        assert!(metrics.verified, "gpDB verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

/// gpAnalytics at evaluation scale under an explicitly pinned persistency
/// model. The event-fold kernel journals every packed event and publishes
/// 32-byte session slots, so the Epoch leg shows how much of the strict
/// leg's time is per-slot HCL commit fences on the session store.
fn workload_analytics(name: &'static str, model: PersistencyModel, reps: usize) -> BenchResult {
    bench(name, 0, reps, move || {
        let w = AnalyticsWorkload::new(AnalyticsParams::default().with_persistency(model));
        let mut m = Machine::default();
        let metrics = w.run(&mut m, Mode::Gpm).unwrap();
        assert!(metrics.verified, "gpAnalytics verification failed");
        (metrics.pm_write_bytes_total() / 8, metrics.elapsed)
    })
}

// ---- fence-cost sensitivity -------------------------------------------------

/// One strict/epoch simulated-time pair at a given system-fence latency.
struct SensPoint {
    name: String,
    system_fence_latency_ns: u64,
    sim_elapsed_ns: f64,
}

/// Sweeps the system-fence latency over the fence-storm shape under both
/// persistency models, recording *simulated* time only (no `ops_per_sec`
/// field, so benchdiff never gates these lines). The storm shape is chosen
/// because its fence term dominates elapsed time (the fence-heavy shape is
/// byte-drain bound, which would mask the sweep). The strict column scales
/// linearly with the latency; the epoch column barely moves — fences only
/// order into the open epoch at `epoch_fence_latency`, and the latency
/// appears once in the terminal boundary drain.
fn fence_sensitivity() -> Vec<SensPoint> {
    let threads: u64 = 1 << 14;
    let mut out = Vec::new();
    println!("fence_sensitivity: strict vs epoch sim-time, 16K-thread fence-storm shape");
    for lat in [275u64, 550, 1100, 2200] {
        let mut pair = [0.0f64; 2];
        for (slot, model) in [PersistencyModel::Strict, PersistencyModel::Epoch]
            .into_iter()
            .enumerate()
        {
            let cfg = gpm_sim::MachineConfig {
                system_fence_latency: Ns(lat as f64),
                ..Default::default()
            };
            let mut m = Machine::new(cfg);
            let pm = m.alloc_pm(threads * 8).unwrap();
            m.set_ddio(false);
            let k = FenceStorm { pm };
            let launch_cfg = LaunchConfig::for_elements(threads, 256).with_persistency(model);
            let r = launch(&mut m, launch_cfg, &k).unwrap();
            pair[slot] = r.elapsed.0;
            let tag = match model {
                PersistencyModel::Strict => "strict",
                PersistencyModel::Epoch => "epoch",
            };
            out.push(SensPoint {
                name: format!("fence_sensitivity_{lat}_{tag}"),
                system_fence_latency_ns: lat,
                sim_elapsed_ns: r.elapsed.0,
            });
        }
        println!(
            "  fence latency {lat:>5} ns: strict {:>12.0} ns, epoch {:>12.0} ns ({:.2}x saved)",
            pair[0],
            pair[1],
            pair[0] / pair[1]
        );
    }
    out
}

fn to_json(results: &[BenchResult], sens: &[SensPoint]) -> String {
    let mut out = String::from("{\n  \"schema\": \"gpm-enginebench-v4\",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"threads\": {}, \"ops\": {}, \"reps\": {}, \
             \"best_wall_s\": {:.6}, \"ops_per_sec\": {:.1}, \"sim_elapsed_ns\": {:.3}}}",
            r.name, r.threads, r.ops, r.reps, r.best_wall_s, r.ops_per_sec, r.sim_elapsed_ns
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    if sens.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n  \"fence_sensitivity\": [\n");
    for (i, p) in sens.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"system_fence_latency_ns\": {}, \"sim_elapsed_ns\": {:.3}}}",
            p.name, p.system_fence_latency_ns, p.sim_elapsed_ns
        );
        out.push_str(if i + 1 < sens.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

struct Opts {
    filter: Option<String>,
    reps: usize,
    trace: Option<String>,
}

const USAGE: Usage = Usage {
    bin: "enginebench",
    text: "usage: enginebench [--filter SUBSTR] [--reps N] [--trace PATH]",
};

fn parse_args() -> Opts {
    let mut opts = Opts {
        filter: None,
        reps: DEFAULT_REPS,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => USAGE.help(),
            "--filter" => opts.filter = Some(USAGE.value(&mut args, "--filter")),
            "--reps" => {
                opts.reps = USAGE.parse(&mut args, "--reps", "a positive integer");
                if opts.reps == 0 {
                    USAGE.fail("--reps needs a positive integer, got \"0\"");
                }
            }
            "--trace" => opts.trace = Some(USAGE.value(&mut args, "--trace")),
            other => USAGE.fail(format!("unknown flag {other:?}")),
        }
    }
    opts
}

/// One small untimed fence-heavy kernel with a trace sink installed; the
/// timed benches above always run untraced so `--trace` cannot perturb
/// their wall-clock numbers.
fn traced_smoke(path: &str) {
    const GRID: u32 = 8;
    const BLOCK: u32 = 64;
    let threads = GRID as u64 * BLOCK as u64;
    let mut m = Machine::default();
    m.set_trace_sink(Box::new(RingSink::new(1 << 20)));
    let pm = m.alloc_pm(threads * 8).unwrap();
    m.set_ddio(false);
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        let i = ctx.global_id();
        ctx.st_u64(Addr::pm(pm + i * 8), i)?;
        ctx.threadfence_system()
    });
    launch(&mut m, LaunchConfig::new(GRID, BLOCK), &k).expect("traced smoke kernel");
    let stats_bytes = m.stats.bytes_persisted;
    let data = m.finish_trace().expect("ring sink returns trace data");
    let json = chrome_trace_json(&[("engine".to_string(), &data)], stats_bytes);
    std::fs::write(path, &json).expect("write trace JSON");
    println!(
        "wrote {path} ({} events, {} bytes persisted)",
        data.events.len(),
        stats_bytes
    );
}

fn main() {
    let opts = parse_args();
    // Every bench below is benchdiff-gated, so all of them get the floor.
    let reps = opts.reps.max(GATED_MIN_REPS);
    println!("enginebench: wall-clock engine throughput ({reps} reps, best-of)");
    type BenchFn = fn(usize) -> BenchResult;
    let table: &[(&str, BenchFn)] = &[
        ("coalesced_store_1m", |r| coalesced_store(r)),
        ("scattered_store_256k", |r| scattered_store(r)),
        ("fence_heavy_64k", |r| {
            fence_heavy(r, PersistencyModel::Strict)
        }),
        ("epoch_fence_heavy_64k", |r| {
            fence_heavy(r, PersistencyModel::Epoch)
        }),
        ("fence_storm_64k", |r| {
            fence_storm(r, PersistencyModel::Strict)
        }),
        ("epoch_fence_storm_64k", |r| {
            fence_storm(r, PersistencyModel::Epoch)
        }),
        ("parallel_blocks", parallel_blocks),
        ("suite_gpkvs_quick", |r| suite_workload(r)),
        ("workload_checkpoint_32m", |r| workload_checkpoint(r)),
        ("workload_dnn", |r| workload_dnn(r)),
        ("workload_cfd", |r| fig9_workload("workload_cfd", "CFD", r)),
        ("workload_blackscholes", |r| {
            fig9_workload("workload_blackscholes", "BLK", r)
        }),
        ("workload_hotspot", |r| {
            fig9_workload("workload_hotspot", "HS", r)
        }),
        ("workload_srad", |r| {
            fig9_workload("workload_srad", "SRAD", r)
        }),
        ("workload_prefix_sum", |r| {
            fig9_workload("workload_prefix_sum", "PS", r)
        }),
        ("workload_gpkvs", |r| {
            workload_kvs("workload_gpkvs", PersistencyModel::Strict, r)
        }),
        ("workload_gpkvs_epoch", |r| {
            workload_kvs("workload_gpkvs_epoch", PersistencyModel::Epoch, r)
        }),
        ("workload_gpdb_insert", |r| {
            workload_db(
                "workload_gpdb_insert",
                DbOp::Insert,
                PersistencyModel::Strict,
                r,
            )
        }),
        ("workload_gpdb_insert_epoch", |r| {
            workload_db(
                "workload_gpdb_insert_epoch",
                DbOp::Insert,
                PersistencyModel::Epoch,
                r,
            )
        }),
        ("workload_gpdb_update", |r| {
            workload_db(
                "workload_gpdb_update",
                DbOp::Update,
                PersistencyModel::Strict,
                r,
            )
        }),
        ("workload_gpdb_update_epoch", |r| {
            workload_db(
                "workload_gpdb_update_epoch",
                DbOp::Update,
                PersistencyModel::Epoch,
                r,
            )
        }),
        ("analytics_strict", |r| {
            workload_analytics("analytics_strict", PersistencyModel::Strict, r)
        }),
        ("analytics_epoch", |r| {
            workload_analytics("analytics_epoch", PersistencyModel::Epoch, r)
        }),
    ];
    let results: Vec<BenchResult> = table
        .iter()
        .filter(|(name, _)| {
            opts.filter
                .as_deref()
                .is_none_or(|needle| name.contains(needle))
        })
        .map(|(_, f)| f(reps))
        .collect();
    let sens = if opts
        .filter
        .as_deref()
        .is_none_or(|needle| "fence_sensitivity".contains(needle))
    {
        fence_sensitivity()
    } else {
        Vec::new()
    };
    if results.is_empty() && sens.is_empty() {
        eprintln!("no bench matches the filter; nothing written");
        return;
    }
    let json = to_json(&results, &sens);
    let path = "BENCH_engine.json";
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("wrote {path}");
    if let Some(trace_path) = &opts.trace {
        traced_smoke(trace_path);
    }
}
