//! Property test: the engine's warp coalescer agrees with a naive
//! per-GPU-line model, and the vectorized lockstep path agrees with the
//! per-lane walk, over random lockstep store patterns.

use gpm_gpu::{launch, Kernel, LaunchConfig, ThreadCtx, WarpCtx, WARP_SIZE};
use gpm_integration::{check, range, CASES};
use gpm_sim::{Addr, Machine, SimResult};

/// GPU cache-line (coalescing) granularity in bytes, mirrored from the
/// simulator's constant.
const GPU_LINE: u64 = 128;

/// Every thread stores one `u64` per round at `pm + id * stride + round * 8`
/// — the same program point across the warp, so line-sharing lanes coalesce.
/// `vectorize: false` pins the per-lane reference walk by declining
/// `run_warp`.
struct LockstepStore {
    pm: u64,
    stride: u64,
    rounds: u64,
    fence: bool,
    vectorize: bool,
}

impl Kernel for LockstepStore {
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
        for j in 0..self.rounds {
            ctx.st_u64(Addr::pm(self.pm + i * self.stride + j * 8), i ^ j)?;
            if self.fence {
                ctx.threadfence_system()?;
            }
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
        if !self.vectorize {
            return Ok(false);
        }
        let base = ctx.first_global_id();
        let lanes = ctx.lanes() as usize;
        let mut vals = [0u64; WARP_SIZE as usize];
        for j in 0..self.rounds {
            for (l, v) in vals[..lanes].iter_mut().enumerate() {
                *v = (base + l as u64) ^ j;
            }
            ctx.st_u64_lanes(
                Addr::pm(self.pm + base * self.stride + j * 8),
                self.stride,
                &vals[..lanes],
            )?;
            if self.fence {
                ctx.threadfence_system();
            }
        }
        Ok(true)
    }
}

fn run_twin(pm_bytes: u64, cfg: LaunchConfig, k: &LockstepStore) -> (gpm_gpu::KernelCosts, u64) {
    let mut m = Machine::default();
    let pm_base = m.alloc_pm(pm_bytes).unwrap();
    assert_eq!(pm_base, k.pm, "twin machines must allocate identically");
    let r = launch(&mut m, cfg, k).unwrap();
    (r.costs, r.elapsed.0.to_bits())
}

/// The naive model: per warp and per program point, a store transaction per
/// distinct GPU line touched by any active lane (an extent crossing a line
/// boundary touches both lines).
fn naive_txns(grid: u32, block: u32, pm: u64, stride: u64, rounds: u64) -> u64 {
    let mut txns = 0u64;
    for b in 0..grid as u64 {
        let mut first_lane = 0u64;
        while first_lane < block as u64 {
            let lanes = (block as u64 - first_lane).min(WARP_SIZE as u64);
            for j in 0..rounds {
                let mut lines: Vec<u64> = Vec::new();
                for l in 0..lanes {
                    let id = b * block as u64 + first_lane + l;
                    let start = pm + id * stride + j * 8;
                    let mut cur = start;
                    while cur < start + 8 {
                        let line = cur / GPU_LINE;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                        cur = (line + 1) * GPU_LINE;
                    }
                }
                txns += lines.len() as u64;
            }
            first_lane += WARP_SIZE as u64;
        }
    }
    txns
}

/// Random stride/shape lockstep stores: the vectorized and per-lane
/// engines report identical costs and simulated time, and both match
/// the naive per-line transaction count and per-lane byte count.
#[test]
fn coalesced_counts_match_naive_per_lane_model() {
    check(
        "coalesced_counts_match_naive_per_lane_model",
        CASES,
        0,
        |rng, _| {
            (
                range(rng, 1, 21),
                range(rng, 1, 5),
                range(rng, 1, 4) as u32,
                range(rng, 1, 97) as u32,
                rng.gen_bool(0.5),
            )
        },
        |&(stride_words, rounds, grid, block, fence)| {
            let stride = stride_words * 8;
            let threads = grid as u64 * block as u64;
            let pm_bytes = threads * stride + rounds * 8 + GPU_LINE;
            let probe = Machine::default().alloc_pm(pm_bytes).unwrap();
            let cfg = LaunchConfig::new(grid, block);

            let mk = |vectorize| LockstepStore {
                pm: probe,
                stride,
                rounds,
                fence,
                vectorize,
            };
            let (lane_costs, lane_bits) = run_twin(pm_bytes, cfg, &mk(false));
            let (vec_costs, vec_bits) = run_twin(pm_bytes, cfg, &mk(true));

            assert_eq!(
                vec_costs, lane_costs,
                "vectorized costs diverge from per-lane walk"
            );
            assert_eq!(
                vec_bits, lane_bits,
                "simulated elapsed time must be bit-identical"
            );
            assert_eq!(
                vec_costs.pcie_write_txns,
                naive_txns(grid, block, probe, stride, rounds),
                "coalesced transaction count diverges from the naive per-line model"
            );
            assert_eq!(vec_costs.pm_write_bytes, threads * rounds * 8);
            Ok(())
        },
    );
}
