//! The kernel abstraction.
//!
//! A CUDA `__global__` function maps to an implementation of [`Kernel`].
//! Block-wide barriers (`__syncthreads()`) are expressed as *phase
//! boundaries*: the engine runs phase `p` for every thread of a block before
//! any thread enters phase `p + 1`, which is exactly the synchronization a
//! barrier provides. Per-thread values that live across a barrier go in
//! [`Kernel::State`]; `__shared__` memory maps to [`Kernel::Shared`].

use gpm_sim::SimResult;

use crate::exec::{ThreadCtx, WarpCtx};

/// A GPU kernel executed over a grid of threadblocks.
///
/// # Examples
///
/// A kernel with one barrier (two phases), accumulating a block-wide sum in
/// shared memory:
///
/// ```
/// use gpm_gpu::{Kernel, ThreadCtx, LaunchConfig, launch};
/// use gpm_sim::{Machine, Addr, SimResult};
///
/// struct BlockSum { input: u64, output: u64 }
///
/// impl Kernel for BlockSum {
///     type State = ();
///     type Shared = u64; // __shared__ accumulator
///     fn phases(&self) -> u32 { 2 }
///     fn run(&self, phase: u32, ctx: &mut ThreadCtx<'_>, _: &mut (), shared: &mut u64)
///         -> SimResult<()>
///     {
///         match phase {
///             0 => *shared += ctx.ld_u32(Addr::hbm(self.input + ctx.global_id() * 4))? as u64,
///             _ => {
///                 if ctx.thread_in_block() == 0 {
///                     ctx.st_u64(Addr::hbm(self.output + ctx.block_id() as u64 * 8), *shared)?;
///                 }
///             }
///         }
///         Ok(())
///     }
/// }
///
/// let mut m = Machine::default();
/// let input = m.alloc_hbm(4 * 64)?;
/// let output = m.alloc_hbm(8)?;
/// for i in 0..64 {
///     m.host_write(Addr::hbm(input + i * 4), &1u32.to_le_bytes())?;
/// }
/// launch(&mut m, LaunchConfig::new(1, 64), &BlockSum { input, output })?;
/// assert_eq!(m.read_u64(Addr::hbm(output))?, 64);
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
pub trait Kernel {
    /// Per-thread state preserved across phase (barrier) boundaries.
    type State: Default;

    /// Block-shared state (`__shared__` memory analogue).
    type Shared: Default;

    /// Number of phases (barrier-separated sections). Defaults to one.
    fn phases(&self) -> u32 {
        1
    }

    /// Resets block-shared state for the next block, reusing its allocation
    /// where possible (the engine calls this instead of constructing a fresh
    /// `Shared` per block). The result must be indistinguishable from
    /// `Self::Shared::default()`; the default implementation simply replaces
    /// the value. Override to keep heap capacity, e.g. `shared.vals.clear()`.
    fn reset_shared(&self, shared: &mut Self::Shared) {
        *shared = Self::Shared::default();
    }

    /// Executes one phase for one thread.
    ///
    /// # Errors
    ///
    /// Propagate [`gpm_sim::SimError`] from context operations with `?`; in
    /// particular [`gpm_sim::SimError::Crashed`] must not be swallowed, or
    /// injected crashes will not terminate the kernel.
    fn run(
        &self,
        phase: u32,
        ctx: &mut ThreadCtx<'_>,
        state: &mut Self::State,
        shared: &mut Self::Shared,
    ) -> SimResult<()>;

    /// Executes one phase for *all* active lanes of one warp in lockstep —
    /// the vectorized fast path. `states` holds the warp's per-lane states
    /// (`states[i]` is lane `i`; fewer than 32 for a partial tail warp).
    ///
    /// Return `Ok(true)` after handling the whole phase through the
    /// [`WarpCtx`] vector operations, or `Ok(false)` — **before issuing any
    /// context operation** — to fall back to 32 per-lane [`Kernel::run`]
    /// walks. The default declines, so existing kernels are unaffected.
    ///
    /// An implementation must be *semantically equivalent* to running
    /// [`Kernel::run`] once per lane: same stores, loads, fences, and costs.
    /// The engine guarantees the equivalence is observable only through
    /// speed — it invokes `run_warp` solely when no trace sink wants
    /// per-lane events and the fuel gauge (if any) provably cannot expire
    /// inside the warp (see [`Kernel::warp_fuel`]), and vector operations
    /// account counters — fuel included — exactly as the per-lane walk
    /// would. The one documented divergence: a warp's vector operations
    /// execute *operation-major* (every lane's store, then every lane's
    /// fence) where the per-lane walk runs each lane to completion in turn,
    /// so `gpm_sim::Stats::bytes_persisted` can differ whenever several
    /// lanes dirty one CPU line between fences — the operation-major count
    /// is the SIMT-faithful one, and nothing in the timing model reads it.
    fn run_warp(
        &self,
        phase: u32,
        ctx: &mut WarpCtx<'_>,
        states: &mut [Self::State],
        shared: &mut Self::Shared,
    ) -> SimResult<bool> {
        let _ = (phase, ctx, states, shared);
        Ok(false)
    }

    /// An upper bound on the fuel (counted context operations: stores,
    /// loads, atomics, fences) *one lane* issues in `phase` — the contract
    /// that lets fuel-gauged (crash-injected) launches take the vector path.
    ///
    /// When this returns `Some(bound)`, a crash gauge with at least
    /// `bound × lanes` fuel remaining provably cannot expire inside the
    /// warp, so the engine may dispatch [`Kernel::run_warp`] and burn fuel
    /// warp-at-a-time ([`WarpCtx`] operations burn `lanes` fuel each); any
    /// warp the bound does not cover falls back to the per-lane walk, whose
    /// fuel accounting is exact. Returning an under-estimate is a contract
    /// violation (debug builds assert; release builds saturate), so prefer a
    /// generous bound — precision only affects how close to the crash point
    /// vectorization stops. The default `None` keeps gauged runs per-lane.
    ///
    /// Recording gauges ([`crate::FuelGauge::Record`]) never vectorize —
    /// boundary enumeration is inherently per-op — so crash schedules and
    /// their replayed cases stay bit-identical regardless of this hint.
    fn warp_fuel(&self, phase: u32) -> Option<u64> {
        let _ = phase;
        None
    }
}

/// Wraps a closure as a single-phase, stateless kernel.
///
/// # Examples
///
/// ```
/// use gpm_gpu::{FnKernel, LaunchConfig, launch};
/// use gpm_sim::{Machine, Addr};
///
/// let mut m = Machine::default();
/// let buf = m.alloc_hbm(4 * 128)?;
/// let k = FnKernel(|ctx: &mut gpm_gpu::ThreadCtx<'_>| {
///     let i = ctx.global_id();
///     ctx.st_u32(Addr::hbm(buf + i * 4), i as u32)
/// });
/// launch(&mut m, LaunchConfig::new(1, 128), &k)?;
/// assert_eq!(m.read_u32(Addr::hbm(buf + 4 * 99))?, 99);
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnKernel<F>(pub F);

impl<F> Kernel for FnKernel<F>
where
    F: Fn(&mut ThreadCtx<'_>) -> SimResult<()>,
{
    type State = ();
    type Shared = ();

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut (),
    ) -> SimResult<()> {
        (self.0)(ctx)
    }
}
