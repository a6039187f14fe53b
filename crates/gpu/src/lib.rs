//! # gpm-gpu — a CUDA-like execution engine over the simulated platform
//!
//! Runs [`Kernel`]s as grids of threadblocks of 32-lane warps against a
//! [`gpm_sim::Machine`], reproducing the GPU behaviours the GPM paper's
//! results rest on:
//!
//! * **hardware coalescing** — a warp's same-instruction stores into one
//!   128-byte line become a single PCIe transaction (the property HCL's log
//!   layout exploits, §5.2);
//! * **scoped fences** — `__threadfence()` (device) and
//!   `__threadfence_system()` (system); the latter is GPM's persist when
//!   DDIO is disabled (§3.1);
//! * **latency hiding** — elapsed time comes from an analytical overlap
//!   model: parallelism hides persist latency until the PCIe in-flight
//!   limit or Optane's pattern-dependent bandwidth saturates (§3.2);
//! * **crash injection** — [`launch_with_fuel`] aborts the kernel after a
//!   chosen number of operations and crashes the machine, as the paper does
//!   with NVBitFI (§6.2).
//!
//! Block barriers (`__syncthreads()`) are phase boundaries: see [`Kernel`].
//!
//! ## Example
//!
//! ```
//! use gpm_gpu::{FnKernel, LaunchConfig, ThreadCtx, launch};
//! use gpm_sim::{Machine, Addr};
//!
//! let mut m = Machine::default();
//! let out = m.alloc_pm(1 << 16)?;
//! m.set_ddio(false); // gpm_persist_begin
//! let kernel = FnKernel(|ctx: &mut ThreadCtx<'_>| {
//!     let i = ctx.global_id();
//!     ctx.st_u64(Addr::pm(out + i * 8), i * i)?;
//!     ctx.threadfence_system() // persist
//! });
//! let report = launch(&mut m, LaunchConfig::new(8, 256), &kernel)?;
//! m.set_ddio(true); // gpm_persist_end
//! m.crash(); // power failure: the persisted squares survive
//! assert_eq!(m.read_u64(Addr::pm(out + 100 * 8))?, 100 * 100);
//! println!("kernel took {}", report.elapsed);
//! # Ok::<(), gpm_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod dim;
pub mod exec;
pub mod kernel;
pub mod timing;

pub use buffer::{Buf, Scalar};
pub use dim::{Grid2, LaunchConfig, ThreadId, WARP_SIZE};
pub use exec::{
    launch, launch_with_fuel, launch_with_gauge, pin_default_persistency, resolved_engine_threads,
    resolved_persistency, FuelGauge, KernelReport, LaunchError, ThreadCtx, WarpCtx,
};
pub use gpm_sim::PersistencyModel;
pub use kernel::{FnKernel, Kernel};
pub use timing::KernelCosts;
