//! # gpm-core — libGPM in Rust
//!
//! The paper's third contribution (§5): a library that lets GPU kernels
//! manipulate PM-resident data structures and guarantee their persistence,
//! with GPU-specific optimizations for logging and checkpointing. The API
//! mirrors Table 2 of the paper:
//!
//! | Paper (CUDA)              | Here                                           |
//! |---------------------------|------------------------------------------------|
//! | `gpm_map` / `gpm_unmap`   | [`gpm_map`] / [`gpm_unmap`]                    |
//! | `gpm_persist_begin/end`   | [`gpm_persist_begin`] / [`gpm_persist_end`]    |
//! | `gpm_persist()`           | [`GpmThreadExt::gpm_persist`]                  |
//! | `gpmlog_create_conv/hcl`  | [`gpmlog_create_conv`] / [`gpmlog_create_hcl`] |
//! | `gpmlog_open/close`       | [`gpmlog_open`] / [`gpmlog_close`]             |
//! | `gpmlog_insert/read/...`  | [`GpmLogDev`] methods (device-side)            |
//! | `gpmcp_create/open/close` | [`gpmcp_create`] / [`gpmcp_open`] / [`gpmcp_close`] |
//! | `gpmcp_register`          | [`gpmcp_register`]                             |
//! | `gpmcp_checkpoint/restore`| [`gpmcp_checkpoint`] / [`gpmcp_restore`]       |
//!
//! The cornerstone is **Hierarchical Coalesced Logging** ([`log`]): a
//! write-ahead undo log whose layout mirrors the GPU's execution hierarchy
//! so that hundreds of thousands of threads insert entries without locks,
//! and whose 4-byte striping makes a warp's log writes coalesce into single
//! 128-byte PCIe transactions.
//!
//! ## Example: a recoverable transaction
//!
//! ```
//! use gpm_sim::{Machine, Addr, SimResult};
//! use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
//! use gpm_core::{gpm_map, gpm_persist_begin, gpm_persist_end,
//!                gpmlog_create_hcl, GpmThreadExt};
//!
//! let mut m = Machine::default();
//! let data = gpm_map(&mut m, "/pm/data", 8 * 64, true)?;
//! let log = gpmlog_create_hcl(&mut m, "/pm/log", 1 << 12, 1, 64)
//!     .map_err(|_| gpm_sim::SimError::Invalid("create"))?;
//! let (dev, base) = (log.dev(), data.base());
//!
//! gpm_persist_begin(&mut m);
//! launch(&mut m, LaunchConfig::new(1, 64), &FnKernel(move |ctx: &mut ThreadCtx<'_>| {
//!     let i = ctx.global_id();
//!     let old = ctx.ld_u64(base.add(i * 8))?;
//!     dev.insert(ctx, &old.to_le_bytes())?;   // undo-log the old value
//!     ctx.st_u64(base.add(i * 8), i * 7)?;    // in-place update
//!     ctx.gpm_persist()                        // durable
//! }))?;
//! gpm_persist_end(&mut m);
//! # Ok::<(), gpm_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod detect;
pub mod error;
pub mod log;
pub mod map;
pub mod persist;
pub mod txn;

pub use checkpoint::{
    gpmcp_checkpoint, gpmcp_checkpoint_gauged, gpmcp_close, gpmcp_create, gpmcp_fill_working,
    gpmcp_open, gpmcp_publish, gpmcp_register, gpmcp_restore, GpmCheckpoint, Registration,
};
pub use detect::{detect_create, op_tag, DetectArea, DetectDev, DetectTxn, DetectableCas};
pub use error::{CoreError, CoreResult};
pub use log::{
    gpmlog_close, gpmlog_create_conv, gpmlog_create_hcl, gpmlog_create_hcl_unstriped, gpmlog_open,
    GpmLog, GpmLogDev, LogKind,
};
pub use map::{
    gpm_map, gpm_persist_begin, gpm_persist_end, gpm_unmap, with_persist_window, GpmRegion,
};
pub use persist::{GpmThreadExt, GpmWarpExt};
pub use txn::TxnFlag;
