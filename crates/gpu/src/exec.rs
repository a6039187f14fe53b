//! The kernel launcher: phase-by-phase, warp-by-warp execution with
//! hardware coalescing, scoped fences, and crash injection.
//!
//! Execution is deterministic, but models the GPU's concurrency: threads of
//! a warp execute in lockstep, so their same-program-point accesses to one
//! 128-byte line coalesce into a single PCIe transaction (§2), and a warp's
//! simultaneous fences form one fence event. Phase boundaries implement
//! `__syncthreads()`.
//!
//! Blocks run one after another, in block-id order, on the calling thread
//! against the live [`Machine`]. The GPU's parallelism lives in simulated
//! time — [`KernelCosts`] turns a launch's resources into elapsed time with
//! the overlap model of §3.2 — not in host threads.
//!
//! ## Hot-path design
//!
//! Coalescing is the engine's innermost loop: every PM access of every
//! simulated thread flows through it. Instead of buffering an `Event` per
//! operation and grouping events into freshly-allocated `BTreeMap`s at warp
//! drain (one heap allocation per warp, a tree probe per event), the engine
//! merges accesses *as they are issued* into a [`WarpScratch`]: a reusable
//! table of per-program-point groups, indexed directly by the thread's dense
//! operation sequence number. Each group keeps its coalesced line extents in
//! a small sorted array. All storage is reused across warps, blocks, and
//! launches, so steady-state execution allocates nothing per warp and the
//! drain is a linear sweep. The observable outcome — transaction counts,
//! pattern-tracker order, fence events, simulated time — is identical to the
//! event-buffer design, as the golden-counter tests pin down.
//!
//! ## Vectorized lockstep execution
//!
//! On top of the per-lane walk sits a warp-granular fast path: kernels that
//! implement [`Kernel::run_warp`] process all 32 lanes of a warp as slices
//! through a [`WarpCtx`], so one vector store replaces 32 context-dispatch /
//! group-lookup round trips and lands in the machine through one batched
//! call ([`gpm_sim::Machine::gpu_store_pm_lanes`]). The engine only takes
//! this path when the launch's fuel gauge is inert and no trace sink is
//! installed — fuel accounting and per-lane trace events both need the
//! per-lane operation order — and a kernel declines per warp by returning
//! `Ok(false)`, falling back to 32 [`Kernel::run`] calls. Vector operations
//! account every counter exactly as the lockstep per-lane walk would (shared
//! operation sequence number, identical extent merging, identical drain), so
//! golden counters, simulated time, and traces are unchanged; the
//! one documented exception is [`gpm_sim::Stats::bytes_persisted`]: the
//! per-lane walk runs lanes to completion one after another (lane-major), so
//! one lane's fence can drain a CPU line a later lane re-dirties and
//! re-drains, while the vector path's operation-major order — the
//! SIMT-faithful one — fences the whole warp at once and drains each line
//! once. Timing never consumes `bytes_persisted`, so simulated time is
//! unaffected.

use std::fmt;
use std::sync::OnceLock;

use gpm_sim::pattern::PatternTracker;
use gpm_sim::{
    Addr, CrashPolicy, CrashReport, CrashSchedule, EventKind, Machine, MemSpace, Ns,
    PersistencyModel, SimError, SimResult, WriterId, GPU_LINE,
};

use crate::dim::{LaunchConfig, ThreadId, WARP_SIZE};
use crate::kernel::Kernel;
use crate::timing::KernelCosts;

/// Result of a completed kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Simulated elapsed time of the launch (also added to the machine
    /// clock).
    pub elapsed: Ns,
    /// Resource usage that produced `elapsed`.
    pub costs: KernelCosts,
}

/// Why a launch did not complete.
#[derive(Debug)]
pub enum LaunchError {
    /// A functional error (out-of-bounds access, etc.).
    Sim(SimError),
    /// The injected crash fuel ran out: the machine has crashed (volatile
    /// state wiped, pending PM lines partially applied).
    Crashed(CrashReport),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Sim(e) => write!(f, "kernel fault: {e}"),
            LaunchError::Crashed(r) => write!(
                f,
                "machine crashed mid-kernel ({} pending lines reached media, {} lost)",
                r.lines_applied, r.lines_dropped
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<SimError> for LaunchError {
    fn from(e: SimError) -> LaunchError {
        LaunchError::Sim(e)
    }
}

/// Crash-fuel accounting for a launch (or a sequence of launches sharing
/// one budget). Every context operation (load, store, atomic, fence) burns
/// one unit; the gauge decides what that means:
///
/// * [`FuelGauge::Unlimited`] — no counting, no crash.
/// * [`FuelGauge::Crash`] — after `remaining` ops the machine crashes;
///   `policy` picks the pending-line subset ([`Machine::crash_with_policy`])
///   or falls back to the machine RNG ([`Machine::crash`]).
/// * [`FuelGauge::Record`] — counts ops and notes every system fence and
///   launch completion as a [`CrashSchedule`] boundary: the discovery pass
///   of the crash-consistency campaign.
///
/// A gauge threaded through *identical* launch sequences makes the recorded
/// boundary fuels directly replayable as `Crash` budgets — the engine is
/// deterministic, so op N of the recording run is op N of the replay.
#[derive(Debug, Default)]
pub enum FuelGauge {
    /// No crash injection; ops are not counted.
    #[default]
    Unlimited,
    /// Crash when the budget is exhausted.
    Crash {
        /// Ops left before the crash fires.
        remaining: u64,
        /// Pending-line subset to apply at the crash; `None` = machine RNG.
        policy: Option<CrashPolicy>,
    },
    /// Count ops and record persist/launch boundaries.
    Record(CrashSchedule),
}

impl FuelGauge {
    /// A budget that crashes via the machine RNG (the legacy fuel path).
    pub fn crash(fuel: u64) -> FuelGauge {
        FuelGauge::Crash {
            remaining: fuel,
            policy: None,
        }
    }

    /// A budget that crashes with a deterministic pending-line subset.
    pub fn crash_with_policy(fuel: u64, policy: CrashPolicy) -> FuelGauge {
        FuelGauge::Crash {
            remaining: fuel,
            policy: Some(policy),
        }
    }

    /// A recording gauge with an empty schedule.
    pub fn record() -> FuelGauge {
        FuelGauge::Record(CrashSchedule::new())
    }

    /// The crash policy carried by a `Crash` gauge, if any.
    pub fn policy(&self) -> Option<CrashPolicy> {
        match self {
            FuelGauge::Crash { policy, .. } => *policy,
            _ => None,
        }
    }

    /// The recorded schedule of a `Record` gauge.
    pub fn schedule(&self) -> Option<&CrashSchedule> {
        match self {
            FuelGauge::Record(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the gauge, yielding the recorded schedule if recording.
    pub fn into_schedule(self) -> Option<CrashSchedule> {
        match self {
            FuelGauge::Record(s) => Some(s),
            _ => None,
        }
    }

    /// One context operation completes (or, with an exhausted budget, the
    /// crash fires instead).
    #[inline]
    fn burn(&mut self) -> SimResult<()> {
        match self {
            FuelGauge::Unlimited => Ok(()),
            FuelGauge::Crash { remaining, .. } => {
                if *remaining == 0 {
                    return Err(SimError::Crashed);
                }
                *remaining -= 1;
                Ok(())
            }
            FuelGauge::Record(s) => {
                s.count_op();
                Ok(())
            }
        }
    }

    /// Notes a persist/commit boundary (recording mode only).
    #[inline]
    fn note_boundary(&mut self) {
        if let FuelGauge::Record(s) = self {
            s.note_boundary();
        }
    }

    /// Whether a warp of `lanes` lanes whose per-lane fuel need is bounded
    /// by `bound` (the kernel's [`crate::Kernel::warp_fuel`] promise) may
    /// run vectorized under this gauge: the gauge must provably not expire
    /// mid-warp, and must not be enumerating per-op boundaries.
    #[inline]
    fn covers_warp(&self, bound: Option<u64>, lanes: u32) -> bool {
        match self {
            FuelGauge::Unlimited => true,
            FuelGauge::Crash { remaining, .. } => {
                bound.is_some_and(|b| *remaining >= b.saturating_mul(lanes as u64))
            }
            // Recording counts individual ops and boundary positions; the
            // schedule (and thus every enumerated crash case) must be
            // bit-identical to the per-lane walk, so never vectorize.
            FuelGauge::Record(_) => false,
        }
    }

    /// Burns one warp-vector operation: `lanes` fuel, all-or-nothing. Only
    /// reachable when [`FuelGauge::covers_warp`] admitted the warp, so the
    /// budget cannot hit zero mid-warp (debug builds assert the kernel's
    /// `warp_fuel` bound was honest; release builds saturate).
    #[inline]
    fn burn_lanes(&mut self, lanes: u32) {
        match self {
            FuelGauge::Unlimited => {}
            FuelGauge::Crash { remaining, .. } => {
                debug_assert!(
                    *remaining >= lanes as u64,
                    "warp_fuel under-estimated a kernel's per-lane operations"
                );
                *remaining = remaining.saturating_sub(lanes as u64);
            }
            FuelGauge::Record(_) => {
                debug_assert!(false, "recording gauges never take the vector path");
            }
        }
    }
}

/// A coalesced write extent within one 128-byte GPU line.
#[derive(Debug, Clone, Copy)]
struct WriteExtent {
    line: u64,
    start: u64,
    end: u64,
}

/// Accesses issued by the warp's lanes at one program point (one operation
/// sequence number). Lockstep lanes hit the same group, so their line-sharing
/// accesses merge here — this *is* the hardware coalescer.
#[derive(Debug, Default)]
struct SeqGroup {
    /// Write extents, kept sorted by line index (matches the former
    /// `BTreeMap` emission order bit for bit).
    write_lines: Vec<WriteExtent>,
    /// Distinct lines read at this program point.
    read_lines: Vec<u64>,
    sys_fence: bool,
    dev_fence: bool,
}

impl SeqGroup {
    fn clear(&mut self) {
        self.write_lines.clear();
        self.read_lines.clear();
        self.sys_fence = false;
        self.dev_fence = false;
    }

    fn record_write(&mut self, offset: u64, len: u64) {
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let line = cur / GPU_LINE;
            let ext_end = end.min((line + 1) * GPU_LINE);
            match self.write_lines.binary_search_by_key(&line, |e| e.line) {
                Ok(i) => {
                    let e = &mut self.write_lines[i];
                    e.start = e.start.min(cur);
                    e.end = e.end.max(ext_end);
                }
                Err(i) => {
                    self.write_lines.insert(
                        i,
                        WriteExtent {
                            line,
                            start: cur,
                            end: ext_end,
                        },
                    );
                }
            }
            cur = ext_end;
        }
    }

    fn record_read(&mut self, offset: u64, len: u64) {
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let line = cur / GPU_LINE;
            if !self.read_lines.contains(&line) {
                self.read_lines.push(line);
            }
            cur = (line + 1) * GPU_LINE;
        }
    }
}

/// Retained-group cap: a pathological warp (one thread issuing millions of
/// ops) can grow the group table arbitrarily; anything beyond this is
/// released at drain so the scratch footprint stays bounded.
const MAX_RETAINED_GROUPS: usize = 1 << 14;

/// Reusable per-warp coalescing state. Groups are dense in the operation
/// sequence number, so lookup is an array index, and a drained group's
/// buffers are kept (cleared) for the next warp — zero allocation per warp
/// in steady state.
#[derive(Debug, Default)]
struct WarpScratch {
    groups: Vec<SeqGroup>,
    used: usize,
}

impl WarpScratch {
    /// The group for operation sequence number `seq` (1-based: the first
    /// `burn` of a thread yields seq 1).
    fn group(&mut self, seq: u32) -> &mut SeqGroup {
        let idx = (seq - 1) as usize;
        if idx >= self.used {
            if self.groups.len() <= idx {
                self.groups.resize_with(idx + 1, SeqGroup::default);
            }
            self.used = idx + 1;
        }
        &mut self.groups[idx]
    }

    /// Emits the warp's coalesced transactions and fence events, then resets
    /// for the next warp. Groups are visited in program order and lines in
    /// ascending order, mirroring the former sorted-map drain exactly. A
    /// warp that issued no memory operation (all lanes idle or pure compute)
    /// returns without touching the group table.
    fn drain(&mut self, machine: &mut Machine, costs: &mut KernelCosts) {
        if self.used == 0 {
            return;
        }
        for g in &mut self.groups[..self.used] {
            for e in &g.write_lines {
                costs.pcie_write_txns += 1;
                machine.gpu_pm_txn(e.start, e.end - e.start);
            }
            costs.pcie_read_txns += g.read_lines.len() as u64;
            if g.sys_fence {
                costs.system_fence_events += 1;
                machine.gpu_pm_pattern.barrier();
            }
            if g.dev_fence {
                costs.device_fence_events += 1;
                if machine.trace_enabled() {
                    machine.trace(EventKind::DeviceFence);
                }
            }
            g.clear();
        }
        self.used = 0;
        if self.groups.len() > MAX_RETAINED_GROUPS {
            self.groups.truncate(MAX_RETAINED_GROUPS);
            self.groups.shrink_to_fit();
        }
    }
}

/// Execution context handed to each thread, wrapping the machine with the
/// thread's identity and the warp's coalescing buffer.
pub struct ThreadCtx<'a> {
    machine: &'a mut Machine,
    costs: &'a mut KernelCosts,
    scratch: &'a mut WarpScratch,
    gauge: &'a mut FuelGauge,
    launch: LaunchConfig,
    id: ThreadId,
    writer: WriterId,
    op_seq: u32,
}

impl fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("op_seq", &self.op_seq)
            .finish_non_exhaustive()
    }
}

impl ThreadCtx<'_> {
    fn burn(&mut self) -> SimResult<()> {
        self.gauge.burn()?;
        self.op_seq += 1;
        Ok(())
    }

    // ---- identity -----------------------------------------------------------

    /// Globally unique linear thread index (`blockIdx.x * blockDim.x +
    /// threadIdx.x`).
    pub fn global_id(&self) -> u64 {
        self.id.global(&self.launch)
    }

    /// Block index within the grid.
    pub fn block_id(&self) -> u32 {
        self.id.block
    }

    /// Thread index within the block.
    pub fn thread_in_block(&self) -> u32 {
        self.id.thread
    }

    /// Lane within the warp (0..32).
    pub fn lane(&self) -> u32 {
        self.id.lane()
    }

    /// Threads per block of this launch.
    pub fn block_dim(&self) -> u32 {
        self.launch.block
    }

    /// Blocks in this launch's grid.
    pub fn grid_dim(&self) -> u32 {
        self.launch.grid
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.launch.total_threads()
    }

    // ---- memory operations ---------------------------------------------------

    /// Stores raw bytes. PM stores travel over PCIe and coalesce per warp;
    /// they require a [`ThreadCtx::threadfence_system`] (with persistence
    /// available) to become durable.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn st_bytes(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        self.burn()?;
        match addr.space {
            MemSpace::Pm => {
                self.machine.gpu_store_pm(self.writer, addr.offset, bytes)?;
                self.costs.pm_write_bytes += bytes.len() as u64;
                self.scratch
                    .group(self.op_seq)
                    .record_write(addr.offset, bytes.len() as u64);
            }
            MemSpace::Hbm => {
                self.machine.host_write(addr, bytes)?;
                self.costs.hbm_bytes += bytes.len() as u64;
            }
            MemSpace::Dram => {
                self.machine.host_write(addr, bytes)?;
                self.costs.dram_bytes += bytes.len() as u64;
            }
        }
        Ok(())
    }

    /// Loads raw bytes with coherent visibility.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn ld_bytes(&mut self, addr: Addr, buf: &mut [u8]) -> SimResult<()> {
        self.burn()?;
        match addr.space {
            MemSpace::Pm => {
                self.machine.gpu_load_pm(addr.offset, buf)?;
                self.costs.pm_read_bytes += buf.len() as u64;
                self.scratch
                    .group(self.op_seq)
                    .record_read(addr.offset, buf.len() as u64);
            }
            MemSpace::Hbm => {
                self.machine.read(addr, buf)?;
                self.costs.hbm_bytes += buf.len() as u64;
            }
            MemSpace::Dram => {
                self.machine.read(addr, buf)?;
                self.costs.dram_bytes += buf.len() as u64;
            }
        }
        Ok(())
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::st_bytes`].
    pub fn st_u32(&mut self, addr: Addr, v: u32) -> SimResult<()> {
        self.st_bytes(addr, &v.to_le_bytes())
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::ld_bytes`].
    pub fn ld_u32(&mut self, addr: Addr) -> SimResult<u32> {
        let mut b = [0u8; 4];
        self.ld_bytes(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::st_bytes`].
    pub fn st_u64(&mut self, addr: Addr, v: u64) -> SimResult<()> {
        self.st_bytes(addr, &v.to_le_bytes())
    }

    /// Loads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::ld_bytes`].
    pub fn ld_u64(&mut self, addr: Addr) -> SimResult<u64> {
        let mut b = [0u8; 8];
        self.ld_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Stores a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::st_bytes`].
    pub fn st_f32(&mut self, addr: Addr, v: f32) -> SimResult<()> {
        self.st_bytes(addr, &v.to_le_bytes())
    }

    /// Loads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::ld_bytes`].
    pub fn ld_f32(&mut self, addr: Addr) -> SimResult<f32> {
        let mut b = [0u8; 4];
        self.ld_bytes(addr, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    /// Stores a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::st_bytes`].
    pub fn st_f64(&mut self, addr: Addr, v: f64) -> SimResult<()> {
        self.st_bytes(addr, &v.to_le_bytes())
    }

    /// Loads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// See [`ThreadCtx::ld_bytes`].
    pub fn ld_f64(&mut self, addr: Addr) -> SimResult<f64> {
        let mut b = [0u8; 8];
        self.ld_bytes(addr, &mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    /// Atomic fetch-add on a `u32` (e.g. frontier queue tails). Returns the
    /// previous value.
    ///
    /// The whole read-modify-write is one fused operation: one unit of crash
    /// fuel, and — for PM-resident targets — one non-posted PCIe transaction,
    /// not a separate load plus store that would double-count PCIe traffic
    /// (the old value returns in the same completion the RMW request elicits).
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn atomic_add_u32(&mut self, addr: Addr, v: u32) -> SimResult<u32> {
        self.burn()?;
        let mut b = [0u8; 4];
        self.machine.read(addr, &mut b)?;
        let old = u32::from_le_bytes(b);
        let new = old.wrapping_add(v).to_le_bytes();
        match addr.space {
            MemSpace::Pm => {
                self.machine.gpu_store_pm(self.writer, addr.offset, &new)?;
                self.costs.pm_write_bytes += 4;
                self.scratch.group(self.op_seq).record_write(addr.offset, 4);
            }
            MemSpace::Hbm => {
                self.machine.host_write(addr, &new)?;
                self.costs.hbm_bytes += 8;
            }
            MemSpace::Dram => {
                self.machine.host_write(addr, &new)?;
                self.costs.dram_bytes += 8;
            }
        }
        Ok(old)
    }

    // ---- fences & modelling hooks ---------------------------------------------

    /// `__threadfence_system()`: orders prior writes with respect to the
    /// whole system. Under GPM's DDIO-disabled window (or eADR) this is the
    /// persist operation; with DDIO enabled it provides visibility only.
    ///
    /// # Errors
    ///
    /// Injected crashes surface as [`SimError::Crashed`].
    pub fn threadfence_system(&mut self) -> SimResult<()> {
        self.burn()?;
        self.machine.gpu_system_fence(self.writer);
        self.scratch.group(self.op_seq).sys_fence = true;
        // A system fence is where durable state advances: the crash
        // campaign's discovery pass notes the fuel consumed so far as an
        // interesting crash point.
        self.gauge.note_boundary();
        Ok(())
    }

    /// A synchronous drain fence: like [`ThreadCtx::threadfence_system`] but
    /// drains this writer's pending lines into media even under
    /// [`gpm_sim::PersistencyModel::Epoch`] (where the ordinary system fence
    /// only closes lines into the open epoch). The detectable-op layer uses
    /// this between publishing an operation's record and marking its
    /// descriptor: without the drain, a crash after the descriptor mark could
    /// drop the record while keeping the mark, breaking exactly-once
    /// recovery. Counts as one operation of crash fuel and one fence
    /// boundary, exactly like the plain system fence.
    ///
    /// # Errors
    ///
    /// Injected crashes surface as [`SimError::Crashed`].
    pub fn threadfence_system_sync(&mut self) -> SimResult<()> {
        self.burn()?;
        self.machine.gpu_sync_fence(self.writer);
        self.scratch.group(self.op_seq).sys_fence = true;
        self.gauge.note_boundary();
        Ok(())
    }

    /// `__threadfence()`: device-scope ordering (visibility to other blocks).
    ///
    /// # Errors
    ///
    /// Injected crashes surface as [`SimError::Crashed`].
    pub fn threadfence(&mut self) -> SimResult<()> {
        self.burn()?;
        self.scratch.group(self.op_seq).dev_fence = true;
        Ok(())
    }

    /// Declares `ns` of pure compute by this thread (hidden by parallelism).
    pub fn compute(&mut self, ns: Ns) {
        self.costs.compute += ns;
    }

    /// Declares serialized work behind contention key `key` (e.g. a lock on
    /// a log partition): chains on the same key cannot overlap.
    pub fn serialize(&mut self, key: u64, t: Ns) {
        self.costs.add_serial(key, t);
    }

    /// Whether a system fence currently guarantees durability (DDIO disabled
    /// or eADR) — what `gpm_persist` relies on.
    pub fn persist_guaranteed(&self) -> bool {
        self.machine.gpu_persist_guaranteed()
    }

    /// Read-only access to platform configuration.
    pub fn config(&self) -> &gpm_sim::MachineConfig {
        &self.machine.cfg
    }

    /// Emits a structured trace event at the thread's current machine state
    /// (no-op unless a sink is installed). Library layers running inside a
    /// kernel — log appends, checkpoint phases — mark themselves with this.
    pub fn trace_marker(&mut self, kind: EventKind) {
        if self.machine.trace_enabled() {
            self.machine.trace(kind);
        }
    }
}

/// Largest vector operation: a full warp of 8-byte lanes.
const WARP_BYTES: usize = (WARP_SIZE as usize) * 8;

/// Execution context for one warp executing a phase in lockstep — the
/// vectorized counterpart of [`ThreadCtx`], handed to
/// [`Kernel::run_warp`].
///
/// Every vector operation is the lockstep-simultaneous issue of one
/// operation by each active lane: lane `i` (0-based within the warp)
/// accesses `addr + i * stride` and owns element `i` of the value slice. One
/// vector operation advances the warp's shared operation sequence number
/// once, so its accesses coalesce exactly as 32 per-lane operations at the
/// same program point would, and all cost, fuel-boundary, and
/// pattern-tracker accounting is identical to the per-lane walk.
pub struct WarpCtx<'a> {
    machine: &'a mut Machine,
    costs: &'a mut KernelCosts,
    scratch: &'a mut WarpScratch,
    gauge: &'a mut FuelGauge,
    launch: LaunchConfig,
    block: u32,
    warp: u32,
    lanes: u32,
    writer0: WriterId,
    op_seq: u32,
}

impl fmt::Debug for WarpCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpCtx")
            .field("block", &self.block)
            .field("warp", &self.warp)
            .field("lanes", &self.lanes)
            .field("op_seq", &self.op_seq)
            .finish_non_exhaustive()
    }
}

impl WarpCtx<'_> {
    // ---- identity -----------------------------------------------------------

    /// Active lanes in this warp (32, or fewer for the tail warp of a block
    /// whose dimension is not a multiple of 32).
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Global linear thread index of lane 0; lane `i` is
    /// `first_global_id() + i`.
    pub fn first_global_id(&self) -> u64 {
        self.block as u64 * self.launch.block as u64 + (self.warp * WARP_SIZE) as u64
    }

    /// Block index within the grid.
    pub fn block_id(&self) -> u32 {
        self.block
    }

    /// Warp index within the block.
    pub fn warp_in_block(&self) -> u32 {
        self.warp
    }

    /// Threads per block of this launch.
    pub fn block_dim(&self) -> u32 {
        self.launch.block
    }

    /// Blocks in this launch's grid.
    pub fn grid_dim(&self) -> u32 {
        self.launch.grid
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.launch.total_threads()
    }

    /// Whether a system fence currently guarantees durability (DDIO disabled
    /// or eADR) — what `gpm_persist` relies on.
    pub fn persist_guaranteed(&self) -> bool {
        self.machine.gpu_persist_guaranteed()
    }

    /// Read-only access to platform configuration.
    pub fn config(&self) -> &gpm_sim::MachineConfig {
        &self.machine.cfg
    }

    // ---- vector memory operations -------------------------------------------

    /// One lockstep store of `N`-byte values: lane `i` stores `get(i)` at
    /// `addr + i * stride`. Contiguous PM stores (`stride == N`) take the
    /// batched single-call path; everything else issues per lane (same
    /// accounting either way).
    fn st_lanes<const N: usize>(
        &mut self,
        addr: Addr,
        stride: u64,
        get: impl Fn(usize) -> [u8; N],
    ) -> SimResult<()> {
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        let lanes = self.lanes as usize;
        let total = (lanes * N) as u64;
        match addr.space {
            MemSpace::Pm => {
                if stride == N as u64 {
                    let mut buf = [0u8; WARP_BYTES];
                    for i in 0..lanes {
                        buf[i * N..(i + 1) * N].copy_from_slice(&get(i));
                    }
                    self.machine.gpu_store_pm_lanes(
                        self.writer0,
                        N as u32,
                        addr.offset,
                        &buf[..lanes * N],
                    )?;
                    self.scratch
                        .group(self.op_seq)
                        .record_write(addr.offset, total);
                } else {
                    for i in 0..lanes {
                        let off = addr.offset + i as u64 * stride;
                        self.machine
                            .gpu_store_pm(self.writer0 + i as WriterId, off, &get(i))?;
                        self.scratch.group(self.op_seq).record_write(off, N as u64);
                    }
                }
                self.costs.pm_write_bytes += total;
            }
            MemSpace::Hbm | MemSpace::Dram => {
                if stride == N as u64 {
                    // Contiguous volatile span: one memory call. The
                    // per-call `host_write` has no counters, so batching is
                    // invisible to stats; byte totals are added below
                    // exactly as the per-lane walk sums them.
                    let mut buf = [0u8; WARP_BYTES];
                    for i in 0..lanes {
                        buf[i * N..(i + 1) * N].copy_from_slice(&get(i));
                    }
                    self.machine.host_write(addr, &buf[..lanes * N])?;
                } else {
                    for i in 0..lanes {
                        let a = Addr {
                            space: addr.space,
                            offset: addr.offset + i as u64 * stride,
                        };
                        self.machine.host_write(a, &get(i))?;
                    }
                }
                match addr.space {
                    MemSpace::Hbm => self.costs.hbm_bytes += total,
                    _ => self.costs.dram_bytes += total,
                }
            }
        }
        Ok(())
    }

    /// One lockstep load of `N`-byte values: lane `i` loads from
    /// `addr + i * stride` into `put(i, ..)`. Contiguous PM loads read the
    /// whole span in one call.
    fn ld_lanes<const N: usize>(
        &mut self,
        addr: Addr,
        stride: u64,
        mut put: impl FnMut(usize, [u8; N]),
    ) -> SimResult<()> {
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        let lanes = self.lanes as usize;
        let total = (lanes * N) as u64;
        match addr.space {
            MemSpace::Pm => {
                if stride == N as u64 {
                    let mut buf = [0u8; WARP_BYTES];
                    self.machine
                        .gpu_load_pm(addr.offset, &mut buf[..lanes * N])?;
                    for i in 0..lanes {
                        put(i, buf[i * N..(i + 1) * N].try_into().unwrap());
                    }
                    self.scratch
                        .group(self.op_seq)
                        .record_read(addr.offset, total);
                } else {
                    for i in 0..lanes {
                        let off = addr.offset + i as u64 * stride;
                        let mut b = [0u8; N];
                        self.machine.gpu_load_pm(off, &mut b)?;
                        put(i, b);
                        self.scratch.group(self.op_seq).record_read(off, N as u64);
                    }
                }
                self.costs.pm_read_bytes += total;
            }
            MemSpace::Hbm | MemSpace::Dram => {
                if stride == N as u64 {
                    let mut buf = [0u8; WARP_BYTES];
                    self.machine.read(addr, &mut buf[..lanes * N])?;
                    for i in 0..lanes {
                        put(i, buf[i * N..(i + 1) * N].try_into().unwrap());
                    }
                } else {
                    for i in 0..lanes {
                        let a = Addr {
                            space: addr.space,
                            offset: addr.offset + i as u64 * stride,
                        };
                        let mut b = [0u8; N];
                        self.machine.read(a, &mut b)?;
                        put(i, b);
                    }
                }
                match addr.space {
                    MemSpace::Hbm => self.costs.hbm_bytes += total,
                    _ => self.costs.dram_bytes += total,
                }
            }
        }
        Ok(())
    }

    /// Lockstep store of little-endian `u64`s: lane `i` stores `vals[i]` at
    /// `addr + i * stride`.
    ///
    /// # Panics
    ///
    /// Panics unless `vals.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::st_bytes`]).
    pub fn st_u64_lanes(&mut self, addr: Addr, stride: u64, vals: &[u64]) -> SimResult<()> {
        assert_eq!(vals.len(), self.lanes as usize, "one value per active lane");
        self.st_lanes(addr, stride, |i| vals[i].to_le_bytes())
    }

    /// Lockstep store of little-endian `u32`s: lane `i` stores `vals[i]` at
    /// `addr + i * stride`.
    ///
    /// # Panics
    ///
    /// Panics unless `vals.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::st_bytes`]).
    pub fn st_u32_lanes(&mut self, addr: Addr, stride: u64, vals: &[u32]) -> SimResult<()> {
        assert_eq!(vals.len(), self.lanes as usize, "one value per active lane");
        self.st_lanes(addr, stride, |i| vals[i].to_le_bytes())
    }

    /// Lockstep load of little-endian `u64`s: lane `i` loads
    /// `addr + i * stride` into `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::ld_bytes`]).
    pub fn ld_u64_lanes(&mut self, addr: Addr, stride: u64, out: &mut [u64]) -> SimResult<()> {
        assert_eq!(out.len(), self.lanes as usize, "one slot per active lane");
        self.ld_lanes(addr, stride, |i, b| out[i] = u64::from_le_bytes(b))
    }

    /// Lockstep load of little-endian `u32`s: lane `i` loads
    /// `addr + i * stride` into `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::ld_bytes`]).
    pub fn ld_u32_lanes(&mut self, addr: Addr, stride: u64, out: &mut [u32]) -> SimResult<()> {
        assert_eq!(out.len(), self.lanes as usize, "one slot per active lane");
        self.ld_lanes(addr, stride, |i, b| out[i] = u32::from_le_bytes(b))
    }

    /// Lockstep store of little-endian `f32`s: lane `i` stores `vals[i]` at
    /// `addr + i * stride`.
    ///
    /// # Panics
    ///
    /// Panics unless `vals.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::st_bytes`]).
    pub fn st_f32_lanes(&mut self, addr: Addr, stride: u64, vals: &[f32]) -> SimResult<()> {
        assert_eq!(vals.len(), self.lanes as usize, "one value per active lane");
        self.st_lanes(addr, stride, |i| vals[i].to_le_bytes())
    }

    /// Lockstep load of little-endian `f32`s: lane `i` loads
    /// `addr + i * stride` into `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals [`WarpCtx::lanes`].
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::ld_bytes`]).
    pub fn ld_f32_lanes(&mut self, addr: Addr, stride: u64, out: &mut [f32]) -> SimResult<()> {
        assert_eq!(out.len(), self.lanes as usize, "one slot per active lane");
        self.ld_lanes(addr, stride, |i, b| out[i] = f32::from_le_bytes(b))
    }

    /// Lockstep store of byte spans: lane `i` stores
    /// `data[i * lane_bytes ..][.. lane_bytes]` at `addr + i * stride` — the
    /// vector form of [`ThreadCtx::st_bytes`] for bulk movers (checkpoint
    /// chunks, table rows). A contiguous span (`stride == lane_bytes`) is
    /// issued as a single call; counters are identical either way.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` equals `lanes × lane_bytes` with
    /// `lane_bytes > 0`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::st_bytes`]).
    pub fn st_bytes_lanes(
        &mut self,
        addr: Addr,
        stride: u64,
        lane_bytes: usize,
        data: &[u8],
    ) -> SimResult<()> {
        let lanes = self.lanes as usize;
        assert!(lane_bytes > 0, "lane span must be non-empty");
        assert_eq!(data.len(), lanes * lane_bytes, "one span per active lane");
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        let total = data.len() as u64;
        match addr.space {
            MemSpace::Pm => {
                if stride == lane_bytes as u64 {
                    self.machine.gpu_store_pm_lanes(
                        self.writer0,
                        lane_bytes as u32,
                        addr.offset,
                        data,
                    )?;
                    self.scratch
                        .group(self.op_seq)
                        .record_write(addr.offset, total);
                } else {
                    for i in 0..lanes {
                        let off = addr.offset + i as u64 * stride;
                        let chunk = &data[i * lane_bytes..(i + 1) * lane_bytes];
                        self.machine
                            .gpu_store_pm(self.writer0 + i as WriterId, off, chunk)?;
                        self.scratch
                            .group(self.op_seq)
                            .record_write(off, lane_bytes as u64);
                    }
                }
                self.costs.pm_write_bytes += total;
            }
            MemSpace::Hbm | MemSpace::Dram => {
                if stride == lane_bytes as u64 {
                    self.machine.host_write(addr, data)?;
                } else {
                    for i in 0..lanes {
                        let a = Addr {
                            space: addr.space,
                            offset: addr.offset + i as u64 * stride,
                        };
                        self.machine
                            .host_write(a, &data[i * lane_bytes..(i + 1) * lane_bytes])?;
                    }
                }
                match addr.space {
                    MemSpace::Hbm => self.costs.hbm_bytes += total,
                    _ => self.costs.dram_bytes += total,
                }
            }
        }
        Ok(())
    }

    /// Lockstep load of byte spans: lane `i` loads `addr + i * stride` into
    /// `out[i * lane_bytes ..][.. lane_bytes]` — the vector form of
    /// [`ThreadCtx::ld_bytes`] for bulk movers.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len()` equals `lanes × lane_bytes` with
    /// `lane_bytes > 0`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses surface as errors (see [`ThreadCtx::ld_bytes`]).
    pub fn ld_bytes_lanes(
        &mut self,
        addr: Addr,
        stride: u64,
        lane_bytes: usize,
        out: &mut [u8],
    ) -> SimResult<()> {
        let lanes = self.lanes as usize;
        assert!(lane_bytes > 0, "lane span must be non-empty");
        assert_eq!(out.len(), lanes * lane_bytes, "one span per active lane");
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        let total = out.len() as u64;
        match addr.space {
            MemSpace::Pm => {
                if stride == lane_bytes as u64 {
                    self.machine.gpu_load_pm(addr.offset, out)?;
                    self.scratch
                        .group(self.op_seq)
                        .record_read(addr.offset, total);
                } else {
                    for i in 0..lanes {
                        let off = addr.offset + i as u64 * stride;
                        self.machine
                            .gpu_load_pm(off, &mut out[i * lane_bytes..(i + 1) * lane_bytes])?;
                        self.scratch
                            .group(self.op_seq)
                            .record_read(off, lane_bytes as u64);
                    }
                }
                self.costs.pm_read_bytes += total;
            }
            MemSpace::Hbm | MemSpace::Dram => {
                if stride == lane_bytes as u64 {
                    self.machine.read(addr, out)?;
                } else {
                    for i in 0..lanes {
                        let a = Addr {
                            space: addr.space,
                            offset: addr.offset + i as u64 * stride,
                        };
                        self.machine
                            .read(a, &mut out[i * lane_bytes..(i + 1) * lane_bytes])?;
                    }
                }
                match addr.space {
                    MemSpace::Hbm => self.costs.hbm_bytes += total,
                    _ => self.costs.dram_bytes += total,
                }
            }
        }
        Ok(())
    }

    // ---- fences & modelling hooks ---------------------------------------------

    /// `__threadfence_system()` by every active lane simultaneously — the
    /// warp-coalesced persist operation. One fence event, like 32 lockstep
    /// per-lane fences.
    pub fn threadfence_system(&mut self) {
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        self.machine
            .gpu_system_fence_lanes(self.writer0, self.lanes);
        self.scratch.group(self.op_seq).sys_fence = true;
    }

    /// `__threadfence()` by every active lane simultaneously (device-scope
    /// ordering).
    pub fn threadfence(&mut self) {
        self.op_seq += 1;
        self.gauge.burn_lanes(self.lanes);
        self.scratch.group(self.op_seq).dev_fence = true;
    }

    /// Declares `ns` of pure compute by *each* active lane. Summed with one
    /// addition per lane so the floating-point total matches the per-lane
    /// walk bit for bit.
    pub fn compute(&mut self, ns: Ns) {
        for _ in 0..self.lanes {
            self.costs.compute += ns;
        }
    }

    /// Declares serialized work behind contention key `key` by each active
    /// lane (one addition per lane, like [`WarpCtx::compute`]).
    pub fn serialize(&mut self, key: u64, t: Ns) {
        for _ in 0..self.lanes {
            self.costs.add_serial(key, t);
        }
    }
}

/// Launches `kernel` over `cfg`, returning its report. The machine clock
/// advances by the kernel's elapsed time.
///
/// # Errors
///
/// Returns any functional error a thread hit (e.g. out-of-bounds).
pub fn launch<K: Kernel>(
    machine: &mut Machine,
    cfg: LaunchConfig,
    kernel: &K,
) -> SimResult<KernelReport> {
    match launch_inner(machine, cfg, kernel, &mut FuelGauge::Unlimited) {
        Ok(r) => Ok(r),
        Err(LaunchError::Sim(e)) => Err(e),
        Err(LaunchError::Crashed(_)) => unreachable!("no fuel, no crash"),
    }
}

/// Launches `kernel` with crash injection: after `fuel` context operations
/// across all threads, the machine crashes (volatile state wiped, pending PM
/// lines partially applied) and [`LaunchError::Crashed`] is returned.
///
/// # Errors
///
/// [`LaunchError::Crashed`] on fuel exhaustion; [`LaunchError::Sim`] on
/// functional errors.
pub fn launch_with_fuel<K: Kernel>(
    machine: &mut Machine,
    cfg: LaunchConfig,
    kernel: &K,
    fuel: u64,
) -> Result<KernelReport, LaunchError> {
    launch_inner(machine, cfg, kernel, &mut FuelGauge::crash(fuel))
}

/// Like [`launch_with_fuel`], but draws from (and writes back to) a shared
/// [`FuelGauge`], so a sequence of launches can share one crash budget —
/// or one recording schedule. [`FuelGauge::Unlimited`] means no injection.
///
/// # Errors
///
/// Same as [`launch_with_fuel`].
pub fn launch_with_gauge<K: Kernel>(
    machine: &mut Machine,
    cfg: LaunchConfig,
    kernel: &K,
    gauge: &mut FuelGauge,
) -> Result<KernelReport, LaunchError> {
    launch_inner(machine, cfg, kernel, gauge)
}

/// Host threads a launch runs on: always `1`, since blocks run in order on
/// the calling thread. Exposed for harnesses that print the engine
/// configuration alongside results.
pub fn resolved_engine_threads(_cfg: &LaunchConfig) -> u32 {
    1
}

/// Process-wide default persistency model: `GPM_PERSISTENCY=epoch` (case-
/// insensitive) selects [`PersistencyModel::Epoch`]; anything else — or the
/// variable unset — is [`PersistencyModel::Strict`]. Cached on first read.
static ENV_MODEL: OnceLock<PersistencyModel> = OnceLock::new();

fn env_persistency() -> PersistencyModel {
    *ENV_MODEL.get_or_init(|| match std::env::var("GPM_PERSISTENCY") {
        Ok(s) if s.trim().eq_ignore_ascii_case("epoch") => PersistencyModel::Epoch,
        _ => PersistencyModel::Strict,
    })
}

/// Pin the process-wide default persistency model before the first launch
/// resolves `GPM_PERSISTENCY`. Returns `false` (and changes nothing) when the
/// default has already been resolved or pinned. Per-launch
/// [`LaunchConfig::persistency`] overrides still apply. The crash-consistency
/// campaign uses this: its recovery oracles verify the strict durability
/// contract, which the epoch model deliberately weakens, so the campaign pins
/// [`PersistencyModel::Strict`] instead of letting the env knob silently
/// invalidate its verdicts.
pub fn pin_default_persistency(model: PersistencyModel) -> bool {
    ENV_MODEL.set(model).is_ok()
}

/// The persistency model a launch with `cfg` would run under, after applying
/// the [`LaunchConfig::persistency`] override and the `GPM_PERSISTENCY`
/// environment variable. Exposed for harnesses that record the engine
/// configuration alongside results.
pub fn resolved_persistency(cfg: &LaunchConfig) -> PersistencyModel {
    cfg.persistency.unwrap_or_else(env_persistency)
}

fn launch_inner<K: Kernel>(
    machine: &mut Machine,
    cfg: LaunchConfig,
    kernel: &K,
    gauge: &mut FuelGauge,
) -> Result<KernelReport, LaunchError> {
    machine.stats.kernel_launches += 1;
    let launch_ord = machine.stats.kernel_launches;
    if machine.trace_enabled() {
        machine.trace(EventKind::KernelBegin {
            launch: launch_ord,
            grid: cfg.grid,
            block_dim: cfg.block,
        });
    }
    // The model is machine state for the duration of the launch: fences
    // consult it ([`Machine::gpu_system_fence`]), and the engine reads it
    // back for the timing model.
    let model = resolved_persistency(&cfg);
    machine.set_persistency(model);
    let report = match launch_sequential(machine, cfg, kernel, gauge) {
        Ok(report) => report,
        Err(LaunchError::Sim(e)) => {
            if machine.trace_enabled() {
                machine.trace(EventKind::KernelEnd { launch: launch_ord });
            }
            return Err(LaunchError::Sim(e));
        }
        // A mid-kernel crash already closed its spans (the engine emits
        // BlockCommit + KernelEnd before wiping state, and
        // the Crash event cuts anything still open in the sink). Closed
        // epoch lines stay pending: the crash resolves their fate, which is
        // exactly the crash-vulnerability window epoch persistency buys its
        // cheap fences with.
        Err(e) => return Err(e),
    };
    // Kernel completion is the epoch boundary: drain every line the
    // launch's fences closed. (Error paths skip the drain — an epoch is
    // only durable once its kernel completes.)
    if model == PersistencyModel::Epoch {
        machine.epoch_drain();
    }
    if machine.trace_enabled() {
        machine.trace(EventKind::KernelEnd { launch: launch_ord });
    }
    // Launch completion is a commit boundary too: host-side work (log
    // clears, flag flips) between launches lands right after it, and a
    // crash budget equal to this op count fires at the *next* gauged
    // launch's first op — i.e. after that host work took effect.
    gauge.note_boundary();
    Ok(report)
}

/// Runs the blocks in order against the live machine. Costs are
/// accumulated per block and merged in block order: that fixes how the
/// floating-point sums associate, and so the bits of simulated time.
fn launch_sequential<K: Kernel>(
    machine: &mut Machine,
    cfg: LaunchConfig,
    kernel: &K,
    gauge: &mut FuelGauge,
) -> Result<KernelReport, LaunchError> {
    let pattern_before = machine.gpu_pm_pattern.clone();
    let launch_ord = machine.stats.kernel_launches;
    let mut total = KernelCosts::default();
    let mut scratch = WarpScratch::default();
    let mut states: Vec<K::State> = Vec::new();
    let mut shared = K::Shared::default();
    let phases = kernel.phases();
    // Per-lane trace events (SystemFence, EadrPersist) require the per-lane
    // operation order, so an installed sink forces the per-lane walk
    // launch-wide. Fuel is warp-granular: each warp vectorizes only if the
    // gauge provably cannot expire inside it (see FuelGauge::covers_warp),
    // re-checked per warp as the crash budget drains.
    let trace_blocks = machine.trace_enabled();

    for block in 0..cfg.grid {
        if machine.trace_enabled() {
            machine.trace(EventKind::BlockBegin { block });
        }
        kernel.reset_shared(&mut shared);
        states.clear();
        states.resize_with(cfg.block as usize, K::State::default);
        let mut costs = KernelCosts::default();
        for phase in 0..phases {
            let warp_fuel = kernel.warp_fuel(phase);
            for warp in 0..cfg.warps_per_block() {
                let first = warp * WARP_SIZE;
                let lanes = (cfg.block - first).min(WARP_SIZE);
                let mut vectored = false;
                if !trace_blocks && gauge.covers_warp(warp_fuel, lanes) {
                    let mut ctx = WarpCtx {
                        machine,
                        costs: &mut costs,
                        scratch: &mut scratch,
                        gauge,
                        launch: cfg,
                        block,
                        warp,
                        lanes,
                        writer0: (block as u64 * cfg.block as u64 + first as u64) as WriterId,
                        op_seq: 0,
                    };
                    let lo = first as usize;
                    match kernel.run_warp(
                        phase,
                        &mut ctx,
                        &mut states[lo..lo + lanes as usize],
                        &mut shared,
                    ) {
                        Ok(handled) => vectored = handled,
                        Err(SimError::Crashed) => {
                            let report = match gauge.policy() {
                                Some(p) => machine.crash_with_policy(p),
                                None => machine.crash(),
                            };
                            return Err(LaunchError::Crashed(report));
                        }
                        Err(e) => return Err(LaunchError::Sim(e)),
                    }
                }
                if !vectored {
                    for lane in 0..WARP_SIZE {
                        let thread = first + lane;
                        if thread >= cfg.block {
                            break;
                        }
                        let id = ThreadId { block, thread };
                        let writer = id.global(&cfg) as WriterId;
                        let mut ctx = ThreadCtx {
                            machine,
                            costs: &mut costs,
                            scratch: &mut scratch,
                            gauge,
                            launch: cfg,
                            id,
                            writer,
                            op_seq: 0,
                        };
                        match kernel.run(phase, &mut ctx, &mut states[thread as usize], &mut shared)
                        {
                            Ok(()) => {}
                            Err(SimError::Crashed) => {
                                // Close the open spans cleanly in the exported
                                // JSON before the crash event cuts them.
                                if machine.trace_enabled() {
                                    machine.trace(EventKind::BlockCommit { block });
                                    machine.trace(EventKind::KernelEnd { launch: launch_ord });
                                }
                                let report = match gauge.policy() {
                                    Some(p) => machine.crash_with_policy(p),
                                    None => machine.crash(),
                                };
                                return Err(LaunchError::Crashed(report));
                            }
                            Err(e) => return Err(LaunchError::Sim(e)),
                        }
                    }
                }
                scratch.drain(machine, &mut costs);
            }
        }
        total.merge(&costs);
        if machine.trace_enabled() {
            machine.trace(EventKind::BlockCommit { block });
        }
    }

    let pattern_delta: PatternTracker = machine.gpu_pm_pattern.delta(&pattern_before);
    let elapsed =
        total.elapsed_with_model(&machine.cfg, &cfg, &pattern_delta, machine.persistency());
    machine.clock.advance(elapsed);
    Ok(KernelReport {
        elapsed,
        costs: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FnKernel;

    #[test]
    fn coalesced_warp_writes_are_one_transaction() {
        // 32 lanes write 4 consecutive bytes each: one 128-byte line.
        let mut m = Machine::default();
        let pm = m.alloc_pm(4096).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u32(Addr::pm(pm + i * 4), i as u32)
        });
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        assert_eq!(
            r.costs.pcie_write_txns, 1,
            "hardware coalescing merged the warp's stores"
        );
        assert_eq!(r.costs.pm_write_bytes, 128);
    }

    #[test]
    fn scattered_warp_writes_do_not_coalesce() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(1 << 20).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u32(Addr::pm(pm + i * 4096), i as u32)
        });
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        assert_eq!(r.costs.pcie_write_txns, 32);
    }

    #[test]
    fn warp_fences_coalesce_to_one_event() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(4096).unwrap();
        m.set_ddio(false);
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u32(Addr::pm(pm + i * 4), 7)?;
            ctx.threadfence_system()
        });
        let r = launch(&mut m, LaunchConfig::new(1, 64), &k).unwrap();
        assert_eq!(r.costs.system_fence_events, 2, "one per warp");
        assert!(!m.pm().is_pending(pm, 256));
    }

    #[test]
    fn clock_advances_by_elapsed() {
        let mut m = Machine::default();
        let t0 = m.clock.now();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            ctx.compute(Ns::from_micros(10.0));
            Ok(())
        });
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        assert_eq!(m.clock.now(), t0 + r.elapsed);
        assert!(r.elapsed >= m.cfg.kernel_launch_overhead);
    }

    #[test]
    fn fuel_exhaustion_crashes_machine() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(1 << 16).unwrap();
        let hbm = m.alloc_hbm(64).unwrap();
        m.host_write(Addr::hbm(hbm), &[9; 8]).unwrap();
        m.set_ddio(false);
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u64(Addr::pm(pm + i * 8), i)?;
            ctx.threadfence_system()
        });
        let err = launch_with_fuel(&mut m, LaunchConfig::new(4, 64), &k, 100).unwrap_err();
        match err {
            LaunchError::Crashed(_) => {}
            other => panic!("expected crash, got {other}"),
        }
        assert_eq!(m.stats.crashes, 1);
        assert_eq!(
            m.read_u64(Addr::hbm(hbm)).unwrap(),
            0,
            "volatile state wiped"
        );
        // Threads that fenced before the crash have durable data.
        assert_eq!(m.read_u64(Addr::pm(pm)).unwrap(), 0); // thread 0 wrote value 0
        assert_eq!(m.read_u64(Addr::pm(pm + 8)).unwrap(), 1);
    }

    #[test]
    fn generous_fuel_completes() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(4096).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| ctx.st_u32(Addr::pm(pm), 1));
        let r = launch_with_fuel(&mut m, LaunchConfig::new(1, 32), &k, 1_000_000).unwrap();
        assert!(r.elapsed.0 > 0.0);
        assert_eq!(m.stats.crashes, 0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = Machine::default();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| ctx.st_u32(Addr::pm(m_capacity_plus()), 1));
        fn m_capacity_plus() -> u64 {
            u64::MAX - 16
        }
        let err = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn atomic_add_accumulates_across_threads() {
        let mut m = Machine::default();
        let ctr = m.alloc_hbm(4).unwrap();
        let k =
            FnKernel(|ctx: &mut ThreadCtx<'_>| ctx.atomic_add_u32(Addr::hbm(ctr), 1).map(|_| ()));
        launch(&mut m, LaunchConfig::new(4, 64), &k).unwrap();
        assert_eq!(m.read_u32(Addr::hbm(ctr)).unwrap(), 256);
    }

    #[test]
    fn pm_atomic_is_one_fused_transaction() {
        let mut m = Machine::default();
        let ctr = m.alloc_pm(4).unwrap();
        let k =
            FnKernel(|ctx: &mut ThreadCtx<'_>| ctx.atomic_add_u32(Addr::pm(ctr), 1).map(|_| ()));
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        assert_eq!(m.read_u32(Addr::pm(ctr)).unwrap(), 32);
        // One warp, same program point, same line: one RMW transaction — and
        // in particular no separate read transactions doubling the traffic.
        assert_eq!(r.costs.pcie_write_txns, 1);
        assert_eq!(r.costs.pcie_read_txns, 0);
        assert_eq!(r.costs.pm_write_bytes, 32 * 4);
        assert_eq!(r.costs.pm_read_bytes, 0);
    }

    #[test]
    fn pm_atomic_consumes_one_fuel_unit() {
        let mut m = Machine::default();
        let ctr = m.alloc_pm(4).unwrap();
        let k =
            FnKernel(|ctx: &mut ThreadCtx<'_>| ctx.atomic_add_u32(Addr::pm(ctr), 1).map(|_| ()));
        // 32 lanes, one fused op each: exactly 32 fuel completes the launch.
        launch_with_fuel(&mut m, LaunchConfig::new(1, 32), &k, 32).unwrap();
        let mut m2 = Machine::default();
        let ctr2 = m2.alloc_pm(4).unwrap();
        let k2 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            ctx.atomic_add_u32(Addr::pm(ctr2), 1).map(|_| ())
        });
        let err = launch_with_fuel(&mut m2, LaunchConfig::new(1, 32), &k2, 31).unwrap_err();
        assert!(matches!(err, LaunchError::Crashed(_)));
    }

    #[test]
    fn record_gauge_notes_fences_and_launch_end() {
        let mut m = Machine::default();
        let pm = m.alloc_pm(1 << 16).unwrap();
        m.set_ddio(false);
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u64(Addr::pm(pm + i * 8), i)?;
            ctx.threadfence_system()
        });
        let mut gauge = FuelGauge::record();
        launch_with_gauge(&mut m, LaunchConfig::new(1, 64), &k, &mut gauge).unwrap();
        let schedule = gauge.into_schedule().unwrap();
        // 64 threads × (store + fence) = 128 ops; every thread's fence is a
        // boundary, and the launch end coincides with the last fence.
        assert_eq!(schedule.total_ops(), 128);
        assert_eq!(schedule.boundaries().len(), 64);
        assert_eq!(schedule.boundaries().last(), Some(&128));
        assert_eq!(m.stats.crashes, 0, "recording never crashes");
    }

    #[test]
    fn recorded_boundary_replays_as_crash_budget() {
        // The engine is deterministic: a fuel budget equal to a recorded
        // boundary crashes exactly at that boundary — the thread that fenced
        // there has durable data, the next one does not.
        let run = |gauge: &mut FuelGauge| {
            let mut m = Machine::default();
            let pm = m.alloc_pm(1 << 16).unwrap();
            m.set_ddio(false);
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                ctx.st_u64(Addr::pm(pm + i * 8), i + 1)?;
                ctx.threadfence_system()
            });
            let res = launch_with_gauge(&mut m, LaunchConfig::new(1, 64), &k, gauge);
            (m, pm, res.is_err())
        };
        let mut rec = FuelGauge::record();
        run(&mut rec);
        let schedule = rec.into_schedule().unwrap();
        let boundary = schedule.boundaries()[9]; // thread 9's fence
        let mut crash = FuelGauge::crash_with_policy(boundary, CrashPolicy::NoneApplied);
        let (m, pm, crashed) = run(&mut crash);
        assert!(crashed);
        assert_eq!(m.read_u64(Addr::pm(pm + 9 * 8)).unwrap(), 10, "fenced");
        assert_eq!(m.read_u64(Addr::pm(pm + 10 * 8)).unwrap(), 0, "not yet");
    }

    #[test]
    fn crash_policy_steers_pending_line_fate() {
        let run = |policy| {
            let mut m = Machine::default();
            let pm = m.alloc_pm(1 << 16).unwrap();
            // DDIO on: stores stay pending, so the crash decides everything.
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                ctx.st_u64(Addr::pm(pm + i * 64), i + 1)
            });
            // 64 threads × 1 op: a 32-op budget crashes halfway with the
            // first 32 threads' lines pending.
            let mut gauge = FuelGauge::crash_with_policy(32, policy);
            let err =
                launch_with_gauge(&mut m, LaunchConfig::new(1, 64), &k, &mut gauge).unwrap_err();
            assert!(matches!(err, LaunchError::Crashed(_)));
            (0..32u64)
                .filter(|&i| m.read_u64(Addr::pm(pm + i * 64)).unwrap() == i + 1)
                .count()
        };
        assert_eq!(run(CrashPolicy::AllApplied), 32);
        assert_eq!(run(CrashPolicy::NoneApplied), 0);
        let some = run(CrashPolicy::Random(5));
        assert!(some > 0 && some < 32, "random subset is proper: {some}");
    }

    #[test]
    fn hbm_traffic_counts_bytes_not_txns() {
        let mut m = Machine::default();
        let hbm = m.alloc_hbm(1 << 16).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            ctx.st_u64(Addr::hbm(hbm + i * 8), i)
        });
        let r = launch(&mut m, LaunchConfig::new(1, 128), &k).unwrap();
        assert_eq!(r.costs.hbm_bytes, 128 * 8);
        assert_eq!(r.costs.pcie_write_txns, 0);
    }

    #[test]
    fn more_parallelism_hides_fence_latency() {
        // The §3.2 scaling experiment in miniature: same total persists,
        // more threads, shorter elapsed time — up to the in-flight limit.
        let total: u64 = 1 << 12;
        let mut times = Vec::new();
        for threads in [32u32, 128, 512] {
            let mut m = Machine::default();
            let pm = m.alloc_pm(1 << 20).unwrap();
            m.set_ddio(false);
            let per = total / threads as u64;
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                for j in 0..per {
                    ctx.st_u64(Addr::pm(pm + (i * per + j) * 8), j)?;
                    ctx.threadfence_system()?;
                }
                Ok(())
            });
            let r = launch(&mut m, LaunchConfig::for_elements(threads as u64, 32), &k).unwrap();
            times.push(r.elapsed);
        }
        assert!(times[0] > times[1] * 2.0, "{:?}", times);
        assert!(times[1] > times[2], "{:?}", times);
    }

    /// Two machines with identical setup for comparing execution paths.
    fn twin_machines(pm_bytes: u64) -> (Machine, Machine, u64) {
        let mut a = Machine::default();
        let mut b = Machine::default();
        let pa = a.alloc_pm(pm_bytes).unwrap();
        let pb = b.alloc_pm(pm_bytes).unwrap();
        assert_eq!(pa, pb);
        (a, b, pa)
    }

    #[test]
    fn later_block_sees_earlier_blocks_same_launch_write() {
        // Blocks run in block-id order against the live machine, so block
        // 1+ reads the value block 0 stored earlier in the same launch.
        let mut m = Machine::default();
        let pm = m.alloc_pm(1 << 16).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            if ctx.block_id() == 0 {
                ctx.st_u64(Addr::pm(pm + i * 8), 42)
            } else {
                let v = ctx.ld_u64(Addr::pm(pm))?; // block 0, thread 0's slot
                ctx.st_u64(Addr::pm(pm + i * 8), v + 1)
            }
        });
        launch(&mut m, LaunchConfig::new(4, 32), &k).unwrap();
        assert_eq!(m.read_u64(Addr::pm(pm + 32 * 8)).unwrap(), 43);
    }

    /// A store(+fence) kernel implemented both per-lane and vectorized, for
    /// engine-equivalence tests. Lane `i` stores `rounds` values at
    /// `pm + i * stride + j * 8`, optionally fencing each round; `vectorize:
    /// false` makes `run_warp` decline so the same kernel can drive the
    /// per-lane walk.
    struct VecStore {
        pm: u64,
        stride: u64,
        rounds: u64,
        fence: bool,
        vectorize: bool,
    }

    impl Kernel for VecStore {
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
            states: &mut [()],
            _shared: &mut (),
        ) -> SimResult<bool> {
            if !self.vectorize {
                return Ok(false);
            }
            let base = ctx.first_global_id();
            let lanes = ctx.lanes() as usize;
            assert_eq!(states.len(), lanes, "one state slot per active lane");
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

    /// Launches `VecStore` twice — per-lane and vectorized — on twin
    /// machines and returns both (machine, report) pairs.
    fn vec_twins(
        pm_bytes: u64,
        cfg: LaunchConfig,
        stride: u64,
        rounds: u64,
        fence: bool,
    ) -> ((Machine, KernelReport), (Machine, KernelReport)) {
        let (mut lane, mut vec, pm) = twin_machines(pm_bytes);
        lane.set_ddio(false);
        vec.set_ddio(false);
        let mut k = VecStore {
            pm,
            stride,
            rounds,
            fence,
            vectorize: false,
        };
        let rl = launch(&mut lane, cfg, &k).unwrap();
        k.vectorize = true;
        let rv = launch(&mut vec, cfg, &k).unwrap();
        ((lane, rl), (vec, rv))
    }

    #[test]
    fn vectorized_contiguous_store_matches_per_lane_bit_for_bit() {
        let cfg = LaunchConfig::new(4, 64);
        let ((mut lane, rl), (mut vec, rv)) = vec_twins(1 << 20, cfg, 8, 1, true);
        assert_eq!(rl.costs, rv.costs);
        assert_eq!(rl.elapsed.0.to_bits(), rv.elapsed.0.to_bits());
        // bytes_persisted is the documented exception: the lane-major walk
        // re-drains a CPU line for every lane that re-dirties it (here 8
        // lanes share each 64-byte line), where the warp-simultaneous fence
        // drains it once. Everything else must be identical.
        assert!(vec.stats.bytes_persisted < lane.stats.bytes_persisted);
        lane.stats.bytes_persisted = 0;
        vec.stats.bytes_persisted = 0;
        assert_eq!(format!("{:?}", lane.stats), format!("{:?}", vec.stats));
        assert_eq!(lane.clock.now(), vec.clock.now());
        let mut ba = vec![0u8; 4 * 64 * 8];
        let mut bb = ba.clone();
        lane.read(Addr::pm(0), &mut ba).unwrap();
        vec.read(Addr::pm(0), &mut bb).unwrap();
        assert_eq!(ba, bb);
    }

    #[test]
    fn vectorized_strided_fence_kernel_matches_costs_and_time() {
        // The fence_heavy shape: stride 32, 4 rounds, fence per round. The
        // vector path executes operation-major, so per-round drains touch
        // each line once where the lane-major walk re-drains lines its
        // neighbours re-dirty — bytes_persisted is the one documented
        // divergence; everything the timing model and the golden gates
        // consume must still match exactly.
        let cfg = LaunchConfig::new(2, 64);
        let ((lane, rl), (vec, rv)) = vec_twins(1 << 20, cfg, 32, 4, true);
        assert_eq!(rl.costs, rv.costs);
        assert_eq!(rl.elapsed.0.to_bits(), rv.elapsed.0.to_bits());
        assert_eq!(lane.stats.system_fences, vec.stats.system_fences);
        assert_eq!(lane.stats.pm_write_bytes_gpu, vec.stats.pm_write_bytes_gpu);
        assert_eq!(lane.clock.now(), vec.clock.now());
        assert!(
            vec.stats.bytes_persisted < lane.stats.bytes_persisted,
            "operation-major drains strictly less: {} vs {}",
            vec.stats.bytes_persisted,
            lane.stats.bytes_persisted
        );
        let mut ba = vec![0u8; 2 * 64 * 32];
        let mut bb = ba.clone();
        lane.read(Addr::pm(0), &mut ba).unwrap();
        vec.read(Addr::pm(0), &mut bb).unwrap();
        assert_eq!(ba, bb);
    }

    #[test]
    fn bytes_persisted_operation_major_invariant() {
        // The one counter allowed to differ between the per-lane and vector
        // paths obeys a precise invariant, not a vague inequality. With each
        // lane's store on its own CPU line (stride 64) no line is re-dirtied
        // between fences, so lane-major and operation-major drain exactly the
        // same bytes: 8 warps × 32 lanes × one 64-byte line each.
        let cfg = LaunchConfig::new(4, 64);
        let ((lane, _), (vec, _)) = vec_twins(1 << 20, cfg, 64, 1, true);
        assert_eq!(lane.stats.bytes_persisted, vec.stats.bytes_persisted);
        assert_eq!(vec.stats.bytes_persisted, 8 * 32 * 64);

        // With 8 lanes sharing each 64-byte line (stride 8), the
        // operation-major fence drains each of a warp's 4 dirty lines exactly
        // once, while the lane-major walk drains one line per lane because
        // every later lane re-dirties the line its predecessor just drained.
        let ((lane, _), (vec, _)) = vec_twins(1 << 20, cfg, 8, 1, true);
        assert_eq!(vec.stats.bytes_persisted, 8 * 4 * 64);
        assert_eq!(lane.stats.bytes_persisted, 8 * 32 * 64);
    }

    #[test]
    fn vectorized_partial_tail_warp() {
        // block = 48: a full warp plus a 16-lane tail. The tail's vector ops
        // must cover exactly 16 lanes.
        let cfg = LaunchConfig::new(2, 48);
        let ((lane, rl), (vec, rv)) = vec_twins(1 << 20, cfg, 8, 1, false);
        assert_eq!(rl.costs, rv.costs);
        assert_eq!(rl.elapsed.0.to_bits(), rv.elapsed.0.to_bits());
        assert_eq!(format!("{:?}", lane.stats), format!("{:?}", vec.stats));
        for i in 0..96u64 {
            assert_eq!(vec.read_u64(Addr::pm(i * 8)).unwrap(), i);
        }
    }

    /// Counts `run` invocations to observe which path the engine took.
    struct CountingKernel {
        pm: u64,
        runs: std::cell::Cell<u64>,
    }

    impl Kernel for CountingKernel {
        type State = ();
        type Shared = ();

        fn run(
            &self,
            _phase: u32,
            ctx: &mut ThreadCtx<'_>,
            _state: &mut (),
            _shared: &mut (),
        ) -> SimResult<()> {
            self.runs.set(self.runs.get() + 1);
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

    fn counting_kernel(m: &mut Machine) -> CountingKernel {
        CountingKernel {
            pm: m.alloc_pm(1 << 16).unwrap(),
            runs: std::cell::Cell::new(0),
        }
    }

    #[test]
    fn vectorized_path_skips_per_lane_run() {
        let mut m = Machine::default();
        let k = counting_kernel(&mut m);
        launch(&mut m, LaunchConfig::new(2, 64), &k).unwrap();
        assert_eq!(k.runs.get(), 0);
    }

    #[test]
    fn trace_sink_forces_per_lane_fallback() {
        let mut m = Machine::default();
        let k = counting_kernel(&mut m);
        m.set_trace_sink(Box::new(gpm_sim::RingSink::new(1 << 16)));
        launch(&mut m, LaunchConfig::new(2, 64), &k).unwrap();
        assert_eq!(
            k.runs.get(),
            128,
            "per-lane trace events need the per-lane walk"
        );
    }

    #[test]
    fn counting_gauge_forces_per_lane_fallback() {
        let mut m = Machine::default();
        let k = counting_kernel(&mut m);
        launch_with_fuel(&mut m, LaunchConfig::new(2, 64), &k, 1 << 20).unwrap();
        assert_eq!(
            k.runs.get(),
            128,
            "fuel draws from the per-lane operation order"
        );
    }

    /// One store then a storm of fences per thread: fence latency dominates
    /// the timing model, making the strict-vs-epoch gap unambiguous.
    struct FenceStorm {
        pm: u64,
        rounds: u64,
        vectorize: bool,
    }

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
            for _ in 0..self.rounds {
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
            if !self.vectorize {
                return Ok(false);
            }
            let base = ctx.first_global_id();
            let lanes = ctx.lanes() as usize;
            let mut vals = [0u64; WARP_SIZE as usize];
            for (l, v) in vals[..lanes].iter_mut().enumerate() {
                *v = base + l as u64;
            }
            ctx.st_u64_lanes(Addr::pm(self.pm + base * 8), 8, &vals[..lanes])?;
            for _ in 0..self.rounds {
                ctx.threadfence_system();
            }
            Ok(true)
        }
    }

    fn epoch_twins(vectorize: bool) -> ((Machine, KernelReport), (Machine, KernelReport), u64) {
        let (mut strict, mut epoch, pm) = twin_machines(1 << 20);
        strict.set_ddio(false);
        epoch.set_ddio(false);
        let k = FenceStorm {
            pm,
            rounds: 64,
            vectorize,
        };
        let cfg = LaunchConfig::new(4, 64);
        let rs = launch(
            &mut strict,
            cfg.with_persistency(PersistencyModel::Strict),
            &k,
        )
        .unwrap();
        let re = launch(
            &mut epoch,
            cfg.with_persistency(PersistencyModel::Epoch),
            &k,
        )
        .unwrap();
        ((strict, rs), (epoch, re), pm)
    }

    #[test]
    fn epoch_launch_defers_drain_to_kernel_boundary() {
        let ((strict, rs), (mut epoch, re), pm) = epoch_twins(true);
        // Same fences issued, far cheaper under epoch: ordering markers plus
        // one boundary drain instead of per-fence persist round trips.
        assert_eq!(strict.stats.system_fences, epoch.stats.system_fences);
        assert_eq!(rs.costs.system_fence_events, re.costs.system_fence_events);
        assert!(
            rs.elapsed > re.elapsed * 2.0,
            "strict {} vs epoch {}",
            rs.elapsed,
            re.elapsed
        );
        // The boundary drain ran: nothing is pending, and a crash right
        // after the launch loses nothing.
        assert_eq!(epoch.pm().pending_line_count(), 0);
        epoch.crash();
        for i in 0..(4 * 64u64) {
            assert_eq!(epoch.read_u64(Addr::pm(pm + i * 8)).unwrap(), i);
        }
    }

    #[test]
    fn epoch_applies_to_per_lane_walk_too() {
        // The model is orthogonal to vectorization: a per-lane kernel under
        // epoch gets the same deferred-drain semantics.
        let ((_, rs), (mut epoch, re), pm) = epoch_twins(false);
        assert!(
            rs.elapsed > re.elapsed * 2.0,
            "strict {} vs epoch {}",
            rs.elapsed,
            re.elapsed
        );
        assert_eq!(epoch.pm().pending_line_count(), 0, "boundary drain ran");
        epoch.crash();
        assert_eq!(epoch.read_u64(Addr::pm(pm + 8)).unwrap(), 1);
    }

    // ---- SeqGroup extent merging (the coalescer's core) ---------------------

    #[test]
    fn seq_group_merges_overlapping_extents() {
        let mut g = SeqGroup::default();
        g.record_write(0, 16);
        g.record_write(8, 16); // overlaps [8, 16)
        assert_eq!(g.write_lines.len(), 1);
        assert_eq!(
            (g.write_lines[0].start, g.write_lines[0].end),
            (0, 24),
            "overlapping extents merge to their union"
        );
    }

    #[test]
    fn seq_group_merges_adjacent_extents_within_a_line() {
        let mut g = SeqGroup::default();
        g.record_write(0, 8);
        g.record_write(8, 8);
        g.record_write(16, 8);
        assert_eq!(g.write_lines.len(), 1, "one 128-byte line, one extent");
        assert_eq!((g.write_lines[0].start, g.write_lines[0].end), (0, 24));
    }

    #[test]
    fn seq_group_keeps_contained_extent() {
        let mut g = SeqGroup::default();
        g.record_write(0, 64);
        g.record_write(16, 8); // fully contained
        assert_eq!(g.write_lines.len(), 1);
        assert_eq!((g.write_lines[0].start, g.write_lines[0].end), (0, 64));
    }

    #[test]
    fn seq_group_splits_line_crossing_writes() {
        let mut g = SeqGroup::default();
        // [120, 136) crosses the line-0/line-1 boundary at 128.
        g.record_write(120, 16);
        assert_eq!(g.write_lines.len(), 2);
        assert_eq!((g.write_lines[0].line, g.write_lines[0].start), (0, 120));
        assert_eq!((g.write_lines[1].line, g.write_lines[1].end), (1, 136));
        // Lines stay sorted when a lower line arrives later.
        g.record_write(0, 8);
        assert_eq!(g.write_lines[0].start, 0);
        assert_eq!(g.write_lines[0].end, 128, "merged with [120, 128)");
    }

    #[test]
    fn seq_group_read_lines_dedup() {
        let mut g = SeqGroup::default();
        g.record_read(0, 8);
        g.record_read(64, 8); // same 128-byte line
        g.record_read(256, 8); // line 2
        g.record_read(250, 16); // crosses lines 1 and 2; 2 already present
        assert_eq!(g.read_lines, vec![0, 2, 1]);
    }

    #[test]
    fn interleaved_reads_and_writes_group_by_program_point() {
        // Lanes read one line and write another at alternating program
        // points; groups must keep reads and writes separate per seq.
        let mut m = Machine::default();
        let pm = m.alloc_pm(1 << 16).unwrap();
        m.host_write(Addr::pm(pm + 8192), &[3; 128]).unwrap();
        let k = FnKernel(|ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            let v = ctx.ld_u32(Addr::pm(pm + 8192 + i * 4))?;
            ctx.st_u32(Addr::pm(pm + i * 4), v + 1)
        });
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        assert_eq!(r.costs.pcie_read_txns, 1, "one coalesced read line");
        assert_eq!(r.costs.pcie_write_txns, 1, "one coalesced write line");
        assert_eq!(m.read_u32(Addr::pm(pm)).unwrap(), 0x03030304);
    }
}
