//! The simulated machine: CPU + GPU + DRAM + HBM + Optane PM, glued by PCIe.
//!
//! [`Machine`] owns all device state and exposes the *functional* operations
//! (reads, writes, persists, crash). Timing is layered on top by the
//! execution engines (`gpm-gpu` kernels, [`crate::cpu`] contexts, the CAP
//! baselines) using the constants in [`MachineConfig`].

use crate::addr::{align_up, Addr, MemSpace, OPTANE_BLOCK};
use crate::config::{MachineConfig, PersistMode, PersistencyModel};
use crate::error::{SimError, SimResult};
use crate::fs::{extent_size, PmFile, PmFs};
use crate::pattern::PatternTracker;
use crate::pm::{CrashPolicy, CrashReport, PmDevice, WriterId, HOST_WRITER};
use crate::rng::Xoshiro256StarStar;
use crate::stats::Stats;
use crate::time::SimClock;
use crate::volatile::VolatileMem;
use gpm_trace::{Event, EventKind, TraceData, TraceSink};

/// Number of 256-byte Optane blocks a write of `len` bytes at `offset`
/// programs.
fn blocks_touched(offset: u64, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    (offset + len - 1) / OPTANE_BLOCK - offset / OPTANE_BLOCK + 1
}

/// The whole simulated platform.
///
/// # Examples
///
/// ```
/// use gpm_sim::{Machine, Addr};
/// let mut m = Machine::default();
/// let buf = m.alloc_pm(4096)?;
/// m.host_write(Addr::pm(buf), &42u64.to_le_bytes())?;
/// assert_eq!(m.read_u64(Addr::pm(buf))?, 42);
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Platform parameters (latencies, bandwidths, topology).
    pub cfg: MachineConfig,
    /// The global simulated clock.
    pub clock: SimClock,
    /// Performance counters.
    pub stats: Stats,
    /// Pattern classifier for GPU-issued PM writes (Figure 12).
    pub gpu_pm_pattern: PatternTracker,
    pm: PmDevice,
    dram: VolatileMem,
    hbm: VolatileMem,
    fs: PmFs,
    rng: Xoshiro256StarStar,
    ddio_enabled: bool,
    /// Active GPU persistency model. The execution engine sets this per
    /// launch from `LaunchConfig`; host-side operations ignore it.
    persistency: PersistencyModel,
    pm_cursor: u64,
    dram_cursor: u64,
    hbm_cursor: u64,
    /// Structured-event sink. `None` (the default) keeps the hot paths
    /// branch-only: no event is even constructed.
    trace: Option<Box<dyn TraceSink>>,
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::new(MachineConfig::default())
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Machine {
        let rng = Xoshiro256StarStar::seed_from_u64(cfg.seed);
        Machine {
            pm: PmDevice::new(cfg.pm_capacity),
            dram: VolatileMem::new(MemSpace::Dram, cfg.dram_capacity),
            hbm: VolatileMem::new(MemSpace::Hbm, cfg.hbm_capacity),
            fs: PmFs::new(),
            rng,
            ddio_enabled: true,
            persistency: PersistencyModel::Strict,
            pm_cursor: 0,
            dram_cursor: 0,
            hbm_cursor: 0,
            clock: SimClock::new(),
            stats: Stats::default(),
            gpu_pm_pattern: PatternTracker::new(),
            trace: None,
            cfg,
        }
    }

    // ---- structured-event tracing ------------------------------------------

    /// Installs a [`TraceSink`]; every subsequent platform event is emitted
    /// to it with the sim clock's current time.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Removes and returns the installed sink, if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Uninstalls the sink and returns its collected [`TraceData`], if any.
    pub fn finish_trace(&mut self) -> Option<TraceData> {
        self.trace.take().and_then(TraceSink::finish)
    }

    /// Whether a sink is installed (callers use this to skip building event
    /// payloads entirely on the uninstrumented path).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits one event at the current sim time. No-op without a sink.
    pub fn trace(&mut self, kind: EventKind) {
        if let Some(sink) = self.trace.as_mut() {
            sink.emit(Event {
                ts_ns: self.clock.now().0,
                kind,
            });
        }
    }

    // ---- allocation --------------------------------------------------------

    fn bump(cursor: &mut u64, capacity: u64, size: u64, space: MemSpace) -> SimResult<u64> {
        let aligned = align_up(*cursor, OPTANE_BLOCK);
        let size = size.max(1);
        if aligned + size > capacity {
            return Err(SimError::OutOfMemory {
                space,
                requested: size,
                available: capacity.saturating_sub(aligned),
            });
        }
        *cursor = aligned + size;
        Ok(aligned)
    }

    /// Allocates `size` bytes of PM, 256-byte aligned. Returns the offset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the space is exhausted.
    pub fn alloc_pm(&mut self, size: u64) -> SimResult<u64> {
        Self::bump(
            &mut self.pm_cursor,
            self.cfg.pm_capacity,
            size,
            MemSpace::Pm,
        )
    }

    /// Allocates `size` bytes of DRAM. Returns the offset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the space is exhausted.
    pub fn alloc_dram(&mut self, size: u64) -> SimResult<u64> {
        Self::bump(
            &mut self.dram_cursor,
            self.cfg.dram_capacity,
            size,
            MemSpace::Dram,
        )
    }

    /// Allocates `size` bytes of GPU device memory. Returns the offset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the space is exhausted.
    pub fn alloc_hbm(&mut self, size: u64) -> SimResult<u64> {
        Self::bump(
            &mut self.hbm_cursor,
            self.cfg.hbm_capacity,
            size,
            MemSpace::Hbm,
        )
    }

    // ---- PM files ----------------------------------------------------------

    /// Creates a PM-resident file of at least `size` bytes and returns it.
    ///
    /// # Errors
    ///
    /// Fails if the name exists or PM is exhausted.
    pub fn fs_create(&mut self, path: &str, size: u64) -> SimResult<PmFile> {
        let len = extent_size(size);
        if self.fs.exists(path) {
            return Err(SimError::FileExists(path.to_owned()));
        }
        let offset = self.alloc_pm(len)?;
        self.fs.create(path, offset, len)
    }

    /// Opens an existing PM-resident file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FileNotFound`] if absent.
    pub fn fs_open(&self, path: &str) -> SimResult<PmFile> {
        self.fs.open(path)
    }

    /// Whether a PM-resident file exists.
    pub fn fs_exists(&self, path: &str) -> bool {
        self.fs.exists(path)
    }

    /// Removes a PM file's directory entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FileNotFound`] if absent.
    pub fn fs_remove(&mut self, path: &str) -> SimResult<PmFile> {
        self.fs.remove(path)
    }

    /// Lists all PM-resident files in name order (introspection/tooling).
    pub fn fs_list(&self) -> Vec<(String, PmFile)> {
        self.fs.iter().map(|(n, f)| (n.to_owned(), f)).collect()
    }

    // ---- DDIO / persistence domain ----------------------------------------

    /// Whether DDIO currently routes inbound IO writes through the LLC.
    pub fn ddio_enabled(&self) -> bool {
        self.ddio_enabled
    }

    /// Toggles DDIO (the `gpm_persist_begin`/`end` mechanism, §5.1). The
    /// caller accounts for [`MachineConfig::ddio_toggle_overhead`].
    pub fn set_ddio(&mut self, enabled: bool) {
        if self.ddio_enabled != enabled && self.trace_enabled() {
            self.trace(if enabled {
                EventKind::PersistEpochEnd
            } else {
                EventKind::PersistEpochBegin
            });
        }
        self.ddio_enabled = enabled;
    }

    /// Whether a GPU store to PM is durable once a system fence completes on
    /// the current platform state.
    pub fn gpu_persist_guaranteed(&self) -> bool {
        self.cfg.persist_mode == PersistMode::Eadr || !self.ddio_enabled
    }

    /// The GPU persistency model currently in force (see
    /// [`PersistencyModel`]). Strict unless a launch selected epoch.
    pub fn persistency(&self) -> PersistencyModel {
        self.persistency
    }

    /// Selects the GPU persistency model. The execution engine calls this at
    /// launch entry with the launch's resolved model; under
    /// [`PersistencyModel::Epoch`] it must pair every launch with a
    /// [`Machine::epoch_drain`] at the epoch boundary.
    pub fn set_persistency(&mut self, model: PersistencyModel) {
        self.persistency = model;
    }

    // ---- GPU-side PM access (over PCIe) -------------------------------------

    /// A GPU store to PM: [`Machine::gpu_store_pm_lanes`] with one lane.
    /// Under eADR the LLC is durable, so the write commits to media at
    /// visibility; otherwise it is pending until a fence (DDIO off) or a CPU
    /// flush (DDIO on) drains it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds PM capacity.
    pub fn gpu_store_pm(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.gpu_store_pm_lanes(writer, bytes.len() as u32, offset, bytes)
    }

    /// GPU stores to PM by a warp's lockstep lanes: byte `j` of `bytes`
    /// belongs to writer `writer0 + j / lane_bytes` (the warp's lanes hold
    /// consecutive writer ids and store contiguously). Counter-identical to
    /// the per-lane calls; under eADR it emits a single
    /// [`EventKind::EadrPersist`] covering the whole range, so callers
    /// needing per-lane events must store per lane (the execution engine
    /// falls back to per-lane execution when tracing).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds PM capacity.
    pub fn gpu_store_pm_lanes(
        &mut self,
        writer0: WriterId,
        lane_bytes: u32,
        offset: u64,
        bytes: &[u8],
    ) -> SimResult<()> {
        self.stats.pm_write_bytes_gpu += bytes.len() as u64;
        if self.cfg.persist_mode == PersistMode::Eadr {
            self.stats.bytes_persisted += bytes.len() as u64;
            if self.trace_enabled() {
                self.trace(EventKind::EadrPersist {
                    offset,
                    bytes: bytes.len() as u64,
                    gpu: true,
                });
            }
            self.pm.write_durable(offset, bytes)
        } else {
            self.pm
                .write_visible_lanes(writer0, lane_bytes, offset, bytes)
        }
    }

    /// One coalesced GPU→PM write transaction on the PCIe bus: bumps the
    /// transaction counter, classifies the access pattern (Figure 12),
    /// accounts Optane block programs, and emits the
    /// [`EventKind::PcieWriteTxn`] event.
    pub fn gpu_pm_txn(&mut self, offset: u64, len: u64) {
        self.stats.pcie_write_txns += 1;
        self.gpu_pm_pattern.record(offset, len);
        self.stats.pm_block_programs += blocks_touched(offset, len);
        if self.trace_enabled() {
            self.trace(EventKind::PcieWriteTxn { offset, bytes: len });
        }
    }

    /// A GPU system-scope fence by `writer`: the one-lane
    /// [`Machine::gpu_system_fence_lanes`]. Under ADR with DDIO disabled this
    /// drains the writer's pending lines into media (or, under
    /// [`PersistencyModel::Epoch`], closes them into the open epoch). With
    /// DDIO enabled it provides visibility only (the GPM-NDP configuration).
    /// Returns the number of lines made durable.
    pub fn gpu_system_fence(&mut self, writer: WriterId) -> u64 {
        self.gpu_system_fence_lanes(writer, 1)
    }

    /// System-scope fences by a warp's lockstep lanes: `lanes` fences by
    /// writers `writer0 .. writer0 + lanes`, counted individually but drained
    /// (or epoch-closed) in one call that visits only those writers' pending
    /// lines. Lines shared between lanes drain once — exactly what
    /// sequential per-lane fences would leave behind.
    ///
    /// Emits a single [`EventKind::SystemFence`] carrying the total; callers
    /// needing per-lane fence events must issue per-lane fences instead (the
    /// execution engine falls back to per-lane execution when tracing).
    pub fn gpu_system_fence_lanes(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        self.stats.system_fences += lanes as u64;
        let lines = match self.cfg.persist_mode {
            PersistMode::Eadr => 0,
            PersistMode::Adr if !self.ddio_enabled => {
                if self.persistency == PersistencyModel::Epoch {
                    // Epoch persistency: the fence only orders the writers'
                    // lines into the open epoch; the drain happens at the
                    // epoch boundary ([`Machine::epoch_drain`]).
                    self.pm.close_writers_range(writer0, lanes);
                    0
                } else {
                    let lines = self.pm.persist_writers_range(writer0, lanes);
                    self.stats.bytes_persisted += lines * crate::addr::CPU_LINE;
                    lines
                }
            }
            PersistMode::Adr => 0,
        };
        if self.trace_enabled() {
            self.trace(EventKind::SystemFence {
                writer: writer0,
                lines,
            });
        }
        lines
    }

    /// A GPU synchronous drain fence by `writer`: drains the writer's pending
    /// lines into media regardless of the persistency model in force. The
    /// detectable-op layer ([`gpm-core`]'s `detect` module) uses this between
    /// publishing an operation's record and marking its descriptor — under
    /// [`PersistencyModel::Epoch`] an ordinary system fence only closes lines
    /// into the open epoch, which is not enough to make the
    /// publish-before-mark ordering crash-durable. Counted as a system fence.
    /// Returns the number of lines made durable.
    pub fn gpu_sync_fence(&mut self, writer: WriterId) -> u64 {
        self.stats.system_fences += 1;
        let lines = match self.cfg.persist_mode {
            PersistMode::Eadr => 0,
            PersistMode::Adr if !self.ddio_enabled => {
                let lines = self.pm.persist_writer(writer);
                self.stats.bytes_persisted += lines * crate::addr::CPU_LINE;
                lines
            }
            PersistMode::Adr => 0,
        };
        if self.trace_enabled() {
            self.trace(EventKind::SystemFence { writer, lines });
        }
        lines
    }

    /// Epoch boundary under [`PersistencyModel::Epoch`]: drains every
    /// epoch-closed pending line into media and emits one
    /// [`EventKind::EpochDrain`]. The execution engine calls this at kernel
    /// completion. Returns the number of lines made durable.
    pub fn epoch_drain(&mut self) -> u64 {
        let lines = self.pm.drain_closed();
        self.stats.bytes_persisted += lines * crate::addr::CPU_LINE;
        if self.trace_enabled() {
            self.trace(EventKind::EpochDrain { lines });
        }
        lines
    }

    /// A GPU load from PM (overlaying pending data — the system is coherent).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds PM capacity.
    pub fn gpu_load_pm(&mut self, offset: u64, buf: &mut [u8]) -> SimResult<()> {
        self.stats.pm_read_bytes_gpu += buf.len() as u64;
        self.pm.read(offset, buf)
    }

    // ---- CPU-side PM access --------------------------------------------------

    /// A CPU store to PM: visible in the cache hierarchy, durable only after
    /// an explicit flush+drain (or immediately under eADR).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds PM capacity.
    pub fn cpu_store_pm(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.stats.pm_write_bytes_cpu += bytes.len() as u64;
        if self.cfg.persist_mode == PersistMode::Eadr {
            self.stats.bytes_persisted += bytes.len() as u64;
            if self.trace_enabled() {
                self.trace(EventKind::EadrPersist {
                    offset,
                    bytes: bytes.len() as u64,
                    gpu: false,
                });
            }
            self.pm.write_durable(offset, bytes)
        } else {
            self.pm.write_visible(writer, offset, bytes)
        }
    }

    /// CLFLUSH of `[offset, offset+len)` followed by SFENCE: drains the
    /// intersecting pending lines. Returns lines drained.
    pub fn cpu_persist_range(&mut self, offset: u64, len: u64) -> u64 {
        let lines = self.pm.persist_range(offset, len);
        self.stats.bytes_persisted += lines * crate::addr::CPU_LINE;
        self.stats.pm_block_programs += lines.div_ceil(OPTANE_BLOCK / crate::addr::CPU_LINE);
        if self.trace_enabled() {
            self.trace(EventKind::CpuFlush { offset, lines });
        }
        lines
    }

    /// Bulk CPU store to PM that is immediately followed by a full flush of
    /// the same range (the CAP copy+flush path): functionally equivalent to
    /// [`Machine::cpu_store_pm`] + [`Machine::cpu_persist_range`], but
    /// written straight to media for efficiency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds PM capacity.
    pub fn cpu_store_pm_persisted(&mut self, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.stats.pm_write_bytes_cpu += bytes.len() as u64;
        self.stats.bytes_persisted += bytes.len() as u64;
        self.stats.pm_block_programs += blocks_touched(offset, bytes.len() as u64);
        if self.trace_enabled() {
            self.trace(EventKind::CpuPersistStore {
                offset,
                bytes: bytes.len() as u64,
            });
        }
        self.pm.write_durable(offset, bytes)
    }

    // ---- host conveniences (setup, verification; not timed) -----------------

    /// Writes initialization data as the host would before an experiment:
    /// durable for PM, plain for volatile spaces.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn host_write(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        match addr.space {
            MemSpace::Pm => self.pm.write_durable(addr.offset, bytes),
            MemSpace::Dram => self.dram.write(addr.offset, bytes),
            MemSpace::Hbm => self.hbm.write(addr.offset, bytes),
        }
    }

    /// Reads from any space with coherent visibility.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> SimResult<()> {
        match addr.space {
            MemSpace::Pm => self.pm.read(addr.offset, buf),
            MemSpace::Dram => self.dram.read(addr.offset, buf),
            MemSpace::Hbm => self.hbm.read(addr.offset, buf),
        }
    }

    /// Writes to a volatile space or, for PM, as a visible (not durable)
    /// store attributed to [`HOST_WRITER`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn write_visible(&mut self, addr: Addr, bytes: &[u8]) -> SimResult<()> {
        match addr.space {
            MemSpace::Pm => self.pm.write_visible(HOST_WRITER, addr.offset, bytes),
            MemSpace::Dram => self.dram.write(addr.offset, bytes),
            MemSpace::Hbm => self.hbm.write(addr.offset, bytes),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn read_u32(&self, addr: Addr) -> SimResult<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn read_u64(&self, addr: Addr) -> SimResult<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of the space.
    pub fn read_f32(&self, addr: Addr) -> SimResult<f32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    // ---- DMA ----------------------------------------------------------------

    /// DMA copy between HBM and DRAM (either direction). Functional only;
    /// callers account `dma_init_overhead + bytes/pcie_bw`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] on overflow of either space.
    ///
    /// # Panics
    ///
    /// Panics if neither/both endpoints are HBM (DMA links device and host).
    pub fn dma_copy(&mut self, src: Addr, dst: Addr, len: u64) -> SimResult<()> {
        assert!(
            (src.space == MemSpace::Hbm) ^ (dst.space == MemSpace::Hbm),
            "DMA moves data between the GPU and the host"
        );
        let mut buf = vec![0u8; len as usize];
        self.read(src, &mut buf)?;
        match dst.space {
            MemSpace::Dram => self.dram.write(dst.offset, &buf)?,
            MemSpace::Hbm => self.hbm.write(dst.offset, &buf)?,
            MemSpace::Pm => self.pm.write_visible(HOST_WRITER, dst.offset, &buf)?,
        }
        self.stats.dma_bytes += len;
        if self.trace_enabled() {
            self.trace(EventKind::DmaCopy { bytes: len });
        }
        Ok(())
    }

    // ---- crash ---------------------------------------------------------------

    /// Power failure: volatile memories are wiped; each pending PM line is
    /// independently either applied (it happened to have been evicted to the
    /// persistence domain already) or lost. DDIO returns to its boot default.
    pub fn crash(&mut self) -> CrashReport {
        let report = self.pm.crash(&mut self.rng);
        self.power_off(report)
    }

    /// Power failure with a chosen eviction outcome (campaign replay): the
    /// applied pending-line subset comes from `policy` instead of the
    /// machine RNG, so the machine RNG stream — and with it every
    /// RNG-dependent event after recovery — is identical across replays of
    /// different policies. Volatile state is wiped exactly as in
    /// [`Machine::crash`].
    pub fn crash_with_policy(&mut self, policy: CrashPolicy) -> CrashReport {
        let report = self.pm.crash_with_policy(policy);
        self.power_off(report)
    }

    /// The tail both crash flavours share once PM has settled: wipe the
    /// volatile memories, reset DDIO, count and trace the crash.
    fn power_off(&mut self, report: CrashReport) -> CrashReport {
        self.dram.wipe();
        self.hbm.wipe();
        self.ddio_enabled = true;
        self.stats.crashes += 1;
        if self.trace_enabled() {
            self.trace(EventKind::Crash {
                applied: report.lines_applied,
                dropped: report.lines_dropped,
            });
        }
        report
    }

    /// Direct access to the PM device (tests, fine-grained inspection).
    pub fn pm(&self) -> &PmDevice {
        &self.pm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut m = Machine::default();
        let a = m.alloc_pm(100).unwrap();
        let b = m.alloc_pm(100).unwrap();
        assert_eq!(a % OPTANE_BLOCK, 0);
        assert_eq!(b % OPTANE_BLOCK, 0);
        assert!(b >= a + 100);

        let mut small = Machine::new(MachineConfig {
            pm_capacity: 512,
            ..MachineConfig::default()
        });
        small.alloc_pm(512).unwrap();
        assert!(matches!(
            small.alloc_pm(1),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn gpu_store_needs_fence_with_ddio_off() {
        let mut m = Machine::default();
        let off = m.alloc_pm(64).unwrap();
        m.set_ddio(false);
        m.gpu_store_pm(1, off, &[5; 8]).unwrap();
        assert!(m.pm().is_pending(off, 8));
        let drained = m.gpu_system_fence(1);
        assert_eq!(drained, 1);
        assert!(!m.pm().is_pending(off, 8));
    }

    #[test]
    fn ddio_on_fence_is_visibility_only() {
        let mut m = Machine::default();
        let off = m.alloc_pm(64).unwrap();
        assert!(m.ddio_enabled());
        assert!(!m.gpu_persist_guaranteed());
        m.gpu_store_pm(1, off, &[5; 8]).unwrap();
        assert_eq!(m.gpu_system_fence(1), 0);
        assert!(
            m.pm().is_pending(off, 8),
            "DDIO caches the write in the LLC"
        );
    }

    #[test]
    fn eadr_makes_stores_durable_at_visibility() {
        let mut m = Machine::new(MachineConfig::default().with_eadr());
        let off = m.alloc_pm(64).unwrap();
        assert!(m.gpu_persist_guaranteed());
        m.gpu_store_pm(1, off, &[5; 8]).unwrap();
        assert!(!m.pm().is_pending(off, 8));
        let mut b = [0u8; 8];
        m.pm().read_media(off, &mut b).unwrap();
        assert_eq!(b, [5; 8]);
    }

    #[test]
    fn cpu_store_flush_drain() {
        let mut m = Machine::default();
        let off = m.alloc_pm(64).unwrap();
        m.cpu_store_pm(9, off, &[3; 16]).unwrap();
        assert!(m.pm().is_pending(off, 16));
        assert_eq!(m.cpu_persist_range(off, 16), 1);
        assert!(!m.pm().is_pending(off, 16));
    }

    #[test]
    fn crash_wipes_volatile_and_resets_ddio() {
        let mut m = Machine::default();
        let h = m.alloc_hbm(64).unwrap();
        let d = m.alloc_dram(64).unwrap();
        m.host_write(Addr::hbm(h), &[1; 8]).unwrap();
        m.host_write(Addr::dram(d), &[2; 8]).unwrap();
        m.set_ddio(false);
        m.crash();
        assert!(m.ddio_enabled());
        assert_eq!(m.read_u64(Addr::hbm(h)).unwrap(), 0);
        assert_eq!(m.read_u64(Addr::dram(d)).unwrap(), 0);
        assert_eq!(m.stats.crashes, 1);
    }

    #[test]
    fn dma_moves_data_and_counts() {
        let mut m = Machine::default();
        let h = m.alloc_hbm(128).unwrap();
        let d = m.alloc_dram(128).unwrap();
        m.host_write(Addr::hbm(h), &[7; 128]).unwrap();
        m.dma_copy(Addr::hbm(h), Addr::dram(d), 128).unwrap();
        let mut b = [0u8; 128];
        m.read(Addr::dram(d), &mut b).unwrap();
        assert_eq!(b, [7; 128]);
        assert_eq!(m.stats.dma_bytes, 128);
    }

    #[test]
    #[should_panic(expected = "DMA")]
    fn dma_requires_gpu_endpoint() {
        let mut m = Machine::default();
        let d = m.alloc_dram(64).unwrap();
        let p = m.alloc_pm(64).unwrap();
        let _ = m.dma_copy(Addr::dram(d), Addr::pm(p), 64);
    }

    #[test]
    fn fs_roundtrip() {
        let mut m = Machine::default();
        let f = m.fs_create("/pm/x", 1000).unwrap();
        assert!(f.len >= 1000);
        assert_eq!(m.fs_open("/pm/x").unwrap(), f);
        assert!(m.fs_exists("/pm/x"));
        m.fs_remove("/pm/x").unwrap();
        assert!(!m.fs_exists("/pm/x"));
        assert!(
            m.fs_create("/pm/x", 10).is_ok(),
            "name reusable after removal"
        );
    }

    #[test]
    fn typed_reads() {
        let mut m = Machine::default();
        let p = m.alloc_pm(64).unwrap();
        m.host_write(Addr::pm(p), &123u32.to_le_bytes()).unwrap();
        m.host_write(Addr::pm(p + 8), &9.5f32.to_le_bytes())
            .unwrap();
        assert_eq!(m.read_u32(Addr::pm(p)).unwrap(), 123);
        assert_eq!(m.read_f32(Addr::pm(p + 8)).unwrap(), 9.5);
    }

    #[test]
    fn epoch_fence_defers_persist_to_drain() {
        let mut m = Machine::default();
        let off = m.alloc_pm(4096).unwrap();
        m.set_ddio(false);
        m.set_persistency(PersistencyModel::Epoch);
        m.gpu_store_pm(1, off, &[5; 8]).unwrap();
        assert_eq!(m.gpu_system_fence(1), 0, "epoch fence drains nothing");
        assert_eq!(m.stats.system_fences, 1);
        assert_eq!(m.stats.bytes_persisted, 0);
        assert!(m.pm().is_pending(off, 8));
        assert_eq!(m.pm().closed_line_count(), 1);
        assert_eq!(m.epoch_drain(), 1);
        assert_eq!(m.stats.bytes_persisted, 64);
        assert!(!m.pm().is_pending(off, 8));
    }

    #[test]
    fn epoch_and_strict_converge_on_media() {
        let run = |model: PersistencyModel| {
            let mut m = Machine::default();
            let off = m.alloc_pm(4096).unwrap();
            m.set_ddio(false);
            m.set_persistency(model);
            m.gpu_store_pm(1, off, &[7; 64]).unwrap();
            m.gpu_system_fence(1);
            if model == PersistencyModel::Epoch {
                m.epoch_drain();
            }
            let mut b = [0u8; 64];
            m.pm().read_media(off, &mut b).unwrap();
            (b, m.stats.bytes_persisted, m.stats.system_fences)
        };
        assert_eq!(run(PersistencyModel::Strict), run(PersistencyModel::Epoch));
    }

    #[test]
    fn lanes_store_and_fence_match_per_lane_counters() {
        let lanes_path = {
            let mut m = Machine::default();
            let off = m.alloc_pm(4096).unwrap();
            m.set_ddio(false);
            let data = [3u8; 256];
            m.gpu_store_pm_lanes(0, 8, off, &data).unwrap();
            m.gpu_system_fence_lanes(0, 32);
            (
                m.stats.pm_write_bytes_gpu,
                m.stats.system_fences,
                m.stats.bytes_persisted,
            )
        };
        let per_lane = {
            let mut m = Machine::default();
            let off = m.alloc_pm(4096).unwrap();
            m.set_ddio(false);
            for lane in 0..32u32 {
                m.gpu_store_pm(lane, off + lane as u64 * 8, &[3u8; 8])
                    .unwrap();
            }
            for lane in 0..32u32 {
                m.gpu_system_fence(lane);
            }
            (
                m.stats.pm_write_bytes_gpu,
                m.stats.system_fences,
                m.stats.bytes_persisted,
            )
        };
        assert_eq!(lanes_path, per_lane);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = Machine::default();
        let off = m.alloc_pm(4096).unwrap();
        m.set_ddio(false);
        m.gpu_store_pm(1, off, &[0; 256]).unwrap();
        m.gpu_system_fence(1);
        let mut b = [0u8; 64];
        m.gpu_load_pm(off, &mut b).unwrap();
        assert_eq!(m.stats.pm_write_bytes_gpu, 256);
        assert_eq!(m.stats.pm_read_bytes_gpu, 64);
        assert_eq!(m.stats.system_fences, 1);
        assert!(m.stats.bytes_persisted >= 256);
    }
}
