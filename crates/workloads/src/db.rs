//! gpDB: transactional INSERTs and UPDATEs on a GPU-accelerated relational
//! table (§4.1).
//!
//! Modelled on the paper's extension of the Virginian GPU database: batched
//! INSERT queries append rows at the end of a PM-resident table (logging
//! only the table size in a conventional metadata log), while batched
//! UPDATE queries modify a predicate-selected subset of rows scattered over
//! the table, undo-logging each old row through HCL. The two exhibit the
//! paper's distinct behaviours: INSERTs stream sequentially (WA ≈ 1.27),
//! UPDATEs are sparse (WA ≈ 20, Table 4).
//!
//! Under GPM, UPDATEs are *detectable* ([`gpm_core::detect`]): each row has
//! a 32-byte meta record `{row_id, new_val, version, tag}` that doubles as
//! the operation's descriptor and redo record. A crashed UPDATE batch can be
//! retried in place — resubmit it and every matched row applies exactly once
//! (a tagged meta record means "applied"; the retry re-stores column 3 from
//! the record's redo value rather than trusting the crash to have settled
//! it). Rows never span threadblocks and the meta/undo state is per-row /
//! per-thread.

use gpm_cap::{cap_persist_region, flush_from_cpu, CapFlavor};
use gpm_core::{
    gpm_map, gpm_persist_begin, gpm_persist_end, gpmlog_create_conv, gpmlog_create_hcl, op_tag,
    DetectTxn, DetectableCas, GpmLog, GpmLogDev, GpmThreadExt, GpmWarpExt,
};
use gpm_gpu::{
    launch, launch_with_gauge, FnKernel, FuelGauge, Kernel, LaunchConfig, LaunchError, ThreadCtx,
    WarpCtx,
};
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{
    Addr, CrashPolicy, CrashSchedule, Machine, Ns, OracleVerdict, SimError, SimResult, HOST_WRITER,
};

use crate::hash_shard::{rebuild_mirror, traced_recovery};
use crate::metrics::{metered, BatchMetrics, Mode, RunMetrics};
use crate::oracle::{expect_clean, RecoveryOracle};

/// Valid bytes per row: id u64 + 12 columns u64.
pub const ROW_BYTES: u64 = 104;
/// Row stride (8-byte alignment padding leaves small holes, so row streams
/// do not fill Optane's 256-byte blocks — the paper's "unaligned but
/// sequential" INSERT pattern).
pub const ROW_STRIDE: u64 = 112;
/// Update predicate: rows with `id % UPDATE_MOD == UPDATE_RESIDUE`.
const UPDATE_MOD: u64 = 20;
const UPDATE_RESIDUE: u64 = 3;
/// Bytes per per-row UPDATE meta record (`{row_id, new_val, version, tag}`,
/// one [`DetectableCas`] unit).
const UPD_META_BYTES: u64 = 32;
/// CAP transfers appended regions at this DMA chunk granularity.
const CAP_INSERT_CHUNK: u64 = 128 << 10;

/// Which query type the workload runs (reported separately in Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbOp {
    /// Batched row INSERTs appended at the table's end.
    Insert,
    /// Batched predicate UPDATEs scattered over the table.
    Update,
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbParams {
    /// Rows present before the workload starts.
    pub initial_rows: u64,
    /// Maximum rows the table can hold.
    pub capacity_rows: u64,
    /// Rows inserted per INSERT batch.
    pub rows_per_insert: u64,
    /// Batches executed.
    pub batches: u32,
    /// Which query type to run.
    pub op: DbOp,
    /// CPU threads for CAP-mm persisting.
    pub cap_threads: u32,
    /// Undo-log backend for UPDATEs: `None` = HCL, `Some(p)` = conventional
    /// logging with `p` partitions (the Figure 11 baseline).
    pub conventional_log_partitions: Option<u32>,
    /// GPU persistency model for every kernel this workload launches,
    /// strict by default, like [`LaunchConfig::persistency`]; gpm-serve
    /// selects epoch through it.
    pub persistency: gpm_gpu::PersistencyModel,
}

impl Default for DbParams {
    fn default() -> DbParams {
        DbParams {
            initial_rows: 32_768,
            capacity_rows: 65_536,
            rows_per_insert: 4_096,
            batches: 8,
            op: DbOp::Insert,
            cap_threads: 32,
            conventional_log_partitions: None,
            persistency: gpm_gpu::PersistencyModel::Strict,
        }
    }
}

impl DbParams {
    /// Small configuration for unit tests.
    pub fn quick() -> DbParams {
        DbParams {
            initial_rows: 2_048,
            capacity_rows: 4_096,
            rows_per_insert: 256,
            batches: 2,
            ..DbParams::default()
        }
    }

    /// Switches to the UPDATE query type.
    pub fn updates(mut self) -> DbParams {
        self.op = DbOp::Update;
        self
    }

    /// Pins the GPU persistency model for every launch of this workload.
    pub fn with_persistency(mut self, model: gpm_gpu::PersistencyModel) -> DbParams {
        self.persistency = model;
        self
    }

    fn table_bytes(&self) -> u64 {
        self.capacity_rows * ROW_STRIDE
    }
}

/// The gpDB workload instance.
#[derive(Debug)]
pub struct DbWorkload {
    /// Parameters of this instance.
    pub params: DbParams,
    /// Campaign self-test knob: UPDATEs skip the meta-record check (a
    /// double-applying CAS). Harmless on clean runs; a crash-and-retry
    /// applies matched rows twice. The double-recovery oracle must catch it.
    pub inject_double_apply: bool,
}

/// Live gpDB instance state: the PM table, its HBM mirror, the persistent
/// row count and the metadata/row undo logs. Created once by
/// [`DbWorkload::setup`] and reused across batches.
#[derive(Debug)]
pub struct DbState {
    pm_table: u64,
    hbm_table: u64,
    row_count: u64, // PM address of the persistent row count
    staging_dram: u64,
    cap_pm: u64,
    upd_meta: u64,  // PM base of the per-row UPDATE meta records
    txn: DetectTxn, // epoch counter only; the meta records are the descriptors
    meta_log: GpmLog,
    row_log: GpmLog,
}

impl DbState {
    /// Reads the durable row count from PM — what a serving frontend
    /// booting over an existing image must resume from after recovery.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn durable_rows(&self, machine: &Machine) -> SimResult<u64> {
        machine.read_u64(Addr::pm(self.row_count))
    }
}

fn row_value(row: u64, col: u64, batch: u32) -> u64 {
    gpm_pmkv::hash64(row ^ (col << 32) ^ ((batch as u64) << 48))
}

fn updated_col_value(id: u64, batch: u32) -> u64 {
    id.wrapping_mul(31).wrapping_add(batch as u64)
}

/// One INSERT batch: each thread appends one freshly-encoded row to the end
/// of the table (HBM always, plus the PM image under GPM). Thread 0
/// additionally logs the old table size to the conventional metadata log, so
/// its warp diverges and stays per-lane; every other full warp streams its
/// 32 rows through strided vector stores.
struct DbInsertKernel {
    pm_table: u64,
    hbm_table: u64,
    meta_log: GpmLogDev,
    batch: u32,
    start_row: u64,
    rows: u64,
    to_pm: bool,
    persist: bool,
}

impl Kernel for DbInsertKernel {
    type State = ();
    type Shared = ();

    fn run(&self, _phase: u32, ctx: &mut ThreadCtx<'_>, _: &mut (), _: &mut ()) -> SimResult<()> {
        let i = ctx.global_id();
        if i >= self.rows {
            return Ok(());
        }
        // Thread 0 logs the old table size (metadata, conventional log).
        if i == 0 && self.to_pm && self.persist {
            self.meta_log
                .insert_to(ctx, &self.start_row.to_le_bytes(), 0)?;
        }
        let row_id = self.start_row + i;
        ctx.compute(Ns(60.0)); // query processing per row
        let row = DbWorkload::encode_row(row_id, self.batch);
        ctx.st_bytes(Addr::hbm(self.hbm_table + row_id * ROW_STRIDE), &row)?;
        if self.to_pm {
            ctx.st_bytes(Addr::pm(self.pm_table + row_id * ROW_STRIDE), &row)?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        }
        Ok(())
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _: &mut [()],
        _: &mut (),
    ) -> SimResult<bool> {
        let first = ctx.first_global_id();
        let lanes = ctx.lanes() as u64;
        if first + lanes > self.rows {
            return Ok(false); // guard diverges in the tail warp
        }
        if first == 0 && self.to_pm && self.persist {
            return Ok(false); // thread 0's metadata-log append diverges
        }
        ctx.compute(Ns(60.0));
        let mut buf = vec![0u8; (lanes * ROW_BYTES) as usize];
        for l in 0..lanes {
            let row = DbWorkload::encode_row(self.start_row + first + l, self.batch);
            buf[(l * ROW_BYTES) as usize..((l + 1) * ROW_BYTES) as usize].copy_from_slice(&row);
        }
        let off = (self.start_row + first) * ROW_STRIDE;
        ctx.st_bytes_lanes(
            Addr::hbm(self.hbm_table + off),
            ROW_STRIDE,
            ROW_BYTES as usize,
            &buf,
        )?;
        if self.to_pm {
            ctx.st_bytes_lanes(
                Addr::pm(self.pm_table + off),
                ROW_STRIDE,
                ROW_BYTES as usize,
                &buf,
            )?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        }
        Ok(true)
    }

    fn warp_fuel(&self, _phase: u32) -> Option<u64> {
        // One HBM row store per lane, plus under GPM the PM mirror store and
        // the persist fence; thread 0's conventional-log append adds six
        // counted ops (two u32 loads/stores around the entry, the entry
        // store, and two fences), which the bound must cover even though its
        // warp always declines to per-lane.
        let base = 1 + u64::from(self.to_pm) + u64::from(self.to_pm && self.persist);
        Some(base + if self.to_pm && self.persist { 6 } else { 0 })
    }
}

impl DbWorkload {
    /// Creates the workload.
    pub fn new(params: DbParams) -> DbWorkload {
        DbWorkload {
            params,
            inject_double_apply: false,
        }
    }

    /// Enables the deliberate double-applying CAS (campaign self-test for
    /// `--double-recovery`).
    pub fn with_double_apply_bug(mut self) -> DbWorkload {
        self.inject_double_apply = true;
        self
    }

    fn cfg_for(&self, elements: u64) -> LaunchConfig {
        LaunchConfig::for_elements(elements, 256).with_persistency(self.params.persistency)
    }

    fn update_launch_cfg(&self) -> LaunchConfig {
        self.cfg_for(self.params.capacity_rows)
    }

    /// Allocates the table, mirror, logs and row count on `machine` and
    /// populates the initial rows (durable setup, untimed).
    ///
    /// # Errors
    ///
    /// Fails on allocation or PM-file errors.
    pub fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<DbState> {
        let p = &self.params;
        let pm_table = gpm_map(machine, "/pm/gpdb/table", p.table_bytes(), true)?.offset;
        let meta = gpm_map(machine, "/pm/gpdb/meta", 256, true)?;
        let upd_meta = gpm_map(
            machine,
            "/pm/gpdb/upd_meta",
            p.capacity_rows * UPD_META_BYTES,
            true,
        )?
        .offset;
        // One-slot area: only its durable epoch counter is used (the per-row
        // meta records play the descriptor role).
        let txn = DetectTxn::create(machine, "/pm/gpdb", 1)?;
        let hbm_table = machine.alloc_hbm(p.table_bytes())?;
        let staging_dram = machine.alloc_dram(p.table_bytes())?;
        let cap_pm = if matches!(mode, Mode::CapFs | Mode::CapMm) {
            machine.alloc_pm(p.table_bytes())?
        } else {
            0
        };
        let meta_log = gpmlog_create_conv(machine, "/pm/gpdb/meta_log", 4096, 1)
            .map_err(|_| SimError::Invalid("meta log"))?;
        let cfg = self.update_launch_cfg();
        // 4× headroom per thread: a retried batch appends a fresh undo entry
        // for every row whose meta record was lost to the crash, on top of
        // the crashed attempt's entries (the log is only truncated at
        // commit), so one entry per thread is not enough under retries.
        let row_log_size = cfg.total_threads() * (ROW_BYTES + 16) * 4;
        let row_log = match p.conventional_log_partitions {
            None => gpmlog_create_hcl(
                machine,
                "/pm/gpdb/row_log",
                row_log_size,
                cfg.grid,
                cfg.block,
            ),
            Some(parts) => {
                gpm_core::gpmlog_create_conv(machine, "/pm/gpdb/row_log", row_log_size * 2, parts)
            }
        }
        .map_err(|_| SimError::Invalid("row log"))?;

        // Populate the initial rows (durable setup, untimed).
        for r in 0..p.initial_rows {
            let row = Self::encode_row(r, 0);
            machine.host_write(Addr::pm(pm_table + r * ROW_STRIDE), &row)?;
            machine.host_write(Addr::hbm(hbm_table + r * ROW_STRIDE), &row)?;
            if matches!(mode, Mode::CapFs | Mode::CapMm) {
                machine.host_write(Addr::pm(cap_pm + r * ROW_STRIDE), &row)?;
            }
        }
        machine.host_write(Addr::pm(meta.offset), &p.initial_rows.to_le_bytes())?;
        Ok(DbState {
            pm_table,
            hbm_table,
            row_count: meta.offset,
            staging_dram,
            cap_pm,
            upd_meta,
            txn,
            meta_log,
            row_log,
        })
    }

    fn encode_row(row_id: u64, batch: u32) -> [u8; ROW_BYTES as usize] {
        let mut row = [0u8; ROW_BYTES as usize];
        row[0..8].copy_from_slice(&row_id.to_le_bytes());
        for col in 0..12u64 {
            row[(8 + col * 8) as usize..(16 + col * 8) as usize]
                .copy_from_slice(&row_value(row_id, col, batch).to_le_bytes());
        }
        row
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_kernel(
        &self,
        st: &DbState,
        batch: u32,
        start_row: u64,
        rows: u64,
        to_pm: bool,
        persist: bool,
    ) -> DbInsertKernel {
        DbInsertKernel {
            pm_table: st.pm_table,
            hbm_table: st.hbm_table,
            meta_log: st.meta_log.dev(),
            batch,
            start_row,
            rows,
            to_pm,
            persist,
        }
    }

    /// The predicate-UPDATE kernel. Under GPM (`to_pm && persist`) each
    /// matched row runs the detectable protocol against its meta record
    /// (tag `op_tag(epoch, row)`), so a crashed batch is retryable in
    /// place. Rows and meta records never span threadblocks (256 rows ×
    /// 112 B and 256 × 32 B are both line-aligned block strides) and the
    /// HCL undo log is per-thread; only the conventional-log ablation
    /// shares state across blocks (its partition tails).
    /// The predicate is data-dependent (~1/UPDATE_MOD of lanes match), so
    /// warps diverge and the kernel stays per-lane; no `run_warp`.
    #[allow(clippy::too_many_arguments)]
    fn update_kernel(
        &self,
        st: &DbState,
        batch: u32,
        row_count: u64,
        epoch: u64,
        to_pm: bool,
        persist: bool,
    ) -> impl gpm_gpu::Kernel<State = (), Shared = ()> {
        let (pm_table, hbm_table, upd_meta) = (st.pm_table, st.hbm_table, st.upd_meta);
        let row_log = st.row_log.dev();
        let inject = self.inject_double_apply;
        let detectable = to_pm && persist;
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            if i >= row_count {
                return Ok(());
            }
            let id = ctx.ld_u64(Addr::hbm(hbm_table + i * ROW_STRIDE))?;
            ctx.compute(Ns(150.0)); // predicate + column evaluation
            if id % UPDATE_MOD != UPDATE_RESIDUE {
                return Ok(());
            }
            let new_val = updated_col_value(id, batch);
            let col3 = i * ROW_STRIDE + 8 + 3 * 8;
            if to_pm {
                if detectable {
                    let tag = op_tag(epoch, i);
                    let meta_addr = Addr::pm(upd_meta + i * UPD_META_BYTES);
                    let meta = DetectableCas::read(ctx, meta_addr)?;
                    if !inject && meta[3] == tag {
                        // Applied before the crash. The crash may have
                        // settled the meta line without the column store
                        // (mixed settle policies), so REDO the column
                        // from the record's redo value — idempotent —
                        // rather than trusting it reached media.
                        ctx.st_u64(Addr::pm(pm_table + col3), meta[1])?;
                        ctx.gpm_persist()?;
                        ctx.st_u64(Addr::hbm(hbm_table + col3), meta[1])?;
                        return Ok(());
                    }
                    // Undo-log the whole old row (rollback recovery stays
                    // possible), update column 3, then publish the meta
                    // record durably — its tag certifies "applied".
                    let mut old = [0u8; ROW_BYTES as usize];
                    ctx.ld_bytes(Addr::hbm(hbm_table + i * ROW_STRIDE), &mut old)?;
                    row_log.insert(ctx, &old)?;
                    let version = if meta[0] == id && meta[3] == tag {
                        meta[2] + 1
                    } else {
                        1
                    };
                    ctx.st_u64(Addr::pm(pm_table + col3), new_val)?;
                    DetectableCas::publish(ctx, meta_addr, id, new_val, version, tag)?;
                } else {
                    // Legacy path (GPM-NDP): undo-log and store without
                    // in-kernel ordering; the CPU flushes after.
                    let mut old = [0u8; ROW_BYTES as usize];
                    ctx.ld_bytes(Addr::hbm(hbm_table + i * ROW_STRIDE), &mut old)?;
                    if persist {
                        row_log.insert(ctx, &old)?;
                    } else {
                        row_log.insert_unfenced(ctx, &old)?;
                    }
                    ctx.st_u64(Addr::pm(pm_table + col3), new_val)?;
                    if persist {
                        ctx.gpm_persist()?;
                    }
                }
            }
            ctx.st_u64(Addr::hbm(hbm_table + col3), new_val)?;
            Ok(())
        })
    }

    /// The GPM launch of batch `batch`, up to and not including its
    /// commit, in a persist window: an INSERT appends `rows` rows after the
    /// first `count`; an UPDATE opens (or, on a resubmission, re-enters)
    /// the batch's detect epoch ([`DetectTxn::enter`]) and sweeps the first
    /// `count` rows. [`apply_batch_gauged`](DbWorkload::apply_batch_gauged)
    /// commits after it; Table 5's measurement crashes before the commit
    /// instead.
    fn launch_gpm(
        &self,
        machine: &mut Machine,
        st: &DbState,
        batch: u32,
        rows: u64,
        count: u64,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        match self.params.op {
            DbOp::Insert => {
                gpm_persist_begin(machine);
                let kernel = self.insert_kernel(st, batch, count, rows, true, true);
                launch_with_gauge(machine, self.cfg_for(rows), &kernel, gauge)?;
            }
            DbOp::Update => {
                let epoch = st
                    .txn
                    .enter(machine, batch as u64)
                    .map_err(LaunchError::Sim)?;
                gpm_persist_begin(machine);
                let kernel = self.update_kernel(st, batch, count, epoch, true, true);
                launch_with_gauge(machine, self.update_launch_cfg(), &kernel, gauge)?;
            }
        }
        gpm_persist_end(machine);
        Ok(())
    }

    fn persist_count(&self, machine: &mut Machine, st: &DbState, count: u64) -> SimResult<()> {
        let mut cpu = CpuCtx::new(machine, HOST_WRITER);
        cpu.store(Addr::pm(st.row_count), &count.to_le_bytes())?;
        cpu.persist(st.row_count, 8);
        let t = cpu.elapsed();
        machine.clock.advance(t);
        Ok(())
    }

    /// Applies one batch through the shared kernel-launch path: an INSERT
    /// appending `rows` rows, or an UPDATE sweeping the current `*count`
    /// rows (`rows` is ignored for updates). `count` is the caller's live
    /// row count and is advanced (and persisted, where the mode requires
    /// it) by insert batches. This is the single entry point both the
    /// closed-loop suite and the `gpm-serve` frontend drive; Table 5's
    /// measurement shares its GPM launch step ([`launch_gpm`]).
    ///
    /// [`launch_gpm`]: DbWorkload::launch_gpm
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes, inserts past capacity, or platform
    /// errors.
    pub fn apply_batch(
        &self,
        machine: &mut Machine,
        st: &DbState,
        batch: u32,
        rows: u64,
        count: &mut u64,
        mode: Mode,
    ) -> SimResult<BatchMetrics> {
        expect_clean(self.apply_batch_gauged(
            machine,
            st,
            batch,
            rows,
            count,
            mode,
            &mut FuelGauge::Unlimited,
        ))
    }

    /// [`apply_batch`](DbWorkload::apply_batch) driven through a
    /// [`FuelGauge`], so callers can record crash schedules or inject a
    /// mid-batch crash (the `gpm-serve` retry drill and the campaign both
    /// ride this).
    ///
    /// # Errors
    ///
    /// [`LaunchError::Crashed`] when the gauge's fuel runs out mid-kernel;
    /// [`LaunchError::Sim`] on functional errors.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_batch_gauged(
        &self,
        machine: &mut Machine,
        st: &DbState,
        batch: u32,
        rows: u64,
        count: &mut u64,
        mode: Mode,
        gauge: &mut FuelGauge,
    ) -> Result<BatchMetrics, LaunchError> {
        let p = &self.params;
        let t0 = machine.clock.now();
        let s0 = machine.stats;
        let ops;
        match p.op {
            DbOp::Insert => {
                ops = rows;
                if *count + rows > p.capacity_rows {
                    return Err(LaunchError::Sim(SimError::Invalid(
                        "insert batch exceeds table capacity",
                    )));
                }
                let cfg = self.cfg_for(rows);
                match mode {
                    Mode::Gpm => {
                        self.launch_gpm(machine, st, batch, rows, *count, gauge)?;
                        *count += rows;
                        self.persist_count(machine, st, *count)
                            .map_err(LaunchError::Sim)?;
                        st.meta_log
                            .host_clear(machine)
                            .map_err(|_| LaunchError::Sim(SimError::Invalid("clear")))?;
                    }
                    Mode::GpmNdp => {
                        launch_with_gauge(
                            machine,
                            cfg,
                            &self.insert_kernel(st, batch, *count, rows, true, false),
                            gauge,
                        )?;
                        let start = st.pm_table + *count * ROW_STRIDE;
                        flush_from_cpu(machine, start, rows * ROW_STRIDE, p.cap_threads);
                        *count += rows;
                        self.persist_count(machine, st, *count)
                            .map_err(LaunchError::Sim)?;
                    }
                    Mode::CapFs | Mode::CapMm => {
                        launch_with_gauge(
                            machine,
                            cfg,
                            &self.insert_kernel(st, batch, *count, rows, false, false),
                            gauge,
                        )?;
                        // Transfer the appended region at chunk granularity
                        // plus the metadata page: slight over-transfer
                        // (WA ≈ 1.27, Table 4).
                        let begin = *count * ROW_STRIDE;
                        let end = (*count + rows) * ROW_STRIDE;
                        let start = begin / CAP_INSERT_CHUNK * CAP_INSERT_CHUNK;
                        let aligned_end = (end.div_ceil(CAP_INSERT_CHUNK) * CAP_INSERT_CHUNK
                            + 4096)
                            .min(p.table_bytes());
                        let len = aligned_end - start;
                        let flavor = if mode == Mode::CapFs {
                            CapFlavor::Fs
                        } else {
                            CapFlavor::Mm {
                                threads: p.cap_threads,
                            }
                        };
                        cap_persist_region(
                            machine,
                            flavor,
                            st.hbm_table + start,
                            st.staging_dram,
                            st.cap_pm + start,
                            len,
                        )
                        .map_err(LaunchError::Sim)?;
                        *count += rows;
                    }
                    Mode::Gpufs | Mode::CpuPm => {
                        return Err(LaunchError::Sim(SimError::Invalid(
                            "mode unsupported for gpDB",
                        )));
                    }
                }
            }
            DbOp::Update => {
                ops = *count;
                let cfg = self.update_launch_cfg();
                match mode {
                    Mode::Gpm => {
                        self.launch_gpm(machine, st, batch, rows, *count, gauge)?;
                        st.txn.flag.commit(machine).map_err(LaunchError::Sim)?;
                        st.row_log
                            .host_clear(machine)
                            .map_err(|_| LaunchError::Sim(SimError::Invalid("clear")))?;
                    }
                    Mode::GpmNdp => {
                        launch_with_gauge(
                            machine,
                            cfg,
                            &self.update_kernel(st, batch, *count, 0, true, false),
                            gauge,
                        )?;
                        flush_from_cpu(machine, st.pm_table, p.table_bytes(), p.cap_threads);
                        flush_from_cpu(
                            machine,
                            st.row_log.region.offset,
                            st.row_log.region.len,
                            p.cap_threads,
                        );
                        // Batch committed: truncate the undo log.
                        st.row_log
                            .host_clear(machine)
                            .map_err(|_| LaunchError::Sim(SimError::Invalid("clear")))?;
                    }
                    Mode::CapFs | Mode::CapMm => {
                        launch_with_gauge(
                            machine,
                            cfg,
                            &self.update_kernel(st, batch, *count, 0, false, false),
                            gauge,
                        )?;
                        let flavor = if mode == Mode::CapFs {
                            CapFlavor::Fs
                        } else {
                            CapFlavor::Mm {
                                threads: p.cap_threads,
                            }
                        };
                        cap_persist_region(
                            machine,
                            flavor,
                            st.hbm_table,
                            st.staging_dram,
                            st.cap_pm,
                            *count * ROW_STRIDE,
                        )
                        .map_err(LaunchError::Sim)?;
                    }
                    Mode::Gpufs | Mode::CpuPm => {
                        return Err(LaunchError::Sim(SimError::Invalid(
                            "mode unsupported for gpDB",
                        )));
                    }
                }
            }
        }
        let d = machine.stats.delta(&s0);
        Ok(BatchMetrics {
            ops,
            elapsed: machine.clock.now() - t0,
            pm_write_bytes_gpu: d.pm_write_bytes_gpu,
            bytes_persisted: d.bytes_persisted,
        })
    }

    fn run_batches(&self, machine: &mut Machine, st: &DbState, mode: Mode) -> SimResult<()> {
        let p = &self.params;
        let mut count = p.initial_rows;
        for b in 0..p.batches {
            self.apply_batch(machine, st, b, p.rows_per_insert, &mut count, mode)?;
        }
        Ok(())
    }

    fn verify(&self, machine: &Machine, st: &DbState, mode: Mode) -> SimResult<bool> {
        let p = &self.params;
        let base = match mode {
            Mode::Gpm | Mode::GpmNdp => st.pm_table,
            Mode::CapFs | Mode::CapMm => st.cap_pm,
            _ => return Ok(false),
        };
        match p.op {
            DbOp::Insert => {
                let total = p.initial_rows + p.batches as u64 * p.rows_per_insert;
                for r in (0..total).step_by(37) {
                    let id = machine.read_u64(Addr::pm(base + r * ROW_STRIDE))?;
                    if id != r {
                        return Ok(false);
                    }
                }
                if matches!(mode, Mode::Gpm | Mode::GpmNdp)
                    && machine.read_u64(Addr::pm(st.row_count))? != total
                {
                    return Ok(false);
                }
            }
            DbOp::Update => {
                for r in 0..p.initial_rows {
                    let expected = if r % UPDATE_MOD == UPDATE_RESIDUE {
                        updated_col_value(r, p.batches - 1)
                    } else {
                        row_value(r, 3, 0)
                    };
                    let got = machine.read_u64(Addr::pm(base + r * ROW_STRIDE + 8 + 3 * 8))?;
                    if got != expected {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Runs the workload under `mode`.
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes or on platform errors.
    pub fn run(&self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        let st = self.setup(machine, mode)?;
        let mut metrics = metered(machine, |m| {
            self.run_batches(m, &st, mode)?;
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = self.verify(machine, &st, mode)?;
        Ok(metrics)
    }

    /// The CPU-only (OpenMP-style) implementation the paper compares against
    /// in §6.1 ("we converted the CUDA implementation of gpDB to OpenMP").
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_cpu(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        let p = self.params;
        let st = self.setup(machine, Mode::Gpm)?;
        metered(machine, |m| {
            let mut serial = Ns::ZERO;
            let mut count = p.initial_rows;
            for b in 0..p.batches {
                match p.op {
                    DbOp::Insert => {
                        for i in 0..p.rows_per_insert {
                            let row = Self::encode_row(count + i, b);
                            let mut cpu = CpuCtx::new(m, HOST_WRITER);
                            cpu.compute(Ns(60.0));
                            cpu.store(Addr::pm(st.pm_table + (count + i) * ROW_STRIDE), &row)?;
                            cpu.persist((count + i) * ROW_STRIDE + st.pm_table, ROW_BYTES);
                            serial += cpu.elapsed();
                        }
                        count += p.rows_per_insert;
                    }
                    DbOp::Update => {
                        for r in 0..count {
                            let mut cpu = CpuCtx::new(m, HOST_WRITER);
                            let id = cpu.load_u64(Addr::pm(st.pm_table + r * ROW_STRIDE))?;
                            cpu.compute(Ns(40.0));
                            if id % UPDATE_MOD == UPDATE_RESIDUE {
                                // WAL the old row, then update in place.
                                let mut old = [0u8; ROW_BYTES as usize];
                                cpu.load(Addr::pm(st.pm_table + r * ROW_STRIDE), &mut old)?;
                                cpu.store(Addr::pm(st.row_log.region.offset + 256), &old)?;
                                cpu.persist(st.row_log.region.offset + 256, ROW_BYTES);
                                let a = st.pm_table + r * ROW_STRIDE + 8 + 3 * 8;
                                cpu.store(Addr::pm(a), &updated_col_value(id, b).to_le_bytes())?;
                                cpu.persist(a, 8);
                            }
                            serial += cpu.elapsed();
                        }
                    }
                }
            }
            let t = serial / m.cfg.cpu_persist_scaling(m.cfg.cpu_cores);
            m.clock.advance(t);
            Ok::<bool, SimError>(true)
        })
    }

    /// Worst-case restoration latency (Table 5): crash just before the last
    /// batch commits, then undo (UPDATE) or metadata rollback (INSERT).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_with_recovery(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        assert!(
            self.params.conventional_log_partitions.is_none(),
            "undo recovery requires the HCL backend (per-thread entries)"
        );
        let p = self.params;
        let st = self.setup(machine, Mode::Gpm)?;
        let last = p.batches - 1;
        let mut metrics = metered(machine, |m| {
            let mut count = p.initial_rows;
            for b in 0..last {
                self.apply_batch(m, &st, b, p.rows_per_insert, &mut count, Mode::Gpm)?;
            }
            // Final batch: crash before commit.
            let unlimited = &mut FuelGauge::Unlimited;
            expect_clean(self.launch_gpm(m, &st, last, p.rows_per_insert, count, unlimited))?;
            Ok::<bool, SimError>(true)
        })?;
        machine.crash();
        let t0 = machine.clock.now();
        self.recover(machine, &st)?;
        metrics.recovery = Some(machine.clock.now() - t0);
        metrics.verified = match p.op {
            // INSERT rollback: the count must still be the pre-batch value.
            DbOp::Insert => {
                let expect = p.initial_rows + (p.batches as u64 - 1) * p.rows_per_insert;
                machine.read_u64(Addr::pm(st.row_count))? == expect
            }
            // UPDATE rollback: column 3 is back at the batches-1 state.
            DbOp::Update => {
                let smaller = DbWorkload::new(DbParams {
                    batches: p.batches - 1,
                    ..p
                });
                smaller.verify(machine, &st, Mode::Gpm)?
            }
        };
        Ok(metrics)
    }

    /// Gauge-driven GPM batch loop for the campaign oracle. `committed`
    /// tracks how many batches fully committed before the crash (if any).
    fn run_batches_gauged(
        &self,
        machine: &mut Machine,
        st: &DbState,
        gauge: &mut FuelGauge,
        committed: &mut u32,
    ) -> Result<(), LaunchError> {
        let p = &self.params;
        let mut count = p.initial_rows;
        for b in 0..p.batches {
            self.apply_batch_gauged(
                machine,
                st,
                b,
                p.rows_per_insert,
                &mut count,
                Mode::Gpm,
                gauge,
            )?;
            *committed = b + 1;
        }
        Ok(())
    }

    /// Restores the durable image after a crash: metadata rollback for
    /// INSERTs, HCL undo drain for UPDATEs. Public so a serving frontend
    /// can replay recovery when it boots a shard over a crashed machine
    /// image, before admitting traffic.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover(&self, machine: &mut Machine, st: &DbState) -> SimResult<()> {
        traced_recovery(machine, |m| self.recover_inner(m, st))
    }

    fn recover_inner(&self, machine: &mut Machine, st: &DbState) -> SimResult<()> {
        match self.params.op {
            DbOp::Insert => {
                // Restore the table size from the metadata log if an insert
                // transaction was active (quick: a single metadata read).
                let logged = st
                    .meta_log
                    .host_tail(machine, 0)
                    .map_err(|_| SimError::Invalid("meta log"))?;
                if logged > 0 {
                    // Entry layout: [len u32][old_count u64].
                    let off = st.meta_log.region.offset;
                    let data_off = off + 256 + 256; // header + partition tail line
                    let old = machine.read_u64(Addr::pm(data_off + 4))?;
                    self.persist_count(machine, st, old)?;
                    st.meta_log
                        .host_clear(machine)
                        .map_err(|_| SimError::Invalid("clear"))?;
                }
                Ok(())
            }
            DbOp::Update => {
                let row_log = st.row_log.dev();
                let pm_table = st.pm_table;
                gpm_persist_begin(machine);
                // Blocks cooperatively drain the shared row log (see the KVS
                // recovery kernel).
                let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                    while row_log.tail(ctx)? as u64 * 4 >= ROW_BYTES {
                        let mut old = [0u8; ROW_BYTES as usize];
                        row_log.read_top(ctx, &mut old)?;
                        let id = u64::from_le_bytes(old[0..8].try_into().unwrap());
                        ctx.st_bytes(Addr::pm(pm_table + id * ROW_STRIDE), &old)?;
                        ctx.gpm_persist()?;
                        row_log.remove(ctx, ROW_BYTES as usize)?;
                    }
                    Ok(())
                });
                launch(machine, self.update_launch_cfg(), &k)?;
                gpm_persist_end(machine);
                // Rollback complete: retire the transaction (which also
                // retires the crashed batch's epoch — its stale meta tags
                // can never match a future epoch's).
                st.txn.flag.commit(machine)?;
                Ok(())
            }
        }
    }

    /// In-place *retry* recovery for UPDATE batches: rebuilds the HBM
    /// mirror ([`rebuild_mirror`]) and touches nothing else — table, meta
    /// records and transaction flag stay as the crash left them, so
    /// resubmitting the in-flight batch applies exactly the rows that had
    /// not yet applied. Idempotent. Mutually exclusive (per crash) with the rollback in
    /// [`recover`](DbWorkload::recover), which clears the flag and thereby
    /// retires the epoch a retry would need.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover_for_retry(&self, machine: &mut Machine, st: &DbState) -> SimResult<()> {
        let bytes = self.params.table_bytes();
        traced_recovery(machine, |m| {
            rebuild_mirror(m, st.pm_table, st.hbm_table, bytes)
        })
    }

    /// Snapshots the durable PM table image (host-side read, no simulated
    /// cost) so tests can compare store state byte-for-byte across runs.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn store_image(&self, machine: &Machine, st: &DbState) -> SimResult<Vec<u8>> {
        let mut buf = vec![0u8; self.params.table_bytes() as usize];
        machine.read(Addr::pm(st.pm_table), &mut buf)?;
        Ok(buf)
    }
}

impl RecoveryOracle for DbWorkload {
    fn name(&self) -> &'static str {
        match self.params.op {
            DbOp::Insert => "gpDB (I)",
            DbOp::Update => "gpDB (U)",
        }
    }

    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule> {
        let st = self.setup(machine, Mode::Gpm)?;
        let mut gauge = FuelGauge::record();
        let mut committed = 0;
        crate::oracle::expect_clean(self.run_batches_gauged(
            machine,
            &st,
            &mut gauge,
            &mut committed,
        ))?;
        Ok(gauge.into_schedule().expect("recording gauge"))
    }

    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        assert!(
            self.params.conventional_log_partitions.is_none(),
            "undo recovery requires the HCL backend (per-thread entries)"
        );
        let st = self.setup(machine, Mode::Gpm)?;
        let mut committed = 0u32;
        let res = self.run_batches_gauged(
            machine,
            &st,
            &mut FuelGauge::crash_with_policy(fuel, policy),
            &mut committed,
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        self.recover(machine, &st)?;
        let p = self.params;
        match p.op {
            DbOp::Insert => {
                // The in-flight batch is rolled back via the metadata log:
                // the durable count names exactly the committed rows, and
                // every row below it is intact.
                let expect = p.initial_rows + committed as u64 * p.rows_per_insert;
                let got = machine.read_u64(Addr::pm(st.row_count))?;
                if got != expect {
                    return Ok(OracleVerdict::Fail(format!(
                        "row count {got} after recovery, want {expect} \
                         ({committed} committed batches)"
                    )));
                }
                for r in (0..expect).step_by(37) {
                    if machine.read_u64(Addr::pm(st.pm_table + r * ROW_STRIDE))? != r {
                        return Ok(OracleVerdict::Fail(format!(
                            "row {r} id corrupt after recovery"
                        )));
                    }
                }
            }
            DbOp::Update => {
                // Undo must roll column 3 back to the last committed batch.
                for r in 0..p.initial_rows {
                    let expected = if committed > 0 && r % UPDATE_MOD == UPDATE_RESIDUE {
                        updated_col_value(r, committed - 1)
                    } else {
                        row_value(r, 3, 0)
                    };
                    let got =
                        machine.read_u64(Addr::pm(st.pm_table + r * ROW_STRIDE + 8 + 3 * 8))?;
                    if got != expected {
                        return Ok(OracleVerdict::Fail(format!(
                            "row {r} col 3 = {got:#x} after recovery, want {expected:#x} \
                             ({committed} committed batches)"
                        )));
                    }
                }
            }
        }
        Ok(OracleVerdict::Pass)
    }

    fn supports_double_recovery(&self) -> bool {
        true
    }

    fn run_case_double_recovery(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        assert!(
            self.params.conventional_log_partitions.is_none(),
            "retry recovery requires the HCL backend"
        );
        let p = self.params;
        let st = self.setup(machine, Mode::Gpm)?;
        let mut committed = 0u32;
        let res = self.run_batches_gauged(
            machine,
            &st,
            &mut FuelGauge::crash_with_policy(fuel, policy),
            &mut committed,
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        match p.op {
            DbOp::Insert => {
                // Inserts recover by metadata rollback, which is idempotent:
                // run it twice, then resubmit from the durable count.
                // Exactly-once here means the count names every row once —
                // a double apply would inflate it, a zero apply corrupt ids.
                self.recover(machine, &st)?;
                self.recover(machine, &st)?;
                let mut count = machine.read_u64(Addr::pm(st.row_count))?;
                let expect = p.initial_rows + committed as u64 * p.rows_per_insert;
                if count != expect {
                    return Ok(OracleVerdict::Fail(format!(
                        "row count {count} after double rollback, want {expect}"
                    )));
                }
                for b in committed..p.batches {
                    self.apply_batch(machine, &st, b, p.rows_per_insert, &mut count, Mode::Gpm)?;
                }
            }
            DbOp::Update => {
                // Updates retry in place: mirror rebuild (twice — it must be
                // idempotent), then resubmit the in-flight batch verbatim.
                self.recover_for_retry(machine, &st)?;
                self.recover_for_retry(machine, &st)?;
                let mut count = p.initial_rows;
                for b in committed..p.batches {
                    self.apply_batch(machine, &st, b, p.rows_per_insert, &mut count, Mode::Gpm)?;
                    if b == committed {
                        // Exactly-once check immediately after the retried
                        // batch (later batches would reset the versions):
                        // every matched row's meta record carries this
                        // epoch's tag with version exactly 1.
                        let epoch = st
                            .txn
                            .area
                            .epoch(machine)
                            .map_err(|_| SimError::Invalid("detect epoch read failed"))?;
                        for r in 0..p.initial_rows {
                            if r % UPDATE_MOD != UPDATE_RESIDUE {
                                continue;
                            }
                            let meta = DetectableCas::host_read(
                                machine,
                                Addr::pm(st.upd_meta + r * UPD_META_BYTES),
                            )?;
                            if meta[3] != op_tag(epoch, r) {
                                return Ok(OracleVerdict::Fail(format!(
                                    "row {r} of retried batch {b} applied zero times"
                                )));
                            }
                            if meta[2] != 1 {
                                return Ok(OracleVerdict::Fail(format!(
                                    "row {r} of retried batch {b} applied {} times",
                                    meta[2]
                                )));
                            }
                            let got = machine
                                .read_u64(Addr::pm(st.pm_table + r * ROW_STRIDE + 8 + 3 * 8))?;
                            if got != updated_col_value(r, b) {
                                return Ok(OracleVerdict::Fail(format!(
                                    "row {r} col 3 wrong after retry of batch {b}"
                                )));
                            }
                        }
                    }
                }
            }
        }
        if !self.verify(machine, &st, Mode::Gpm)? {
            return Ok(OracleVerdict::Fail(
                "table diverges from the uncrashed reference after retry".into(),
            ));
        }
        Ok(OracleVerdict::Pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(op: DbOp) -> DbWorkload {
        let mut p = DbParams::quick();
        p.op = op;
        DbWorkload::new(p)
    }

    #[test]
    fn inserts_verify_under_gpm() {
        let mut m = Machine::default();
        let r = quick(DbOp::Insert).run(&mut m, Mode::Gpm).unwrap();
        assert!(r.verified);
        assert!(r.pm_write_bytes_gpu > 0);
    }

    #[test]
    fn updates_verify_under_gpm_and_cap() {
        let mut m1 = Machine::default();
        assert!(
            quick(DbOp::Update)
                .run(&mut m1, Mode::Gpm)
                .unwrap()
                .verified
        );
        let mut m2 = Machine::default();
        assert!(
            quick(DbOp::Update)
                .run(&mut m2, Mode::CapMm)
                .unwrap()
                .verified
        );
    }

    #[test]
    fn insert_wa_is_modest_update_wa_is_large() {
        let run = |op, mode| {
            let mut m = Machine::default();
            quick(op).run(&mut m, mode).unwrap()
        };
        let gi = run(DbOp::Insert, Mode::Gpm);
        let ci = run(DbOp::Insert, Mode::CapMm);
        let gu = run(DbOp::Update, Mode::Gpm);
        let cu = run(DbOp::Update, Mode::CapMm);
        let wa_insert = ci.pm_write_bytes_total() as f64 / gi.pm_write_bytes_total() as f64;
        let wa_update = cu.pm_write_bytes_total() as f64 / gu.pm_write_bytes_total() as f64;
        // At this tiny test scale the 128 KiB DMA chunking inflates the
        // INSERT WA (the appended region is only 28 KiB); the full-scale
        // values — ≈1.2 and ≈14 — are produced by the Table 4 harness.
        assert!(
            wa_insert < 8.0,
            "INSERT WA bounded by chunking, got {wa_insert:.2}"
        );
        assert!(
            wa_update > 5.0,
            "Table 4: UPDATE WA ≈ 20, got {wa_update:.2}"
        );
        assert!(
            wa_update > wa_insert,
            "insert WA {wa_insert:.2} vs update WA {wa_update:.2}"
        );
    }

    #[test]
    fn gpm_beats_cap_for_both_ops() {
        for op in [DbOp::Insert, DbOp::Update] {
            let mut m1 = Machine::default();
            let g = quick(op).run(&mut m1, Mode::Gpm).unwrap();
            let mut m2 = Machine::default();
            let c = quick(op).run(&mut m2, Mode::CapFs).unwrap();
            assert!(
                c.elapsed > g.elapsed,
                "{op:?}: cap={} gpm={}",
                c.elapsed,
                g.elapsed
            );
        }
    }

    #[test]
    fn cpu_openmp_variant_is_slower_than_gpm() {
        let mut m1 = Machine::default();
        let g = quick(DbOp::Update).run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let c = quick(DbOp::Update).run_cpu(&mut m2).unwrap();
        assert!(
            c.elapsed > g.elapsed * 1.5,
            "gpm={} cpu={}",
            g.elapsed,
            c.elapsed
        );
    }

    #[test]
    fn insert_recovery_rolls_back_count() {
        let mut m = Machine::default();
        let r = quick(DbOp::Insert).run_with_recovery(&mut m).unwrap();
        assert!(r.verified);
        let rl = r.recovery.unwrap();
        assert!(rl.0 > 0.0);
        // gpDB(I) restores almost instantly (Table 5: 0.01%).
        assert!(rl / r.elapsed < 0.05, "rl={rl} op={}", r.elapsed);
    }

    #[test]
    fn update_recovery_undoes_last_batch() {
        let mut m = Machine::default();
        let r = quick(DbOp::Update).run_with_recovery(&mut m).unwrap();
        assert!(r.verified);
        assert!(r.recovery.unwrap() > Ns::ZERO);
    }

    #[test]
    fn ndp_mode_verifies() {
        let mut m = Machine::default();
        let r = quick(DbOp::Update).run(&mut m, Mode::GpmNdp).unwrap();
        assert!(r.verified);
    }

    /// The double-recovery oracle passes for both query types at sampled
    /// crash boundaries, and the injected double-applying CAS is caught.
    #[test]
    fn double_recovery_exactly_once_and_injected_bug_caught() {
        for op in [DbOp::Insert, DbOp::Update] {
            let mut w = quick(op);
            assert!(w.supports_double_recovery());
            let mut m = Machine::default();
            let sched = w.record(&mut m).unwrap();
            let bounds = sched.boundaries().to_vec();
            for fuel in bounds.iter().step_by(bounds.len() / 8 + 1) {
                let mut m = Machine::default();
                let v = w
                    .run_case_double_recovery(&mut m, *fuel, CrashPolicy::AllApplied)
                    .unwrap();
                assert!(v.passed(), "{op:?} fuel={fuel}: {v:?}");
            }
            if op == DbOp::Update {
                let mut buggy = quick(op).with_double_apply_bug();
                let caught = bounds.iter().any(|&fuel| {
                    let mut m = Machine::default();
                    !buggy
                        .run_case_double_recovery(&mut m, fuel, CrashPolicy::AllApplied)
                        .unwrap()
                        .passed()
                });
                assert!(caught, "deliberate double-apply bug went undetected");
            }
        }
    }
}
