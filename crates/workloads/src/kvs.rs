//! gpKVS: a GPU-accelerated persistent key-value store (§4.1, §5.2).
//!
//! Derived from MegaKV as the paper describes: an 8-way set-associative
//! table, batched SET/GET operations, groups of eight threads cooperating
//! per operation, and write-ahead undo logging (HCL) for recoverable SETs
//! (Figure 6). The table is a detectable hash shard ([`crate::hash_shard`]):
//! each 32-byte slot carries a version and the [`gpm_core::op_tag`] of the
//! operation that wrote it, and SETs run the descriptor publish protocol,
//! so a crashed batch can be *retried in place* — resubmit the identical
//! batch and every op applies exactly once — instead of rolled back. The
//! rollback path (undo log, Figure 6b) remains for boot-time recovery.
//!
//! The table lives on PM under GPM; a volatile HBM mirror serves GETs
//! ("GETs are mostly served out of the GPU's fast HBM", §6.1). Batches are
//! *hash-partitioned* before upload — operations on the same set are packed
//! into the same threadblock (MegaKV partitions requests the same way) — so
//! blocks never read each other's table lines.
//!
//! Under CAP the table lives only in HBM and the *entire* table is
//! transferred and persisted by the CPU after each batch — the
//! write-amplification of Table 4.

use gpm_cap::{cap_persist_region, flush_from_cpu, CapFlavor};
use gpm_core::{
    detect_create, gpm_map, gpm_persist_begin, gpm_persist_end, gpmlog_create_hcl, op_tag,
    DetectArea, GpmLog, GpmThreadExt, TxnFlag,
};
use gpm_gpu::{
    launch, launch_with_fuel, launch_with_gauge, FnKernel, FuelGauge, LaunchConfig, LaunchError,
    ThreadCtx,
};
use gpm_sim::{
    Addr, CrashPolicy, CrashSchedule, EventKind, Machine, Ns, OracleVerdict, SimError, SimResult,
};

use crate::hash_shard::{
    shard_set_detectable, shard_set_legacy, ShardDev, ShardModel, SLOT_BYTES, UNDO_BYTES,
};
use crate::metrics::{metered, BatchMetrics, Mode, RunMetrics};
use crate::oracle::RecoveryOracle;

pub use crate::hash_shard::WAYS;

/// One gpKVS request: `(key, value, is_get)`. GETs ignore the value and
/// write their result into the state's result buffer at the op's index.
/// Key 0 is reserved (the empty-slot / padding sentinel).
pub type KvsOp = (u64, u64, bool);

/// Threads cooperating on one operation (`THRD_GRP_SZ` in Figure 6).
pub const THREAD_GROUP: u64 = 8;
/// Operations one 256-thread block carries.
const OPS_PER_BLOCK: u64 = 256 / THREAD_GROUP;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct KvsParams {
    /// Number of sets (table holds `sets × 8` pairs).
    pub sets: u64,
    /// SET/GET operations per batch.
    pub ops_per_batch: u64,
    /// Batches executed.
    pub batches: u32,
    /// Fraction of GETs per mille (0 = pure SETs, 950 = the 95:5 mix).
    pub get_permille: u32,
    /// CPU threads for CAP-mm persisting.
    pub cap_threads: u32,
    /// Per-request CPU pipeline cost (MegaKV's receive/index stages).
    pub pipeline_ns: f64,
    /// Additional CPU cost per GET response (value marshalling + send).
    pub get_response_ns: f64,
    /// Undo-log backend: `None` = HCL (the default), `Some(p)` =
    /// conventional distributed logging with `p` partitions (the Figure 11
    /// baseline).
    pub conventional_log_partitions: Option<u32>,
    /// Key skew: `None` = unique uniform keys per batch, `Some(theta)` =
    /// Zipfian key popularity over a bounded key universe (YCSB-style).
    pub key_skew: Option<f64>,
    /// GPU persistency model for every kernel this workload launches,
    /// strict by default, like [`LaunchConfig::persistency`]; gpm-serve
    /// selects epoch through it.
    pub persistency: gpm_gpu::PersistencyModel,
}

impl Default for KvsParams {
    fn default() -> KvsParams {
        KvsParams {
            sets: 131_072,
            ops_per_batch: 8_192,
            batches: 4,
            get_permille: 0,
            cap_threads: 32,
            pipeline_ns: 330.0,
            get_response_ns: 400.0,
            conventional_log_partitions: None,
            key_skew: None,
            persistency: gpm_gpu::PersistencyModel::Strict,
        }
    }
}

impl KvsParams {
    /// Small configuration for unit tests.
    pub fn quick() -> KvsParams {
        KvsParams {
            sets: 2_048,
            ops_per_batch: 512,
            batches: 2,
            ..KvsParams::default()
        }
    }

    /// The 95% GET / 5% SET mix of Figure 9.
    pub fn with_get_mix(mut self) -> KvsParams {
        self.get_permille = 950;
        self
    }

    /// Pins the GPU persistency model for every launch of this workload.
    pub fn with_persistency(mut self, model: gpm_gpu::PersistencyModel) -> KvsParams {
        self.persistency = model;
        self
    }

    fn table_bytes(&self) -> u64 {
        crate::hash_shard::shard_bytes(self.sets)
    }

    /// Batch-buffer capacity in operations: `ops_per_batch` plus headroom
    /// for the sentinel padding hash-partitioning inserts at block
    /// boundaries (worst case a straddled 8-op set group per block).
    fn batch_capacity(&self) -> u64 {
        self.ops_per_batch + self.ops_per_batch / 3 + OPS_PER_BLOCK
    }
}

/// The gpKVS workload instance.
#[derive(Debug)]
pub struct KvsWorkload {
    /// Parameters of this instance.
    pub params: KvsParams,
    /// Campaign self-test knob: recovery deliberately skips the newest
    /// undo-log entry. The campaign oracle must catch this.
    pub inject_recovery_bug: bool,
    /// Campaign self-test knob: SETs skip the descriptor and record checks
    /// (a double-applying CAS). Harmless on clean runs; a crash-and-retry
    /// applies ops twice. The double-recovery oracle must catch this.
    pub inject_double_apply: bool,
}

/// Live gpKVS instance state: the PM table, its HBM mirror, the batch
/// buffers, the undo log and the transaction flag. Created once by
/// [`KvsWorkload::setup`] and reused across batches — the closed-loop suite
/// owns one per run, a `gpm-serve` shard owns one per shard.
#[derive(Debug)]
pub struct KvsState {
    pm_table: u64,
    hbm_table: u64,
    flag: TxnFlag,
    detect: DetectArea,
    staging_dram: u64,
    cap_pm: u64,
    batch_keys: u64,
    batch_vals: u64,
    batch_is_get: u64,
    batch_idx: u64,
    get_results: u64,
    log: GpmLog,
}

impl KvsState {
    /// The device-side shard handle over this state's table and mirror.
    pub fn shard(&self, sets: u64) -> ShardDev {
        ShardDev {
            pm_base: self.pm_table,
            hbm_base: self.hbm_table,
            sets,
        }
    }
}

fn hash_set(key: u64, sets: u64) -> u64 {
    gpm_pmkv::hash64(key) % sets
}

/// One hash-partitioned batch ready for upload: same-set operations share a
/// threadblock, block boundaries are padded with key-0 sentinels, and
/// `idx[i]` maps slot `i` back to the operation's original batch index (so
/// GET results land where the caller expects them).
struct PackedBatch {
    keys: Vec<u64>,
    vals: Vec<u64>,
    gets: Vec<u32>,
    idx: Vec<u32>,
    /// Real (unpadded) operation count, for the CPU pipeline cost model.
    real_ops: usize,
}

impl PackedBatch {
    fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    fn push_sentinel(&mut self) {
        self.keys.push(0);
        self.vals.push(0);
        self.gets.push(0);
        self.idx.push(0);
    }
}

impl KvsWorkload {
    /// Creates the workload.
    pub fn new(params: KvsParams) -> KvsWorkload {
        KvsWorkload {
            params,
            inject_recovery_bug: false,
            inject_double_apply: false,
        }
    }

    /// Enables the deliberate recovery bug (campaign self-test).
    pub fn with_recovery_bug(mut self) -> KvsWorkload {
        self.inject_recovery_bug = true;
        self
    }

    /// Enables the deliberate double-applying CAS (campaign self-test for
    /// `--double-recovery`).
    pub fn with_double_apply_bug(mut self) -> KvsWorkload {
        self.inject_double_apply = true;
        self
    }

    /// The launch shape for a full-capacity batch (log geometry and crash
    /// schedules are sized for this).
    fn launch_cfg(&self) -> LaunchConfig {
        self.cfg_for_ops(self.params.batch_capacity())
    }

    fn cfg_for_ops(&self, n_ops: u64) -> LaunchConfig {
        LaunchConfig::for_elements(n_ops * THREAD_GROUP, 256)
            .with_persistency(self.params.persistency)
    }

    /// Hash-partitions a batch: stable-sorts operations by set, then packs
    /// them into 32-op blocks such that no set group straddles a block
    /// boundary (padding with sentinels instead). Relative order of
    /// same-set operations is preserved, so the packed batch applies to the
    /// exact same table state as the original order. Falls back to the
    /// identity layout when a set group exceeds one block (extreme skew) —
    /// the kernel is still correct, the engine just serializes that batch.
    fn pack_batch(&self, ops: &[KvsOp]) -> PackedBatch {
        let sets = self.params.sets;
        let capacity = self.params.batch_capacity() as usize;
        let mut order: Vec<u32> = (0..ops.len() as u32).collect();
        order.sort_by_key(|&i| hash_set(ops[i as usize].0, sets));
        // Group boundaries in the sorted order.
        let mut packed = PackedBatch {
            keys: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
            gets: Vec::with_capacity(capacity),
            idx: Vec::with_capacity(capacity),
            real_ops: ops.len(),
        };
        let mut identity = false;
        let mut g = 0usize;
        while g < order.len() {
            let set = hash_set(ops[order[g] as usize].0, sets);
            let mut e = g + 1;
            while e < order.len() && hash_set(ops[order[e] as usize].0, sets) == set {
                e += 1;
            }
            let group = e - g;
            let used = packed.keys.len() % OPS_PER_BLOCK as usize;
            if group > OPS_PER_BLOCK as usize {
                identity = true;
                break;
            }
            if used + group > OPS_PER_BLOCK as usize {
                // Pad to the next block so the group stays together.
                for _ in used..OPS_PER_BLOCK as usize {
                    packed.push_sentinel();
                }
            }
            if packed.keys.len() + group > capacity {
                identity = true;
                break;
            }
            for &i in &order[g..e] {
                let (k, v, get) = ops[i as usize];
                packed.keys.push(k);
                packed.vals.push(v);
                packed.gets.push(get as u32);
                packed.idx.push(i);
            }
            g = e;
        }
        if identity {
            packed.keys.clear();
            packed.vals.clear();
            packed.gets.clear();
            packed.idx.clear();
            for (i, &(k, v, get)) in ops.iter().enumerate() {
                packed.keys.push(k);
                packed.vals.push(v);
                packed.gets.push(get as u32);
                packed.idx.push(i as u32);
            }
        }
        packed
    }

    /// Allocates the table, mirror, batch buffers, undo log and transaction
    /// flag on `machine` (durable setup, untimed).
    ///
    /// # Errors
    ///
    /// Fails on allocation or PM-file errors.
    pub fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<KvsState> {
        let p = &self.params;
        let cap = p.batch_capacity();
        let pm_table = gpm_map(machine, "/pm/gpkvs/table", p.table_bytes(), true)?.offset;
        let flag = TxnFlag::create(machine, "/pm/gpkvs/flag")?;
        let detect = detect_create(machine, "/pm/gpkvs/detect", cap)
            .map_err(|_| SimError::Invalid("failed to create gpKVS descriptor area"))?;
        let hbm_table = machine.alloc_hbm(p.table_bytes())?;
        let staging_dram = machine.alloc_dram(p.table_bytes())?;
        let cap_pm = if matches!(mode, Mode::CapFs | Mode::CapMm) {
            machine.alloc_pm(p.table_bytes())?
        } else {
            0
        };
        let batch_keys = machine.alloc_hbm(cap * 8)?;
        let batch_vals = machine.alloc_hbm(cap * 8)?;
        let batch_is_get = machine.alloc_hbm(cap * 4)?;
        let batch_idx = machine.alloc_hbm(cap * 4)?;
        let get_results = machine.alloc_hbm(cap * 8)?;
        let cfg = self.launch_cfg();
        // 4× headroom per thread: under the in-place-retry discipline the
        // log is only truncated at commit, so each crashed attempt's undo
        // entries stay behind while the retry appends fresh ones (one per
        // not-yet-applied SET). Four entries per thread covers the serving
        // default of three retries on top of the initial attempt.
        let log_size = cfg.total_threads() * UNDO_BYTES as u64 * 4;
        let log = match p.conventional_log_partitions {
            None => gpmlog_create_hcl(machine, "/pm/gpkvs/log", log_size, cfg.grid, cfg.block),
            Some(parts) => {
                gpm_core::gpmlog_create_conv(machine, "/pm/gpkvs/log", log_size * 2, parts)
            }
        }
        .map_err(|_| SimError::Invalid("failed to create gpKVS log"))?;
        Ok(KvsState {
            pm_table,
            hbm_table,
            flag,
            detect,
            staging_dram,
            cap_pm,
            batch_keys,
            batch_vals,
            batch_is_get,
            batch_idx,
            get_results,
            log,
        })
    }

    /// Deterministic batch generator. With no skew, keys are unique and
    /// uniform per batch (so undo recovery is byte-exact); with
    /// `key_skew = Some(theta)`, keys follow a Zipfian popularity over a
    /// bounded universe (hot keys repeat within and across batches).
    fn gen_batch(&self, batch: u32) -> Vec<(u64, u64, bool)> {
        let p = &self.params;
        let zipf = p
            .key_skew
            .map(|theta| crate::datagen::Zipf::new(p.sets * 2, theta));
        (0..p.ops_per_batch)
            .map(|i| {
                let key = match &zipf {
                    Some(z) => {
                        let rank = z.sample((batch as u64) << 32 | i);
                        gpm_pmkv::hash64(rank.wrapping_mul(0x9E37)) | 1
                    }
                    None => gpm_pmkv::hash64((batch as u64) << 32 | (i + 1)) | 1,
                };
                let val = key.wrapping_mul(2_654_435_761).wrapping_add(batch as u64);
                let is_get = gpm_pmkv::hash64(key ^ 0xDEAD) % 1000 < p.get_permille as u64;
                (key, val, is_get)
            })
            .collect()
    }

    fn upload_batch(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        pb: &PackedBatch,
    ) -> SimResult<()> {
        let p = &self.params;
        let n = pb.keys.len();
        let mut keys = Vec::with_capacity(n * 8);
        let mut vals = Vec::with_capacity(n * 8);
        let mut gets = Vec::with_capacity(n * 4);
        let mut idx = Vec::with_capacity(n * 4);
        for i in 0..n {
            keys.extend_from_slice(&pb.keys[i].to_le_bytes());
            vals.extend_from_slice(&pb.vals[i].to_le_bytes());
            gets.extend_from_slice(&pb.gets[i].to_le_bytes());
            idx.extend_from_slice(&pb.idx[i].to_le_bytes());
        }
        machine.host_write(Addr::hbm(st.batch_keys), &keys)?;
        machine.host_write(Addr::hbm(st.batch_vals), &vals)?;
        machine.host_write(Addr::hbm(st.batch_is_get), &gets)?;
        machine.host_write(Addr::hbm(st.batch_idx), &idx)?;
        // Request ingestion: MegaKV's CPU-side receive+index pipeline (real
        // operations only — sentinels cost nothing on the CPU), plus the
        // DMA of the request batch to the GPU, plus per-GET response
        // marshalling (the common cost that moderates the 95:5 mix's GPM
        // advantage, §6.1).
        let n_gets = pb.gets.iter().filter(|&&g| g != 0).count() as f64;
        let t = Ns(pb.real_ops as f64 * p.pipeline_ns)
            + Ns(n_gets * p.get_response_ns)
            + machine.cfg.dma_init_overhead
            + Ns((keys.len() + vals.len() + gets.len() + idx.len()) as f64 / machine.cfg.pcie_bw);
        machine.clock.advance(t);
        Ok(())
    }

    /// The batched SET/GET kernel (Figure 6a). `persist=false` is the
    /// GPM-NDP configuration; `to_pm=false` is CAP (HBM only). Under GPM
    /// (`to_pm && persist`) SETs run the detectable publish protocol with
    /// the tag `op_tag(epoch, slot_index)`.
    ///
    /// The kernel is per-thread throughout: the HCL undo log, the
    /// descriptor area, and (thanks to hash partitioning) the table's set
    /// lines are all block-local. Only the conventional-log ablation shares
    /// state across blocks (its partition tails).
    fn batch_kernel(
        &self,
        st: &KvsState,
        n_ops: u64,
        epoch: u64,
        to_pm: bool,
        persist: bool,
    ) -> impl gpm_gpu::Kernel<State = (), Shared = ()> + '_ {
        let p = self.params;
        let shard = st.shard(p.sets);
        let detect = st.detect.dev();
        let (keys, vals, gets, idx, results) = (
            st.batch_keys,
            st.batch_vals,
            st.batch_is_get,
            st.batch_idx,
            st.get_results,
        );
        let log = st.log.dev();
        let inject = self.inject_double_apply;
        let detectable = to_pm && persist;
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let tid = ctx.global_id();
            let op = tid / THREAD_GROUP;
            if op >= n_ops {
                return Ok(());
            }
            let key = ctx.ld_u64(Addr::hbm(keys + op * 8))?;
            if key == 0 {
                return Ok(()); // block-boundary padding sentinel
            }
            let set = shard.hash_set(key);
            ctx.compute(Ns(40.0)); // hash + way-probe share of the group
                                   // One thread of the group is selected to perform the operation
                                   // (the others assisted the cooperative probe).
            if tid % THREAD_GROUP != key % THREAD_GROUP {
                return Ok(());
            }
            let is_get = ctx.ld_u32(Addr::hbm(gets + op * 4))? != 0;
            if is_get {
                let v = shard.lookup(ctx, set, key)?;
                let orig = ctx.ld_u32(Addr::hbm(idx + op * 4))? as u64;
                ctx.st_u64(Addr::hbm(results + orig * 8), v)?;
                return Ok(());
            }
            let value = ctx.ld_u64(Addr::hbm(vals + op * 8))?;
            if detectable {
                shard_set_detectable(
                    ctx,
                    &shard,
                    &detect,
                    &log,
                    op,
                    op_tag(epoch, op),
                    key,
                    value,
                    inject,
                )
            } else {
                shard_set_legacy(ctx, &shard, &log, key, value, to_pm, persist)
            }
        })
    }

    /// Opens (or, on a retry, re-enters) the detect epoch for transaction
    /// `seq`: a still-armed transaction flag for this very `seq` means the
    /// caller is resubmitting a crashed batch, so the epoch minted before
    /// the crash is reused and the descriptors written then keep matching.
    /// A fresh batch arms the flag and advances the epoch.
    fn enter_epoch(&self, machine: &mut Machine, st: &KvsState, seq: u64) -> SimResult<u64> {
        if st.flag.active(machine)? == seq + 1 {
            st.detect
                .epoch(machine)
                .map_err(|_| SimError::Invalid("detect epoch read failed"))
        } else {
            st.flag.begin(machine, seq + 1)?;
            st.detect
                .begin_epoch(machine)
                .map_err(|_| SimError::Invalid("detect epoch advance failed"))
        }
    }

    /// Applies one batch of operations through the shared kernel-launch
    /// path: upload + launch + persist/commit protocol for `mode`. `seq`
    /// numbers the transaction (the flag records `seq + 1`). This is the
    /// single entry point both the closed-loop suite and the `gpm-serve`
    /// frontend drive — there is no second kernel-launch code path.
    ///
    /// Batches may be any size up to [`KvsParams::ops_per_batch`] (the
    /// buffer capacity).
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes, oversized batches, or platform errors.
    pub fn apply_batch(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        seq: u64,
        ops: &[KvsOp],
        mode: Mode,
    ) -> SimResult<BatchMetrics> {
        match self.apply_batch_gauged(machine, st, seq, ops, mode, &mut FuelGauge::Unlimited) {
            Ok(m) => Ok(m),
            Err(LaunchError::Crashed(_)) => unreachable!("unlimited gauge never crashes"),
            Err(LaunchError::Sim(e)) => Err(e),
        }
    }

    /// [`apply_batch`](KvsWorkload::apply_batch) driven through a
    /// [`FuelGauge`], so callers can record crash schedules or inject a
    /// mid-batch crash (the `gpm-serve` retry drill and the campaign both
    /// ride this).
    ///
    /// # Errors
    ///
    /// [`LaunchError::Crashed`] when the gauge's fuel runs out mid-kernel;
    /// [`LaunchError::Sim`] on functional errors.
    pub fn apply_batch_gauged(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        seq: u64,
        ops: &[KvsOp],
        mode: Mode,
        gauge: &mut FuelGauge,
    ) -> Result<BatchMetrics, LaunchError> {
        let p = &self.params;
        if ops.len() as u64 > p.ops_per_batch {
            return Err(LaunchError::Sim(SimError::Invalid(
                "batch exceeds the ops_per_batch buffer capacity",
            )));
        }
        let t0 = machine.clock.now();
        let s0 = machine.stats;
        let packed = self.pack_batch(ops);
        self.upload_batch(machine, st, &packed)
            .map_err(LaunchError::Sim)?;
        let n = packed.len();
        let cfg = self.cfg_for_ops(n);
        match mode {
            Mode::Gpm => {
                let epoch = self
                    .enter_epoch(machine, st, seq)
                    .map_err(LaunchError::Sim)?;
                gpm_persist_begin(machine);
                launch_with_gauge(
                    machine,
                    cfg,
                    &self.batch_kernel(st, n, epoch, true, true),
                    gauge,
                )?;
                gpm_persist_end(machine);
                st.flag.commit(machine).map_err(LaunchError::Sim)?;
                st.log
                    .host_clear(machine)
                    .map_err(|_| LaunchError::Sim(SimError::Invalid("log clear failed")))?;
            }
            Mode::GpmNdp => {
                launch_with_gauge(
                    machine,
                    cfg,
                    &self.batch_kernel(st, n, 0, true, false),
                    gauge,
                )?;
                // CPU guarantees persistence for the whole table + log.
                flush_from_cpu(machine, st.pm_table, p.table_bytes(), p.cap_threads);
                flush_from_cpu(
                    machine,
                    st.log.region.offset,
                    st.log.region.len,
                    p.cap_threads,
                );
                // Batch committed: truncate the undo log.
                st.log
                    .host_clear(machine)
                    .map_err(|_| LaunchError::Sim(SimError::Invalid("clear")))?;
            }
            Mode::CapFs | Mode::CapMm => {
                launch_with_gauge(
                    machine,
                    cfg,
                    &self.batch_kernel(st, n, 0, false, false),
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
                    p.table_bytes(),
                )
                .map_err(LaunchError::Sim)?;
            }
            Mode::Gpufs | Mode::CpuPm => {
                return Err(LaunchError::Sim(SimError::Invalid(
                    "mode unsupported for gpKVS",
                )));
            }
        }
        let d = machine.stats.delta(&s0);
        Ok(BatchMetrics {
            ops: ops.len() as u64,
            elapsed: machine.clock.now() - t0,
            pm_write_bytes_gpu: d.pm_write_bytes_gpu,
            bytes_persisted: d.bytes_persisted,
        })
    }

    fn run_batches(&self, machine: &mut Machine, st: &KvsState, mode: Mode) -> SimResult<()> {
        for b in 0..self.params.batches {
            let ops = self.gen_batch(b);
            self.apply_batch(machine, st, b as u64, &ops, mode)?;
        }
        Ok(())
    }

    /// Reads the result slot a GET at batch index `op_index` wrote (serving
    /// frontends return this value to the client).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn get_result(&self, machine: &Machine, st: &KvsState, op_index: u64) -> SimResult<u64> {
        machine.read_u64(Addr::hbm(st.get_results + op_index * 8))
    }

    /// Rebuilds the volatile HBM mirror from the durable PM table after a
    /// crash (one PM→GPU sweep over PCIe), so a recovered instance can
    /// serve GETs out of HBM again. Timed as a bulk DMA.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn rebuild_mirror(&self, machine: &mut Machine, st: &KvsState) -> SimResult<()> {
        let bytes = self.params.table_bytes();
        let mut buf = vec![0u8; bytes as usize];
        machine.read(Addr::pm(st.pm_table), &mut buf)?;
        machine.host_write(Addr::hbm(st.hbm_table), &buf)?;
        let t = machine.cfg.dma_init_overhead + Ns(bytes as f64 / machine.cfg.pcie_bw);
        machine.clock.advance(t);
        Ok(())
    }

    /// In-place *retry* recovery: rebuilds the HBM mirror from the durable
    /// PM table and touches nothing else. The table, the descriptor area
    /// and the transaction flag stay exactly as the crash left them, so
    /// resubmitting the in-flight batch (same `seq`, same ops) applies
    /// precisely the operations that had not yet applied — the detectable
    /// protocol skips the rest. Idempotent: running it any number of times
    /// is equivalent to running it once. The alternative strategy,
    /// [`recover`](KvsWorkload::recover), *rolls the batch back* instead;
    /// the two are mutually exclusive per crash (rollback clears the flag,
    /// which retires the epoch a retry would need).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover_for_retry(&self, machine: &mut Machine, st: &KvsState) -> SimResult<()> {
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryBegin);
        }
        let result = self.rebuild_mirror(machine, st);
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryEnd);
        }
        result
    }

    /// Snapshots the durable PM table image (host-side read, no simulated
    /// cost) so tests can compare store state byte-for-byte across runs.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn store_image(&self, machine: &Machine, st: &KvsState) -> SimResult<Vec<u8>> {
        let mut buf = vec![0u8; self.params.table_bytes() as usize];
        machine.read(Addr::pm(st.pm_table), &mut buf)?;
        Ok(buf)
    }

    /// Reference model: replays the batches in submission order.
    fn reference_model(&self) -> ShardModel {
        let mut model = ShardModel::new(self.params.sets);
        for b in 0..self.params.batches {
            for (key, val, is_get) in self.gen_batch(b) {
                if !is_get {
                    model.set(key, val);
                }
            }
        }
        model
    }

    fn verify(&self, machine: &Machine, st: &KvsState, mode: Mode) -> SimResult<bool> {
        let model = self.reference_model();
        let base = match mode {
            Mode::Gpm | Mode::GpmNdp => st.pm_table,
            Mode::CapFs | Mode::CapMm => st.cap_pm,
            _ => return Ok(false),
        };
        for (&(set, way), &(k, v, ver)) in model.entries() {
            let slot = base + (set * WAYS + way) * SLOT_BYTES;
            if machine.read_u64(Addr::pm(slot))? != k
                || machine.read_u64(Addr::pm(slot + 8))? != v
                || machine.read_u64(Addr::pm(slot + 16))? != ver
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs the workload under `mode` on a fresh machine region.
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

    /// Measures worst-case restoration latency (Table 5): runs all batches,
    /// then simulates a crash *just before the last transaction commits*
    /// (flag still set, log still populated) and times the undo kernel.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_with_recovery(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        assert!(
            self.params.conventional_log_partitions.is_none(),
            "undo recovery requires the HCL backend (per-thread entries)"
        );
        let st = self.setup(machine, Mode::Gpm)?;
        let p = &self.params;
        let mut metrics = metered(machine, |m| {
            for b in 0..p.batches {
                let ops = self.gen_batch(b);
                let packed = self.pack_batch(&ops);
                self.upload_batch(m, &st, &packed)?;
                let epoch = self.enter_epoch(m, &st, b as u64)?;
                gpm_persist_begin(m);
                launch(
                    m,
                    self.cfg_for_ops(packed.len()),
                    &self.batch_kernel(&st, packed.len(), epoch, true, true),
                )?;
                gpm_persist_end(m);
                if b + 1 < p.batches {
                    st.flag.commit(m)?;
                    st.log
                        .host_clear(m)
                        .map_err(|_| SimError::Invalid("clear"))?;
                }
                // Final batch: crash before commit.
            }
            Ok::<bool, SimError>(true)
        })?;
        machine.crash();
        let t0 = machine.clock.now();
        self.recover(machine, &st)?;
        metrics.recovery = Some(machine.clock.now() - t0);
        // After undo, the last batch is rolled back: state matches batches-1.
        let smaller = KvsWorkload::new(KvsParams {
            batches: p.batches - 1,
            ..*p
        });
        metrics.verified = smaller.verify(machine, &st, Mode::Gpm)?;
        Ok(metrics)
    }

    /// The recovery kernel (Figure 6b): undo logged insertions, newest
    /// first, removing each entry only after the store is persisted.
    /// Public so a serving frontend can replay recovery when it boots a
    /// shard over a crashed machine image, before admitting traffic.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover(&self, machine: &mut Machine, st: &KvsState) -> SimResult<()> {
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryBegin);
        }
        let result = match self.recover_gauged(machine, st, &mut FuelGauge::Unlimited) {
            Ok(()) => Ok(()),
            Err(LaunchError::Crashed(_)) => unreachable!("unlimited gauge never crashes"),
            Err(LaunchError::Sim(e)) => Err(e),
        };
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryEnd);
        }
        result
    }

    /// Gauge-driven recovery. With a crashing gauge the undo kernel itself
    /// can run out of fuel mid-drain — the double-crash scenario. Because
    /// each entry is removed only *after* its undo store persists, a
    /// partial drain leaves the log replayable and a second [`recover`]
    /// call is idempotent.
    ///
    /// When `inject_recovery_bug` is set, thread 0 drops the newest undo
    /// entry without applying it — the deliberate bug the campaign's
    /// self-test must catch.
    ///
    /// [`recover`]: KvsWorkload::recover
    fn recover_gauged(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        if st.flag.active(machine).map_err(LaunchError::Sim)? == 0 {
            return Ok(()); // no transaction was active
        }
        // The deliberate bug targets the first thread whose per-thread HCL
        // partition holds an entry: that thread drops it without applying.
        let victim = if self.inject_recovery_bug {
            let mut v = None;
            for tid in 0..self.launch_cfg().total_threads() {
                let tail = st
                    .log
                    .host_tail(machine, tid)
                    .map_err(|_| LaunchError::Sim(SimError::Invalid("log tail")))?;
                if tail as usize * 4 >= UNDO_BYTES {
                    v = Some(tid);
                    break;
                }
            }
            v
        } else {
            None
        };
        let log = st.log.dev();
        let pm_table = st.pm_table;
        gpm_persist_begin(machine);
        // Blocks cooperatively drain the shared log: each iteration's tail
        // read sees the removals of the blocks before it.
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if Some(ctx.global_id()) == victim && log.tail(ctx)? as usize * 4 >= UNDO_BYTES {
                log.remove(ctx, UNDO_BYTES)?;
            }
            while log.tail(ctx)? as usize * 4 >= UNDO_BYTES {
                let mut entry = [0u8; UNDO_BYTES];
                log.read_top(ctx, &mut entry)?;
                let set = u32::from_le_bytes(entry[0..4].try_into().unwrap()) as u64;
                let way = u32::from_le_bytes(entry[4..8].try_into().unwrap()) as u64;
                let slot = pm_table + (set * WAYS + way) * SLOT_BYTES;
                ctx.st_bytes(Addr::pm(slot), &entry[8..40])?;
                ctx.gpm_persist()?;
                log.remove(ctx, UNDO_BYTES)?;
            }
            Ok(())
        });
        launch_with_gauge(machine, self.launch_cfg(), &k, gauge)?;
        gpm_persist_end(machine);
        // Recovery complete: clear the transaction flag.
        st.flag.commit(machine).map_err(LaunchError::Sim)?;
        Ok(())
    }

    /// Gauge-driven GPM batch loop for the campaign oracle. `committed`
    /// tracks how many batches fully committed before the crash (if any).
    fn run_batches_gauged(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        gauge: &mut FuelGauge,
        committed: &mut u32,
    ) -> Result<(), LaunchError> {
        for b in 0..self.params.batches {
            let ops = self.gen_batch(b);
            self.apply_batch_gauged(machine, st, b as u64, &ops, Mode::Gpm, gauge)?;
            *committed = b + 1;
        }
        Ok(())
    }

    /// Double-crash scenario: crash mid-batch after `fuel` ops, start the
    /// undo kernel but crash it again after `recovery_fuel` ops, then run
    /// recovery a second time to completion. Returns whether the in-flight
    /// batch was fully rolled back — i.e. whether re-recovery after a crash
    /// inside recovery is idempotent.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_double_crash(
        &self,
        machine: &mut Machine,
        fuel: u64,
        recovery_fuel: u64,
    ) -> SimResult<bool> {
        assert!(
            self.params.key_skew.is_none(),
            "exact undo verification requires unique keys (no skew)"
        );
        let st = self.setup(machine, Mode::Gpm)?;
        let ops = self.gen_batch(0);
        let packed = self.pack_batch(&ops);
        self.upload_batch(machine, &st, &packed)?;
        let epoch = self.enter_epoch(machine, &st, 0)?;
        gpm_persist_begin(machine);
        match launch_with_fuel(
            machine,
            self.cfg_for_ops(packed.len()),
            &self.batch_kernel(&st, packed.len(), epoch, true, true),
            fuel,
        ) {
            Ok(_) => {
                gpm_persist_end(machine);
                machine.crash();
            }
            Err(LaunchError::Crashed(_)) => {}
            Err(LaunchError::Sim(e)) => return Err(e),
        }
        // First recovery attempt dies after `recovery_fuel` ops.
        match self.recover_gauged(machine, &st, &mut FuelGauge::crash(recovery_fuel)) {
            Ok(()) => {} // recovery finished before the fuel ran out
            Err(LaunchError::Crashed(_)) => {}
            Err(LaunchError::Sim(e)) => return Err(e),
        }
        // Second recovery must finish the drain.
        self.recover(machine, &st)?;
        let shard = st.shard(self.params.sets);
        for (key, _, is_get) in self.gen_batch(0) {
            if is_get {
                continue;
            }
            if shard.host_find(machine, key)?.is_some() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl RecoveryOracle for KvsWorkload {
    fn name(&self) -> &'static str {
        "gpKVS"
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
            self.params.key_skew.is_none(),
            "exact undo verification requires unique keys (no skew)"
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
        // After undo, the table must hold exactly the committed batches...
        let smaller = KvsWorkload::new(KvsParams {
            batches: committed,
            ..self.params
        });
        if !smaller.verify(machine, &st, Mode::Gpm)? {
            return Ok(OracleVerdict::Fail(format!(
                "table diverges from the {committed} committed batches"
            )));
        }
        // ...and none of the in-flight batch's keys.
        if committed < self.params.batches {
            let shard = st.shard(self.params.sets);
            for (key, _, is_get) in self.gen_batch(committed) {
                if is_get {
                    continue;
                }
                if shard.host_find(machine, key)?.is_some() {
                    return Ok(OracleVerdict::Fail(format!(
                        "uncommitted key {key:#x} of batch {committed} survived recovery"
                    )));
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
            self.params.key_skew.is_none(),
            "exactly-once verification requires unique keys (no skew)"
        );
        let model = self.reference_model();
        assert!(
            !model.evicted,
            "exactly-once verification requires an eviction-free batch mix"
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
        // Retry recovery, run TWICE: it must be idempotent (a crash during
        // recovery itself only means running it again).
        self.recover_for_retry(machine, &st)?;
        self.recover_for_retry(machine, &st)?;
        // Resubmit the in-flight batch verbatim, then the remaining ones.
        let shard = st.shard(self.params.sets);
        for b in committed..self.params.batches {
            let ops = self.gen_batch(b);
            self.apply_batch(machine, &st, b as u64, &ops, Mode::Gpm)?;
            if b == committed {
                // Exactly-once check, immediately after the retried batch
                // (before later batches can mask a double apply): every SET
                // key must be present with version exactly 1 — absent means
                // zero applies, version 2 means two.
                for (key, val, is_get) in self.gen_batch(b) {
                    if is_get {
                        continue;
                    }
                    match shard.host_find(machine, key)? {
                        None => {
                            return Ok(OracleVerdict::Fail(format!(
                                "op on key {key:#x} of retried batch {b} applied zero times"
                            )))
                        }
                        Some(rec) if rec[2] != 1 => {
                            return Ok(OracleVerdict::Fail(format!(
                                "op on key {key:#x} of retried batch {b} applied {} times",
                                rec[2]
                            )))
                        }
                        Some(rec) if rec[1] != val => {
                            return Ok(OracleVerdict::Fail(format!(
                                "key {key:#x} holds the wrong value after retry"
                            )))
                        }
                        Some(_) => {}
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

    fn quick() -> KvsWorkload {
        KvsWorkload::new(KvsParams::quick())
    }

    #[test]
    fn gpm_run_verifies() {
        let mut m = Machine::default();
        let r = quick().run(&mut m, Mode::Gpm).unwrap();
        assert!(r.verified, "PM table must match the reference model");
        assert!(r.elapsed.0 > 0.0);
        assert!(r.pm_write_bytes_gpu > 0);
    }

    #[test]
    fn cap_modes_verify_and_amplify_writes() {
        let mut m1 = Machine::default();
        let gpm = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let capmm = quick().run(&mut m2, Mode::CapMm).unwrap();
        assert!(capmm.verified);
        let wa = capmm.pm_write_bytes_total() as f64 / gpm.pm_write_bytes_total() as f64;
        assert!(wa > 5.0, "CAP transfers the whole table: WA = {wa:.1}");
    }

    #[test]
    fn gpm_beats_cap_fs() {
        let mut m1 = Machine::default();
        let gpm = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let capfs = quick().run(&mut m2, Mode::CapFs).unwrap();
        assert!(capfs.verified);
        assert!(
            capfs.elapsed > gpm.elapsed,
            "gpm={} capfs={}",
            gpm.elapsed,
            capfs.elapsed
        );
    }

    #[test]
    fn recovery_restores_pre_batch_state() {
        let mut m = Machine::default();
        let r = quick().run_with_recovery(&mut m).unwrap();
        assert!(r.verified, "undo must roll the last batch back");
        assert!(r.recovery.unwrap().0 > 0.0);
    }

    #[test]
    fn crash_injection_recovers() {
        for fuel in [50u64, 500, 5_000] {
            let mut m = Machine::default();
            let v = quick()
                .run_case(&mut m, fuel, CrashPolicy::Random(fuel))
                .unwrap();
            assert!(v.passed(), "fuel={fuel}: {v:?}");
        }
    }

    #[test]
    fn get_mix_moderates_pm_traffic() {
        let mut m1 = Machine::default();
        let sets_only = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let mixed = KvsWorkload::new(KvsParams::quick().with_get_mix())
            .run(&mut m2, Mode::Gpm)
            .unwrap();
        assert!(mixed.pm_write_bytes_gpu < sets_only.pm_write_bytes_gpu / 4);
    }

    #[test]
    fn skewed_keys_verify_and_reduce_pm_traffic() {
        let mut m1 = Machine::default();
        let uniform = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let skewed = KvsWorkload::new(KvsParams {
            key_skew: Some(1.1),
            ..KvsParams::quick()
        })
        .run(&mut m2, Mode::Gpm)
        .unwrap();
        assert!(skewed.verified, "reference model must track duplicate keys");
        // Hot keys overwrite the same slots: fewer distinct lines persisted.
        assert!(
            skewed.bytes_persisted <= uniform.bytes_persisted,
            "skew should not increase persisted lines: {} vs {}",
            skewed.bytes_persisted,
            uniform.bytes_persisted
        );
    }

    #[test]
    fn unsupported_modes_error() {
        let mut m = Machine::default();
        assert!(quick().run(&mut m, Mode::Gpufs).is_err());
    }

    /// The double-recovery oracle passes on the correct implementation at
    /// every recorded crash boundary (subsampled), and the injected
    /// double-applying CAS is caught at some boundary.
    #[test]
    fn double_recovery_exactly_once_and_injected_bug_caught() {
        let mut w = quick();
        let mut m = Machine::default();
        let sched = w.record(&mut m).unwrap();
        let bounds = sched.boundaries().to_vec();
        assert!(w.supports_double_recovery());
        for fuel in bounds.iter().step_by(bounds.len() / 8 + 1) {
            let mut m = Machine::default();
            let v = w
                .run_case_double_recovery(&mut m, *fuel, CrashPolicy::AllApplied)
                .unwrap();
            assert!(v.passed(), "fuel={fuel}: {v:?}");
        }
        let mut buggy = KvsWorkload::new(KvsParams::quick()).with_double_apply_bug();
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
