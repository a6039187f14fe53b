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
//! table, its mirror, the batch transaction and the undo log form one
//! [`ShardStore`], which commits each batch and recovers a crash by retry
//! or by rollback (undo log, Figure 6b, kept for boot-time recovery).
//!
//! The table lives on PM under GPM; a volatile HBM mirror serves GETs
//! ("GETs are mostly served out of the GPU's fast HBM", §6.1). Batches are
//! *hash-partitioned* before upload ([`partition_by_set`]) — operations on
//! the same set are packed into the same threadblock (MegaKV partitions
//! requests the same way) — so blocks never read each other's table lines.
//!
//! Under CAP the table lives only in HBM and the *entire* table is
//! transferred and persisted by the CPU after each batch — the
//! write-amplification of Table 4.

use gpm_cap::{cap_persist_region, flush_from_cpu, CapFlavor};
use gpm_core::{gpm_map, gpm_persist_begin, gpm_persist_end, op_tag, DetectTxn};
use gpm_gpu::{launch_with_gauge, FnKernel, FuelGauge, LaunchConfig, LaunchError, ThreadCtx};
use gpm_sim::{Addr, CrashPolicy, CrashSchedule, Machine, Ns, OracleVerdict, SimError, SimResult};

use crate::hash_shard::{
    partition_by_set, shard_set_detectable, shard_set_legacy, ShardDev, ShardModel, ShardStore,
};
use crate::metrics::{metered, BatchMetrics, Mode, RunMetrics};
use crate::oracle::{expect_clean, RecoveryOracle};

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

/// Live gpKVS instance state: the detectable store (PM table, HBM mirror,
/// batch transaction and undo log), the CAP staging areas and the batch
/// buffers. Created once by [`KvsWorkload::setup`] and reused across
/// batches — the closed-loop suite owns one per run, a `gpm-serve` shard
/// owns one per shard.
#[derive(Debug)]
pub struct KvsState {
    store: ShardStore,
    staging_dram: u64,
    cap_pm: u64,
    batch_keys: u64,
    batch_vals: u64,
    batch_is_get: u64,
    batch_idx: u64,
    get_results: u64,
}

impl KvsState {
    /// The device-side shard handle over this state's table and mirror.
    pub fn shard(&self, sets: u64) -> ShardDev {
        ShardDev {
            sets,
            ..self.store.dev
        }
    }

    /// The detectable store: batch commit, retry and rollback recovery,
    /// and the durable table image.
    pub fn store(&self) -> &ShardStore {
        &self.store
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

    /// Allocates the table, mirror, batch buffers, undo log and transaction
    /// flag on `machine` (durable setup, untimed).
    ///
    /// # Errors
    ///
    /// Fails on allocation or PM-file errors.
    pub fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<KvsState> {
        let p = &self.params;
        let cap = p.batch_capacity();
        let pm_base = gpm_map(machine, "/pm/gpkvs/table", p.table_bytes(), true)?.offset;
        let txn = DetectTxn::create(machine, "/pm/gpkvs", cap)?;
        let hbm_base = machine.alloc_hbm(p.table_bytes())?;
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
        let dev = ShardDev {
            pm_base,
            hbm_base,
            sets: p.sets,
        };
        let store = ShardStore::new(
            machine,
            dev,
            txn,
            "/pm/gpkvs/log",
            self.launch_cfg(),
            p.conventional_log_partitions,
        )?;
        Ok(KvsState {
            store,
            staging_dram,
            cap_pm,
            batch_keys,
            batch_vals,
            batch_is_get,
            batch_idx,
            get_results,
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

    /// Hash-partitions `ops` into 32-op blocks ([`partition_by_set`]) and
    /// uploads the batch buffers: keys (0 pads a block), values, GET flags,
    /// and each slot's original batch index, so GET results land where the
    /// caller expects them. Returns the number of slots to launch.
    fn upload_batch(&self, machine: &mut Machine, st: &KvsState, ops: &[KvsOp]) -> SimResult<u64> {
        let p = &self.params;
        let sets: Vec<u64> = ops
            .iter()
            .map(|op| gpm_pmkv::hash64(op.0) % p.sets)
            .collect();
        let layout = partition_by_set(&sets, OPS_PER_BLOCK as usize, p.batch_capacity() as usize);
        let n = layout.len();
        let mut keys = Vec::with_capacity(n * 8);
        let mut vals = Vec::with_capacity(n * 8);
        let mut gets = Vec::with_capacity(n * 4);
        let mut idx = Vec::with_capacity(n * 4);
        for slot in layout {
            let (k, v, get) = slot.map_or((0, 0, false), |i| ops[i]);
            keys.extend_from_slice(&k.to_le_bytes());
            vals.extend_from_slice(&v.to_le_bytes());
            gets.extend_from_slice(&u32::from(get).to_le_bytes());
            idx.extend_from_slice(&(slot.unwrap_or(0) as u32).to_le_bytes());
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
        let n_gets = ops.iter().filter(|op| op.2).count() as f64;
        let t = Ns(ops.len() as f64 * p.pipeline_ns)
            + Ns(n_gets * p.get_response_ns)
            + machine.cfg.dma_init_overhead
            + Ns((keys.len() + vals.len() + gets.len() + idx.len()) as f64 / machine.cfg.pcie_bw);
        machine.clock.advance(t);
        Ok(n as u64)
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
        let shard = st.store.dev;
        let detect = st.store.txn.area.dev();
        let (keys, vals, gets, idx, results) = (
            st.batch_keys,
            st.batch_vals,
            st.batch_is_get,
            st.batch_idx,
            st.get_results,
        );
        let log = st.store.log.dev();
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

    /// The GPM launch of an uploaded batch of `n` slots, up to and not
    /// including its commit: opens (or, on a resubmission, re-enters) the
    /// detect epoch of transaction `seq` ([`DetectTxn::enter`]) and runs
    /// the detectable batch kernel in a persist window.
    /// [`apply_batch_gauged`](KvsWorkload::apply_batch_gauged) commits
    /// after it; Table 5's measurement and the double-crash drill crash
    /// before the commit instead.
    fn launch_detectable(
        &self,
        machine: &mut Machine,
        st: &KvsState,
        seq: u64,
        n: u64,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        let epoch = st.store.txn.enter(machine, seq).map_err(LaunchError::Sim)?;
        gpm_persist_begin(machine);
        launch_with_gauge(
            machine,
            self.cfg_for_ops(n),
            &self.batch_kernel(st, n, epoch, true, true),
            gauge,
        )?;
        gpm_persist_end(machine);
        Ok(())
    }

    /// Applies one batch of operations through the shared kernel-launch
    /// path: upload + launch + persist/commit protocol for `mode`. `seq`
    /// numbers the transaction (the flag records `seq + 1`). This is the
    /// single entry point both the closed-loop suite and the `gpm-serve`
    /// frontend drive; Table 5's measurement and the double-crash drill
    /// share its launch step ([`launch_detectable`]).
    ///
    /// [`launch_detectable`]: KvsWorkload::launch_detectable
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
        expect_clean(self.apply_batch_gauged(
            machine,
            st,
            seq,
            ops,
            mode,
            &mut FuelGauge::Unlimited,
        ))
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
        let n = self
            .upload_batch(machine, st, ops)
            .map_err(LaunchError::Sim)?;
        let cfg = self.cfg_for_ops(n);
        match mode {
            Mode::Gpm => {
                self.launch_detectable(machine, st, seq, n, gauge)?;
                st.store.commit(machine).map_err(LaunchError::Sim)?;
            }
            Mode::GpmNdp => {
                launch_with_gauge(
                    machine,
                    cfg,
                    &self.batch_kernel(st, n, 0, true, false),
                    gauge,
                )?;
                // CPU guarantees persistence for the whole table + log.
                let log = &st.store.log;
                flush_from_cpu(
                    machine,
                    st.store.dev.pm_base,
                    p.table_bytes(),
                    p.cap_threads,
                );
                flush_from_cpu(machine, log.region.offset, log.region.len, p.cap_threads);
                // Batch committed: truncate the undo log.
                log.host_clear(machine)
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
                    st.store.dev.hbm_base,
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
        let pm_base = match mode {
            Mode::Gpm | Mode::GpmNdp => st.store.dev.pm_base,
            Mode::CapFs | Mode::CapMm => st.cap_pm,
            _ => return Ok(false),
        };
        let table = ShardDev {
            pm_base,
            ..st.store.dev
        };
        table.holds(machine, &self.reference_model())
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
        let last = p.batches - 1;
        let mut metrics = metered(machine, |m| {
            for b in 0..last {
                self.apply_batch(m, &st, b as u64, &self.gen_batch(b), Mode::Gpm)?;
            }
            // Final batch: crash before commit.
            let n = self.upload_batch(m, &st, &self.gen_batch(last))?;
            expect_clean(self.launch_detectable(
                m,
                &st,
                last as u64,
                n,
                &mut FuelGauge::Unlimited,
            ))?;
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

    /// Rollback recovery (Figure 6b, [`ShardStore::recover`]): undo the
    /// logged insertions newest-first, removing each entry only after the
    /// store is persisted. Public so a serving frontend can replay recovery
    /// when it boots a shard over a crashed machine image, before admitting
    /// traffic. With `inject_recovery_bug` set the drain drops the newest
    /// entry unapplied — the deliberate bug the campaign's self-test must
    /// catch.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover(&self, machine: &mut Machine, st: &KvsState) -> SimResult<()> {
        st.store.recover(machine, self.inject_recovery_bug)
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
        let n = self.upload_batch(machine, &st, &self.gen_batch(0))?;
        match self.launch_detectable(machine, &st, 0, n, &mut FuelGauge::crash(fuel)) {
            Ok(()) => {
                machine.crash();
            }
            Err(LaunchError::Crashed(_)) => {}
            Err(LaunchError::Sim(e)) => return Err(e),
        }
        // First recovery attempt dies after `recovery_fuel` ops (or
        // finishes before the fuel runs out).
        let drain = st.store.recover_gauged(
            machine,
            self.inject_recovery_bug,
            &mut FuelGauge::crash(recovery_fuel),
        );
        if let Err(LaunchError::Sim(e)) = drain {
            return Err(e);
        }
        // Second recovery must finish the drain.
        self.recover(machine, &st)?;
        let shard = st.store.dev;
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
            let shard = st.store.dev;
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
        st.store.recover_for_retry(machine)?;
        st.store.recover_for_retry(machine)?;
        // Resubmit the in-flight batch verbatim, then the remaining ones.
        let shard = st.store.dev;
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
