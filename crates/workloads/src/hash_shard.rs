//! A lock-free persistent hash shard built on detectable exactly-once
//! operations ([`gpm_core::detect`]).
//!
//! The table is MegaKV-shaped — 8-way set-associative, one set per key
//! hash — but each slot is a 32-byte *detectable record* `{key, value,
//! version, tag}` rather than a bare pair. The tag is the
//! [`gpm_core::op_tag`] of the operation that last wrote the slot, and the
//! version counts how many times the *key* has been applied, so an
//! exactly-once oracle can distinguish "applied once" (version 1 for a
//! fresh key) from "applied twice" (version 2) or "never applied" (key
//! absent) after any crash/retry sequence.
//!
//! [`shard_set_detectable`] is the per-operation SET protocol (Figure 6a's
//! slot update rebuilt on the descriptor protocol):
//!
//! 1. **Descriptor check** — the op's descriptor slot already holds its
//!    tag: the op applied *and* marked in a previous attempt; do nothing.
//! 2. **Probe** — cooperative 8-way probe of the HBM mirror (match >
//!    first-empty > victim way `(key >> 32) % 8`).
//! 3. **Record check** — the PM slot's tag equals the op's tag: the op
//!    applied but crashed before its mark settled; re-mark, do not
//!    re-apply.
//! 4. **Undo log** — append `{set, way, old 32-byte slot}` (40 bytes) so a
//!    *rollback* recovery can still restore the pre-batch table (retry and
//!    rollback are alternative recovery strategies over the same log).
//! 5. **Publish** — [`DetectableCas::publish`] the new record; the sync
//!    fence puts it on media before step 6 emits a byte.
//! 6. **Mark** — write the tag into the descriptor slot.
//! 7. **Mirror** — keep the volatile HBM copy coherent.
//!
//! Every step is per-thread: the HCL undo log has per-thread partitions and
//! descriptor slots are per-operation, so the kernel needs no cross-block
//! communication.
//!
//! **Exactly-once caveat (eviction):** a marked descriptor is always
//! authoritative, but an op that published, was evicted by a *later* op of
//! the same batch, and lost its mark to the crash is indistinguishable from
//! an unapplied op. The shard therefore guarantees exactly-once only for
//! batches that evict nothing — [`ShardModel::evicted`] lets harnesses
//! assert that (the workloads size their tables so in-batch eviction cannot
//! occur).

use std::collections::HashMap;

use gpm_core::{DetectDev, DetectableCas, GpmLogDev, GpmThreadExt};
use gpm_gpu::ThreadCtx;
use gpm_sim::{Addr, Machine, Ns, SimResult};

/// Ways per set (MegaKV-style set-associative layout).
pub const WAYS: u64 = 8;

/// Bytes per slot: one detectable record `{key, value, version, tag}`.
/// Half a 64-byte line, so a record never straddles a crash-settle unit.
pub const SLOT_BYTES: u64 = 32;

/// Undo-log record: set u32, way u32, then the old 32-byte slot.
pub const UNDO_BYTES: usize = 40;

/// Device-side handle to one shard: plain offsets, `Copy`, safe to capture
/// in kernels. The PM table is authoritative; the HBM mirror (same layout)
/// serves probes and GETs.
#[derive(Debug, Clone, Copy)]
pub struct ShardDev {
    /// PM offset of the table.
    pub pm_base: u64,
    /// HBM offset of the mirror.
    pub hbm_base: u64,
    /// Number of sets.
    pub sets: u64,
}

/// Table bytes for a shard of `sets` sets.
pub fn shard_bytes(sets: u64) -> u64 {
    sets * WAYS * SLOT_BYTES
}

impl ShardDev {
    /// Byte offset of `(set, way)` from either base.
    pub fn slot_off(&self, set: u64, way: u64) -> u64 {
        debug_assert!(set < self.sets && way < WAYS);
        (set * WAYS + way) * SLOT_BYTES
    }

    /// PM address of `(set, way)`.
    pub fn pm_slot(&self, set: u64, way: u64) -> Addr {
        Addr::pm(self.pm_base + self.slot_off(set, way))
    }

    /// HBM mirror address of `(set, way)`.
    pub fn hbm_slot(&self, set: u64, way: u64) -> Addr {
        Addr::hbm(self.hbm_base + self.slot_off(set, way))
    }

    /// The set `key` hashes to.
    pub fn hash_set(&self, key: u64) -> u64 {
        gpm_pmkv::hash64(key) % self.sets
    }

    /// Probes the mirror for `key`'s way: match beats first-empty beats the
    /// eviction victim `(key >> 32) % 8`.
    ///
    /// # Errors
    ///
    /// Propagates load errors and injected crashes.
    pub fn probe(&self, ctx: &mut ThreadCtx<'_>, set: u64, key: u64) -> SimResult<u64> {
        let mut way = (key >> 32) % WAYS;
        let mut empty: Option<u64> = None;
        for w in 0..WAYS {
            let k = ctx.ld_u64(self.hbm_slot(set, w))?;
            if k == key {
                return Ok(w);
            }
            if k == 0 && empty.is_none() {
                empty = Some(w);
            }
        }
        if let Some(w) = empty {
            way = w;
        }
        Ok(way)
    }

    /// GET: the mirror value stored under `key`, or 0 when absent.
    ///
    /// # Errors
    ///
    /// Propagates load errors and injected crashes.
    pub fn lookup(&self, ctx: &mut ThreadCtx<'_>, set: u64, key: u64) -> SimResult<u64> {
        for w in 0..WAYS {
            if ctx.ld_u64(self.hbm_slot(set, w))? == key {
                return ctx.ld_u64(self.hbm_slot(set, w).add(8));
            }
        }
        Ok(0)
    }

    /// Reads the mirror slot's four words.
    ///
    /// # Errors
    ///
    /// Propagates load errors and injected crashes.
    pub fn mirror_read(&self, ctx: &mut ThreadCtx<'_>, set: u64, way: u64) -> SimResult<[u64; 4]> {
        let mut b = [0u8; SLOT_BYTES as usize];
        ctx.ld_bytes(self.hbm_slot(set, way), &mut b)?;
        Ok(slot_words(&b))
    }

    /// Writes a full record into the mirror slot.
    ///
    /// # Errors
    ///
    /// Propagates store errors and injected crashes.
    pub fn mirror_store(
        &self,
        ctx: &mut ThreadCtx<'_>,
        set: u64,
        way: u64,
        rec: [u64; 4],
    ) -> SimResult<()> {
        ctx.st_bytes(self.hbm_slot(set, way), &slot_bytes(rec))
    }

    /// Host-side placement-agnostic lookup: scans `key`'s set in the PM
    /// table and returns the full record, or `None` when absent. Oracles
    /// use this so a retried run may legitimately place a key in a
    /// different way than an uncrashed run would.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_find(&self, machine: &Machine, key: u64) -> SimResult<Option<[u64; 4]>> {
        let set = self.hash_set(key);
        for w in 0..WAYS {
            let mut b = [0u8; SLOT_BYTES as usize];
            machine.read(self.pm_slot(set, w), &mut b)?;
            let rec = slot_words(&b);
            if rec[0] == key {
                return Ok(Some(rec));
            }
        }
        Ok(None)
    }

    /// Host-side untimed scan of the durable PM table: every live
    /// `(key, value)` pair in set-major, way-minor order (the order is
    /// deterministic, which resharding's migration planner relies on).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_scan(&self, machine: &Machine) -> SimResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            for w in 0..WAYS {
                let mut b = [0u8; SLOT_BYTES as usize];
                machine.read(self.pm_slot(set, w), &mut b)?;
                let rec = slot_words(&b);
                if rec[0] != 0 {
                    out.push((rec[0], rec[1]));
                }
            }
        }
        Ok(out)
    }
}

fn slot_words(b: &[u8; SLOT_BYTES as usize]) -> [u64; 4] {
    [
        u64::from_le_bytes(b[0..8].try_into().unwrap()),
        u64::from_le_bytes(b[8..16].try_into().unwrap()),
        u64::from_le_bytes(b[16..24].try_into().unwrap()),
        u64::from_le_bytes(b[24..32].try_into().unwrap()),
    ]
}

fn slot_bytes(rec: [u64; 4]) -> [u8; SLOT_BYTES as usize] {
    let mut b = [0u8; SLOT_BYTES as usize];
    b[0..8].copy_from_slice(&rec[0].to_le_bytes());
    b[8..16].copy_from_slice(&rec[1].to_le_bytes());
    b[16..24].copy_from_slice(&rec[2].to_le_bytes());
    b[24..32].copy_from_slice(&rec[3].to_le_bytes());
    b
}

fn undo_entry(set: u64, way: u64, old: [u64; 4]) -> [u8; UNDO_BYTES] {
    let mut e = [0u8; UNDO_BYTES];
    e[0..4].copy_from_slice(&(set as u32).to_le_bytes());
    e[4..8].copy_from_slice(&(way as u32).to_le_bytes());
    e[8..40].copy_from_slice(&slot_bytes(old));
    e
}

/// The detectable SET: applies `key := value` exactly once per `tag` no
/// matter how many times a crashed batch is retried (see the module doc's
/// seven-step protocol). `op` is the operation's descriptor slot.
///
/// With `inject_double_apply` set, the operation skips both the descriptor
/// check and the record check — the deliberate campaign self-test bug. A
/// clean run is unaffected (the checks never fire there); only a
/// crash-and-retry makes the op apply twice, bumping the key's version to
/// 2, which exactly the double-recovery oracle must catch.
///
/// # Errors
///
/// Propagates platform errors; [`gpm_sim::SimError::Crashed`] under a
/// crashing fuel gauge.
#[allow(clippy::too_many_arguments)]
pub fn shard_set_detectable(
    ctx: &mut ThreadCtx<'_>,
    shard: &ShardDev,
    detect: &DetectDev,
    log: &GpmLogDev,
    op: u64,
    tag: u64,
    key: u64,
    value: u64,
    inject_double_apply: bool,
) -> SimResult<()> {
    shard_apply_detectable(
        ctx,
        shard,
        detect,
        log,
        op,
        tag,
        key,
        |_| value,
        inject_double_apply,
    )
}

/// The detectable read-modify-write: folds `apply` over `key`'s current
/// value and publishes the result, exactly once per `tag`. The closure
/// receives `Some(value)` when the probed slot already holds `key` and
/// `None` when the key is fresh (empty slot or eviction victim); it runs on
/// host data and must be pure — on a retry that finds the op already
/// applied (descriptor or record check) it is never re-invoked, which is
/// precisely what makes non-idempotent folds (counters, state machines)
/// safe to resubmit. Same seven-step protocol, same `inject_double_apply`
/// self-test knob as [`shard_set_detectable`] (which is the constant-fold
/// special case).
///
/// # Errors
///
/// Propagates platform errors; [`gpm_sim::SimError::Crashed`] under a
/// crashing fuel gauge.
#[allow(clippy::too_many_arguments)]
pub fn shard_apply_detectable(
    ctx: &mut ThreadCtx<'_>,
    shard: &ShardDev,
    detect: &DetectDev,
    log: &GpmLogDev,
    op: u64,
    tag: u64,
    key: u64,
    apply: impl FnOnce(Option<u64>) -> u64,
    inject_double_apply: bool,
) -> SimResult<()> {
    // 1. Descriptor check: applied and marked.
    if !inject_double_apply && detect.read(ctx, op)? == tag {
        return Ok(());
    }
    // 2. Probe.
    let set = shard.hash_set(key);
    let way = shard.probe(ctx, set, key)?;
    let old = DetectableCas::read(ctx, shard.pm_slot(set, way))?;
    // 3. Record check: applied, mark lost to the crash. Re-mark only.
    if !inject_double_apply && old[3] == tag {
        detect.mark(ctx, op, tag)?;
        shard.mirror_store(ctx, set, way, old)?;
        return Ok(());
    }
    // 4. Undo-log the displaced slot (rollback recovery stays possible).
    log.insert(ctx, &undo_entry(set, way, old))?;
    // 5–6. Publish the record durably, then mark the descriptor.
    let value = apply(if old[0] == key { Some(old[1]) } else { None });
    let version = if old[0] == key { old[2] + 1 } else { 1 };
    DetectableCas::publish(ctx, shard.pm_slot(set, way), key, value, version, tag)?;
    detect.mark(ctx, op, tag)?;
    // 7. Mirror.
    shard.mirror_store(ctx, set, way, [key, value, version, tag])
}

/// The legacy (non-detectable) SET for the GPM-NDP and CAP configurations,
/// which have no in-kernel persist ordering to hang the protocol on:
/// probe, optional undo log and PM store, mirror update. Records carry
/// version numbers but tag 0.
///
/// `to_pm=false` is CAP (mirror only; the CPU persists the whole table
/// after the batch); `persist=false` with `to_pm=true` is GPM-NDP
/// (unfenced PM stores, CPU flushes after the kernel).
///
/// # Errors
///
/// Propagates platform errors.
pub fn shard_set_legacy(
    ctx: &mut ThreadCtx<'_>,
    shard: &ShardDev,
    log: &GpmLogDev,
    key: u64,
    value: u64,
    to_pm: bool,
    persist: bool,
) -> SimResult<()> {
    let set = shard.hash_set(key);
    let way = shard.probe(ctx, set, key)?;
    let old = shard.mirror_read(ctx, set, way)?;
    let version = if old[0] == key { old[2] + 1 } else { 1 };
    if to_pm {
        let entry = undo_entry(set, way, old);
        if persist {
            log.insert(ctx, &entry)?;
        } else {
            log.insert_unfenced(ctx, &entry)?;
        }
        ctx.st_bytes(
            shard.pm_slot(set, way),
            &slot_bytes([key, value, version, 0]),
        )?;
        if persist {
            ctx.gpm_persist()?;
        }
    }
    shard.mirror_store(ctx, set, way, [key, value, version, 0])
}

/// Host reference model of one shard: replays SETs with the same probe
/// order and version bookkeeping the kernels use, tracking whether any SET
/// evicted a live key (the exactly-once caveat in the module doc).
#[derive(Debug, Clone)]
pub struct ShardModel {
    sets: u64,
    table: HashMap<(u64, u64), (u64, u64, u64)>,
    /// Whether any replayed SET displaced a different live key.
    pub evicted: bool,
}

impl ShardModel {
    /// An empty model over `sets` sets.
    pub fn new(sets: u64) -> ShardModel {
        ShardModel {
            sets,
            table: HashMap::new(),
            evicted: false,
        }
    }

    /// Replays one SET.
    pub fn set(&mut self, key: u64, value: u64) {
        self.apply(key, |_| value);
    }

    /// Replays one read-modify-write ([`shard_apply_detectable`]'s host
    /// twin): the closure sees the current value (`None` when the key is
    /// fresh) and returns the new one.
    pub fn apply(&mut self, key: u64, f: impl FnOnce(Option<u64>) -> u64) {
        let set = gpm_pmkv::hash64(key) % self.sets;
        let mut way = (key >> 32) % WAYS;
        let mut empty = None;
        let mut old = None;
        for w in 0..WAYS {
            let cur = self.table.get(&(set, w)).map_or(0, |e| e.0);
            if cur == key {
                way = w;
                old = Some(self.table[&(set, w)]);
                empty = None;
                break;
            }
            if cur == 0 && empty.is_none() {
                empty = Some(w);
            }
        }
        if let Some(w) = empty {
            way = w;
        }
        if old.is_none() && self.table.get(&(set, way)).is_some_and(|e| e.0 != 0) {
            self.evicted = true;
        }
        let version = old.map_or(1, |e| e.2 + 1);
        let value = f(old.map(|e| e.1));
        self.table.insert((set, way), (key, value, version));
    }

    /// The value stored under `key`, if present.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.find(key).map(|(v, _)| v)
    }

    /// The `(value, version)` stored under `key`, if present.
    pub fn find(&self, key: u64) -> Option<(u64, u64)> {
        let set = gpm_pmkv::hash64(key) % self.sets;
        (0..WAYS).find_map(|w| {
            self.table
                .get(&(set, w))
                .filter(|e| e.0 == key)
                .map(|e| (e.1, e.2))
        })
    }

    /// Iterates `((set, way), (key, value, version))` over occupied slots.
    pub fn entries(&self) -> impl Iterator<Item = (&(u64, u64), &(u64, u64, u64))> {
        self.table.iter()
    }
}

/// Simulated cost of rebuilding an HBM mirror from PM over PCIe (one bulk
/// DMA), shared by the KVS and DB retry-recovery paths.
pub fn mirror_rebuild_cost(machine: &Machine, bytes: u64) -> Ns {
    machine.cfg.dma_init_overhead + Ns(bytes as f64 / machine.cfg.pcie_bw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::{
        detect_create, gpm_map, gpm_persist_begin, gpm_persist_end, gpmlog_create_hcl, op_tag,
    };
    use gpm_gpu::{launch, launch_with_fuel, FnKernel, LaunchConfig, LaunchError};
    use gpm_sim::PersistencyModel;

    const SETS: u64 = 64;
    const OPS: u64 = 16;

    struct Rig {
        shard: ShardDev,
        detect: gpm_core::DetectArea,
        log: gpm_core::GpmLog,
    }

    fn rig(m: &mut Machine) -> Rig {
        let pm = gpm_map(m, "/pm/shard/table", shard_bytes(SETS), true)
            .unwrap()
            .offset;
        let hbm = m.alloc_hbm(shard_bytes(SETS)).unwrap();
        let detect = detect_create(m, "/pm/shard/detect", OPS).unwrap();
        let log = gpmlog_create_hcl(m, "/pm/shard/log", 32 * UNDO_BYTES as u64 * 2, 1, 32).unwrap();
        Rig {
            shard: ShardDev {
                pm_base: pm,
                hbm_base: hbm,
                sets: SETS,
            },
            detect,
            log,
        }
    }

    fn keys() -> Vec<(u64, u64)> {
        (0..OPS)
            .map(|i| {
                let k = gpm_pmkv::hash64(i + 1) | 1;
                (k, k.wrapping_mul(31))
            })
            .collect()
    }

    fn set_kernel(
        r: &Rig,
        epoch: u64,
        inject: bool,
    ) -> impl gpm_gpu::Kernel<State = (), Shared = ()> {
        let (shard, detect, log) = (r.shard, r.detect.dev(), r.log.dev());
        let ops = keys();
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            if i >= OPS {
                return Ok(());
            }
            let (k, v) = ops[i as usize];
            shard_set_detectable(
                ctx,
                &shard,
                &detect,
                &log,
                i,
                op_tag(epoch, i),
                k,
                v,
                inject,
            )
        })
    }

    fn verify_versions(m: &Machine, shard: &ShardDev, want_version: u64) {
        for (k, v) in keys() {
            let rec = shard.host_find(m, k).unwrap().expect("key present");
            assert_eq!(rec[1], v, "value for key {k:#x}");
            assert_eq!(rec[2], want_version, "version for key {k:#x}");
        }
    }

    #[test]
    fn clean_run_applies_each_op_once() {
        let mut m = Machine::default();
        let r = rig(&mut m);
        let epoch = r.detect.begin_epoch(&mut m).unwrap();
        gpm_persist_begin(&mut m);
        launch(
            &mut m,
            LaunchConfig::new(1, 32),
            &set_kernel(&r, epoch, false),
        )
        .unwrap();
        gpm_persist_end(&mut m);
        m.crash();
        verify_versions(&m, &r.shard, 1);
        let mut model = ShardModel::new(SETS);
        for (k, v) in keys() {
            model.set(k, v);
        }
        assert!(!model.evicted);
        for (k, v) in keys() {
            assert_eq!(model.get(k), Some(v));
        }
    }

    /// Crash at every fuel point under both persistency models, then retry
    /// the identical batch: every key must land with version exactly 1 —
    /// zero-apply would leave it absent, double-apply would leave 2.
    #[test]
    fn crash_and_retry_is_exactly_once_at_every_fuel() {
        for model in [PersistencyModel::Strict, PersistencyModel::Epoch] {
            for fuel in (1..400).step_by(7) {
                let mut m = Machine::default();
                let r = rig(&mut m);
                let epoch = r.detect.begin_epoch(&mut m).unwrap();
                let cfg = LaunchConfig::new(1, 32).with_persistency(model);
                gpm_persist_begin(&mut m);
                match launch_with_fuel(&mut m, cfg, &set_kernel(&r, epoch, false), fuel) {
                    Ok(_) => {
                        gpm_persist_end(&mut m);
                        m.crash();
                    }
                    Err(LaunchError::Crashed(_)) => {}
                    Err(LaunchError::Sim(e)) => panic!("{e:?}"),
                }
                // Retry: rebuild the mirror from PM, resubmit the batch.
                let mut buf = vec![0u8; shard_bytes(SETS) as usize];
                m.read(Addr::pm(r.shard.pm_base), &mut buf).unwrap();
                m.host_write(Addr::hbm(r.shard.hbm_base), &buf).unwrap();
                gpm_persist_begin(&mut m);
                launch(&mut m, cfg, &set_kernel(&r, epoch, false)).unwrap();
                gpm_persist_end(&mut m);
                m.crash();
                verify_versions(&m, &r.shard, 1);
            }
        }
    }

    /// The deliberate double-applying CAS: harmless on a clean run, version
    /// 2 after a crash+retry — the signal the campaign self-test needs.
    #[test]
    fn injected_double_apply_is_clean_without_a_crash_and_dirty_with_one() {
        let mut m = Machine::default();
        let r = rig(&mut m);
        let epoch = r.detect.begin_epoch(&mut m).unwrap();
        let cfg = LaunchConfig::new(1, 32);
        gpm_persist_begin(&mut m);
        launch(&mut m, cfg, &set_kernel(&r, epoch, true)).unwrap();
        gpm_persist_end(&mut m);
        verify_versions(&m, &r.shard, 1);

        // Crash late enough that some op fully applied, then retry.
        let mut m = Machine::default();
        let r = rig(&mut m);
        let epoch = r.detect.begin_epoch(&mut m).unwrap();
        gpm_persist_begin(&mut m);
        match launch_with_fuel(&mut m, cfg, &set_kernel(&r, epoch, true), 200) {
            Err(LaunchError::Crashed(_)) => {}
            other => panic!("expected a crash, got {other:?}"),
        }
        let mut buf = vec![0u8; shard_bytes(SETS) as usize];
        m.read(Addr::pm(r.shard.pm_base), &mut buf).unwrap();
        m.host_write(Addr::hbm(r.shard.hbm_base), &buf).unwrap();
        gpm_persist_begin(&mut m);
        launch(&mut m, cfg, &set_kernel(&r, epoch, true)).unwrap();
        gpm_persist_end(&mut m);
        let double_applied = keys().iter().any(|&(k, _)| {
            r.shard
                .host_find(&m, k)
                .unwrap()
                .is_some_and(|rec| rec[2] > 1)
        });
        assert!(
            double_applied,
            "the injected bug must re-apply at least one op on retry"
        );
    }

    /// The RMW fold sees the prior value exactly once per apply and the
    /// version counts applies — the contract gpAnalytics' per-user state
    /// machines build on.
    #[test]
    fn model_apply_folds_over_prior_value() {
        let mut model = ShardModel::new(SETS);
        let key = gpm_pmkv::hash64(99) | 1;
        model.apply(key, |old| {
            assert_eq!(old, None, "fresh key folds from None");
            5
        });
        model.apply(key, |old| old.unwrap() * 10 + 1);
        assert_eq!(model.find(key), Some((51, 2)));
    }

    /// A crash-and-retry of an RMW batch must fold each op exactly once:
    /// a double fold would double-increment the counter value.
    #[test]
    fn rmw_crash_and_retry_folds_exactly_once() {
        for fuel in (1..300).step_by(13) {
            let mut m = Machine::default();
            let r = rig(&mut m);
            let epoch = r.detect.begin_epoch(&mut m).unwrap();
            let cfg = LaunchConfig::new(1, 32);
            let (shard, detect, log) = (r.shard, r.detect.dev(), r.log.dev());
            let kernel = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let i = ctx.global_id();
                if i >= OPS {
                    return Ok(());
                }
                let k = gpm_pmkv::hash64(i + 1) | 1;
                shard_apply_detectable(
                    ctx,
                    &shard,
                    &detect,
                    &log,
                    i,
                    op_tag(epoch, i),
                    k,
                    |old| old.unwrap_or(100) + 1,
                    false,
                )
            });
            gpm_persist_begin(&mut m);
            match launch_with_fuel(&mut m, cfg, &kernel, fuel) {
                Ok(_) => {
                    gpm_persist_end(&mut m);
                    m.crash();
                }
                Err(LaunchError::Crashed(_)) => {}
                Err(LaunchError::Sim(e)) => panic!("{e:?}"),
            }
            let mut buf = vec![0u8; shard_bytes(SETS) as usize];
            m.read(Addr::pm(r.shard.pm_base), &mut buf).unwrap();
            m.host_write(Addr::hbm(r.shard.hbm_base), &buf).unwrap();
            gpm_persist_begin(&mut m);
            launch(&mut m, cfg, &kernel).unwrap();
            gpm_persist_end(&mut m);
            for i in 0..OPS {
                let k = gpm_pmkv::hash64(i + 1) | 1;
                let rec = r.shard.host_find(&m, k).unwrap().expect("key present");
                assert_eq!(rec[1], 101, "fuel={fuel}: fold must run exactly once");
                assert_eq!(rec[2], 1, "fuel={fuel}: version must be 1");
            }
        }
    }

    #[test]
    fn model_tracks_eviction() {
        let mut model = ShardModel::new(1); // every key in set 0
        for i in 0..WAYS + 1 {
            model.set(gpm_pmkv::hash64(i + 1) | 1, i);
        }
        assert!(model.evicted, "9th key into an 8-way set must evict");
    }
}
