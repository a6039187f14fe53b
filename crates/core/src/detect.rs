//! Detectable exactly-once persistent operations (Memento-style).
//!
//! An undo log makes a crashed batch *recoverable* — roll everything back
//! and resubmit — but it cannot tell a retry which individual operations
//! already reached media, so retry safety rests on whole-batch idempotence.
//! This module adds the missing piece: a **descriptor area** in PM with one
//! tag word per in-flight operation, plus a publish protocol whose ordering
//! guarantees let recovery classify every operation as *applied* or *not
//! applied* — never "maybe".
//!
//! ## Protocol
//!
//! Each operation owns a 32-byte record (its durable payload — e.g. a hash
//! slot `{key, value, version, tag}`) and one descriptor slot. The tag is
//! unique per (batch, operation): `op_tag(epoch, i)` folds a durable epoch
//! counter — bumped once per batch by [`DetectArea::begin_epoch`] — with the
//! operation index, so a tag from any earlier batch or earlier boot can
//! never be mistaken for this one. To apply:
//!
//! 1. **Skip check** — if the descriptor already holds the tag, the op is
//!    applied *and* marked: do nothing (this is a retry).
//! 2. **Publish** — write the 32-byte record with the tag as its last word,
//!    then [`GpmThreadExt::gpm_persist_sync`]: the record is on media before
//!    step 3 can emit a single byte. The sync (drain-now) fence matters —
//!    under epoch persistency an ordinary `gpm_persist` only orders the
//!    record into the open epoch, and a crash could then settle the mark
//!    without the record.
//! 3. **Mark** — write the tag into the descriptor slot, ordered after
//!    step 2's publish. No fence follows it, and a batch's commit flushes
//!    only the transaction flag and the log tails, not the descriptor area:
//!    the mark drains at the next system fence by the same writer id,
//!    usually in a later batch, or a crash settles it either way. The
//!    record check (the table's second row below; step 3 of
//!    `gpm_workloads::hash_shard`'s SET) covers a lost mark, except where a
//!    later operation of the same batch overwrote the record: see the
//!    [eviction caveat](../gpm_workloads/hash_shard/index.html) in that
//!    module's doc.
//!
//! After a crash, recovery inspects (descriptor, record) per operation:
//!
//! | descriptor | record tag | verdict                                      |
//! |------------|------------|----------------------------------------------|
//! | tag        | —          | applied (record persisted before the mark)   |
//! | no tag     | tag        | applied but unmarked: re-mark, do not re-apply |
//! | no tag     | no tag     | not applied: retry the operation             |
//!
//! The record-tag row exists for structures where a *later* operation may
//! overwrite the record (hash eviction): there the descriptor alone is
//! authoritative, which is why it lives in its own area rather than riding
//! in the data structure.
//!
//! ## Slot reclamation
//!
//! Descriptor slots are never cleared. Advancing the epoch retires every
//! outstanding tag at once — stale descriptors simply stop matching — so a
//! batch costs one 8-byte durable header write, not a scan of the area.
//!
//! ## Batches
//!
//! [`DetectTxn`] pairs the area with a persistent [`TxnFlag`]: the flag
//! says which batch is in flight, the epoch tags its operations, and
//! [`DetectTxn::enter`] holds the one rule that tells a fresh batch from a
//! resubmitted one.
//!
//! [`GpmThreadExt::gpm_persist_sync`]: crate::GpmThreadExt::gpm_persist_sync

use gpm_gpu::ThreadCtx;
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{Addr, Machine, SimError, SimResult};

use crate::error::{CoreError, CoreResult};
use crate::map::{gpm_map, GpmRegion};
use crate::txn::TxnFlag;

/// Magic identifying an initialized descriptor area.
const MAGIC: u32 = 0x6770_6474; // "gpdt"

/// Header bytes (one cache line: magic + epoch counter + padding).
const HEADER: u64 = 64;

/// Bits of an operation tag reserved for the operation index.
pub const TAG_OP_BITS: u32 = 20;

/// Maximum operations per epoch a descriptor area can distinguish.
pub const MAX_OPS_PER_EPOCH: u64 = (1 << TAG_OP_BITS) - 1;

/// The tag identifying operation `op_index` of the batch that opened
/// `epoch`: `(epoch << 20) | (op_index + 1)`. Never zero (a zeroed
/// descriptor or record matches no operation), and unique across batches
/// and reboots because the epoch counter is durable and monotonic.
///
/// # Panics
///
/// Panics if `op_index` exceeds [`MAX_OPS_PER_EPOCH`] (debug builds).
pub fn op_tag(epoch: u64, op_index: u64) -> u64 {
    debug_assert!(op_index < MAX_OPS_PER_EPOCH, "op index overflows tag");
    (epoch << TAG_OP_BITS) | (op_index + 1)
}

/// Device-side handle to a descriptor area: plain offsets, `Copy`, safe to
/// capture in kernels.
#[derive(Debug, Clone, Copy)]
pub struct DetectDev {
    base: u64,
    slots: u64,
}

impl DetectDev {
    fn slot_addr(&self, slot: u64) -> Addr {
        debug_assert!(slot < self.slots, "descriptor slot out of range");
        Addr::pm(self.base + HEADER + slot * 8)
    }

    /// Reads operation `slot`'s descriptor tag (step 1 of the protocol):
    /// equality with the operation's own tag means "already applied and
    /// marked".
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn read(&self, ctx: &mut ThreadCtx<'_>, slot: u64) -> SimResult<u64> {
        ctx.ld_u64(self.slot_addr(slot))
    }

    /// Marks operation `slot` as applied (step 3). Must only be called
    /// after the operation's record reached media via
    /// [`DetectableCas::publish`]. The mark is stored without a fence: it
    /// drains at this writer id's next system fence, usually in a later
    /// batch, and a crash before then may drop it (recovery then finds the
    /// record's tag instead).
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn mark(&self, ctx: &mut ThreadCtx<'_>, slot: u64, tag: u64) -> SimResult<()> {
        ctx.st_u64(self.slot_addr(slot), tag)
    }
}

/// Host-side handle to a PM descriptor area (create via [`detect_create`]).
#[derive(Debug, Clone)]
pub struct DetectArea {
    /// The mapped PM region backing the area.
    pub region: GpmRegion,
    slots: u64,
}

/// Creates (or reopens) a descriptor area named `path` with room for
/// `slots` in-flight operations. Reopening preserves the durable epoch
/// counter — that is the point: tags from before the crash stay
/// recognizable.
///
/// # Errors
///
/// Returns [`CoreError::BadGeometry`] for a zero or over-large slot count,
/// and propagates mapping failures.
pub fn detect_create(machine: &mut Machine, path: &str, slots: u64) -> CoreResult<DetectArea> {
    if slots == 0 || slots > MAX_OPS_PER_EPOCH {
        return Err(CoreError::BadGeometry("detect area slot count"));
    }
    let existed = machine.fs_exists(path);
    let region = gpm_map(machine, path, HEADER + slots * 8, true)?;
    if !existed || machine.read_u32(region.base())? != MAGIC {
        let mut h = [0u8; 16];
        h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        // epoch counter at [8..16) starts at 0
        machine.host_write(region.base(), &h)?;
    }
    Ok(DetectArea { region, slots })
}

impl DetectArea {
    /// The device-side handle to pass into kernels.
    pub fn dev(&self) -> DetectDev {
        DetectDev {
            base: self.region.offset,
            slots: self.slots,
        }
    }

    /// Slots this area was created with.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    fn epoch_addr(&self) -> Addr {
        self.region.addr(8)
    }

    /// The current epoch counter (the epoch of the most recent
    /// [`DetectArea::begin_epoch`], or 0 on a fresh area).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn epoch(&self, machine: &Machine) -> CoreResult<u64> {
        Ok(machine.read_u64(self.epoch_addr())?)
    }

    /// Opens a new batch: durably advances the epoch counter and returns the
    /// new epoch. Every tag minted from an earlier epoch stops matching, so
    /// this is also how descriptor slots are reclaimed — no clearing writes.
    /// Accounts CPU time and advances the machine clock.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn begin_epoch(&self, machine: &mut Machine) -> CoreResult<u64> {
        let next = machine.read_u64(self.epoch_addr())? + 1;
        let mut cpu = CpuCtx::new(machine, gpm_sim::HOST_WRITER);
        cpu.store(self.epoch_addr(), &next.to_le_bytes())?;
        cpu.clflush(self.epoch_addr().offset, 8);
        cpu.sfence();
        let t = cpu.elapsed();
        machine.clock.advance(t);
        Ok(next)
    }

    /// Host-side read of operation `slot`'s descriptor tag (for recovery
    /// drivers and oracles).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_tag(&self, machine: &Machine, slot: u64) -> CoreResult<u64> {
        debug_assert!(slot < self.slots);
        Ok(machine.read_u64(Addr::pm(self.region.offset + HEADER + slot * 8))?)
    }
}

/// The durable bracket of a detectable batch: the transaction flag that
/// names the batch in flight (`seq + 1`, 0 when idle) and the descriptor
/// area whose epoch tags the batch's operations.
#[derive(Debug)]
pub struct DetectTxn {
    /// The persistent transaction flag.
    pub flag: TxnFlag,
    /// The descriptor area.
    pub area: DetectArea,
}

impl DetectTxn {
    /// Creates (or reopens) `{prefix}/flag`, then a descriptor area of
    /// `slots` slots at `{prefix}/detect`.
    ///
    /// # Errors
    ///
    /// Fails on PM exhaustion or a bad slot count.
    pub fn create(machine: &mut Machine, prefix: &str, slots: u64) -> SimResult<DetectTxn> {
        let flag = TxnFlag::create(machine, &format!("{prefix}/flag"))?;
        let area = detect_create(machine, &format!("{prefix}/detect"), slots)
            .map_err(|_| SimError::Invalid("failed to create a descriptor area"))?;
        Ok(DetectTxn { flag, area })
    }

    /// Opens batch `seq` and returns the epoch its tags use. A flag still
    /// armed for this very `seq` means the caller is resubmitting a
    /// crashed batch: the epoch minted before the crash is reused, so the
    /// descriptors written then keep matching. Otherwise the flag is armed
    /// and the epoch advanced.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn enter(&self, machine: &mut Machine, seq: u64) -> SimResult<u64> {
        let epoch = if self.flag.active(machine)? == seq + 1 {
            self.area.epoch(machine)
        } else {
            self.flag.begin(machine, seq + 1)?;
            self.area.begin_epoch(machine)
        };
        epoch.map_err(|_| SimError::Invalid("detect epoch update failed"))
    }
}

/// The detectable publish primitive: a 32-byte record `{w0, w1, w2, tag}`
/// written and drained to media as one step-2 unit. Records must not span a
/// 64-byte line (align their containers to 32 bytes) so a crash settles a
/// record all-or-nothing; the tag in the last word then certifies the whole
/// record.
pub struct DetectableCas;

impl DetectableCas {
    /// Bytes in one record.
    pub const RECORD_BYTES: u64 = 32;

    /// Reads a record's four words.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses and injected crashes surface as errors.
    pub fn read(ctx: &mut ThreadCtx<'_>, addr: Addr) -> SimResult<[u64; 4]> {
        let mut b = [0u8; 32];
        ctx.ld_bytes(addr, &mut b)?;
        Ok([
            u64::from_le_bytes(b[0..8].try_into().unwrap()),
            u64::from_le_bytes(b[8..16].try_into().unwrap()),
            u64::from_le_bytes(b[16..24].try_into().unwrap()),
            u64::from_le_bytes(b[24..32].try_into().unwrap()),
        ])
    }

    /// Publishes a record and synchronously drains it to media (step 2):
    /// when this returns, the record — tag included — is durable, so the
    /// caller may mark the descriptor. One 32-byte store, one sync fence.
    ///
    /// # Errors
    ///
    /// Propagates store errors; [`gpm_sim::SimError::PersistenceUnavailable`]
    /// outside a persist window; injected crashes as
    /// [`gpm_sim::SimError::Crashed`].
    pub fn publish(
        ctx: &mut ThreadCtx<'_>,
        addr: Addr,
        w0: u64,
        w1: u64,
        w2: u64,
        tag: u64,
    ) -> SimResult<()> {
        use crate::persist::GpmThreadExt;
        let mut b = [0u8; 32];
        b[0..8].copy_from_slice(&w0.to_le_bytes());
        b[8..16].copy_from_slice(&w1.to_le_bytes());
        b[16..24].copy_from_slice(&w2.to_le_bytes());
        b[24..32].copy_from_slice(&tag.to_le_bytes());
        ctx.st_bytes(addr, &b)?;
        ctx.gpm_persist_sync()
    }

    /// Host-side read of a record (for recovery drivers and oracles).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_read(machine: &Machine, addr: Addr) -> SimResult<[u64; 4]> {
        let mut b = [0u8; 32];
        machine.read(addr, &mut b)?;
        Ok([
            u64::from_le_bytes(b[0..8].try_into().unwrap()),
            u64::from_le_bytes(b[8..16].try_into().unwrap()),
            u64::from_le_bytes(b[16..24].try_into().unwrap()),
            u64::from_le_bytes(b[24..32].try_into().unwrap()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{gpm_persist_begin, gpm_persist_end};
    use crate::persist::GpmThreadExt;
    use gpm_gpu::{launch, launch_with_gauge, FnKernel, FuelGauge, LaunchConfig};
    use gpm_sim::{PersistencyModel, SimError};

    #[test]
    fn tags_are_nonzero_and_unique_across_epochs() {
        assert_ne!(op_tag(0, 0), 0);
        assert_ne!(op_tag(1, 0), op_tag(2, 0));
        assert_ne!(op_tag(1, 0), op_tag(1, 1));
        assert_ne!(op_tag(1, MAX_OPS_PER_EPOCH - 1), op_tag(2, 0));
    }

    #[test]
    fn epoch_counter_survives_reopen_and_crash() {
        let mut m = Machine::default();
        let area = detect_create(&mut m, "/pm/detect", 8).unwrap();
        assert_eq!(area.epoch(&m).unwrap(), 0);
        assert_eq!(area.begin_epoch(&mut m).unwrap(), 1);
        assert_eq!(area.begin_epoch(&mut m).unwrap(), 2);
        m.crash();
        let area2 = detect_create(&mut m, "/pm/detect", 8).unwrap();
        assert_eq!(area2.epoch(&m).unwrap(), 2, "durable across crash+reopen");
        assert_eq!(area2.begin_epoch(&mut m).unwrap(), 3);
    }

    #[test]
    fn publish_then_mark_is_detectable_after_clean_run() {
        let mut m = Machine::default();
        let area = detect_create(&mut m, "/pm/detect", 4).unwrap();
        let rec = m.alloc_pm(128).unwrap();
        let epoch = area.begin_epoch(&mut m).unwrap();
        let dev = area.dev();
        gpm_persist_begin(&mut m);
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            let tag = op_tag(epoch, i);
            if dev.read(ctx, i)? == tag {
                return Ok(()); // already applied
            }
            DetectableCas::publish(ctx, Addr::pm(rec + i * 32), 10 + i, 20 + i, 1, tag)?;
            dev.mark(ctx, i, tag)?;
            ctx.gpm_persist()
        });
        launch(&mut m, LaunchConfig::new(1, 4), &k).unwrap();
        gpm_persist_end(&mut m);
        m.crash();
        for i in 0..4 {
            let tag = op_tag(epoch, i);
            assert_eq!(area.host_tag(&m, i).unwrap(), tag);
            let r = DetectableCas::host_read(&m, Addr::pm(rec + i * 32)).unwrap();
            assert_eq!(r, [10 + i, 20 + i, 1, tag]);
        }
    }

    /// The protocol invariant the sync fence exists for: at *every* crash
    /// point, under both persistency models, a marked descriptor implies a
    /// durable record. Retrying with the skip check then applies each op
    /// exactly once.
    #[test]
    fn marked_descriptor_implies_durable_record_at_every_crash_point() {
        for model in [PersistencyModel::Strict, PersistencyModel::Epoch] {
            for fuel in 1..40 {
                let mut m = Machine::default();
                let area = detect_create(&mut m, "/pm/detect", 4).unwrap();
                let rec = m.alloc_pm(128).unwrap();
                let epoch = area.begin_epoch(&mut m).unwrap();
                let dev = area.dev();
                let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                    let i = ctx.global_id();
                    let tag = op_tag(epoch, i);
                    if dev.read(ctx, i)? == tag {
                        return Ok(());
                    }
                    DetectableCas::publish(ctx, Addr::pm(rec + i * 32), i, i * 2, 1, tag)?;
                    dev.mark(ctx, i, tag)?;
                    ctx.gpm_persist()
                });
                gpm_persist_begin(&mut m);
                let cfg = LaunchConfig::new(1, 4).with_persistency(model);
                let mut gauge = FuelGauge::crash(fuel);
                let r = launch_with_gauge(&mut m, cfg, &k, &mut gauge);
                if r.is_ok() {
                    gpm_persist_end(&mut m);
                    continue;
                }
                m.crash();
                for i in 0..4 {
                    let tag = op_tag(epoch, i);
                    if area.host_tag(&m, i).unwrap() == tag {
                        let r = DetectableCas::host_read(&m, Addr::pm(rec + i * 32)).unwrap();
                        assert_eq!(
                            r,
                            [i, i * 2, 1, tag],
                            "marked but record not durable (model {model:?}, fuel {fuel})"
                        );
                    }
                }
                // Retry applies the remainder exactly once.
                gpm_persist_begin(&mut m);
                launch(&mut m, LaunchConfig::new(1, 4).with_persistency(model), &k).unwrap();
                gpm_persist_end(&mut m);
                m.crash();
                for i in 0..4 {
                    let tag = op_tag(epoch, i);
                    assert_eq!(area.host_tag(&m, i).unwrap(), tag);
                    let r = DetectableCas::host_read(&m, Addr::pm(rec + i * 32)).unwrap();
                    assert_eq!(r, [i, i * 2, 1, tag]);
                }
            }
        }
    }

    #[test]
    fn publish_outside_window_is_rejected() {
        let mut m = Machine::default();
        let rec = m.alloc_pm(64).unwrap();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            DetectableCas::publish(ctx, Addr::pm(rec), 1, 2, 3, 4)
        });
        let err = launch(&mut m, LaunchConfig::new(1, 1), &k).unwrap_err();
        assert!(matches!(err, SimError::PersistenceUnavailable(_)));
    }

    #[test]
    fn zero_or_oversized_area_is_rejected() {
        let mut m = Machine::default();
        assert!(detect_create(&mut m, "/pm/z", 0).is_err());
        assert!(detect_create(&mut m, "/pm/z", MAX_OPS_PER_EPOCH + 1).is_err());
    }
}
