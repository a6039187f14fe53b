//! The persistent-memory device: durable media plus the volatile pending
//! state that sits between a store and its persist.
//!
//! Writes that enter the persistence domain (the ADR-protected write-pending
//! queue, or the whole cache hierarchy under eADR) go straight to *media*.
//! Writes that are merely *visible* — cached in the CPU LLC by DDIO, or not
//! yet drained — are recorded as *pending lines*: they are observable by
//! reads, but a crash applies an arbitrary subset of them (modelling cache
//! eviction order) and drops the rest. This is exactly the hazard the paper's
//! recovery protocols must survive (§2, §5).
//!
//! Both sides of the device are paged for hot-path speed. Media lives in
//! [`PagedBytes`] (fixed 64 KiB pages, so growth never re-zeroes established
//! bytes). Pending lines live in a paged sparse line table: a directory of
//! 4 KiB-span pages, each holding a 64-line presence bitmap and per-line
//! *slot indices* into a device-wide line pool — no hashing on the store
//! path, no heap allocation per line in steady state.
//!
//! The pool indirection matters for scattered access patterns. An earlier
//! layout embedded every line's 64 data bytes and writer set directly in the
//! page, making each page a ~7 KiB zero-initialised allocation; a workload
//! striding 1 KiB apart touched 4 of a page's 64 lines and paid ~94% of that
//! allocation as waste (the dominant per-op cost of the `scattered_store_256k`
//! engine bench). Pages are now ~300 bytes, line storage is allocated once in
//! the pool, and slots drained by a fence are recycled through a free list,
//! so steady-state fence-per-store traffic allocates nothing at all.

use crate::addr::{line_span, CPU_LINE};
use crate::error::{SimError, SimResult};
use crate::paged::PagedBytes;
use crate::rng::Xoshiro256StarStar;

/// Identifies the agent (GPU thread, CPU thread, DMA engine) that issued a
/// write, so that a fence by that agent persists exactly its own lines.
pub type WriterId = u32;

/// Reserved writer id for host-side bulk operations (DMA, file writes).
pub const HOST_WRITER: WriterId = u32::MAX;

/// Cache lines covered by one page of the pending line table.
const LINES_PER_PAGE: u64 = 64;

/// Writers tracked inline per line before spilling to the heap. A coalesced
/// warp store puts up to `CPU_LINE / 4 = 16` distinct writers on one line;
/// eight covers the common stride-8 and mixed cases without spilling.
const INLINE_WRITERS: usize = 8;

/// The set of writers with un-persisted stores to one line. Inline up to
/// [`INLINE_WRITERS`] ids; spills to a `Vec` only for byte-granular sharing.
#[derive(Debug, Clone)]
enum Writers {
    Inline {
        ids: [WriterId; INLINE_WRITERS],
        len: u8,
    },
    Spill(Vec<WriterId>),
}

impl Default for Writers {
    fn default() -> Writers {
        Writers::Inline {
            ids: [0; INLINE_WRITERS],
            len: 0,
        }
    }
}

impl Writers {
    fn clear(&mut self) {
        *self = Writers::default();
    }

    fn contains(&self, w: WriterId) -> bool {
        match self {
            Writers::Inline { ids, len } => ids[..*len as usize].contains(&w),
            Writers::Spill(v) => v.contains(&w),
        }
    }

    /// Whether any tracked writer falls in `[w0, w0 + n)`. One pass over the
    /// set, so a warp-wide fence probes each line once instead of 32 times.
    fn contains_range(&self, w0: WriterId, n: u32) -> bool {
        let hit = |w: WriterId| w.wrapping_sub(w0) < n;
        match self {
            Writers::Inline { ids, len } => ids[..*len as usize].iter().copied().any(hit),
            Writers::Spill(v) => v.iter().copied().any(hit),
        }
    }

    fn insert(&mut self, w: WriterId) {
        match self {
            Writers::Inline { ids, len } => {
                if ids[..*len as usize].contains(&w) {
                    return;
                }
                if (*len as usize) < INLINE_WRITERS {
                    ids[*len as usize] = w;
                    *len += 1;
                } else {
                    let mut v = ids.to_vec();
                    v.push(w);
                    *self = Writers::Spill(v);
                }
            }
            Writers::Spill(v) => {
                if !v.contains(&w) {
                    v.push(w);
                }
            }
        }
    }
}

/// Backing storage for one pending line, held in the device-wide pool.
#[derive(Debug, Clone)]
struct LineSlot {
    /// The line's visible contents.
    data: [u8; CPU_LINE as usize],
    /// Writers with un-persisted stores to the line.
    writers: Writers,
}

impl LineSlot {
    fn new() -> LineSlot {
        LineSlot {
            data: [0; CPU_LINE as usize],
            writers: Writers::default(),
        }
    }
}

/// One page of the pending line table: 64 consecutive cache lines. Only the
/// presence bitmap and pool indices live here, so allocating a page for a
/// sparsely-touched address range is cheap.
#[derive(Debug, Clone)]
struct PendingPage {
    /// Bit `i` set ⇔ line `page*64 + i` is pending.
    present: u64,
    /// Bit `i` set ⇔ line `page*64 + i` is pending *and* epoch-ordered: a
    /// fence under epoch persistency has closed it into the current persist
    /// epoch, so the epoch-boundary drain will make it durable. A later
    /// rewrite reopens the line (clears the bit) — the WPQ coalesces the new
    /// store into the queued entry, deferring it to the next epoch. Always a
    /// subset of `present`.
    closed: u64,
    /// Pool index of line `i`'s storage; meaningful only when bit `i` of
    /// `present` is set.
    slots: [u32; LINES_PER_PAGE as usize],
}

impl PendingPage {
    fn new() -> PendingPage {
        PendingPage {
            present: 0,
            closed: 0,
            slots: [0; LINES_PER_PAGE as usize],
        }
    }
}

/// Outcome of a crash: how pending state was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashReport {
    /// Pending lines that happened to reach media before power was lost.
    pub lines_applied: u64,
    /// Pending lines whose contents were lost.
    pub lines_dropped: u64,
}

/// How a crash chooses the subset of pending lines that reach media.
///
/// [`PmDevice::crash`] draws the subset from the machine RNG — one random
/// outcome per machine seed. A crash-consistency *campaign* instead wants to
/// steer the subset deterministically so the same crash point can be replayed
/// under every interesting eviction order. Every policy is a pure function of
/// its parameters: replaying a `(fuel, policy)` pair reproduces the exact
/// same post-crash media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Every pending line reaches media (the cache drained completely just
    /// before power was lost).
    AllApplied,
    /// Every pending line is lost (nothing had been written back).
    NoneApplied,
    /// Deterministic subset walk: pending line `i` — counted in the
    /// ascending address order [`PmDevice::crash`] visits lines in — is
    /// applied iff bit `i % 64` of the reflected Gray code `g(k) = k ^ (k >>
    /// 1)` is set. Adjacent indices `k` and `k + 1` differ in exactly one
    /// mask bit, so stepping `k` walks one-line-off neighbours; `k = 0` is
    /// the none-applied extreme and [`CrashPolicy::GRAY_ALL_ONES`] the
    /// all-applied one.
    GrayCode(u64),
    /// Random subset drawn from a dedicated [`Xoshiro256StarStar`] seeded
    /// with the given value — independent of the machine RNG, so the outcome
    /// is reproducible from the seed alone.
    Random(u64),
}

impl CrashPolicy {
    /// The `GrayCode` index whose subset mask is all ones: `g(k) = !0`
    /// exactly for the alternating-bit pattern `0b1010…`, since each Gray
    /// bit is the XOR of two adjacent index bits.
    pub const GRAY_ALL_ONES: u64 = 0xAAAA_AAAA_AAAA_AAAA;

    /// The 64-bit apply mask of a `GrayCode` policy (`None` for the other
    /// variants, whose membership is not mask-driven).
    pub fn gray_mask(self) -> Option<u64> {
        match self {
            CrashPolicy::GrayCode(k) => Some(k ^ (k >> 1)),
            _ => None,
        }
    }
}

impl std::fmt::Display for CrashPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPolicy::AllApplied => write!(f, "all"),
            CrashPolicy::NoneApplied => write!(f, "none"),
            CrashPolicy::GrayCode(k) => write!(f, "gray:{k}"),
            CrashPolicy::Random(s) => write!(f, "random:{s}"),
        }
    }
}

impl std::str::FromStr for CrashPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<CrashPolicy, String> {
        match s {
            "all" => Ok(CrashPolicy::AllApplied),
            "none" => Ok(CrashPolicy::NoneApplied),
            _ => {
                let parse = |v: &str| v.parse::<u64>().map_err(|e| e.to_string());
                if let Some(k) = s.strip_prefix("gray:") {
                    Ok(CrashPolicy::GrayCode(parse(k)?))
                } else if let Some(seed) = s.strip_prefix("random:") {
                    Ok(CrashPolicy::Random(parse(seed)?))
                } else {
                    Err(format!(
                        "unknown crash policy {s:?} (expected all, none, gray:K, random:SEED)"
                    ))
                }
            }
        }
    }
}

/// The simulated Optane persistent-memory device.
///
/// # Examples
///
/// ```
/// use gpm_sim::pm::PmDevice;
/// let mut pm = PmDevice::new(1 << 20);
/// pm.write_visible(7, 0, &[1, 2, 3])?;      // visible, not durable
/// let mut buf = [0u8; 3];
/// pm.read(0, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);               // reads see pending data
/// pm.persist_writer(7);                      // fence: now durable
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct PmDevice {
    media: PagedBytes,
    capacity: u64,
    pending: Vec<Option<Box<PendingPage>>>,
    pending_count: u64,
    /// Storage for pending lines, indexed by [`PendingPage::slots`].
    pool: Vec<LineSlot>,
    /// Pool indices whose lines have drained, ready for reuse.
    free_slots: Vec<u32>,
    /// Watermarks bounding the directory pages that may hold pending lines
    /// (`occ_lo > occ_hi` ⇔ none). They only widen while lines are pending
    /// and snap shut when the table drains, so a fence-per-store workload
    /// scans one page per fence instead of the whole directory.
    occ_lo: usize,
    occ_hi: usize,
}

impl PmDevice {
    /// Creates a device with the given capacity in bytes. Media is allocated
    /// lazily, page by page, as it is touched.
    pub fn new(capacity: u64) -> PmDevice {
        PmDevice {
            media: PagedBytes::new(),
            capacity,
            pending: Vec::new(),
            pending_count: 0,
            pool: Vec::new(),
            free_slots: Vec::new(),
            occ_lo: usize::MAX,
            occ_hi: 0,
        }
    }

    /// Takes a line slot from the free list (writer set cleared) or grows the
    /// pool. The data bytes are left stale: every caller fills the whole line
    /// from media before exposing it.
    fn alloc_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(idx) => {
                self.pool[idx as usize].writers.clear();
                idx
            }
            None => {
                self.pool.push(LineSlot::new());
                u32::try_from(self.pool.len() - 1).expect("pending-line pool exceeds u32 slots")
            }
        }
    }

    /// Narrows the occupied-page watermarks once the table is empty. Called
    /// at the end of every draining operation.
    fn settle_watermarks(&mut self) {
        if self.pending_count == 0 {
            self.occ_lo = usize::MAX;
            self.occ_hi = 0;
        }
    }

    /// The (inclusive) directory-page range that can hold pending lines, or
    /// `None` when nothing is pending.
    fn occupied_pages(&self) -> Option<std::ops::RangeInclusive<usize>> {
        if self.pending_count == 0 || self.occ_lo > self.occ_hi {
            return None;
        }
        Some(self.occ_lo..=self.occ_hi.min(self.pending.len().saturating_sub(1)))
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check(&self, offset: u64, len: u64) -> SimResult<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(SimError::OutOfBounds {
                addr: crate::addr::Addr::pm(offset),
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Writes bytes that are immediately durable (persistence domain:
    /// DDIO-off ADR path after its fence, eADR, or host-initialized data).
    ///
    /// A pending line the write *fully* covers is retired: its content is now
    /// durable byte for byte, so it no longer counts as crash-vulnerable (and
    /// no longer inflates [`CrashReport`] line counts). A partially covered
    /// pending line instead has the written bytes folded into its visible
    /// copy so reads stay coherent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_durable(&mut self, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.check(offset, bytes.len() as u64)?;
        self.media.write(offset, bytes);
        if self.pending_count == 0 {
            return Ok(());
        }
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let Some(page) = self.pending.get_mut(ppage).and_then(|p| p.as_deref_mut()) else {
                continue;
            };
            let bit = 1u64 << slot;
            if page.present & bit == 0 {
                continue;
            }
            let idx = page.slots[slot];
            let lstart = line * CPU_LINE;
            let lend = (lstart + CPU_LINE).min(self.capacity);
            if offset <= lstart && end >= lend {
                page.present &= !bit;
                page.closed &= !bit;
                self.free_slots.push(idx);
                self.pending_count -= 1;
            } else {
                let s = offset.max(lstart);
                let e = end.min(lstart + CPU_LINE);
                self.pool[idx as usize].data[(s - lstart) as usize..(e - lstart) as usize]
                    .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
            }
        }
        Ok(())
    }

    /// Writes bytes that are visible to all observers but not yet durable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_visible(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.check(offset, bytes.len() as u64)?;
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            if ppage >= self.pending.len() {
                self.pending.resize_with(ppage + 1, || None);
            }
            let bit = 1u64 << slot;
            let absent = match self.pending[ppage].as_deref() {
                Some(page) => page.present & bit == 0,
                None => true,
            };
            let idx = if absent {
                let idx = self.alloc_slot();
                self.media.read(lstart, &mut self.pool[idx as usize].data);
                let page = self.pending[ppage].get_or_insert_with(|| Box::new(PendingPage::new()));
                page.present |= bit;
                page.slots[slot] = idx;
                self.pending_count += 1;
                self.occ_lo = self.occ_lo.min(ppage);
                self.occ_hi = self.occ_hi.max(ppage);
                idx
            } else {
                let page = self.pending[ppage].as_deref_mut().expect("page resident");
                // Rewriting a queued line reopens it: the WPQ coalesces the
                // new store, deferring durability to the next epoch close.
                page.closed &= !bit;
                page.slots[slot]
            };
            let lslot = &mut self.pool[idx as usize];
            lslot.writers.insert(writer);
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            lslot.data[(s - lstart) as usize..(e - lstart) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
        }
        Ok(())
    }

    /// Batched [`PmDevice::write_visible`] for a warp's lockstep lanes: byte
    /// `j` of `bytes` was stored by writer `writer0 + j / lane_bytes`, i.e.
    /// the payload is `bytes.len() / lane_bytes` consecutive writers' stores
    /// packed contiguously (lane 0 first). Produces exactly the pending-line
    /// state of the equivalent per-lane `write_visible` calls in lane order,
    /// but touches each CPU line's directory entry once and skips the
    /// fill-from-media for lines the write fully covers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_visible_lanes(
        &mut self,
        writer0: WriterId,
        lane_bytes: u32,
        offset: u64,
        bytes: &[u8],
    ) -> SimResult<()> {
        debug_assert!(lane_bytes > 0 && bytes.len().is_multiple_of(lane_bytes as usize));
        self.check(offset, bytes.len() as u64)?;
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            if ppage >= self.pending.len() {
                self.pending.resize_with(ppage + 1, || None);
            }
            let bit = 1u64 << slot;
            let absent = match self.pending[ppage].as_deref() {
                Some(page) => page.present & bit == 0,
                None => true,
            };
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            let idx = if absent {
                let idx = self.alloc_slot();
                if e - s < CPU_LINE {
                    // Partially covered fresh line: expose media for the
                    // untouched bytes. A fully covered line skips the fill —
                    // every byte is overwritten below.
                    self.media.read(lstart, &mut self.pool[idx as usize].data);
                }
                let page = self.pending[ppage].get_or_insert_with(|| Box::new(PendingPage::new()));
                page.present |= bit;
                page.closed &= !bit;
                page.slots[slot] = idx;
                self.pending_count += 1;
                self.occ_lo = self.occ_lo.min(ppage);
                self.occ_hi = self.occ_hi.max(ppage);
                idx
            } else {
                let page = self.pending[ppage].as_deref_mut().expect("page resident");
                page.closed &= !bit;
                page.slots[slot]
            };
            let lslot = &mut self.pool[idx as usize];
            // Writers covering this line, in ascending (= lane) order.
            let w_first = writer0 + ((s - offset) / lane_bytes as u64) as WriterId;
            let w_last = writer0 + ((e - 1 - offset) / lane_bytes as u64) as WriterId;
            let n = (w_last - w_first + 1) as usize;
            match &mut lslot.writers {
                // Fresh slot with few enough lanes: fill the inline set
                // directly, skipping per-writer membership probes.
                Writers::Inline { ids, len } if *len == 0 && n <= INLINE_WRITERS => {
                    for (i, id) in ids[..n].iter_mut().enumerate() {
                        *id = w_first + i as WriterId;
                    }
                    *len = n as u8;
                }
                _ => {
                    for w in w_first..=w_last {
                        lslot.writers.insert(w);
                    }
                }
            }
            lslot.data[(s - lstart) as usize..(e - lstart) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
        }
        Ok(())
    }

    /// Reads bytes as any coherent observer would see them: durable media
    /// overlaid with pending (visible) lines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> SimResult<()> {
        self.check(offset, buf.len() as u64)?;
        self.media.read(offset, buf);
        if self.pending_count == 0 {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        for line in line_span(offset, buf.len() as u64) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let Some(page) = self.pending.get(ppage).and_then(|p| p.as_deref()) else {
                continue;
            };
            if page.present & (1u64 << slot) == 0 {
                continue;
            }
            let lstart = line * CPU_LINE;
            let data = &self.pool[page.slots[slot] as usize].data;
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            buf[(s - offset) as usize..(e - offset) as usize]
                .copy_from_slice(&data[(s - lstart) as usize..(e - lstart) as usize]);
        }
        Ok(())
    }

    /// Copies a pending line into media and clears its table entry. The
    /// caller guarantees the line is present.
    fn apply_line_at(&mut self, ppage: usize, slot: usize) {
        let line = ppage as u64 * LINES_PER_PAGE + slot as u64;
        let lstart = line * CPU_LINE;
        let end = (lstart + CPU_LINE).min(self.capacity);
        let mut buf = [0u8; CPU_LINE as usize];
        {
            let page = self.pending[ppage].as_deref_mut().expect("line present");
            let idx = page.slots[slot];
            buf.copy_from_slice(&self.pool[idx as usize].data);
            page.present &= !(1u64 << slot);
            page.closed &= !(1u64 << slot);
            self.free_slots.push(idx);
        }
        self.media.write(lstart, &buf[..(end - lstart) as usize]);
        self.pending_count -= 1;
    }

    /// Drains every pending line tagged with `writer` into media (the effect
    /// of a successful persist fence by that writer). Lines shared with other
    /// writers are drained whole — flushing is line-granular.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writer(&mut self, writer: WriterId) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = self.pending[ppage].as_deref().expect("page resident");
                if self.pool[page.slots[slot] as usize]
                    .writers
                    .contains(writer)
                {
                    self.apply_line_at(ppage, slot);
                    n += 1;
                }
            }
        }
        self.settle_watermarks();
        n
    }

    /// Drains every pending line tagged with any writer in
    /// `[writer0, writer0 + lanes)` — the effect of a warp's 32 lockstep
    /// persist fences, executed as one table scan instead of 32.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = self.pending[ppage].as_deref().expect("page resident");
                if self.pool[page.slots[slot] as usize]
                    .writers
                    .contains_range(writer0, lanes)
                {
                    self.apply_line_at(ppage, slot);
                    n += 1;
                }
            }
        }
        self.settle_watermarks();
        n
    }

    /// Epoch-persistency fence: marks every pending line tagged with `writer`
    /// as *closed* into the current persist epoch. Closed lines stay pending
    /// (a crash can still drop them) until [`PmDevice::drain_closed`] runs at
    /// the epoch boundary. Returns the number of lines newly closed.
    pub fn close_writer(&mut self, writer: WriterId) -> u64 {
        self.close_where(|writers| writers.contains(writer))
    }

    /// Batched [`PmDevice::close_writer`] over `[writer0, writer0 + lanes)`:
    /// one table scan for a warp's lockstep epoch fences.
    pub fn close_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        self.close_where(|writers| writers.contains_range(writer0, lanes))
    }

    fn close_where(&mut self, hit: impl Fn(&Writers) -> bool) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref_mut() else {
                continue;
            };
            let mut bits = page.present & !page.closed;
            while bits != 0 {
                let slot = bits.trailing_zeros();
                bits &= bits - 1;
                if hit(&self.pool[page.slots[slot as usize] as usize].writers) {
                    page.closed |= 1u64 << slot;
                    n += 1;
                }
            }
        }
        n
    }

    /// Epoch boundary: drains every closed pending line into media, in
    /// ascending address order. Returns the number of lines made durable.
    pub fn drain_closed(&mut self) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present & page.closed;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        self.settle_watermarks();
        n
    }

    /// Number of pending lines currently closed into the open persist epoch.
    pub fn closed_line_count(&self) -> usize {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        pages
            .filter_map(|p| self.pending[p].as_deref())
            .map(|p| (p.present & p.closed).count_ones() as usize)
            .sum()
    }

    /// Drains every pending line intersecting `[offset, offset+len)` into
    /// media (the effect of CLFLUSH over a range followed by SFENCE).
    ///
    /// Returns the number of lines made durable.
    pub fn persist_range(&mut self, offset: u64, len: u64) -> u64 {
        if self.pending_count == 0 {
            return 0;
        }
        let mut n = 0;
        for line in line_span(offset, len) {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            let present = self
                .pending
                .get(ppage)
                .and_then(|p| p.as_deref())
                .is_some_and(|p| p.present & (1u64 << slot) != 0);
            if present {
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        n
    }

    /// Drains all pending lines (e.g. an orderly shutdown).
    pub fn persist_all(&mut self) -> u64 {
        let Some(pages) = self.occupied_pages() else {
            return 0;
        };
        let mut n = 0;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.apply_line_at(ppage, slot);
                n += 1;
            }
        }
        self.settle_watermarks();
        n
    }

    /// Number of lines currently visible but not durable.
    pub fn pending_line_count(&self) -> usize {
        self.pending_count as usize
    }

    /// Whether any byte of `[offset, offset+len)` is pending (not durable).
    pub fn is_pending(&self, offset: u64, len: u64) -> bool {
        if self.pending_count == 0 {
            return false;
        }
        line_span(offset, len).any(|line| {
            let ppage = (line / LINES_PER_PAGE) as usize;
            let slot = (line % LINES_PER_PAGE) as usize;
            self.pending
                .get(ppage)
                .and_then(|p| p.as_deref())
                .is_some_and(|p| p.present & (1u64 << slot) != 0)
        })
    }

    /// Power failure: each pending line independently either reached media
    /// (natural eviction had already written it back) or is lost. The choice
    /// is random, modelling the unconstrained order in which a cache writes
    /// lines back. Lines are visited in ascending address order, so a given
    /// RNG state yields one reproducible crash outcome.
    pub fn crash(&mut self, rng: &mut Xoshiro256StarStar) -> CrashReport {
        self.settle(|_| rng.gen_bool(0.5))
    }

    /// Power failure with a *chosen* eviction outcome: the subset of pending
    /// lines that reach media is dictated by `policy` instead of the machine
    /// RNG. Lines are visited in the same ascending address order as
    /// [`PmDevice::crash`], so the `i`-th visited line is well defined and a
    /// `(pending state, policy)` pair always yields the same media.
    pub fn crash_with_policy(&mut self, policy: CrashPolicy) -> CrashReport {
        let mut rng = match policy {
            CrashPolicy::Random(seed) => Some(Xoshiro256StarStar::seed_from_u64(seed)),
            _ => None,
        };
        let mask = policy.gray_mask().unwrap_or(0);
        self.settle(|visited| match policy {
            CrashPolicy::AllApplied => true,
            CrashPolicy::NoneApplied => false,
            CrashPolicy::GrayCode(_) => mask >> (visited % 64) & 1 == 1,
            CrashPolicy::Random(_) => rng
                .as_mut()
                .expect("random policy has an rng")
                .gen_bool(0.5),
        })
    }

    /// The crash walk both crash flavours share: visits every pending line
    /// in ascending address order and either applies it to media or drops
    /// it, as `apply(i)` says for the `i`-th visited line.
    fn settle(&mut self, mut apply: impl FnMut(u64) -> bool) -> CrashReport {
        let mut report = CrashReport::default();
        let Some(pages) = self.occupied_pages() else {
            return report;
        };
        let mut visited = 0u64;
        for ppage in pages {
            let Some(page) = self.pending[ppage].as_deref() else {
                continue;
            };
            let mut bits = page.present;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if apply(visited) {
                    self.apply_line_at(ppage, slot);
                    report.lines_applied += 1;
                } else {
                    let page = self.pending[ppage].as_deref_mut().expect("page resident");
                    page.present &= !(1u64 << slot);
                    page.closed &= !(1u64 << slot);
                    self.free_slots.push(page.slots[slot]);
                    self.pending_count -= 1;
                    report.lines_dropped += 1;
                }
                visited += 1;
            }
        }
        self.settle_watermarks();
        report
    }

    /// Reads directly from durable media, ignoring pending lines. Intended
    /// for tests asserting what would survive an immediate crash that drops
    /// everything pending.
    pub fn read_media(&self, offset: u64, buf: &mut [u8]) -> SimResult<()> {
        self.check(offset, buf.len() as u64)?;
        self.media.read(offset, buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn durable_write_survives_crash() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_durable(100, &[9, 8, 7]).unwrap();
        pm.crash(&mut rng(1));
        let mut buf = [0u8; 3];
        pm.read(100, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
    }

    #[test]
    fn visible_write_is_readable_but_not_durable() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        pm.read(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        pm.read_media(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
        assert!(pm.is_pending(0, 4));
    }

    #[test]
    fn persist_writer_drains_only_that_writer() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 4096, &[2]).unwrap();
        assert_eq!(pm.persist_writer(1), 1);
        assert!(!pm.is_pending(0, 1));
        assert!(pm.is_pending(4096, 1));
        let mut b = [0u8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [1]);
    }

    #[test]
    fn shared_line_flushes_whole() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 8, &[2]).unwrap(); // same 64 B line
        pm.persist_writer(1);
        let mut b = [0u8; 9];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b[0], 1);
        assert_eq!(b[8], 2, "line-granular flush carries the co-located write");
    }

    #[test]
    fn persist_range_flushes_intersecting_lines() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 60, &[7; 8]).unwrap(); // spans lines 0 and 1
        assert_eq!(pm.persist_range(60, 1), 1);
        assert_eq!(pm.persist_range(64, 4), 1);
        assert!(!pm.is_pending(60, 8));
    }

    #[test]
    fn crash_applies_random_subset() {
        let mut pm = PmDevice::new(1 << 20);
        for i in 0..256u64 {
            pm.write_visible(i as WriterId, i * 64, &[i as u8; 8])
                .unwrap();
        }
        let report = pm.crash(&mut rng(42));
        assert_eq!(report.lines_applied + report.lines_dropped, 256);
        assert!(
            report.lines_applied > 32,
            "with p=0.5 over 256 lines, >32 expected"
        );
        assert!(report.lines_dropped > 32);
        assert_eq!(pm.pending_line_count(), 0);
        // Applied lines are readable from media; dropped lines read as zero.
        let mut applied = 0;
        for i in 0..256u64 {
            let mut b = [0u8];
            pm.read(i * 64, &mut b).unwrap();
            if b[0] == i as u8 && b[0] != 0 {
                applied += 1;
            }
        }
        assert!(applied > 0);
    }

    #[test]
    fn crash_outcome_is_reproducible_for_a_seed() {
        let run = |seed: u64| -> (CrashReport, Vec<u8>) {
            let mut pm = PmDevice::new(1 << 20);
            for i in 0..64u64 {
                pm.write_visible(i as WriterId, i * 64, &[i as u8 + 1; 16])
                    .unwrap();
            }
            let report = pm.crash(&mut rng(seed));
            let mut buf = vec![0u8; 64 * 64];
            pm.read_media(0, &mut buf).unwrap();
            (report, buf)
        };
        assert_eq!(run(7), run(7), "same seed, same crash outcome");
        assert_ne!(run(7).1, run(8).1, "different seeds diverge");
    }

    #[test]
    fn write_spanning_lines() {
        let mut pm = PmDevice::new(1 << 16);
        let data: Vec<u8> = (0..200u16).map(|x| x as u8).collect();
        pm.write_visible(3, 30, &data).unwrap();
        let mut buf = vec![0u8; 200];
        pm.read(30, &mut buf).unwrap();
        assert_eq!(buf, data);
        pm.persist_writer(3);
        pm.read_media(30, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn durable_write_updates_pending_copy() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1, 1, 1, 1]).unwrap();
        pm.write_durable(1, &[9, 9]).unwrap();
        let mut b = [0u8; 4];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [1, 9, 9, 1], "read must see the newest data");
        // Even if the pending line is dropped on crash, only bytes 1..3 were
        // guaranteed durable.
        let mut media = [0u8; 4];
        pm.read_media(0, &mut media).unwrap();
        assert_eq!(media[1], 9);
        assert_eq!(media[2], 9);
    }

    #[test]
    fn durable_write_retires_fully_covered_pending_lines() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 64]).unwrap();
        pm.write_visible(1, 64, &[2; 8]).unwrap();
        assert_eq!(pm.pending_line_count(), 2);
        // Covers all of line 0 but only part of line 1.
        pm.write_durable(0, &[9; 96]).unwrap();
        assert_eq!(pm.pending_line_count(), 1, "fully covered line retired");
        assert!(!pm.is_pending(0, 64));
        assert!(pm.is_pending(64, 8));
        // A crash that drops the rest cannot lose the retired line's data.
        let report = pm.crash(&mut rng(3));
        assert_eq!(report.lines_applied + report.lines_dropped, 1);
        let mut b = [0u8; 64];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [9; 64]);
    }

    #[test]
    fn retired_line_not_drained_by_later_fence() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(5, 0, &[1; 64]).unwrap();
        pm.write_durable(0, &[2; 64]).unwrap();
        assert_eq!(pm.persist_writer(5), 0, "nothing left to drain");
        let mut b = [0u8; 64];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [2; 64]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut pm = PmDevice::new(64);
        assert!(matches!(
            pm.write_durable(60, &[0; 8]),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            pm.write_visible(0, 64, &[0]),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut b = [0u8; 2];
        assert!(pm.read(63, &mut b).is_err());
        assert!(pm.read(62, &mut b).is_ok());
    }

    #[test]
    fn persist_all_drains_everything() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1]).unwrap();
        pm.write_visible(2, 1000, &[2]).unwrap();
        assert_eq!(pm.persist_all(), 2);
        assert_eq!(pm.pending_line_count(), 0);
    }

    /// 40 pending lines at 64-byte stride, payload = line index + 1.
    fn pm_with_pending_lines() -> PmDevice {
        let mut pm = PmDevice::new(1 << 20);
        for i in 0..40u64 {
            pm.write_visible(i as WriterId, i * 64, &[i as u8 + 1; 8])
                .unwrap();
        }
        pm
    }

    fn applied_lines(pm: &PmDevice) -> Vec<u64> {
        (0..40u64)
            .filter(|&i| {
                let mut b = [0u8];
                pm.read_media(i * 64, &mut b).unwrap();
                b[0] == i as u8 + 1
            })
            .collect()
    }

    #[test]
    fn policy_extremes_apply_everything_or_nothing() {
        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::AllApplied);
        assert_eq!((r.lines_applied, r.lines_dropped), (40, 0));
        assert_eq!(applied_lines(&pm).len(), 40);

        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::NoneApplied);
        assert_eq!((r.lines_applied, r.lines_dropped), (0, 40));
        assert_eq!(applied_lines(&pm), Vec::<u64>::new());
        assert_eq!(pm.pending_line_count(), 0, "dropped lines are gone");
    }

    #[test]
    fn gray_walk_visits_both_extremes() {
        // g(0) = 0 is the none-applied mask and g(GRAY_ALL_ONES) all ones —
        // the Gray walk's endpoints coincide with the two extreme policies.
        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::GrayCode(0));
        assert_eq!(r.lines_applied, 0, "gray:0 is none-applied");

        let mut pm = pm_with_pending_lines();
        let r = pm.crash_with_policy(CrashPolicy::GrayCode(CrashPolicy::GRAY_ALL_ONES));
        assert_eq!(r.lines_applied, 40, "gray:GRAY_ALL_ONES is all-applied");
        assert_eq!(
            CrashPolicy::GrayCode(CrashPolicy::GRAY_ALL_ONES).gray_mask(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn gray_neighbours_differ_in_one_line() {
        // Stepping k toggles exactly one mask bit, so the applied sets of
        // adjacent k differ by at most one line per 64-line window (exactly
        // one when fewer than 64 lines are pending).
        for k in [0u64, 1, 2, 7, 1000] {
            let mut a = pm_with_pending_lines();
            a.crash_with_policy(CrashPolicy::GrayCode(k));
            let mut b = pm_with_pending_lines();
            b.crash_with_policy(CrashPolicy::GrayCode(k + 1));
            let sa = applied_lines(&a);
            let sb = applied_lines(&b);
            let diff = sa
                .iter()
                .filter(|l| !sb.contains(l))
                .chain(sb.iter().filter(|l| !sa.contains(l)))
                .count();
            assert_eq!(diff, 1, "gray:{k} vs gray:{} must differ by 1 line", k + 1);
        }
    }

    #[test]
    fn every_policy_is_reproducible() {
        for policy in [
            CrashPolicy::AllApplied,
            CrashPolicy::NoneApplied,
            CrashPolicy::GrayCode(12345),
            CrashPolicy::Random(99),
        ] {
            let run = || {
                let mut pm = pm_with_pending_lines();
                let r = pm.crash_with_policy(policy);
                (r, applied_lines(&pm))
            };
            assert_eq!(run(), run(), "{policy} must be deterministic");
        }
        // Distinct random seeds pick distinct subsets (over 40 lines a
        // collision is a 2^-40 event).
        let subset = |seed| {
            let mut pm = pm_with_pending_lines();
            pm.crash_with_policy(CrashPolicy::Random(seed));
            applied_lines(&pm)
        };
        assert_ne!(subset(1), subset(2));
    }

    #[test]
    fn policy_round_trips_through_display() {
        for policy in [
            CrashPolicy::AllApplied,
            CrashPolicy::NoneApplied,
            CrashPolicy::GrayCode(7),
            CrashPolicy::Random(42),
        ] {
            let s = policy.to_string();
            assert_eq!(s.parse::<CrashPolicy>().unwrap(), policy, "{s}");
        }
        assert!("bogus".parse::<CrashPolicy>().is_err());
    }

    #[test]
    fn lanes_write_matches_per_lane_writes() {
        // A warp's 32 coalesced 8-byte stores, batched vs lane by lane.
        let mut batched = PmDevice::new(1 << 16);
        let mut perlane = PmDevice::new(1 << 16);
        let bytes: Vec<u8> = (0..=255u8).collect();
        // Unaligned base so head and tail lines are partially covered.
        batched.write_visible_lanes(100, 8, 24, &bytes).unwrap();
        for lane in 0..32u32 {
            let s = lane as usize * 8;
            perlane
                .write_visible(100 + lane, 24 + s as u64, &bytes[s..s + 8])
                .unwrap();
        }
        assert_eq!(batched.pending_line_count(), perlane.pending_line_count());
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        batched.read(0, &mut a).unwrap();
        perlane.read(0, &mut b).unwrap();
        assert_eq!(a, b, "visible contents must match");
        // Each lane's fence drains the same lines in both devices.
        for lane in 0..32u32 {
            assert_eq!(
                batched.persist_writer(100 + lane),
                perlane.persist_writer(100 + lane),
                "lane {lane} fence"
            );
        }
        batched.read_media(0, &mut a).unwrap();
        perlane.read_media(0, &mut b).unwrap();
        assert_eq!(a, b, "media after fences must match");
    }

    #[test]
    fn lanes_write_full_cover_skips_media_fill_correctly() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_durable(0, &[0xAB; 256]).unwrap();
        // Fully covers lines 0..4: the fill is skipped, and every byte is
        // still correct because the write overwrites the whole line.
        pm.write_visible_lanes(0, 8, 0, &[7u8; 256]).unwrap();
        let mut b = [0u8; 256];
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [7u8; 256]);
        // Drop the pending lines: media still holds the old durable bytes.
        pm.crash_with_policy(CrashPolicy::NoneApplied);
        pm.read(0, &mut b).unwrap();
        assert_eq!(b, [0xAB; 256]);
    }

    #[test]
    fn persist_writers_range_drains_exactly_the_range() {
        let mut pm = PmDevice::new(1 << 16);
        for w in 0..8u32 {
            pm.write_visible(w, w as u64 * 64, &[w as u8 + 1; 8])
                .unwrap();
        }
        assert_eq!(pm.persist_writers_range(2, 3), 3, "writers 2, 3, 4");
        assert!(!pm.is_pending(2 * 64, 8));
        assert!(!pm.is_pending(4 * 64, 8));
        assert!(pm.is_pending(0, 8));
        assert!(pm.is_pending(5 * 64, 8));
        assert_eq!(pm.persist_writers_range(0, 8), 5, "the rest");
    }

    #[test]
    fn epoch_close_defers_drain_to_boundary() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.write_visible(2, 64, &[2; 8]).unwrap();
        assert_eq!(pm.close_writer(1), 1);
        assert_eq!(pm.closed_line_count(), 1);
        // Closed lines are still pending: nothing durable yet.
        assert!(pm.is_pending(0, 8));
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [0; 8]);
        // Boundary: only the closed line drains.
        assert_eq!(pm.drain_closed(), 1);
        assert!(!pm.is_pending(0, 8));
        assert!(pm.is_pending(64, 8));
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [1; 8]);
        assert_eq!(pm.closed_line_count(), 0);
    }

    #[test]
    fn epoch_rewrite_reopens_closed_line() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.close_writer(1);
        assert_eq!(pm.closed_line_count(), 1);
        // WPQ coalescing: a rewrite folds into the queued entry and defers
        // the line to the next epoch close.
        pm.write_visible(1, 0, &[9; 8]).unwrap();
        assert_eq!(pm.closed_line_count(), 0);
        assert_eq!(pm.drain_closed(), 0);
        assert!(pm.is_pending(0, 8));
        assert_eq!(pm.close_writer(1), 1);
        assert_eq!(pm.drain_closed(), 1);
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [9; 8]);
    }

    #[test]
    fn closed_lines_still_crash_vulnerable() {
        let mut pm = PmDevice::new(1 << 16);
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        pm.close_writer(1);
        let r = pm.crash_with_policy(CrashPolicy::NoneApplied);
        assert_eq!(r.lines_dropped, 1, "epoch-closed lines can be lost");
        let mut b = [0u8; 8];
        pm.read_media(0, &mut b).unwrap();
        assert_eq!(b, [0; 8]);
        assert_eq!(pm.closed_line_count(), 0);
    }

    #[test]
    fn close_writers_range_batches_warp_fences() {
        let mut pm = PmDevice::new(1 << 16);
        for w in 0..8u32 {
            pm.write_visible(w, w as u64 * 64, &[1; 8]).unwrap();
        }
        assert_eq!(pm.close_writers_range(0, 4), 4);
        // Already-closed lines are not re-counted.
        assert_eq!(pm.close_writers_range(0, 8), 4);
        assert_eq!(pm.drain_closed(), 8);
        assert_eq!(pm.pending_line_count(), 0);
    }

    #[test]
    fn many_writers_on_one_line_spill_correctly() {
        let mut pm = PmDevice::new(1 << 16);
        // 64 byte-granular writers share one line — far beyond the inline set.
        for w in 0..64u32 {
            pm.write_visible(w, w as u64, &[w as u8 + 1]).unwrap();
        }
        assert_eq!(pm.pending_line_count(), 1);
        // A fence by the last writer drains the shared line whole.
        assert_eq!(pm.persist_writer(63), 1);
        let mut b = [0u8; 64];
        pm.read_media(0, &mut b).unwrap();
        for (w, &byte) in b.iter().enumerate() {
            assert_eq!(byte, w as u8 + 1);
        }
    }
}
