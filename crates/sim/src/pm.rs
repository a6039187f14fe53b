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
//! Media lives in [`PagedBytes`] (fixed 64 KiB pages, so growth never
//! re-zeroes established bytes). The pending lines live in one hash map from
//! line index to the line's visible bytes, its writers with un-persisted
//! stores, and whether an epoch fence has closed it. A second map, the
//! *writer index*, lists for each writer the lines whose writer set it
//! joined, so a fence or an epoch close visits only the fencing writers'
//! lines. An entry goes stale when its line drains some other way (a range
//! flush, an epoch drain, a durable write, another writer's fence); lookups
//! skip stale entries, and a prune drops them once they outnumber the live
//! ones plus a small constant. A range flush probes its own span's lines
//! when the span is shorter than the pending set, and otherwise makes one
//! pass over the pending lines, as an epoch drain does. So every drain costs
//! what it drains, not the address span or the pending lines of other
//! writers. A crash sorts the pending lines by address before it consults its
//! policy, so "the `i`-th line" of a [`CrashPolicy`] means the `i`-th lowest
//! address.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{line_span, CPU_LINE};
use crate::error::{SimError, SimResult};
use crate::paged::PagedBytes;
use crate::rng::Xoshiro256StarStar;

/// Identifies the agent (GPU thread, CPU thread, DMA engine) that issued a
/// write, so that a fence by that agent persists exactly its own lines.
pub type WriterId = u32;

/// Reserved writer id for host-side bulk operations (DMA, file writes).
pub const HOST_WRITER: WriterId = u32::MAX;

/// Writers tracked inline per line before spilling to the heap. A coalesced
/// warp store puts up to `CPU_LINE / 4 = 16` distinct writers on one line;
/// eight covers the common stride-8 and mixed cases without spilling.
const INLINE_WRITERS: usize = 8;

/// Lines tracked inline per writer in the writer index before spilling to
/// the heap. Up to three the inline list is no larger than the spilled
/// `Vec` it shares an enum with, and most writers hold one or two lines
/// between fences.
const INLINE_LINES: usize = 3;

/// Stale writer-index entries tolerated beyond the live ones before a prune
/// runs: the index holds at most `2 × live + INDEX_SLACK` entries.
const INDEX_SLACK: usize = 64;

/// A short list kept inline, spilling to a `Vec` past `N` items.
#[derive(Debug, Clone)]
enum SmallList<T, const N: usize> {
    Inline { items: [T; N], len: u8 },
    Spill(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList::Inline {
            items: [T::default(); N],
            len: 0,
        }
    }
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    fn as_slice(&self) -> &[T] {
        match self {
            SmallList::Inline { items, len } => &items[..*len as usize],
            SmallList::Spill(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            SmallList::Inline { items, len } => &mut items[..*len as usize],
            SmallList::Spill(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn push(&mut self, x: T) {
        match self {
            SmallList::Inline { items, len } if (*len as usize) < N => {
                items[*len as usize] = x;
                *len += 1;
            }
            SmallList::Inline { items, .. } => {
                let mut v = items.to_vec();
                v.push(x);
                *self = SmallList::Spill(v);
            }
            SmallList::Spill(v) => v.push(x),
        }
    }

    /// Keeps the items `keep` accepts, in order; `keep` sees every item once.
    fn retain(&mut self, mut keep: impl FnMut(T) -> bool) {
        match self {
            SmallList::Inline { items, len } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            SmallList::Spill(v) => v.retain(|&x| keep(x)),
        }
    }
}

/// The set of writers with un-persisted stores to one line. Inline up to
/// [`INLINE_WRITERS`] ids; spills to a `Vec` only for byte-granular sharing.
type Writers = SmallList<WriterId, INLINE_WRITERS>;

impl Writers {
    fn contains(&self, w: WriterId) -> bool {
        self.as_slice().contains(&w)
    }

    /// Adds `w`; returns whether it was new to the set.
    fn insert(&mut self, w: WriterId) -> bool {
        let new = !self.contains(w);
        if new {
            self.push(w);
        }
        new
    }
}

/// The lines one writer joined the writer set of, as the writer index holds
/// them: some may have drained since (stale entries).
type WriterLines = SmallList<u64, INLINE_LINES>;

/// One pending cache line.
#[derive(Debug)]
struct Line {
    /// The line's visible contents.
    data: [u8; CPU_LINE as usize],
    /// Writers with un-persisted stores to the line.
    writers: Writers,
    /// Closed into the current persist epoch by an epoch-persistency fence,
    /// so the epoch-boundary drain will make it durable. A later rewrite
    /// reopens the line: the WPQ coalesces the new store into the queued
    /// entry, deferring it to the next epoch.
    closed: bool,
}

/// Hashes a line index or a writer id with one multiply by 2^64/φ, rotated
/// so that the well-mixed high bits of the product pick the bucket. The
/// simulator makes up the keys itself, so the maps need no resistance to
/// hash flooding.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line indices and writer ids hash through write_u64");
    }

    fn write_u32(&mut self, writer: u32) {
        self.write_u64(u64::from(writer));
    }

    fn write_u64(&mut self, line: u64) {
        self.0 = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Copies pending line `line` into media, cut at the device capacity.
fn write_line(media: &mut PagedBytes, capacity: u64, line: u64, data: &[u8; CPU_LINE as usize]) {
    let lstart = line * CPU_LINE;
    let end = (lstart + CPU_LINE).min(capacity);
    media.write(lstart, &data[..(end - lstart) as usize]);
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
    /// Pending lines by line index (byte offset / [`CPU_LINE`]).
    lines: IdMap<u64, Line>,
    /// The writer index: for each writer, the lines whose writer set it
    /// joined. Every (writer, pending line holding it) pair is listed at
    /// least once; an entry whose line drained, or whose line was drained
    /// and rewritten without this writer, is stale. No list is empty.
    index: IdMap<WriterId, WriterLines>,
    /// Entries in `index`, stale ones included.
    index_len: usize,
    /// (writer, line) pairs over the pending lines: the live entries.
    live_pairs: usize,
}

impl PmDevice {
    /// Creates a device with the given capacity in bytes. Media is allocated
    /// lazily, page by page, as it is touched.
    pub fn new(capacity: u64) -> PmDevice {
        PmDevice {
            media: PagedBytes::new(),
            capacity,
            lines: IdMap::default(),
            index: IdMap::default(),
            index_len: 0,
            live_pairs: 0,
        }
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
        if self.lines.is_empty() {
            return Ok(());
        }
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let lend = (lstart + CPU_LINE).min(self.capacity);
            if offset <= lstart && end >= lend {
                if let Some(l) = self.lines.remove(&line) {
                    self.live_pairs -= l.writers.len();
                }
            } else if let Some(l) = self.lines.get_mut(&line) {
                let s = offset.max(lstart);
                let e = end.min(lstart + CPU_LINE);
                l.data[(s - lstart) as usize..(e - lstart) as usize]
                    .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
            }
        }
        self.prune_if_stale();
        Ok(())
    }

    /// Writes bytes that are visible to all observers but not yet durable:
    /// [`PmDevice::write_visible_lanes`] with one lane. A zero-length store
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_visible(&mut self, writer: WriterId, offset: u64, bytes: &[u8]) -> SimResult<()> {
        self.write_visible_lanes(writer, bytes.len() as u32, offset, bytes)
    }

    /// Visible-but-not-durable stores by a warp's lockstep lanes: byte `j`
    /// of `bytes` was stored by writer `writer0 + j / lane_bytes`, i.e. the
    /// payload is `bytes.len() / lane_bytes` consecutive writers' stores
    /// packed contiguously (lane 0 first). Produces exactly the pending-line
    /// state of the per-lane stores in lane order, but touches each CPU line
    /// once and skips the fill-from-media for lines the write fully covers.
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
        debug_assert!(
            bytes.is_empty() || lane_bytes > 0 && bytes.len().is_multiple_of(lane_bytes as usize)
        );
        self.check(offset, bytes.len() as u64)?;
        let end = offset + bytes.len() as u64;
        for line in line_span(offset, bytes.len() as u64) {
            let lstart = line * CPU_LINE;
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            let l = match self.lines.entry(line) {
                Entry::Occupied(o) => {
                    let l = o.into_mut();
                    // Rewriting a queued line reopens it: the WPQ coalesces
                    // the new store, deferring durability to the next epoch.
                    l.closed = false;
                    l
                }
                Entry::Vacant(v) => {
                    // Built in place: moving a filled 112-byte line into
                    // the map made a store+fence pair about 10% slower.
                    let l = v.insert(Line {
                        data: [0; CPU_LINE as usize],
                        writers: Writers::default(),
                        closed: false,
                    });
                    if e - s < CPU_LINE {
                        // Partially covered fresh line: expose media for the
                        // untouched bytes. A fully covered line skips the
                        // fill — every byte is overwritten below.
                        self.media.read(lstart, &mut l.data);
                    }
                    l
                }
            };
            // Writers covering this line, in ascending (= lane) order. Each
            // one new to the line's writer set gets a writer-index entry.
            let w_first = writer0 + ((s - offset) / lane_bytes as u64) as WriterId;
            let w_last = writer0 + ((e - 1 - offset) / lane_bytes as u64) as WriterId;
            let n = (w_last - w_first + 1) as usize;
            let mut joined = 0;
            match &mut l.writers {
                // Fresh line with few enough lanes: fill the inline set
                // directly, skipping per-writer membership probes.
                Writers::Inline { items, len } if *len == 0 && n <= INLINE_WRITERS => {
                    for (i, id) in items[..n].iter_mut().enumerate() {
                        *id = w_first + i as WriterId;
                        self.index.entry(*id).or_default().push(line);
                    }
                    *len = n as u8;
                    joined = n;
                }
                _ => {
                    for w in w_first..=w_last {
                        if l.writers.insert(w) {
                            self.index.entry(w).or_default().push(line);
                            joined += 1;
                        }
                    }
                }
            }
            self.index_len += joined;
            self.live_pairs += joined;
            l.data[(s - lstart) as usize..(e - lstart) as usize]
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
        if self.lines.is_empty() {
            return Ok(());
        }
        let end = offset + buf.len() as u64;
        for line in line_span(offset, buf.len() as u64) {
            let Some(l) = self.lines.get(&line) else {
                continue;
            };
            let lstart = line * CPU_LINE;
            let s = offset.max(lstart);
            let e = end.min(lstart + CPU_LINE);
            buf[(s - offset) as usize..(e - offset) as usize]
                .copy_from_slice(&l.data[(s - lstart) as usize..(e - lstart) as usize]);
        }
        Ok(())
    }

    /// Drains every pending line `pick` selects into media, in one pass over
    /// the pending lines: the epoch drain, and a range flush whose span
    /// covers at least as many lines as are pending. Returns the number of
    /// lines made durable.
    ///
    /// `retain` drops a drained line where it sits; `extract_if` would move
    /// each 112-byte line out of the map first.
    fn drain_where(&mut self, mut pick: impl FnMut(u64, &Line) -> bool) -> u64 {
        let mut n = 0;
        let (media, capacity, live_pairs) = (&mut self.media, self.capacity, &mut self.live_pairs);
        self.lines.retain(|&line, l| {
            let drain = pick(line, l);
            if drain {
                write_line(media, capacity, line, &l.data);
                *live_pairs -= l.writers.len();
                n += 1;
            }
            !drain
        });
        self.prune_if_stale();
        n
    }

    /// Drains pending line `line` into media if it is pending and `pick`
    /// accepts it, with one probe of the line map. Returns whether it
    /// drained.
    fn drain_line(&mut self, line: u64, pick: impl FnOnce(&Line) -> bool) -> bool {
        let Entry::Occupied(o) = self.lines.entry(line) else {
            return false;
        };
        if !pick(o.get()) {
            return false;
        }
        let l = o.remove();
        write_line(&mut self.media, self.capacity, line, &l.data);
        self.live_pairs -= l.writers.len();
        true
    }

    /// Drops the writer index's stale entries, and repeats of one entry,
    /// once the index holds more than `2 × live + INDEX_SLACK` entries. A
    /// prune visits every entry, but at least half of them are stale and go,
    /// so its cost is constant per entry ever made.
    fn prune_if_stale(&mut self) {
        if self.index_len <= 2 * self.live_pairs + INDEX_SLACK {
            return;
        }
        let lines = &self.lines;
        let mut len = 0;
        self.index.retain(|&w, own| {
            // Sorted, the entries of a line that `w` wrote, saw drained and
            // wrote again sit side by side.
            own.as_mut_slice().sort_unstable();
            let mut prev = None;
            own.retain(|line| {
                prev.replace(line) != Some(line)
                    && lines.get(&line).is_some_and(|l| l.writers.contains(w))
            });
            len += own.len();
            own.len() > 0
        });
        debug_assert_eq!(len, self.live_pairs, "one entry per live pair");
        self.index_len = len;
    }

    /// Drains every pending line tagged with `writer` into media (the effect
    /// of a successful persist fence by that writer): the one-lane
    /// [`PmDevice::persist_writers_range`]. Lines shared with other writers
    /// are drained whole — flushing is line-granular.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writer(&mut self, writer: WriterId) -> u64 {
        self.persist_writers_range(writer, 1)
    }

    /// Drains every pending line tagged with any writer in
    /// `[writer0, writer0 + lanes)` (wrapping at `u32::MAX`): the effect of a
    /// warp's lockstep persist fences. Each writer's index entries are taken
    /// and each listed line still pending and still holding that writer is
    /// drained, so the cost follows the fencing writers' lines, not every
    /// pending line.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let mut n = 0;
        for w in (0..lanes).map(|i| writer0.wrapping_add(i)) {
            let Some(own) = self.index.remove(&w) else {
                continue;
            };
            self.index_len -= own.len();
            for &line in own.as_slice() {
                n += u64::from(self.drain_line(line, |l| l.writers.contains(w)));
            }
        }
        self.prune_if_stale();
        n
    }

    /// Epoch-persistency fence: marks every pending line tagged with `writer`
    /// as *closed* into the current persist epoch (the one-lane
    /// [`PmDevice::close_writers_range`]). Closed lines stay pending (a crash
    /// can still drop them) until [`PmDevice::drain_closed`] runs at the
    /// epoch boundary. Returns the number of lines newly closed.
    pub fn close_writer(&mut self, writer: WriterId) -> u64 {
        self.close_writers_range(writer, 1)
    }

    /// Epoch-persistency fences by `[writer0, writer0 + lanes)` (wrapping at
    /// `u32::MAX`): walks those writers' index entries, closes each live
    /// entry's line and drops the stale entries. Returns the number of lines
    /// newly closed; a line shared by several of the writers counts once.
    pub fn close_writers_range(&mut self, writer0: WriterId, lanes: u32) -> u64 {
        let mut n = 0;
        for w in (0..lanes).map(|i| writer0.wrapping_add(i)) {
            let Entry::Occupied(mut own) = self.index.entry(w) else {
                continue;
            };
            let before = own.get().len();
            own.get_mut()
                .retain(|line| match self.lines.get_mut(&line) {
                    Some(l) if l.writers.contains(w) => {
                        n += u64::from(!l.closed);
                        l.closed = true;
                        true
                    }
                    _ => false,
                });
            let after = own.get().len();
            self.index_len -= before - after;
            if after == 0 {
                own.remove();
            }
        }
        n
    }

    /// Epoch boundary: drains every closed pending line into media, in one
    /// pass over the pending lines (one per kernel). Returns the number of
    /// lines made durable.
    pub fn drain_closed(&mut self) -> u64 {
        self.drain_where(|_, l| l.closed)
    }

    /// Number of pending lines currently closed into the open persist epoch.
    pub fn closed_line_count(&self) -> usize {
        self.lines.values().filter(|l| l.closed).count()
    }

    /// Drains every pending line intersecting `[offset, offset+len)` into
    /// media (the effect of CLFLUSH over a range followed by SFENCE). A span
    /// of fewer lines than are pending probes its own lines, as
    /// [`PmDevice::read`] does; a longer one makes one pass over the pending
    /// lines. Either way the cost follows the smaller of the two.
    ///
    /// Returns the number of lines made durable.
    pub fn persist_range(&mut self, offset: u64, len: u64) -> u64 {
        let span = line_span(offset, len);
        if span.end - span.start >= self.lines.len() as u64 {
            return self.drain_where(|line, _| span.contains(&line));
        }
        let n = span.filter(|&line| self.drain_line(line, |_| true)).count();
        self.prune_if_stale();
        n as u64
    }

    /// Number of lines currently visible but not durable.
    pub fn pending_line_count(&self) -> usize {
        self.lines.len()
    }

    /// Whether any byte of `[offset, offset+len)` is pending (not durable).
    pub fn is_pending(&self, offset: u64, len: u64) -> bool {
        !self.lines.is_empty() && line_span(offset, len).any(|line| self.lines.contains_key(&line))
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
        let mut lines: Vec<(u64, Line)> = self.lines.drain().collect();
        lines.sort_unstable_by_key(|&(line, _)| line);
        self.index.clear();
        self.index_len = 0;
        self.live_pairs = 0;
        let mut report = CrashReport::default();
        for (visited, (line, l)) in lines.iter().enumerate() {
            if apply(visited as u64) {
                write_line(&mut self.media, self.capacity, *line, &l.data);
                report.lines_applied += 1;
            } else {
                report.lines_dropped += 1;
            }
        }
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
    fn index_stays_proportional_to_pending_lines() {
        let mut pm = PmDevice::new(1 << 20);
        // Writer 1's line stays pending throughout; nothing below drains it.
        pm.write_visible(1, 0, &[1; 8]).unwrap();
        let counted = |pm: &PmDevice| {
            assert!(pm.index.values().all(|own| own.len() > 0), "no empty list");
            let entries: usize = pm.index.values().map(|own| own.len()).sum();
            let live: usize = pm.lines.values().map(|l| l.writers.len()).sum();
            assert_eq!((entries, live), (pm.index_len, pm.live_pairs));
        };
        for i in 0..100_000u64 {
            // Lines 1..=512 recur, and writer `2 + i % 4096` comes back to the
            // same line, so entries of drained lines meet their rewrites.
            let line = 1 + i * 7 % 512;
            let writer = 2 + (i % 4096) as WriterId;
            pm.write_visible(writer, line * CPU_LINE, &[2; 8]).unwrap();
            let host_line = 1 + i * 13 % 512;
            pm.write_visible(HOST_WRITER, host_line * CPU_LINE + 32, &[3; 8])
                .unwrap();
            // The host flushes and rewrites line 513 every round, so its
            // stale entries there sit beside a live one.
            pm.persist_range(513 * CPU_LINE, 8);
            pm.write_visible(HOST_WRITER, 513 * CPU_LINE, &[5; 8])
                .unwrap();
            match i % 8 {
                0 => {
                    pm.persist_range(line * CPU_LINE, 8);
                }
                1 => pm.write_durable(host_line * CPU_LINE, &[4; 64]).unwrap(),
                2 => {
                    pm.close_writer(writer);
                    pm.drain_closed();
                }
                // Every line but writer 1's, in one pass.
                3 if i % 64 == 3 => {
                    pm.persist_range(CPU_LINE, 512 * CPU_LINE);
                }
                _ => {}
            }
            assert!(
                pm.index_len <= 2 * pm.live_pairs + INDEX_SLACK,
                "round {i}: {} entries for {} live pairs",
                pm.index_len,
                pm.live_pairs
            );
            if i % 1000 == 0 {
                counted(&pm);
            }
        }
        counted(&pm);
        assert_eq!(pm.persist_writer(1), 1);
        assert!(!pm.is_pending(0, 8));
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
