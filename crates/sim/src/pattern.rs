//! Access-pattern classification for PM writes.
//!
//! Optane's bandwidth depends heavily on the access pattern: sequential
//! 256-byte-aligned accesses achieve ~12.5 GB/s, sequential unaligned ~3.13
//! GB/s, and random ~0.72 GB/s (paper §6.1, citing the device's internal
//! 256-byte write-combining buffer). The [`PatternTracker`] observes the
//! stream of write transactions a kernel (or CPU loop) issues and classifies
//! each, so the timing model can derive the effective bandwidth that the
//! paper's Figure 12 explains.
//!
//! Classification works on *runs*: contiguous stretches of one stream
//! between persist barriers. A fence forces the device's write-combining
//! buffer to drain, so a run that has not yet filled an aligned 256-byte
//! block behaves like an unaligned (read-modify-write) access even if the
//! stream as a whole is dense. This is why the paper's checkpointing
//! workloads (long unfenced streams) reach peak bandwidth while its
//! transactional workloads (a fence per update) do not.

use crate::addr::OPTANE_BLOCK;
use crate::config::MachineConfig;

/// The three bandwidth classes of Optane accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Sequential run that fills aligned 256-byte device blocks: peak
    /// bandwidth.
    SeqAligned,
    /// Sequential but short or misaligned runs: the device read-modify-writes
    /// its internal buffer.
    SeqUnaligned,
    /// Isolated accesses: every one opens a new internal buffer entry.
    Random,
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Where the next contiguous transaction would begin.
    end: u64,
    /// Start of the current run (reset at each persist barrier).
    run_start: u64,
    /// Bytes accumulated in the current run.
    run_len: u64,
}

/// Streaming classifier over PM write transactions.
///
/// Tracks a small window of concurrent streams (one per active warp,
/// typically) so interleaved sequential writers still classify as
/// sequential, as the interleaved NVDIMMs would see them.
///
/// # Examples
///
/// ```
/// use gpm_sim::pattern::{AccessPattern, PatternTracker};
/// let mut t = PatternTracker::new();
/// for i in 0..8 {
///     t.record(i * 128, 128); // one long unfenced stream
/// }
/// assert!(t.bytes_in(AccessPattern::SeqAligned) >= 6 * 128);
/// t.record(1 << 20, 8); // a small jump: random
/// assert!(t.bytes_in(AccessPattern::Random) >= 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternTracker {
    streams: Vec<Stream>,
    bytes: [u64; 3],
    txns: [u64; 3],
}

/// Number of concurrent sequential streams the classifier tracks. Optane
/// DIMMs track a handful of write-combining streams; beyond that, accesses
/// behave as random.
const STREAM_WINDOW: usize = 32;

impl PatternTracker {
    /// Creates an empty tracker.
    pub fn new() -> PatternTracker {
        PatternTracker::default()
    }

    /// Records one write transaction and returns its classification.
    pub fn record(&mut self, offset: u64, len: u64) -> AccessPattern {
        let pat = self.classify_and_update(offset, len);
        self.bytes[pat as usize] += len;
        self.txns[pat as usize] += 1;
        pat
    }

    fn classify_and_update(&mut self, offset: u64, len: u64) -> AccessPattern {
        if let Some(s) = self.streams.iter_mut().find(|s| s.end == offset) {
            s.end = offset + len;
            s.run_len += len;
            return if s.run_start % OPTANE_BLOCK == 0 && s.run_len >= OPTANE_BLOCK {
                AccessPattern::SeqAligned
            } else {
                AccessPattern::SeqUnaligned
            };
        }
        // New stream head.
        if self.streams.len() == STREAM_WINDOW {
            self.streams.remove(0);
        }
        self.streams.push(Stream {
            end: offset + len,
            run_start: offset,
            run_len: len,
        });
        if offset.is_multiple_of(OPTANE_BLOCK) && len >= OPTANE_BLOCK {
            AccessPattern::SeqAligned
        } else {
            AccessPattern::Random
        }
    }

    /// A persist barrier (system-scope fence): the device's write-combining
    /// buffers drain, so every stream's current run ends. Contiguity is
    /// remembered; alignment credit is not.
    pub fn barrier(&mut self) {
        for s in &mut self.streams {
            s.run_start = s.end;
            s.run_len = 0;
        }
    }

    /// Total bytes recorded in the given class.
    pub fn bytes_in(&self, pat: AccessPattern) -> u64 {
        self.bytes[pat as usize]
    }

    /// Total bytes recorded across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total transactions recorded across all classes.
    pub fn total_txns(&self) -> u64 {
        self.txns.iter().sum()
    }

    /// Effective PM write bandwidth in GB/s for the recorded mix: the
    /// byte-weighted harmonic mean of the per-class bandwidths.
    ///
    /// Returns the peak sequential-aligned bandwidth if nothing was recorded.
    pub fn effective_bandwidth(&self, cfg: &MachineConfig) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return cfg.pm_bw_seq_aligned;
        }
        let bws = [
            cfg.pm_bw_seq_aligned,
            cfg.pm_bw_seq_unaligned,
            cfg.pm_bw_random,
        ];
        let time: f64 = self
            .bytes
            .iter()
            .zip(bws)
            .map(|(&b, bw)| b as f64 / bw)
            .sum();
        total as f64 / time
    }

    /// Merges another tracker's counts into this one (stream state is not
    /// merged; use for aggregating per-kernel trackers).
    pub fn absorb(&mut self, other: &PatternTracker) {
        for i in 0..3 {
            self.bytes[i] += other.bytes[i];
            self.txns[i] += other.txns[i];
        }
    }

    /// Counter-wise difference `self - earlier` (stream state dropped); use
    /// to meter one run against a baseline snapshot.
    #[must_use]
    pub fn delta(&self, earlier: &PatternTracker) -> PatternTracker {
        let mut d = PatternTracker::new();
        for i in 0..3 {
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
            d.txns[i] = self.txns[i] - earlier.txns[i];
        }
        d
    }

    /// Clears all recorded state.
    pub fn reset(&mut self) {
        self.streams.clear();
        self.bytes = [0; 3];
        self.txns = [0; 3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn long_unfenced_stream_is_aligned() {
        let mut t = PatternTracker::new();
        for i in 0..100u64 {
            t.record(i * 128, 128);
        }
        // Head txn is a random head; second is still filling the first block;
        // everything after runs at peak.
        assert!(t.bytes_in(AccessPattern::SeqAligned) >= 98 * 128);
        let bw = t.effective_bandwidth(&cfg());
        assert!(bw > 0.8 * cfg().pm_bw_seq_aligned);
    }

    #[test]
    fn fence_per_block_degrades_to_mixed() {
        // A warp writes 2×128 B then fences, repeatedly (the §3.2 persist
        // microbenchmark): runs never accumulate alignment credit past 256 B.
        let mut t = PatternTracker::new();
        for i in 0..100u64 {
            t.record(i * 256, 128);
            t.record(i * 256 + 128, 128);
            t.barrier();
        }
        let aligned = t.bytes_in(AccessPattern::SeqAligned);
        let unaligned = t.bytes_in(AccessPattern::SeqUnaligned);
        assert!(aligned > 0 && unaligned > 0, "expected a mix, got {t:?}");
        let bw = t.effective_bandwidth(&cfg());
        assert!(bw < 0.6 * cfg().pm_bw_seq_aligned);
        assert!(bw > cfg().pm_bw_seq_unaligned);
    }

    #[test]
    fn misaligned_stream_with_fences_is_unaligned() {
        // gpDB INSERT-like: 120-byte rows, fence per row.
        let mut t = PatternTracker::new();
        t.record(0, 120);
        t.barrier();
        for i in 1..100u64 {
            t.record(i * 120, 120);
            t.barrier();
        }
        assert!(t.bytes_in(AccessPattern::SeqUnaligned) >= 99 * 120);
        let bw = t.effective_bandwidth(&cfg());
        assert!((bw - cfg().pm_bw_seq_unaligned).abs() < 0.5);
    }

    #[test]
    fn random_accesses() {
        let mut t = PatternTracker::new();
        let mut off = 1u64;
        for _ in 0..200 {
            off = (off.wrapping_mul(6364136223846793005).wrapping_add(1)) % (1 << 26);
            t.record(off & !7, 8);
            t.barrier();
        }
        let total = t.total_bytes();
        assert!(t.bytes_in(AccessPattern::Random) as f64 > 0.9 * total as f64);
        let bw = t.effective_bandwidth(&cfg());
        assert!(
            bw < 1.0,
            "random-dominated mix should be near 0.72 GB/s, got {bw}"
        );
    }

    #[test]
    fn interleaved_streams_stay_sequential() {
        // Two interleaved sequential streams (e.g. two warps).
        let mut t = PatternTracker::new();
        let base_b = 1 << 20;
        for i in 0..50u64 {
            t.record(i * 256, 256);
            t.record(base_b + i * 256, 256);
        }
        assert_eq!(t.bytes_in(AccessPattern::SeqAligned), 100 * 256);
    }

    #[test]
    fn effective_bandwidth_is_weighted() {
        let mut t = PatternTracker::new();
        for i in 0..1000u64 {
            t.record(i * 256, 256);
        }
        let bw_pure = t.effective_bandwidth(&cfg());
        let mut off = 7u64;
        for _ in 0..1000 {
            off = (off.wrapping_mul(2862933555777941757).wrapping_add(3037)) % (1 << 27);
            t.record(off & !7 | 4, 8);
            t.barrier();
        }
        let bw_mixed = t.effective_bandwidth(&cfg());
        assert!(bw_mixed < bw_pure);
        assert!(bw_mixed > cfg().pm_bw_random);
    }

    #[test]
    fn empty_tracker_defaults_to_peak() {
        let t = PatternTracker::new();
        assert_eq!(t.effective_bandwidth(&cfg()), cfg().pm_bw_seq_aligned);
    }

    #[test]
    fn absorb_and_delta() {
        let mut a = PatternTracker::new();
        let mut b = PatternTracker::new();
        a.record(0, 256);
        b.record(0, 256);
        b.record(999, 8);
        a.absorb(&b);
        assert_eq!(a.total_bytes(), 256 + 256 + 8);
        assert_eq!(a.total_txns(), 3);

        let snapshot = a.clone();
        a.record(4096, 256);
        let d = a.delta(&snapshot);
        assert_eq!(d.total_bytes(), 256);
        assert_eq!(d.total_txns(), 1);
    }

    #[test]
    fn reset_clears() {
        let mut t = PatternTracker::new();
        t.record(0, 256);
        t.reset();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.total_txns(), 0);
    }

    #[test]
    fn barrier_resets_alignment_credit_not_contiguity() {
        let mut t = PatternTracker::new();
        t.record(0, 256); // aligned head
        t.barrier();
        // Contiguous continuation after the barrier: sequential, but must
        // re-earn alignment.
        let p = t.record(256, 128);
        assert_eq!(p, AccessPattern::SeqUnaligned);
        let p = t.record(384, 128);
        assert_eq!(p, AccessPattern::SeqAligned, "run refilled a 256 B block");
    }
}
