//! Execution modes and per-run metrics for GPMbench.

use gpm_sim::{Machine, Ns, Stats};

/// How a workload persists its results (the systems compared in §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// GPM: in-kernel loads/stores to PM with `gpm_persist` (DDIO window).
    Gpm,
    /// CAP-fs: GPU computes in HBM; CPU persists through an ext4-DAX file.
    CapFs,
    /// CAP-mm: GPU computes in HBM; CPU persists through a memory-mapped
    /// file with `cpu_threads` flushing threads.
    CapMm,
    /// GPM-NDP: in-kernel stores to PM, but persistence guaranteed by the
    /// CPU afterwards (DDIO stays on; no in-kernel persist).
    GpmNdp,
    /// GPUfs: in-kernel file syscalls, persisted by the CPU+OS.
    Gpufs,
    /// CPU-only: compute *and* persist on the CPU (Figure 1 baselines).
    CpuPm,
}

impl Mode {
    /// All modes, in the order figures present them.
    pub const ALL: [Mode; 6] = [
        Mode::CapFs,
        Mode::CapMm,
        Mode::Gpm,
        Mode::GpmNdp,
        Mode::Gpufs,
        Mode::CpuPm,
    ];

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Gpm => "GPM",
            Mode::CapFs => "CAP-fs",
            Mode::CapMm => "CAP-mm",
            Mode::GpmNdp => "GPM-NDP",
            Mode::Gpufs => "GPUfs",
            Mode::CpuPm => "CPU-PM",
        }
    }
}

/// Measurements from one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunMetrics {
    /// Operation time: kernel execution plus recurring persist work
    /// (excludes one-time setup, as in Table 5's definition).
    pub elapsed: Ns,
    /// Bytes written to PM by GPU kernels (numerator of Figure 12).
    pub pm_write_bytes_gpu: u64,
    /// Bytes written to PM by the CPU (CAP transfers).
    pub pm_write_bytes_cpu: u64,
    /// Bytes whose durability was guaranteed.
    pub bytes_persisted: u64,
    /// Warp-level system fences issued.
    pub system_fences: u64,
    /// Measured restoration latency, when the run exercised recovery.
    pub recovery: Option<Ns>,
    /// Whether the workload's functional check passed.
    pub verified: bool,
}

impl RunMetrics {
    /// Bytes moved to PM by whichever side persisted (CAP's write
    /// amplification numerator, Table 4).
    pub fn pm_write_bytes_total(&self) -> u64 {
        self.pm_write_bytes_gpu + self.pm_write_bytes_cpu
    }

    /// GPU→PM PCIe write bandwidth in GB/s (Figure 12).
    pub fn pcie_write_bw(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.pm_write_bytes_gpu as f64 / self.elapsed.0
    }
}

/// Measurements from one batched kernel launch (the unit of work shared by
/// the closed-loop suite and the `gpm-serve` frontend).
#[derive(Debug, Clone, Copy)]
pub struct BatchMetrics {
    /// Operations packed into the batch.
    pub ops: u64,
    /// Sim time from upload start to commit (includes request ingestion,
    /// DMA, the kernel, and the persist/commit protocol).
    pub elapsed: Ns,
    /// Bytes written to PM by the batch's kernel.
    pub pm_write_bytes_gpu: u64,
    /// Bytes whose durability was guaranteed by the batch.
    pub bytes_persisted: u64,
}

/// Sub-buckets per power of two: each bucket spans 1/8 of its octave, so a
/// reported quantile is at most 12.5% above the true value.
const HIST_SUB: u64 = 8;
/// Total buckets: values `0..8` get exact buckets, then 8 per octave up to
/// `u64::MAX` nanoseconds (~584 years — effectively unbounded).
const HIST_BUCKETS: usize = 496;

/// A fixed-size log-bucketed latency histogram (HDR-style).
///
/// Buckets are a pure function of the value, so histograms recorded on
/// different shards [`merge`](LatencyHistogram::merge) exactly and every
/// quantile is deterministic. Values are nanoseconds truncated to `u64`;
/// negative durations clamp to zero.
///
/// # Examples
///
/// ```
/// use gpm_sim::Ns;
/// use gpm_workloads::metrics::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for i in 1..=100u64 {
///     h.record(Ns(i as f64 * 1_000.0));
/// }
/// assert_eq!(h.count(), 100);
/// assert!(h.percentile(0.99) >= Ns(99_000.0));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: f64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// Bucket index for a nanosecond value.
fn hist_bucket(ns: u64) -> usize {
    if ns < HIST_SUB {
        return ns as usize;
    }
    let log2 = 63 - ns.leading_zeros() as u64; // ns in [2^log2, 2^(log2+1))
    let sub = (ns >> (log2 - 3)) & (HIST_SUB - 1);
    ((log2 - 2) * HIST_SUB + sub) as usize
}

/// Inclusive lower edge of a bucket.
fn hist_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < HIST_SUB {
        return idx;
    }
    let g = idx / HIST_SUB;
    let sub = idx % HIST_SUB;
    (HIST_SUB + sub) << (g - 1)
}

/// Inclusive upper edge of a bucket (the largest integer value it holds).
fn hist_upper(idx: usize) -> u64 {
    if idx + 1 >= HIST_BUCKETS {
        return u64::MAX;
    }
    hist_lower(idx + 1) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Ns) {
        let ns = if d.0 <= 0.0 { 0 } else { d.0 as u64 };
        self.counts[hist_bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Adds every sample of `other` into `self`. Bucketing is value-stable,
    /// so merging per-shard histograms equals recording centrally.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples ([`Ns::ZERO`] when empty).
    pub fn mean(&self) -> Ns {
        if self.count == 0 {
            return Ns::ZERO;
        }
        Ns(self.sum_ns / self.count as f64)
    }

    /// Largest recorded sample (exact, not bucket-rounded).
    pub fn max(&self) -> Ns {
        Ns(self.max_ns as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported as the inclusive upper
    /// edge of the bucket holding that rank — never an underestimate, and
    /// at most 12.5% above the true value. An empty histogram reports
    /// [`Ns::ZERO`]. One-element [`quantiles`](LatencyHistogram::quantiles).
    pub fn percentile(&self, q: f64) -> Ns {
        self.quantiles(&[q])[0]
    }

    /// The quantiles for every `q` in `qs`, answered in one cumulative
    /// pass over the buckets: O(buckets + qs·log qs) rather than one walk
    /// per quantile. The serve reporting paths pull four or five quantiles
    /// per histogram across a whole sweep matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use gpm_sim::Ns;
    /// use gpm_workloads::metrics::LatencyHistogram;
    /// let mut h = LatencyHistogram::new();
    /// for i in 1..=100u64 {
    ///     h.record(Ns(i as f64 * 1_000.0));
    /// }
    /// let q = h.quantiles(&[0.50, 0.99]);
    /// assert_eq!(q[0], h.percentile(0.50));
    /// assert_eq!(q[1], h.percentile(0.99));
    /// ```
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Ns> {
        let mut out = vec![Ns::ZERO; qs.len()];
        if self.count == 0 {
            return out;
        }
        let rank =
            |q: f64| ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Answer in ascending rank order so one cumulative walk serves
        // every request; `out` keeps the caller's order.
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_by_key(|&i| rank(qs[i]));
        let mut seen = 0u64;
        let mut next = 0usize;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            while next < order.len() && seen >= rank(qs[order[next]]) {
                out[order[next]] = Ns(hist_upper(idx).min(self.max_ns) as f64);
                next += 1;
            }
            if next == order.len() {
                break;
            }
        }
        for &i in &order[next..] {
            out[i] = Ns(self.max_ns as f64);
        }
        out
    }

    /// Fraction of samples at or below `bound` — the SLO-attainment metric.
    /// Counts whole buckets whose upper edge fits under the bound, so the
    /// result is a (tight) lower bound. An empty histogram attains every
    /// SLO (`1.0`).
    pub fn fraction_le(&self, bound: Ns) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let bound = if bound.0 <= 0.0 { 0 } else { bound.0 as u64 };
        let mut under = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if hist_upper(idx) <= bound {
                under += c;
            } else {
                break;
            }
        }
        under as f64 / self.count as f64
    }
}

/// Meters a closure against the machine clock and counters, producing
/// [`RunMetrics`] (with `verified` filled by the caller).
///
/// # Errors
///
/// Propagates the closure's error.
pub fn metered<E>(
    machine: &mut Machine,
    f: impl FnOnce(&mut Machine) -> Result<bool, E>,
) -> Result<RunMetrics, E> {
    let t0 = machine.clock.now();
    let s0: Stats = machine.stats;
    let verified = f(machine)?;
    let d = machine.stats.delta(&s0);
    Ok(RunMetrics {
        elapsed: machine.clock.now() - t0,
        pm_write_bytes_gpu: d.pm_write_bytes_gpu,
        pm_write_bytes_cpu: d.pm_write_bytes_cpu,
        bytes_persisted: d.bytes_persisted,
        system_fences: d.system_fences,
        recovery: None,
        verified,
    })
}

/// Workload category (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Transactional updates to PM (gpKVS, gpDB).
    Transactional,
    /// Iterative long-running kernels that checkpoint (DNN, CFD, BLK, HS).
    Checkpointing,
    /// Native persistence: in-place recoverable updates (BFS, SRAD, PS).
    Native,
}

impl Category {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Transactional => "Transactional",
            Category::Checkpointing => "Checkpointing",
            Category::Native => "Native",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metered_captures_clock_and_stats() {
        let mut m = Machine::default();
        let r: Result<RunMetrics, gpm_sim::SimError> = metered(&mut m, |m| {
            m.clock.advance(Ns(500.0));
            let off = m.alloc_pm(64)?;
            m.set_ddio(false);
            m.gpu_store_pm(1, off, &[1; 8])?;
            m.gpu_system_fence(1);
            Ok(true)
        });
        let r = r.unwrap();
        assert_eq!(r.elapsed, Ns(500.0));
        assert_eq!(r.pm_write_bytes_gpu, 8);
        assert!(r.verified);
        assert!(r.pcie_write_bw() > 0.0);
    }

    #[test]
    fn histogram_bucket_edges_are_exact_and_contiguous() {
        // Values below 8 ns get exact buckets; every larger value lands in
        // a bucket whose edges bracket it with ≤12.5% overshoot.
        for v in [
            0u64,
            1,
            3,
            7,
            8,
            9,
            15,
            16,
            17,
            255,
            256,
            1023,
            1024,
            1 << 40,
        ] {
            let idx = hist_bucket(v);
            assert!(
                hist_lower(idx) <= v && v <= hist_upper(idx),
                "v={v} idx={idx}"
            );
            let mut h = LatencyHistogram::new();
            h.record(Ns(v as f64));
            let p = h.percentile(1.0).0 as u64;
            assert!(p >= v, "quantile must not underestimate: v={v} p={p}");
            assert!(p <= v + v / 8 + 1, "≤12.5% overshoot: v={v} p={p}");
        }
        // Buckets tile the axis with no gaps or overlaps.
        for idx in 0..HIST_BUCKETS - 1 {
            assert_eq!(hist_upper(idx) + 1, hist_lower(idx + 1), "idx={idx}");
        }
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_equals_central_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut central = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = Ns((i * 37 % 50_000) as f64);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            central.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), central.count());
        assert_eq!(a.max(), central.max());
        assert_eq!(a.mean(), central.mean());
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(a.percentile(q), central.percentile(q), "q={q}");
        }
        assert_eq!(
            a.fraction_le(Ns(25_000.0)),
            central.fraction_le(Ns(25_000.0))
        );
    }

    #[test]
    fn histogram_merge_then_quantiles_matches_percentile() {
        // Shard-merge first, then pull a whole quantile vector at once:
        // every element must equal the per-q `percentile` answer on the
        // merged histogram (including out-of-order and duplicate qs, the
        // clamped extremes, and q past the last bucket with samples).
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..5_000u64 {
            let v = Ns((i * 131 % 1_000_000) as f64);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        let qs = [0.99, 0.5, 0.0, 1.0, 0.5, 0.999, -0.5, 1.5];
        let got = a.quantiles(&qs);
        assert_eq!(got.len(), qs.len());
        for (q, g) in qs.iter().zip(&got) {
            assert_eq!(*g, a.percentile(*q), "q={q}");
        }
        assert_eq!(got[1], got[4], "duplicate qs answer identically");
        // Empty histogram: a zero vector, same as `percentile`.
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantiles(&[0.5, 0.99]), vec![Ns::ZERO; 2]);
        assert!(empty.quantiles(&[]).is_empty());
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), Ns::ZERO);
        assert_eq!(h.mean(), Ns::ZERO);
        assert_eq!(h.max(), Ns::ZERO);
        assert_eq!(h.fraction_le(Ns(1.0)), 1.0, "an empty stream meets any SLO");
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_negative_clamps() {
        let mut h = LatencyHistogram::new();
        h.record(Ns(-5.0)); // clamps to zero
        for i in 1..=10_000u64 {
            h.record(Ns(i as f64));
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        let p999 = h.percentile(0.999);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
        assert!(p50.0 >= 5_000.0 && p50.0 <= 5_700.0, "p50={p50}");
        assert!(h.fraction_le(Ns(10_000.0)) >= 0.875);
        // A negative bound clamps to zero: only the clamped sample fits.
        assert!(h.fraction_le(Ns(-1.0)) < 0.001);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = Mode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mode::ALL.len());
        assert_eq!(Category::Transactional.label(), "Transactional");
    }
}
