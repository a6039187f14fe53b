//! Host-side measurements: order statistics over samples, process CPU time
//! (`getrusage`) and peak resident memory (`VmHWM`, resettable through
//! `/proc/self/clear_refs`).

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Percentiles a tail is reported at, highest last.
const TAIL_QS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_QS`] with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its rank, as `(q, value)`; `None` when even the
/// median has fewer than that many beyond it (fewer than 20 samples).
/// Uses the nearest-rank definition, so the value is a measured sample.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = None;
    for q in TAIL_QS {
        // Nearest rank: the smallest sample with at least q·n at or below.
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n.saturating_sub(rank) >= TAIL_MIN_BEYOND {
            best = Some((q, v[rank - 1]));
        }
    }
    best
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time this process (every thread, live or joined)
/// has used so far.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` with a
/// valid pointer.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // of 64-bit Linux, and `getrusage` writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    tv(&ru.utime) + tv(&ru.stime)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS.
///
/// # Errors
///
/// Fails where `/proc/self/clear_refs` is missing or not writable.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median has 9 beyond it — no tail to report.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.5, 10.0)));
        // 100 samples: p90 (rank 90) has 10 beyond; p99 has only 1.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.9, 90.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((0.99, 990.0)));
    }

    #[test]
    fn cpu_time_is_monotone_and_rss_is_readable() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= a);
        reset_peak_rss().expect("clear_refs");
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
