//! # gpm-integration — cross-crate tests and their property runner
//!
//! The integration and property suites under `tests/` are wired through
//! this crate. Its library is the seeded property runner they share:
//! [`check`] draws a fixed number of inputs from the in-tree
//! [`gpm_sim::rng`], each seeded by a pure function of the property's name
//! and the case index, so every run replays the same cases. A failing case
//! is shrunk by halving the collection-size cap while it still fails, and
//! reported as one line that names the property, case, seed, size, reason
//! and input; `cargo test <name>` reproduces it.
//!
//! ```
//! use gpm_integration::{check, len, range};
//!
//! check("sum_is_commutative", 64, 16, |rng, size| {
//!     (0..len(rng, 1, size)).map(|_| range(rng, 0, 1_000)).collect::<Vec<_>>()
//! }, |xs| {
//!     let forward: u64 = xs.iter().sum();
//!     let backward: u64 = xs.iter().rev().sum();
//!     assert_eq!(forward, backward);
//!     Ok(())
//! });
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpm_sim::rng::SplitMix64;
pub use gpm_sim::rng::Xoshiro256StarStar as Rng;

/// The default case budget of a property: fixed, so every run of the suite
/// checks the same cases.
pub const CASES: u32 = 256;

/// Runs property `prop` on `cases` inputs drawn by `gen`.
///
/// `gen(rng, size)` draws one input with every collection at most `size`
/// long; the first attempt of each case gets `max_size`. A case fails when
/// `prop` returns `Err` or panics. The failing seed is then rerun with
/// `size` halved for as long as it still fails.
///
/// # Panics
///
/// Panics on the first failing case with a one-line report: property name,
/// case index, seed, final size, reason and the `{:?}` of the final input.
pub fn check<T: Debug>(
    name: &str,
    cases: u32,
    max_size: usize,
    gen: impl Fn(&mut Rng, usize) -> T,
    prop: impl Fn(&T) -> Result<(), String>,
) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let Some(mut failure) = run_case(seed, max_size, &gen, &prop) else {
            continue;
        };
        let mut size = max_size;
        while size > 0 {
            match run_case(seed, size / 2, &gen, &prop) {
                Some(smaller) => {
                    size /= 2;
                    failure = smaller;
                }
                None => break,
            }
        }
        let (input, reason) = failure;
        panic!(
            "property {name} failed at case {case} (seed {seed:#018x}, size {size}): {reason}; input: {input:?}"
        );
    }
}

/// A length in `min..=size`; exactly `min` once shrinking has taken `size`
/// below it.
pub fn len(rng: &mut Rng, min: usize, size: usize) -> usize {
    min + rng.gen_range_usize(size.saturating_sub(min) + 1)
}

/// A uniform integer in `lo..hi`.
///
/// # Panics
///
/// Panics if the range is empty.
pub fn range(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.gen_range_u64(hi - lo)
}

/// The seed of case `case` of property `name`: FNV-1a of the name, mixed
/// with the index through SplitMix64.
fn case_seed(name: &str, case: u32) -> u64 {
    let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    });
    SplitMix64::new(hash ^ case as u64).next_u64()
}

/// Draws the input for `seed` at `size` and runs the property on it:
/// `None` when it holds, else the input and the reason on one line.
fn run_case<T>(
    seed: u64,
    size: usize,
    gen: &impl Fn(&mut Rng, usize) -> T,
    prop: &impl Fn(&T) -> Result<(), String>,
) -> Option<(T, String)> {
    let input = gen(&mut Rng::seed_from_u64(seed), size);
    let reason = match catch_unwind(AssertUnwindSafe(|| prop(&input))) {
        Ok(Ok(())) => return None,
        Ok(Err(reason)) => reason,
        Err(payload) => format!("panicked: {}", panic_message(payload.as_ref())),
    };
    let one_line: Vec<&str> = reason.lines().map(str::trim).collect();
    Some((input, one_line.join("; ")))
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    fn draw_vec(rng: &mut Rng, size: usize) -> Vec<u64> {
        (0..len(rng, 0, size)).map(|_| rng.next_u64()).collect()
    }

    fn inputs_of(name: &str) -> Vec<Vec<u64>> {
        let seen = RefCell::new(Vec::new());
        check(name, 16, 8, draw_vec, |xs| {
            seen.borrow_mut().push(xs.clone());
            Ok(())
        });
        seen.into_inner()
    }

    fn failure_report(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the property must fail");
        panic_message(payload.as_ref()).to_string()
    }

    #[test]
    fn same_name_draws_the_same_inputs() {
        let first = inputs_of("replayed");
        assert_eq!(first.len(), 16);
        assert_eq!(first, inputs_of("replayed"));
        assert_ne!(first, inputs_of("another"));
    }

    #[test]
    fn failing_case_shrinks_below_its_start_size() {
        let report = failure_report(|| {
            check("shrinks", 32, 64, draw_vec, |xs| {
                if xs.len() >= 3 {
                    Err(format!("{} elements", xs.len()))
                } else {
                    Ok(())
                }
            })
        });
        let size: usize = report
            .split("size ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no size in {report:?}"));
        assert!((3..64).contains(&size), "{report}");
    }

    #[test]
    fn panicking_property_yields_a_one_line_repro() {
        let report = failure_report(|| {
            check("panics", 4, 8, draw_vec, |xs| {
                assert_eq!(xs.len(), usize::MAX, "boom");
                Ok(())
            })
        });
        assert!(report.starts_with("property panics failed at case 0 (seed 0x"));
        assert!(report.contains("panicked: assertion `left == right` failed: boom"));
        assert!(report.contains("; input: ["), "{report}");
        assert!(!report.contains('\n'), "{report}");
    }
}
