//! Property tests of the platform model's core invariants.

use gpm_integration::{check, len, range, CASES};
use gpm_sim::pattern::{AccessPattern, PatternTracker};
use gpm_sim::pm::PmDevice;
use gpm_sim::{Machine, MachineConfig};

/// The pattern classifier conserves bytes and transactions, and its
/// effective bandwidth always lies between the extreme class speeds.
#[test]
fn pattern_tracker_conserves_and_bounds() {
    check(
        "pattern_tracker_conserves_and_bounds",
        CASES,
        199,
        |rng, size| {
            let txns: Vec<(u64, u64)> = (0..len(rng, 1, size))
                .map(|_| (range(rng, 0, 1 << 20), range(rng, 1, 512)))
                .collect();
            (txns, range(rng, 1, 16) as usize)
        },
        |(txns, barrier_every)| {
            let cfg = MachineConfig::default();
            let mut t = PatternTracker::new();
            let mut total = 0;
            for (i, &(off, len)) in txns.iter().enumerate() {
                t.record(off, len);
                total += len;
                if i % barrier_every == 0 {
                    t.barrier();
                }
            }
            assert_eq!(t.total_bytes(), total);
            assert_eq!(t.total_txns(), txns.len() as u64);
            let bw = t.effective_bandwidth(&cfg);
            assert!(bw >= cfg.pm_bw_random - 1e-9);
            assert!(bw <= cfg.pm_bw_seq_aligned + 1e-9);
            // Per-class counts sum to totals.
            let sum: u64 = [
                AccessPattern::SeqAligned,
                AccessPattern::SeqUnaligned,
                AccessPattern::Random,
            ]
            .iter()
            .map(|&p| t.bytes_in(p))
            .sum();
            assert_eq!(sum, total);
            Ok(())
        },
    );
}

/// PM reads always reflect the newest visible write, before and after a
/// persist, for arbitrary overlapping writes by one writer.
#[test]
fn pm_read_your_writes() {
    check(
        "pm_read_your_writes",
        CASES,
        99,
        |rng, size| {
            (0..len(rng, 1, size.min(49)))
                .map(|_| {
                    let off = range(rng, 0, 4096);
                    let data: Vec<u8> = (0..len(rng, 1, size))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    (off, data)
                })
                .collect::<Vec<_>>()
        },
        |writes| {
            let mut pm = PmDevice::new(8192);
            let mut shadow = vec![0u8; 8192];
            for (off, data) in writes {
                pm.write_visible(1, *off, data).unwrap();
                shadow[*off as usize..*off as usize + data.len()].copy_from_slice(data);
            }
            let mut got = vec![0u8; 8192];
            pm.read(0, &mut got).unwrap();
            assert_eq!(got, shadow, "visibility before persist");
            pm.persist_writer(1);
            pm.read_media(0, &mut got).unwrap();
            assert_eq!(got, shadow, "durability after persist");
            Ok(())
        },
    );
}

/// A persist makes exactly the writer's lines durable: reading media
/// after persist+crash equals reading media after persist alone.
#[test]
fn crash_after_persist_changes_nothing() {
    check(
        "crash_after_persist_changes_nothing",
        CASES,
        39,
        |rng, size| {
            let writes: Vec<(u64, u64)> = (0..len(rng, 1, size))
                .map(|_| (range(rng, 0, 2048), rng.next_u64()))
                .collect();
            (writes, rng.next_u64())
        },
        |(writes, seed)| {
            let mut m = Machine::new(MachineConfig::default().with_seed(*seed));
            let base = m.alloc_pm(4096).unwrap();
            m.set_ddio(false);
            for &(off, v) in writes {
                m.gpu_store_pm(3, base + (off & !7), &v.to_le_bytes())
                    .unwrap();
            }
            m.gpu_system_fence(3);
            let mut before = vec![0u8; 4096];
            m.pm().read_media(base, &mut before).unwrap();
            m.crash();
            let mut after = vec![0u8; 4096];
            m.pm().read_media(base, &mut after).unwrap();
            assert_eq!(before, after);
            Ok(())
        },
    );
}

/// The filesystem allocates non-overlapping extents that survive crash.
#[test]
fn fs_extents_disjoint() {
    check(
        "fs_extents_disjoint",
        CASES,
        19,
        |rng, size| {
            (0..len(rng, 1, size))
                .map(|_| range(rng, 1, 10_000))
                .collect::<Vec<_>>()
        },
        |sizes| {
            let mut m = Machine::default();
            let mut extents: Vec<(u64, u64)> = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                let f = m.fs_create(&format!("/pm/f{i}"), s).unwrap();
                assert!(f.len >= s);
                for &(o, l) in &extents {
                    assert!(f.offset >= o + l || f.offset + f.len <= o);
                }
                extents.push((f.offset, f.len));
            }
            m.crash();
            for i in 0..sizes.len() {
                assert!(m.fs_exists(&format!("/pm/f{i}")), "directory is durable");
            }
            Ok(())
        },
    );
}

/// eADR and a fenced ADR run leave identical durable bytes for the same
/// write sequence.
#[test]
fn eadr_equals_fenced_adr() {
    check(
        "eadr_equals_fenced_adr",
        CASES,
        29,
        |rng, size| {
            (0..len(rng, 1, size))
                .map(|_| (range(rng, 0, 1024), rng.next_u32()))
                .collect::<Vec<_>>()
        },
        |writes| {
            let run = |cfg: MachineConfig| -> Vec<u8> {
                let mut m = Machine::new(cfg);
                let base = m.alloc_pm(2048).unwrap();
                m.set_ddio(false);
                for &(off, v) in writes {
                    m.gpu_store_pm(1, base + (off & !3), &v.to_le_bytes())
                        .unwrap();
                }
                m.gpu_system_fence(1);
                m.crash();
                let mut buf = vec![0u8; 2048];
                m.read(gpm_sim::Addr::pm(base), &mut buf).unwrap();
                buf
            };
            let adr = run(MachineConfig::default());
            let eadr = run(MachineConfig::default().with_eadr());
            assert_eq!(adr, eadr);
            Ok(())
        },
    );
}
