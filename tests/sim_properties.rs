//! Property tests of the platform model's core invariants.

use std::collections::{BTreeMap, BTreeSet};

use gpm_integration::{check, len, range, Rng, CASES};
use gpm_sim::pattern::{AccessPattern, PatternTracker};
use gpm_sim::pm::PmDevice;
use gpm_sim::{CrashPolicy, CrashReport, Machine, MachineConfig};

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

/// Device capacity of the line-model property: 62.5 lines, so the last
/// line is cut at the capacity.
const MODEL_CAP: u64 = 4000;

/// One operation on the device, with its payload bytes derived from a
/// stamp (byte `j` is `stamp + j`) so a failing input prints on one line.
#[derive(Debug)]
enum PmOp {
    Visible {
        writer0: u32,
        lane_bytes: u32,
        lanes: u32,
        offset: u64,
        stamp: u8,
    },
    Durable {
        offset: u64,
        len: u64,
        stamp: u8,
    },
    Fence {
        writer0: u32,
        lanes: u32,
    },
    Close {
        writer0: u32,
        lanes: u32,
    },
    DrainClosed,
    Flush {
        offset: u64,
        len: u64,
    },
}

fn stamped(stamp: u8, len: u64) -> Vec<u8> {
    (0..len).map(|j| stamp.wrapping_add(j as u8)).collect()
}

/// Whether `w` is one of the writers `[writer0, writer0 + lanes)`, counted
/// in `u64`: a range may end at [`gpm_sim::HOST_WRITER`] (`u32::MAX`).
fn in_writers(writer0: u32, lanes: u32, w: u32) -> bool {
    (u64::from(writer0)..u64::from(writer0) + u64::from(lanes)).contains(&u64::from(w))
}

fn draw_pm_op(rng: &mut Rng) -> PmOp {
    // One writer range in four ends exactly at `u32::MAX`, the id every
    // host-side PM store carries.
    let writers = |rng: &mut Rng| {
        let lanes = range(rng, 1, 33) as u32;
        let writer0 = match range(rng, 0, 4) {
            0 => u32::MAX - (lanes - 1),
            _ => range(rng, 0, 48) as u32,
        };
        (writer0, lanes)
    };
    match range(rng, 0, 7) {
        0 | 1 => {
            let lane_bytes = [1, 4, 8, 16][range(rng, 0, 4) as usize];
            let (writer0, lanes) = writers(rng);
            PmOp::Visible {
                writer0,
                lane_bytes,
                lanes,
                offset: range(rng, 0, MODEL_CAP - (lane_bytes * lanes) as u64 + 1),
                stamp: rng.next_u64() as u8,
            }
        }
        2 => {
            let len = range(rng, 1, 200);
            PmOp::Durable {
                offset: range(rng, 0, MODEL_CAP - len + 1),
                len,
                stamp: rng.next_u64() as u8,
            }
        }
        3 => {
            let (writer0, lanes) = writers(rng);
            PmOp::Fence { writer0, lanes }
        }
        4 => {
            let (writer0, lanes) = writers(rng);
            PmOp::Close { writer0, lanes }
        }
        5 => PmOp::DrainClosed,
        _ => PmOp::Flush {
            offset: range(rng, 0, MODEL_CAP),
            len: range(rng, 0, 300),
        },
    }
}

/// A pending line of the model: its visible bytes, writers and whether an
/// epoch fence has closed it.
type ModelLine = (Vec<u8>, BTreeSet<u32>, bool);

/// The naive reference for [`PmDevice`]: flat media plus a `BTreeMap` of
/// pending lines, updated byte by byte.
struct LineModel {
    media: Vec<u8>,
    lines: BTreeMap<u64, ModelLine>,
}

impl LineModel {
    fn visible(&mut self, writer0: u32, lane_bytes: u32, offset: u64, bytes: &[u8]) {
        for (j, &b) in bytes.iter().enumerate() {
            let at = offset + j as u64;
            let line = at / 64;
            let media = &self.media;
            let entry = self.lines.entry(line).or_insert_with(|| {
                let data = (line * 64..line * 64 + 64)
                    .map(|a| media.get(a as usize).copied().unwrap_or(0))
                    .collect();
                (data, BTreeSet::new(), false)
            });
            entry.0[(at % 64) as usize] = b;
            entry.1.insert(writer0 + j as u32 / lane_bytes);
            entry.2 = false;
        }
    }

    fn durable(&mut self, offset: u64, bytes: &[u8]) {
        let end = offset + bytes.len() as u64;
        self.media[offset as usize..end as usize].copy_from_slice(bytes);
        for line in offset / 64..=(end - 1) / 64 {
            if offset <= line * 64 && end >= (line * 64 + 64).min(MODEL_CAP) {
                self.lines.remove(&line);
            } else if let Some(entry) = self.lines.get_mut(&line) {
                for at in offset.max(line * 64)..end.min(line * 64 + 64) {
                    entry.0[(at % 64) as usize] = bytes[(at - offset) as usize];
                }
            }
        }
    }

    fn apply(&mut self, line: u64, data: &[u8]) {
        for at in line * 64..(line * 64 + 64).min(MODEL_CAP) {
            self.media[at as usize] = data[(at % 64) as usize];
        }
    }

    fn drain(&mut self, pick: impl Fn(u64, &ModelLine) -> bool) -> u64 {
        let picked: Vec<u64> = self
            .lines
            .iter()
            .filter(|&(&line, entry)| pick(line, entry))
            .map(|(&line, _)| line)
            .collect();
        for &line in &picked {
            let (data, _, _) = self.lines.remove(&line).expect("picked line");
            self.apply(line, &data);
        }
        picked.len() as u64
    }

    fn close(&mut self, writer0: u32, lanes: u32) -> u64 {
        let mut n = 0;
        for entry in self.lines.values_mut() {
            if !entry.2 && entry.1.iter().any(|&w| in_writers(writer0, lanes, w)) {
                entry.2 = true;
                n += 1;
            }
        }
        n
    }

    fn read(&self) -> Vec<u8> {
        (0..MODEL_CAP)
            .map(|at| match self.lines.get(&(at / 64)) {
                Some(entry) => entry.0[(at % 64) as usize],
                None => self.media[at as usize],
            })
            .collect()
    }

    fn crash(&mut self, policy: CrashPolicy) -> CrashReport {
        let mut rng = Rng::seed_from_u64(match policy {
            CrashPolicy::Random(seed) => seed,
            _ => 0,
        });
        let mut report = CrashReport::default();
        for (i, (line, (data, _, _))) in std::mem::take(&mut self.lines).into_iter().enumerate() {
            let applied = match policy {
                CrashPolicy::AllApplied => true,
                CrashPolicy::NoneApplied => false,
                CrashPolicy::GrayCode(k) => (k ^ (k >> 1)) >> (i % 64) & 1 == 1,
                CrashPolicy::Random(_) => rng.gen_bool(0.5),
            };
            if applied {
                self.apply(line, &data);
                report.lines_applied += 1;
            } else {
                report.lines_dropped += 1;
            }
        }
        report
    }
}

/// The device matches a naive line model: after every store, fence, epoch
/// close, drain and flush the returned line counts, the pending and closed
/// line counts, the visible bytes and the media agree, and a final crash
/// under any policy applies the same lines.
#[test]
fn pm_matches_line_model() {
    check(
        "pm_matches_line_model",
        CASES,
        48,
        |rng, size| {
            let ops: Vec<PmOp> = (0..len(rng, 1, size)).map(|_| draw_pm_op(rng)).collect();
            let policy = match range(rng, 0, 4) {
                0 => CrashPolicy::AllApplied,
                1 => CrashPolicy::NoneApplied,
                2 => CrashPolicy::GrayCode(rng.next_u64()),
                _ => CrashPolicy::Random(rng.next_u64()),
            };
            (ops, policy)
        },
        |(ops, policy)| {
            let mut pm = PmDevice::new(MODEL_CAP);
            let mut model = LineModel {
                media: vec![0; MODEL_CAP as usize],
                lines: BTreeMap::new(),
            };
            let mut visible = vec![0u8; MODEL_CAP as usize];
            let mut media = vec![0u8; MODEL_CAP as usize];
            for (i, op) in ops.iter().enumerate() {
                let (got, want) = match *op {
                    PmOp::Visible {
                        writer0,
                        lane_bytes,
                        lanes,
                        offset,
                        stamp,
                    } => {
                        let bytes = stamped(stamp, (lane_bytes * lanes) as u64);
                        pm.write_visible_lanes(writer0, lane_bytes, offset, &bytes)
                            .unwrap();
                        model.visible(writer0, lane_bytes, offset, &bytes);
                        (0, 0)
                    }
                    PmOp::Durable { offset, len, stamp } => {
                        let bytes = stamped(stamp, len);
                        pm.write_durable(offset, &bytes).unwrap();
                        model.durable(offset, &bytes);
                        (0, 0)
                    }
                    PmOp::Fence { writer0, lanes } => (
                        pm.persist_writers_range(writer0, lanes),
                        model.drain(|_, e| e.1.iter().any(|&w| in_writers(writer0, lanes, w))),
                    ),
                    PmOp::Close { writer0, lanes } => (
                        pm.close_writers_range(writer0, lanes),
                        model.close(writer0, lanes),
                    ),
                    PmOp::DrainClosed => (pm.drain_closed(), model.drain(|_, e| e.2)),
                    PmOp::Flush { offset, len } => (
                        pm.persist_range(offset, len),
                        model.drain(|line, _| {
                            len > 0 && line >= offset / 64 && line <= (offset + len - 1) / 64
                        }),
                    ),
                };
                let closed = model.lines.values().filter(|e| e.2).count();
                pm.read(0, &mut visible).unwrap();
                pm.read_media(0, &mut media).unwrap();
                if got != want
                    || pm.pending_line_count() != model.lines.len()
                    || pm.closed_line_count() != closed
                    || visible != model.read()
                    || media != model.media
                {
                    return Err(format!(
                        "op {i} ({op:?}): lines {got} vs {want}, pending {} vs {}, closed {} vs {closed}, visible equal {}, media equal {}",
                        pm.pending_line_count(),
                        model.lines.len(),
                        pm.closed_line_count(),
                        visible == model.read(),
                        media == model.media,
                    ));
                }
            }
            let got = pm.crash_with_policy(*policy);
            let want = model.crash(*policy);
            pm.read_media(0, &mut media).unwrap();
            if got != want || media != model.media || pm.pending_line_count() != 0 {
                return Err(format!(
                    "crash {policy}: {got:?} vs {want:?}, media equal {}",
                    media == model.media
                ));
            }
            Ok(())
        },
    );
}
