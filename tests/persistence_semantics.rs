//! Property-based tests of the platform's persistence semantics: the
//! ADR/DDIO/eADR rules of §2–3 must hold for arbitrary write/persist/crash
//! interleavings.

use std::collections::HashMap;

use gpm_core::{gpm_persist_begin, gpm_persist_end, GpmThreadExt};
use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_integration::{check, len, Rng, CASES};
use gpm_sim::{Addr, Machine, MachineConfig, PersistMode};

/// One scripted step of a GPU thread. Shared by the promoted regressions
/// and the properties.
#[derive(Debug, Clone)]
enum Step {
    /// Write `value` at slot `slot`.
    Write { slot: u8, value: u64 },
    /// System-scope persist.
    Persist,
}

/// Replays `steps` on a host model. For each slot, returns the set of
/// values a crash may legally leave behind: the last persisted value, plus
/// any value written after that slot's last persist (whose cache line may
/// have been applied by the crash), plus zero when nothing was ever
/// persisted.
fn admissible_model(steps: &[Step]) -> HashMap<u8, Vec<u64>> {
    let mut durable: HashMap<u8, u64> = HashMap::new();
    let mut staged: HashMap<u8, Vec<u64>> = HashMap::new();
    for s in steps {
        match s {
            Step::Write { slot, value } => staged.entry(*slot).or_default().push(*value),
            Step::Persist => {
                for (slot, vals) in staged.drain() {
                    durable.insert(slot, *vals.last().expect("nonempty"));
                }
            }
        }
    }
    let mut admissible: HashMap<u8, Vec<u64>> = HashMap::new();
    for (slot, v) in &durable {
        admissible.entry(*slot).or_default().push(*v);
    }
    for (slot, vals) in staged {
        let entry = admissible.entry(slot).or_default();
        entry.extend(vals);
        if !durable.contains_key(&slot) {
            entry.push(0); // never persisted: may read as zero
        }
    }
    admissible
}

/// Runs `steps` through a real kernel inside a persistence window, crashes,
/// and checks every slot against [`admissible_model`]. Returns the first
/// violation as an error message.
fn check_crash_admissibility(steps: &[Step]) -> Result<(), String> {
    let mut m = Machine::default();
    let base = m.alloc_pm(256 * 64).unwrap();
    gpm_persist_begin(&mut m);
    let script = steps.to_vec();
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        if ctx.global_id() != 0 {
            return Ok(());
        }
        for s in &script {
            match s {
                Step::Write { slot, value } => {
                    ctx.st_u64(Addr::pm(base + *slot as u64 * 64), *value)?;
                }
                Step::Persist => ctx.gpm_persist()?,
            }
        }
        Ok(())
    });
    launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
    gpm_persist_end(&mut m);
    m.crash();

    for (slot, admissible) in admissible_model(steps) {
        let got = m.read_u64(Addr::pm(base + slot as u64 * 64)).unwrap();
        if !admissible.contains(&got) {
            return Err(format!(
                "slot {slot} holds {got} which is neither its persisted value nor a later write {admissible:?}"
            ));
        }
    }
    Ok(())
}

/// A write to a random slot three times in four, else a persist.
fn step(rng: &mut Rng) -> Step {
    if rng.gen_range_u64(4) < 3 {
        Step::Write {
            slot: rng.next_u64() as u8,
            value: rng.next_u64(),
        }
    } else {
        Step::Persist
    }
}

/// A script of 1 to `size` steps.
fn steps(rng: &mut Rng, size: usize) -> Vec<Step> {
    (0..len(rng, 1, size)).map(|_| step(rng)).collect()
}

/// After a crash, each slot holds an *admissible* value: its last
/// persisted value, or a later (possibly-evicted) unpersisted write —
/// never anything else. In particular, a persisted slot with no later
/// writes must read back exactly.
#[test]
fn persisted_writes_survive_any_crash() {
    check(
        "persisted_writes_survive_any_crash",
        CASES,
        39,
        steps,
        |steps| check_crash_admissibility(steps),
    );
}

/// Under eADR, *visibility is durability*: every write survives even
/// without a single fence.
#[test]
fn eadr_makes_all_writes_durable() {
    check("eadr_makes_all_writes_durable", CASES, 39, steps, |steps| {
        let mut m = Machine::new(MachineConfig::default().with_eadr());
        assert_eq!(m.cfg.persist_mode, PersistMode::Eadr);
        let base = m.alloc_pm(256 * 64).unwrap();
        let script = steps.clone();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if ctx.global_id() != 0 {
                return Ok(());
            }
            for s in &script {
                if let Step::Write { slot, value } = s {
                    ctx.st_u64(Addr::pm(base + *slot as u64 * 64), *value)?;
                }
            }
            Ok(())
        });
        launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        m.crash();

        // The last write to each slot must have survived.
        let mut last = HashMap::new();
        for s in steps {
            if let Step::Write { slot, value } = s {
                last.insert(*slot, *value);
            }
        }
        for (slot, value) in last {
            let got = m.read_u64(Addr::pm(base + slot as u64 * 64)).unwrap();
            assert_eq!(got, value);
        }
        Ok(())
    });
}

/// With DDIO enabled (no persistence window), a crash may lose any
/// subset of lines — but reads before the crash always see the newest
/// data (visibility is never violated).
#[test]
fn visibility_holds_before_crash() {
    check(
        "visibility_holds_before_crash",
        CASES,
        31,
        |rng, size| {
            (0..len(rng, 1, size))
                .map(|_| rng.next_u64())
                .collect::<Vec<_>>()
        },
        |values| {
            let mut m = Machine::default();
            let base = m.alloc_pm(values.len() as u64 * 64).unwrap();
            let vals = values.clone();
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                if ctx.global_id() != 0 {
                    return Ok(());
                }
                for (i, v) in vals.iter().enumerate() {
                    ctx.st_u64(Addr::pm(base + i as u64 * 64), *v)?;
                    // Read-your-write through the coherent LLC.
                    let got = ctx.ld_u64(Addr::pm(base + i as u64 * 64))?;
                    assert_eq!(got, *v);
                }
                Ok(())
            });
            launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
            for (i, v) in values.iter().enumerate() {
                assert_eq!(m.read_u64(Addr::pm(base + i as u64 * 64)).unwrap(), *v);
            }
            Ok(())
        },
    );
}

/// Deterministic (non-property) checks of the DDIO rules.
#[test]
fn ddio_gates_persistence() {
    let mut m = Machine::default();
    let base = m.alloc_pm(4096).unwrap();

    // DDIO on: fence is visibility-only; data may be lost.
    let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        ctx.st_u64(Addr::pm(base), 0xAAAA)?;
        ctx.threadfence_system()
    });
    launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
    assert!(
        m.pm().is_pending(base, 8),
        "DDIO caches the write in the LLC"
    );

    // The persistence window turns the same fence into a persist.
    gpm_persist_begin(&mut m);
    let k2 = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
        ctx.st_u64(Addr::pm(base + 64), 0xBBBB)?;
        ctx.gpm_persist()
    });
    launch(&mut m, LaunchConfig::new(1, 32), &k2).unwrap();
    gpm_persist_end(&mut m);
    assert!(!m.pm().is_pending(base + 64, 8));
}

/// Shorthand for the promoted regression scripts below.
fn w(slot: u8, value: u64) -> Step {
    Step::Write { slot, value }
}

/// Promoted regression of `persisted_writes_survive_any_crash` (recorded
/// counterexample `cc 4972cae7…`): a long interleaving with several persist
/// groups and a slot (96) written in two different groups.
#[test]
fn promoted_regression_slot_rewritten_across_persist_groups() {
    let steps = [
        w(89, 13807160689909903527),
        w(235, 4374988844039507519),
        Step::Persist,
        Step::Persist,
        w(104, 2676572785062705973),
        Step::Persist,
        w(163, 6511064598634132998),
        w(128, 6541584073046353123),
        w(96, 5337623984198328284),
        w(32, 11141724739221934257),
        w(11, 11896000401925664022),
        w(158, 7925515784034149),
        w(6, 6140343717280400782),
        w(173, 11219213496392431956),
        w(205, 18154745832128000610),
        w(70, 2341115534804715213),
        Step::Persist,
        w(56, 17108065996943435531),
        w(86, 8395268250237572059),
        w(148, 10482751089824221997),
        w(96, 11269531052194506457),
        Step::Persist,
        w(211, 12107192998231841397),
        w(103, 18370113104694571901),
        w(66, 9306715953969270617),
        w(187, 15124282326853585615),
        Step::Persist,
        w(219, 929015697619338388),
        w(70, 1480566823976593280),
        w(73, 1030476459615204534),
        w(182, 6791047775422433533),
        w(238, 14205937343856462326),
        w(19, 4445899955636059262),
        w(244, 11961034268443601170),
    ];
    check_crash_admissibility(&steps).unwrap();
}

/// Promoted regression (recorded counterexample `cc b5181969…`): back-to-back persists
/// with nothing staged between them, then a slot (81) re-written after its
/// persist — the crash must leave either the persisted or the newer value.
#[test]
fn promoted_regression_empty_persists_then_rewrite() {
    let steps = [
        w(81, 2550494797259686218),
        w(82, 576896613115006871),
        w(234, 13330575667041521139),
        Step::Persist,
        Step::Persist,
        Step::Persist,
        w(56, 15357822710660495243),
        Step::Persist,
        w(127, 15176574728601324904),
        w(133, 9259258592370479977),
        w(165, 1419281434423126686),
        Step::Persist,
        w(236, 13244998809972391244),
        w(77, 3840087065513462392),
        w(81, 14337212876141333038),
        w(203, 17361545781228623940),
    ];
    check_crash_admissibility(&steps).unwrap();
}

#[test]
fn crash_resolves_all_pending_state() {
    let mut m = Machine::default();
    let base = m.alloc_pm(1 << 16).unwrap();
    for i in 0..64u64 {
        m.gpu_store_pm(i as u32, base + i * 64, &i.to_le_bytes())
            .unwrap();
    }
    assert_eq!(m.pm().pending_line_count(), 64);
    let report = m.crash();
    assert_eq!(report.lines_applied + report.lines_dropped, 64);
    assert_eq!(m.pm().pending_line_count(), 0);
    // Every slot either has its value or zero — no torn 8-byte words.
    for i in 0..64u64 {
        let v = m.read_u64(Addr::pm(base + i * 64)).unwrap();
        assert!(v == i || v == 0, "torn write at slot {i}: {v}");
    }
}
