//! Integration tests of gpmcp checkpointing: double-buffer atomicity under
//! crashes at arbitrary points, multi-group independence, reopen-and-restore
//! flows, and property tests over sizes and cadences.

use gpm_core::{gpmcp_checkpoint, gpmcp_create, gpmcp_open, gpmcp_register, gpmcp_restore};
use gpm_integration::{range, CASES};
use gpm_sim::{Addr, Machine, MachineConfig};

fn fill(machine: &mut Machine, hbm: u64, len: u64, tag: u8) {
    let data: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(tag).wrapping_add(tag))
        .collect();
    machine.host_write(Addr::hbm(hbm), &data).unwrap();
}

fn check(machine: &Machine, hbm: u64, len: u64, tag: u8) -> bool {
    let mut buf = vec![0u8; len as usize];
    machine.read(Addr::hbm(hbm), &mut buf).unwrap();
    buf.iter()
        .enumerate()
        .all(|(i, &b)| b == (i as u8).wrapping_mul(tag).wrapping_add(tag))
}

#[test]
fn restore_after_crash_returns_last_consistent_state() {
    let mut m = Machine::default();
    let hbm = m.alloc_hbm(50_000).unwrap();
    let mut cp = gpmcp_create(&mut m, "/pm/cp1", 50_000, 2, 1).unwrap();
    gpmcp_register(&mut cp, Addr::hbm(hbm), 50_000, 0).unwrap();

    // Three epochs of data, checkpointing each.
    for tag in [3u8, 5, 7] {
        fill(&mut m, hbm, 50_000, tag);
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
    }
    // A fourth epoch that is NOT checkpointed.
    fill(&mut m, hbm, 50_000, 9);

    m.crash();
    gpmcp_restore(&mut m, &cp, 0).unwrap();
    assert!(
        check(&m, hbm, 50_000, 7),
        "restore must return the last checkpoint, not epoch 9"
    );
}

#[test]
fn reopen_after_crash_restores_without_original_handle() {
    let mut m = Machine::default();
    let hbm = m.alloc_hbm(10_000).unwrap();
    {
        let mut cp = gpmcp_create(&mut m, "/pm/cp2", 10_000, 1, 1).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(hbm), 10_000, 0).unwrap();
        fill(&mut m, hbm, 10_000, 11);
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
    } // handle dropped — as a process death would
    m.crash();

    let mut cp = gpmcp_open(&m, "/pm/cp2").unwrap();
    gpmcp_register(&mut cp, Addr::hbm(hbm), 10_000, 0).unwrap();
    gpmcp_restore(&mut m, &cp, 0).unwrap();
    assert!(check(&m, hbm, 10_000, 11));
}

#[test]
fn groups_restore_independently() {
    let mut m = Machine::default();
    let a = m.alloc_hbm(4_096).unwrap();
    let b = m.alloc_hbm(4_096).unwrap();
    let mut cp = gpmcp_create(&mut m, "/pm/cp3", 4_096, 1, 2).unwrap();
    gpmcp_register(&mut cp, Addr::hbm(a), 4_096, 0).unwrap();
    gpmcp_register(&mut cp, Addr::hbm(b), 4_096, 1).unwrap();
    fill(&mut m, a, 4_096, 2);
    fill(&mut m, b, 4_096, 4);
    gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
    gpmcp_checkpoint(&mut m, &cp, 1).unwrap();
    // Advance group 1 only.
    fill(&mut m, b, 4_096, 6);
    gpmcp_checkpoint(&mut m, &cp, 1).unwrap();

    m.crash();
    gpmcp_restore(&mut m, &cp, 0).unwrap();
    gpmcp_restore(&mut m, &cp, 1).unwrap();
    assert!(check(&m, a, 4_096, 2));
    assert!(check(&m, b, 4_096, 6));
}

/// Any size, any number of checkpointed epochs: restoring always yields
/// the last checkpointed epoch, even after a crash.
#[test]
fn checkpoint_roundtrip_any_size() {
    gpm_integration::check(
        "checkpoint_roundtrip_any_size",
        CASES,
        0,
        |rng, _| {
            (
                range(rng, 64, 40_000),
                range(rng, 1, 6) as u8,
                rng.next_u64(),
            )
        },
        |&(len, epochs, seed)| {
            let mut m = Machine::new(MachineConfig::default().with_seed(seed));
            let hbm = m.alloc_hbm(len).unwrap();
            let mut cp = gpmcp_create(&mut m, "/pm/cpp", len, 1, 1).unwrap();
            gpmcp_register(&mut cp, Addr::hbm(hbm), len, 0).unwrap();
            let mut last_tag = 0;
            for e in 1..=epochs {
                fill(&mut m, hbm, len, e);
                gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
                last_tag = e;
            }
            m.crash();
            gpmcp_restore(&mut m, &cp, 0).unwrap();
            assert!(check(&m, hbm, len, last_tag));
            Ok(())
        },
    );
}

/// The consistent-buffer flag alternates and the sequence number counts
/// checkpoints exactly.
#[test]
fn flags_track_checkpoints() {
    gpm_integration::check(
        "flags_track_checkpoints",
        CASES,
        0,
        |rng, _| range(rng, 1, 8) as u8,
        |&epochs| {
            let mut m = Machine::default();
            let hbm = m.alloc_hbm(512).unwrap();
            let mut cp = gpmcp_create(&mut m, "/pm/cpf", 512, 1, 1).unwrap();
            gpmcp_register(&mut cp, Addr::hbm(hbm), 512, 0).unwrap();
            for e in 1..=epochs {
                fill(&mut m, hbm, 512, e);
                gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
                let (which, seq) = cp.consistent(&m, 0).unwrap();
                assert_eq!(seq, e as u32);
                assert_eq!(which, (e as u32) % 2, "buffers alternate");
            }
            Ok(())
        },
    );
}
