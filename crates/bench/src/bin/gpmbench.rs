//! `gpmbench` — run any GPMbench workload under any persistence system from
//! the command line.
//!
//! ```console
//! $ cargo run --release -p gpm-bench --bin gpmbench -- --list
//! $ cargo run --release -p gpm-bench --bin gpmbench -- --workload BFS --mode gpm
//! $ cargo run --release -p gpm-bench --bin gpmbench -- --workload gpKVS --mode cap-mm --quick
//! $ cargo run --release -p gpm-bench --bin gpmbench -- --all --mode gpm --eadr
//! ```

use gpm_bench::cli::Usage;
use gpm_sim::{Machine, MachineConfig};
use gpm_workloads::{suite, Mode, Scale};

const USAGE: Usage = Usage {
    bin: "gpmbench",
    text: "usage: gpmbench (--list | --all | --workload <name>) [--mode <m>] [--quick] [--eadr] \
           [--recover] [--inspect]\n\
           modes: gpm (default), cap-fs, cap-mm, gpm-ndp, gpufs, cpu-pm",
};

fn inspect(m: &Machine) {
    println!("-- machine introspection --");
    println!("PM files:");
    for (name, f) in m.fs_list() {
        println!("  {:30} PM+{:#010x}  {:>10} bytes", name, f.offset, f.len);
    }
    use gpm_sim::pattern::AccessPattern;
    let p = &m.gpu_pm_pattern;
    println!(
        "GPU->PM write pattern: {:.2} MB seq-aligned, {:.2} MB seq-unaligned, {:.2} MB random",
        p.bytes_in(AccessPattern::SeqAligned) as f64 / 1e6,
        p.bytes_in(AccessPattern::SeqUnaligned) as f64 / 1e6,
        p.bytes_in(AccessPattern::Random) as f64 / 1e6,
    );
    println!(
        "NVM endurance: {} block programs ({:.2} MB programmed)",
        m.stats.pm_block_programs,
        m.stats.pm_block_programs as f64 * 256.0 / 1e6
    );
    println!(
        "counters: {} kernel launches, {} system fences, {} PCIe write txns, {} DMA MB",
        m.stats.kernel_launches,
        m.stats.system_fences,
        m.stats.pcie_write_txns,
        m.stats.dma_bytes / (1 << 20)
    );
}

fn parse_mode(s: &str) -> Mode {
    match s.to_ascii_lowercase().as_str() {
        "gpm" => Mode::Gpm,
        "cap-fs" | "capfs" => Mode::CapFs,
        "cap-mm" | "capmm" => Mode::CapMm,
        "gpm-ndp" | "ndp" => Mode::GpmNdp,
        "gpufs" => Mode::Gpufs,
        "cpu-pm" | "cpu" => Mode::CpuPm,
        other => USAGE.fail(format!("unknown mode {other:?}")),
    }
}

fn main() {
    let (mut list, mut all, mut eadr, mut recover, mut inspect_after) =
        (false, false, false, false, false);
    let (mut selected, mut mode, mut scale) = (None, Mode::Gpm, Scale::Full);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" => USAGE.help(),
            "--list" => list = true,
            "--all" => all = true,
            "--workload" => selected = Some(USAGE.value(&mut args, "--workload")),
            "--mode" => mode = parse_mode(&USAGE.value(&mut args, "--mode")),
            "--quick" => scale = Scale::Quick,
            "--eadr" => eadr = true,
            "--recover" => recover = true,
            "--inspect" => inspect_after = true,
            other => USAGE.fail(format!("unknown flag {other:?}")),
        }
    }
    if !list && !all && selected.is_none() {
        USAGE.fail("pick one of --list, --all or --workload <name>");
    }
    if recover && mode != Mode::Gpm {
        USAGE.fail(
            "--recover measures GPM's restoration latency (Table 5); drop --mode or pass gpm",
        );
    }
    let mut workloads = suite(scale);

    if list {
        for w in &workloads {
            let modes: Vec<&str> = Mode::ALL
                .iter()
                .filter(|&&m| w.supports(m))
                .map(|m| m.label())
                .collect();
            println!(
                "{:12} [{}] modes: {}",
                w.name(),
                w.category().label(),
                modes.join(", ")
            );
        }
        return;
    }

    let machine = || {
        if eadr {
            Machine::new(MachineConfig::default().with_eadr())
        } else {
            Machine::default()
        }
    };

    let mut any = false;
    for w in workloads.iter_mut() {
        if let Some(name) = &selected {
            if !w.name().eq_ignore_ascii_case(name) {
                continue;
            }
        }
        any = true;
        if !w.supports(mode) {
            println!("{:12} {:8} unsupported (*)", w.name(), mode.label());
            continue;
        }
        let mut m = machine();
        if recover {
            match w.run_with_recovery(&mut m) {
                Ok(Some(r)) => println!(
                    "{:12} {:8} op {:>12}  restore {:>12} ({:.2}%)  verified {}",
                    w.name(),
                    mode.label(),
                    format!("{}", r.elapsed),
                    format!("{}", r.recovery.unwrap_or(gpm_sim::Ns::ZERO)),
                    r.recovery.map_or(0.0, |rl| rl / r.elapsed * 100.0),
                    r.verified
                ),
                Ok(None) => println!(
                    "{:12} {:8} recovery is embedded in the kernels (native persistence)",
                    w.name(),
                    mode.label()
                ),
                Err(e) => println!("{:12} {:8} error: {e}", w.name(), mode.label()),
            }
            continue;
        }
        match w.run(&mut m, mode) {
            Ok(r) => {
                println!(
                    "{:12} {:8} elapsed {:>12}  PM writes {:>9.3} MB  bw {:>6.2} GB/s  fences {:>7}  verified {}",
                    w.name(),
                    mode.label(),
                    format!("{}", r.elapsed),
                    r.pm_write_bytes_total() as f64 / 1e6,
                    r.pcie_write_bw(),
                    r.system_fences,
                    r.verified
                );
                if inspect_after {
                    inspect(&m);
                }
            }
            Err(e) => println!("{:12} {:8} error: {e}", w.name(), mode.label()),
        }
    }
    if !any {
        eprintln!("no workload matched; try --list");
        std::process::exit(1);
    }
}
