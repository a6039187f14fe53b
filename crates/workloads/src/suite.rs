//! The GPMbench suite: one registry over all nine workloads (eleven
//! configurations, counting gpKVS 95:5 and gpDB I/U separately as Figure 9
//! does).

use gpm_sim::{Machine, SimResult};

use crate::bfs::{BfsParams, BfsWorkload};
use crate::blackscholes::{BlkParams, BlkWorkload};
use crate::cfd::{CfdParams, CfdWorkload};
use crate::db::{DbOp, DbParams, DbWorkload};
use crate::dnn::{DnnParams, DnnWorkload};
use crate::hotspot::{HotspotParams, HotspotWorkload};
use crate::iterative::{run_iterative, run_iterative_with_recovery, IterativeApp};
use crate::kvs::{KvsParams, KvsWorkload};
use crate::metrics::{Category, Mode, RunMetrics};
use crate::prefix_sum::{PsParams, PsWorkload};
use crate::srad::{SradParams, SradWorkload};

/// Input scale: full evaluation sizes or fast test sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Evaluation-sized inputs (benchmark harness).
    Full,
    /// Small inputs (tests, smoke runs).
    Quick,
}

/// A uniformly-drivable GPMbench workload configuration.
pub trait Workload {
    /// Name as Figure 9 labels it.
    fn name(&self) -> &'static str;

    /// Workload class (Table 1).
    fn category(&self) -> Category;

    /// Whether the persistence system can run this workload at all
    /// (GPUfs' limitations, CPU-only counterparts).
    fn supports(&self, mode: Mode) -> bool;

    /// Runs the workload on a fresh machine region under `mode`.
    ///
    /// # Errors
    ///
    /// Propagates platform errors; unsupported modes error.
    fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics>;

    /// Runs under GPM and measures worst-case restoration latency
    /// (Table 5). Native workloads return `None` metrics here — their
    /// recovery is embedded (§6.2) and exercised by their recovery oracles.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    fn run_with_recovery(&mut self, machine: &mut Machine) -> SimResult<Option<RunMetrics>> {
        let _ = machine;
        Ok(None)
    }

    /// For checkpointing workloads, the time of the *persist phase alone*
    /// (one checkpoint) — what Figure 9 compares for this class, since the
    /// compute between checkpoints is identical under every system and the
    /// total-time impact depends only on the chosen cadence (§6.1). `None`
    /// for the other classes, whose persistence is inseparable from
    /// computation.
    fn persist_phase(
        &mut self,
        machine: &mut Machine,
        mode: Mode,
    ) -> SimResult<Option<gpm_sim::Ns>> {
        let _ = (machine, mode);
        Ok(None)
    }
}

macro_rules! delegate_native {
    ($ty:ty, $name:expr) => {
        impl Workload for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn category(&self) -> Category {
                Category::Native
            }
            fn supports(&self, mode: Mode) -> bool {
                // Per-thread fine-grained writes deadlock GPUfs (§6.1).
                mode != Mode::Gpufs
            }
            fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
                <$ty>::run(self, machine, mode)
            }
            // Native workloads embed their recovery in the kernels (§5.4);
            // the default `run_with_recovery` (None) applies, and crash
            // resume is exercised through the `RecoveryOracle` impl.
        }
    };
}

/// gpKVS (100% SETs).
#[derive(Debug)]
pub struct GpKvs(pub KvsWorkload);

/// gpKVS with the 95:5 GET:SET mix.
#[derive(Debug)]
pub struct GpKvsMixed(pub KvsWorkload);

/// gpDB INSERTs.
#[derive(Debug)]
pub struct GpDbInsert(pub DbWorkload);

/// gpDB UPDATEs.
#[derive(Debug)]
pub struct GpDbUpdate(pub DbWorkload);

macro_rules! kvs_like {
    ($ty:ty, $name:expr) => {
        impl Workload for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn category(&self) -> Category {
                Category::Transactional
            }
            fn supports(&self, mode: Mode) -> bool {
                matches!(mode, Mode::Gpm | Mode::CapFs | Mode::CapMm | Mode::GpmNdp)
            }
            fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
                self.0.run(machine, mode)
            }
            fn run_with_recovery(
                &mut self,
                machine: &mut Machine,
            ) -> SimResult<Option<RunMetrics>> {
                self.0.run_with_recovery(machine).map(Some)
            }
        }
    };
}

kvs_like!(GpKvs, "gpKVS");
kvs_like!(GpKvsMixed, "gpKVS (95:5)");

impl Workload for GpDbInsert {
    fn name(&self) -> &'static str {
        "gpDB (I)"
    }
    fn category(&self) -> Category {
        Category::Transactional
    }
    fn supports(&self, mode: Mode) -> bool {
        matches!(
            mode,
            Mode::Gpm | Mode::CapFs | Mode::CapMm | Mode::GpmNdp | Mode::CpuPm
        )
    }
    fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        if mode == Mode::CpuPm {
            self.0.run_cpu(machine)
        } else {
            self.0.run(machine, mode)
        }
    }
    fn run_with_recovery(&mut self, machine: &mut Machine) -> SimResult<Option<RunMetrics>> {
        self.0.run_with_recovery(machine).map(Some)
    }
}

impl Workload for GpDbUpdate {
    fn name(&self) -> &'static str {
        "gpDB (U)"
    }
    fn category(&self) -> Category {
        Category::Transactional
    }
    fn supports(&self, mode: Mode) -> bool {
        matches!(
            mode,
            Mode::Gpm | Mode::CapFs | Mode::CapMm | Mode::GpmNdp | Mode::CpuPm
        )
    }
    fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        if mode == Mode::CpuPm {
            self.0.run_cpu(machine)
        } else {
            self.0.run(machine, mode)
        }
    }
    fn run_with_recovery(&mut self, machine: &mut Machine) -> SimResult<Option<RunMetrics>> {
        self.0.run_with_recovery(machine).map(Some)
    }
}

/// Wraps an [`IterativeApp`] (DNN/CFD/BLK/HS) as a suite workload.
#[derive(Debug)]
pub struct Iterative<A: IterativeApp> {
    app: A,
    cap_threads: u32,
    gpufs_ok: bool,
}

impl<A: IterativeApp> Iterative<A> {
    /// Wraps an app; `gpufs_ok` reflects the paper's Figure 9 support.
    pub fn new(app: A, gpufs_ok: bool) -> Iterative<A> {
        Iterative {
            app,
            cap_threads: 32,
            gpufs_ok,
        }
    }
}

impl<A: IterativeApp + std::fmt::Debug> Workload for Iterative<A> {
    fn name(&self) -> &'static str {
        self.app.name()
    }
    fn category(&self) -> Category {
        Category::Checkpointing
    }
    fn supports(&self, mode: Mode) -> bool {
        match mode {
            Mode::CpuPm => false, // no CPU counterpart (§6.1)
            Mode::Gpufs => self.gpufs_ok,
            _ => true,
        }
    }
    fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        run_iterative(machine, &mut self.app, mode, self.cap_threads)
    }
    fn run_with_recovery(&mut self, machine: &mut Machine) -> SimResult<Option<RunMetrics>> {
        run_iterative_with_recovery(machine, &mut self.app).map(Some)
    }
    fn persist_phase(
        &mut self,
        machine: &mut Machine,
        mode: Mode,
    ) -> SimResult<Option<gpm_sim::Ns>> {
        crate::iterative::checkpoint_latency(machine, &mut self.app, mode, self.cap_threads)
            .map(Some)
    }
}

delegate_native!(BfsWorkload, "BFS");
delegate_native!(PsWorkload, "PS");

impl Workload for SradWorkload {
    fn name(&self) -> &'static str {
        "SRAD"
    }
    fn category(&self) -> Category {
        Category::Native
    }
    fn supports(&self, _mode: Mode) -> bool {
        // SRAD's coarse-grain writes run everywhere, GPUfs included (§6.1).
        true
    }
    fn run(&mut self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        SradWorkload::run(self, machine, mode)
    }
}

/// Builds the full suite: the eleven Figure-9 configurations in order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    let quick = scale == Scale::Quick;
    let kvs = |mix: bool| {
        let mut p = if quick {
            KvsParams::quick()
        } else {
            KvsParams::default()
        };
        if mix {
            p = p.with_get_mix();
        }
        KvsWorkload::new(p)
    };
    let db = |op: DbOp| {
        let mut p = if quick {
            DbParams::quick()
        } else {
            DbParams::default()
        };
        p.op = op;
        DbWorkload::new(p)
    };
    vec![
        Box::new(GpKvs(kvs(false))),
        Box::new(GpKvsMixed(kvs(true))),
        Box::new(GpDbInsert(db(DbOp::Insert))),
        Box::new(GpDbUpdate(db(DbOp::Update))),
        Box::new(Iterative::new(
            DnnWorkload::new(if quick {
                DnnParams::quick()
            } else {
                DnnParams::default()
            }),
            true,
        )),
        Box::new(Iterative::new(
            CfdWorkload::new(if quick {
                CfdParams::quick()
            } else {
                CfdParams::default()
            }),
            true,
        )),
        Box::new(Iterative::new(
            BlkWorkload::new(if quick {
                BlkParams::quick()
            } else {
                BlkParams::default()
            }),
            true, // size gate inside the driver reproduces the failure
        )),
        Box::new(Iterative::new(
            HotspotWorkload::new(if quick {
                HotspotParams::quick()
            } else {
                HotspotParams::default()
            }),
            true,
        )),
        Box::new(BfsWorkload::new(if quick {
            BfsParams::quick()
        } else {
            BfsParams::default()
        })),
        Box::new(SradWorkload::new(if quick {
            SradParams::quick()
        } else {
            SradParams::default()
        })),
        Box::new(PsWorkload::new(if quick {
            PsParams::quick()
        } else {
            PsParams::default()
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_eleven_figure9_configs() {
        let s = suite(Scale::Quick);
        let names: Vec<&str> = s.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "gpKVS",
                "gpKVS (95:5)",
                "gpDB (I)",
                "gpDB (U)",
                "DNN",
                "CFD",
                "BLK",
                "HS",
                "BFS",
                "SRAD",
                "PS"
            ]
        );
    }

    #[test]
    fn every_workload_runs_gpm_and_verifies() {
        for w in suite(Scale::Quick).iter_mut() {
            let mut m = Machine::default();
            let r = w.run(&mut m, Mode::Gpm).unwrap();
            assert!(r.verified, "{} failed verification", w.name());
        }
    }

    #[test]
    fn categories_partition_as_table1() {
        let s = suite(Scale::Quick);
        let count = |c: Category| s.iter().filter(|w| w.category() == c).count();
        assert_eq!(count(Category::Transactional), 4);
        assert_eq!(count(Category::Checkpointing), 4);
        assert_eq!(count(Category::Native), 3);
    }

    #[test]
    fn gpufs_support_matches_figure9() {
        let s = suite(Scale::Quick);
        for w in &s {
            let expect = matches!(w.name(), "DNN" | "CFD" | "BLK" | "HS" | "SRAD");
            assert_eq!(w.supports(Mode::Gpufs), expect, "{}", w.name());
        }
    }
}
