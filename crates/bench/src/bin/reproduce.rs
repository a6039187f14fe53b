//! Runs the entire evaluation (all figures and tables) and writes the
//! reports, like the artifact's `make all`.
use gpm_bench::figures;

fn main() {
    let scale = gpm_bench::scale_from_args();
    let t0 = std::time::Instant::now();
    gpm_bench::emit(&figures::fig1a(scale));
    gpm_bench::emit(&figures::fig1b(scale));
    gpm_bench::emit(&figures::fig3(scale));
    gpm_bench::emit(&figures::fig9(scale));
    gpm_bench::emit(&figures::fig10(scale));
    gpm_bench::emit(&figures::fig11a(scale));
    gpm_bench::emit(&figures::fig11b(scale));
    gpm_bench::emit(&figures::fig12(scale));
    gpm_bench::emit(&figures::table4(scale));
    gpm_bench::emit(&figures::table5(scale));
    gpm_bench::emit(&figures::checkpoint_frequency(scale));
    println!("reproduced the full evaluation in {:.1?}", t0.elapsed());
}
