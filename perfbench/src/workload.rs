//! What every workload provides to the runner, and the analyser-layer
//! values the workloads share.

use rt_kernel::kernel::{EntryPoint, Kernel};
use rt_pool::Pool;
use rt_wcet::analysis::PhaseTimes;
use rt_wcet::{AnalysisCache, AnalysisConfig, CacheStats};

use crate::check::Checks;
use crate::probes::Values;
use crate::trace::{Span, Tracer};

/// The paper's §6.3 bound (cycles), which `wcet.bound_vs_paper` divides by.
pub const PAPER_BOUND: f64 = 189_117.0;

/// Run parameters shared by all workloads.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// Workload seed (only `load-standard` uses it).
    pub seed: u64,
    /// Pool size.
    pub workers: usize,
}

/// One timed batch.
pub struct Batch {
    /// Host seconds of the timed section (checks excluded).
    pub wall: f64,
    /// Operations completed: events, states or reports.
    pub ops: u64,
    /// Named end-to-end values of this batch (see `metrics::NAMED`).
    pub named: Vec<(&'static str, f64)>,
}

/// A set-up workload: runs batches and reports its per-layer values.
pub trait Workload {
    /// Runs one batch, recording spans on `tr` under run id `run`, and
    /// judges its outputs into `checks`.
    fn batch(&mut self, tr: &Tracer, run: u32, checks: &mut Checks) -> Batch;

    /// The pool the batches run on.
    fn pool(&self) -> &Pool;

    /// Per-layer values from the traced batches' `spans` (`traced` of
    /// them) and from the last batch's results.
    fn layer(&self, spans: &[Span], traced: usize, out: &mut Values);

    /// Kernels the kernel-state probes run on.
    fn probe_kernels(&self) -> Vec<Kernel>;

    /// The last batch's simulated results as the library renders them.
    fn report(&self) -> String;
}

/// The §6 bound: WCET(system call) + WCET(interrupt), after-kernel, L2 off.
pub fn section6_bound(cache: &AnalysisCache) -> (u64, u64) {
    let cfg = AnalysisConfig::after_l2_off();
    (
        cache.analyze(EntryPoint::Syscall, &cfg).cycles,
        cache.analyze(EntryPoint::Interrupt, &cfg).cycles,
    )
}

/// Analyser-layer values: phase times summed over `phases` (the reports
/// the workload built through its cache), that cache's hit rates and
/// pivot counters `st`, and the §6 bound split.
pub fn wcet_layer(st: CacheStats, phases: &[PhaseTimes], sys: u64, irq: u64, out: &mut Values) {
    let (mut cfg, mut costs, mut ilp) = (0.0, 0.0, 0.0);
    for p in phases {
        cfg += p.build.as_secs_f64();
        costs += p.costs.as_secs_f64();
        ilp += p.ilp.as_secs_f64();
    }
    out.insert("wcet.cfg_s", cfg);
    out.insert("wcet.costs_s", costs);
    out.insert("ilp.solve_s", ilp);
    out.insert("wcet.hit_rate.cfgs", st.cfgs.hit_rate());
    out.insert("wcet.hit_rate.costs", st.costs.hit_rate());
    out.insert("wcet.hit_rate.block_costs", st.block_costs.hit_rate());
    out.insert("wcet.hit_rate.ilp_structure", st.ilp_structures.hit_rate());
    out.insert("wcet.hit_rate.reports", st.reports.hit_rate());
    out.insert(
        "ilp.pivots",
        (st.resolve.warm_pivots + st.resolve.seed_pivots) as f64,
    );
    out.insert(
        "ilp.warm_pivots_per_resolve",
        st.resolve.warm_pivots_per_resolve(),
    );
    out.insert("wcet.syscall_cycles", sys as f64);
    out.insert("wcet.interrupt_cycles", irq as f64);
    out.insert("wcet.bound_vs_paper", (sys + irq) as f64 / PAPER_BOUND);
}

/// Phase times of the headline-configuration report of every entry
/// point — what the set-up analyses of the load and explore workloads
/// built. These lookups are memo hits, so take the stats snapshot first.
pub fn setup_phases(cache: &AnalysisCache) -> Vec<PhaseTimes> {
    let cfg = AnalysisConfig::after_l2_off();
    EntryPoint::ALL
        .iter()
        .map(|&e| cache.analyze(e, &cfg).phases)
        .collect()
}
