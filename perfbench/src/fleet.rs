//! `fleet-wcet`: a stride sample of the WCET config fleet through
//! `rt_wcet::analyze_batch_bounds_with`, each batch on a fresh
//! `AnalysisCache`, spot-checked against the uncached analysis.

use std::time::Instant;

use rt_bench::sweep::{fleet_jobs, reports_identical};
use rt_kernel::kernel::{EntryPoint, Kernel, KernelConfig};
use rt_pool::Pool;
use rt_wcet::kmodel::BoundParams;
use rt_wcet::{analyze_batch_bounds_with, AnalysisCache, AnalysisConfig, CacheStats, WcetReport};

use crate::check::Checks;
use crate::probes::Values;
use crate::trace::{Span, Tracer};
use crate::workload::{section6_bound, wcet_layer, Batch, Ctx, Workload};

/// Jobs per batch: a deterministic stride over the ~2,700-config fleet
/// that still samples every axis.
pub const JOBS: usize = 128;
/// Uncached spot-checks per batch, rotating through the job list.
pub const SPOT_CHECKS: usize = 2;

type Job = (EntryPoint, AnalysisConfig, BoundParams);

/// The set-up workload.
pub struct Fleet {
    jobs: Vec<Job>,
    pool: Pool,
    sys: u64,
    irq: u64,
    batches: usize,
    last: Option<(CacheStats, Vec<WcetReport>, f64)>,
}

impl Fleet {
    /// Set-up: the §6 bound on a fresh cache (with its layout), and the
    /// fleet job list.
    pub fn setup(ctx: Ctx, checks: &mut Checks) -> Fleet {
        let cache = AnalysisCache::new();
        cache.layout();
        let (sys, irq) = section6_bound(&cache);
        checks.value("wcet_bound_cycles", sys + irq);
        Fleet {
            jobs: fleet_jobs(JOBS),
            pool: Pool::new(ctx.workers),
            sys,
            irq,
            batches: 0,
            last: None,
        }
    }
}

/// Digest of every report's cycles, in job order.
pub fn cycles_bytes(reports: &[WcetReport]) -> Vec<u8> {
    reports
        .iter()
        .flat_map(|r| r.cycles.to_le_bytes())
        .collect()
}

/// Judges one batch: the digest of the report cycles, and `spot` reports
/// against the uncached analysis of their job.
pub fn judge(jobs: &[Job], reports: &[WcetReport], spot: &[usize], checks: &mut Checks) {
    checks.count(reports.len() as u64, 0, "fleet reports");
    checks.digest("fleet-wcet", &cycles_bytes(reports));
    for &i in spot {
        let (entry, cfg, bounds) = jobs[i];
        let fresh = rt_wcet::analysis::analyze_with_bounds(entry, &cfg, &bounds);
        checks.check(reports_identical(&reports[i], &fresh), || {
            format!("fleet report {i} differs from its uncached analysis")
        });
    }
}

impl Workload for Fleet {
    fn batch(&mut self, tr: &Tracer, run: u32, checks: &mut Checks) -> Batch {
        let t0 = Instant::now();
        let cache = AnalysisCache::new();
        let reports = tr.span("fleet.batch", None, run, |_| {
            analyze_batch_bounds_with(&self.jobs, &self.pool, &cache)
        });
        let wall = t0.elapsed().as_secs_f64();
        let n = self.jobs.len();
        let stride = n / SPOT_CHECKS;
        let spot: Vec<usize> = (0..SPOT_CHECKS)
            .map(|k| (self.batches * 7 + k * stride) % n)
            .collect();
        judge(&self.jobs, &reports, &spot, checks);
        self.batches += 1;
        let ops = reports.len() as u64;
        self.last = Some((cache.stats(), reports, wall));
        Batch {
            wall,
            ops,
            named: vec![
                ("analyses_per_s", ops as f64 / wall),
                ("wcet_bound_cycles", (self.sys + self.irq) as f64),
            ],
        }
    }

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn layer(&self, _spans: &[Span], _traced: usize, out: &mut Values) {
        if let Some((stats, reports, wall)) = &self.last {
            let phases: Vec<_> = reports.iter().map(|r| r.phases).collect();
            wcet_layer(*stats, &phases, self.sys, self.irq, out);
            // Worker time outside the three timed phases: ILP structure
            // presolve and basis seeding, report assembly, memo traffic.
            let timed: f64 = ["wcet.cfg_s", "wcet.costs_s", "ilp.solve_s"]
                .iter()
                .map(|k| out.get(k).copied().unwrap_or(0.0))
                .sum();
            out.insert("wcet.other_s", self.pool.jobs() as f64 * wall - timed);
        }
    }

    fn probe_kernels(&self) -> Vec<Kernel> {
        vec![Kernel::new(
            KernelConfig::after(),
            rt_hw::HwConfig::default(),
        )]
    }

    fn report(&self) -> String {
        let Some((_, reports, _)) = &self.last else {
            return String::new();
        };
        let cycles = reports.iter().map(|r| r.cycles);
        format!(
            "fleet-wcet: {} reports, bounds {}..{} cycles\n",
            reports.len(),
            cycles.clone().min().unwrap_or(0),
            cycles.max().unwrap_or(0)
        )
    }
}
