//! `explore-wide` and `explore-smp`: the schedule explorer through
//! `rt_explore::explore_scenario`, one call per scenario per batch.

use std::hint::black_box;
use std::time::Instant;

use rt_explore::{
    execute, explore_scenario, render_line, replay, scenario, scenario_line_bounds,
    wcet_latency_bound, BoundMemo, ExploreConfig, ExploreReport, PorMode, Scenario,
};
use rt_hw::IrqLine;
use rt_kernel::kernel::Kernel;
use rt_pool::Pool;
use rt_wcet::{AnalysisCache, CacheStats};

use crate::check::Checks;
use crate::probes::{ns_per_call, Values};
use crate::trace::{Span, Tracer};
use crate::workload::{section6_bound, setup_phases, wcet_layer, Batch, Ctx, Workload};

/// Which scenario set a workload explores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Set {
    /// `ep-delete-wide` at depth 20 with a 1M-state budget.
    Wide,
    /// Every SMP scenario at depth 12.
    Smp,
}

impl Set {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Set::Wide => "explore-wide",
            Set::Smp => "explore-smp",
        }
    }

    fn scenarios(self) -> Vec<Scenario> {
        match self {
            Set::Wide => vec![scenario::by_name("ep-delete-wide").expect("ep-delete-wide exists")],
            Set::Smp => scenario::smp_all(),
        }
    }

    fn depth(self) -> usize {
        match self {
            Set::Wide => 20,
            Set::Smp => 12,
        }
    }

    fn budget(self) -> Option<usize> {
        match self {
            Set::Wide => Some(1_000_000),
            Set::Smp => None,
        }
    }
}

/// Snapshot cadence: the explorer's default.
const SNAPSHOT_EVERY: usize = 4;

/// The set-up workload.
pub struct Explore {
    set: Set,
    scenarios: Vec<Scenario>,
    cache: AnalysisCache,
    memo: BoundMemo,
    pool: Pool,
    sys: u64,
    irq: u64,
    cache_stats: CacheStats,
    phases: Vec<rt_wcet::analysis::PhaseTimes>,
    last: Vec<ExploreReport>,
    last_wall: f64,
}

impl Explore {
    /// Set-up: fresh analysis cache, the §6 bound, the scenario list and
    /// each scenario's per-line bounds (so batches find them memoized).
    pub fn setup(set: Set, ctx: Ctx, checks: &mut Checks) -> Explore {
        let cache = AnalysisCache::new();
        let (sys, irq) = section6_bound(&cache);
        checks.value("wcet_bound_cycles", sys + irq);
        black_box(wcet_latency_bound(&cache));
        let scenarios = set.scenarios();
        for sc in &scenarios {
            let lines: Vec<IrqLine> = (sc.build)().irqs.iter().map(|&(l, _)| l).collect();
            black_box(scenario_line_bounds(&cache, &lines));
        }
        let cache_stats = cache.stats();
        Explore {
            phases: setup_phases(&cache),
            set,
            scenarios,
            cache,
            memo: BoundMemo::default(),
            pool: Pool::new(ctx.workers),
            sys,
            irq,
            cache_stats,
            last: Vec::new(),
            last_wall: 0.0,
        }
    }

    fn config(&self) -> ExploreConfig {
        ExploreConfig {
            max_depth: self.set.depth(),
            por: PorMode::Sleep,
            ..ExploreConfig::default()
        }
    }
}

/// Judges one batch: no counterexample in any scenario, and the digest
/// of the rendered scenario lines.
pub fn judge(key: &str, reports: &[ExploreReport], checks: &mut Checks) {
    let states: usize = reports.iter().map(|r| r.states).sum();
    let cex = reports
        .iter()
        .filter(|r| r.counterexample.is_some())
        .count();
    checks.count(states as u64, cex as u64, &format!("{key} counterexamples"));
    let lines: String = reports.iter().map(render_line).collect();
    checks.digest(key, lines.as_bytes());
}

impl Workload for Explore {
    fn batch(&mut self, tr: &Tracer, run: u32, checks: &mut Checks) -> Batch {
        let t0 = Instant::now();
        let (depth, budget) = (self.set.depth(), self.set.budget());
        let reports: Vec<ExploreReport> = tr.span("explore.batch", None, run, |root| {
            self.scenarios
                .iter()
                .map(|sc| {
                    tr.span("explore.scenario", root, run, |_| {
                        explore_scenario(
                            sc,
                            depth,
                            PorMode::Sleep,
                            budget,
                            SNAPSHOT_EVERY,
                            &self.pool,
                            &self.cache,
                            &mut self.memo,
                        )
                    })
                })
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        judge(self.set.name(), &reports, checks);
        let states: usize = reports.iter().map(|r| r.states).sum();
        self.last = reports;
        self.last_wall = wall;
        Batch {
            wall,
            ops: states as u64,
            named: vec![("states_per_s", states as f64 / wall)],
        }
    }

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn layer(&self, _spans: &[Span], _traced: usize, out: &mut Values) {
        let sum = |f: fn(&ExploreReport) -> u64| self.last.iter().map(f).sum::<u64>() as f64;
        let states = sum(|r| r.states as u64);
        out.insert("explore.states", states);
        out.insert(
            "explore.distinct_ratio",
            sum(|r| r.distinct_states as u64) / states.max(1.0),
        );
        out.insert("explore.interleavings", sum(|r| r.interleavings as u64));
        out.insert("explore.sleep_skips", sum(|r| r.sleep_skips));
        let captured = sum(|r| r.snap.captured);
        let forks = sum(|r| r.snap.forks);
        out.insert("explore.snap_captured", captured);
        out.insert("explore.snap_forks", forks);
        out.insert("explore.replays_avoided", sum(|r| r.snap.replays_avoided));
        out.insert(
            "explore.peak_resident",
            self.last
                .iter()
                .map(|r| r.snap.peak_resident)
                .max()
                .unwrap_or(0) as f64,
        );

        // Probes on fresh instances of this workload's scenarios.
        let cfg = self.config();
        let (mut hash, mut oracle, mut replay_ns) = (0.0, 0.0, 0.0);
        for sc in &self.scenarios {
            let inst = (sc.build)();
            let cursors = vec![0usize; inst.scripts.len()];
            hash += ns_per_call(|| {
                black_box(rt_explore::state::canonical_hash(
                    &inst.kernel,
                    &cursors,
                    &inst.irqs,
                ));
            });
            oracle += ns_per_call(|| {
                black_box(rt_explore::oracle::check_consistency(&inst.kernel));
            });
            let trace = execute(sc, &[], None, &cfg).taken;
            replay_ns += ns_per_call(|| {
                black_box(replay(sc, &trace, &cfg));
            });
        }
        let n = self.scenarios.len() as f64;
        let (hash, oracle) = (hash / n, oracle / n);
        out.insert("explore.hash_ns", hash);
        out.insert("explore.oracle_ns", oracle);
        out.insert("explore.replay_ns", replay_ns / n);

        // Worker time of the last batch, split by probe cost x count.
        // Hashing runs once per boundary a run newly executes, not per
        // checked state (states resumed from a snapshot are counted but
        // not re-run), so its count is the lower bound "every distinct
        // state once, plus the hit that pruned each pruned run".
        let worker_ns = self.last_wall * 1e9 * self.pool.jobs() as f64;
        let hashes = sum(|r| (r.distinct_states + r.pruned) as u64);
        let snap = out.get("kernel.snapshot_ns").copied().unwrap_or(0.0);
        let restore = out.get("kernel.restore_ns").copied().unwrap_or(0.0);
        let shares = [
            ("explore.hash_share", hashes * hash / worker_ns),
            ("explore.snapshot_share", captured * snap / worker_ns),
            ("explore.restore_share", forks * restore / worker_ns),
        ];
        let rest = 1.0 - shares.iter().map(|s| s.1).sum::<f64>();
        for (k, v) in shares {
            out.insert(k, v);
        }
        out.insert("explore.other_share", rest);
        wcet_layer(self.cache_stats, &self.phases, self.sys, self.irq, out);
    }

    fn probe_kernels(&self) -> Vec<Kernel> {
        self.scenarios
            .iter()
            .map(|sc| (sc.build)().kernel)
            .collect()
    }

    fn report(&self) -> String {
        self.last.iter().map(render_line).collect()
    }
}
