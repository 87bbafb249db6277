//! `load-standard`: the heavy-traffic load engine at a fixed size.
//!
//! One batch is what `rt_load::run_load` does — every shard through
//! `run_shard` on the pool, `LoadResult::merge`, then `attribute_worst`
//! on the worst sample — composed here so each step gets its own span.
//! The per-line bounds and the syscall WCET are computed in set-up.

use std::hint::black_box;
use std::time::Instant;

use rt_hw::Cycles;
use rt_kernel::kernel::{Kernel, TIMER_LINE};
use rt_load::scenario::build_shard;
use rt_load::ShardReport;
use rt_load::{attribute_worst, run_shard, shard_seed, Arrival, Hist, LoadResult, LoadSpec, Rng64};
use rt_pool::Pool;
use rt_wcet::{AnalysisCache, AnalysisConfig, CacheStats, SmpParams};

use crate::check::Checks;
use crate::probes::Values;
use crate::trace::{durations, self_seconds_by_name, Span, Tracer};
use crate::workload::{section6_bound, setup_phases, wcet_layer, Batch, Ctx, Workload};

/// Recorded events per batch: enough interrupt responses (~22k) that
/// p99.9 has at least ten samples beyond it.
pub const EVENTS: u64 = 250_000;
/// Tenants per shard.
pub const TENANTS: u32 = 64;
/// Shards per run (fixed by the spec, not by the pool size).
pub const SHARDS: u32 = 32;

/// The set-up workload.
pub struct Load {
    spec: LoadSpec,
    bounds: Vec<(u8, Cycles)>,
    syscall_wcet: Cycles,
    sys: u64,
    irq: u64,
    pool: Pool,
    cache_stats: CacheStats,
    phases: Vec<rt_wcet::analysis::PhaseTimes>,
    last: Option<(LoadResult, Vec<ShardReport>)>,
}

/// The spec `repro load --events 250000 --tenants 64 --shards 32 --seed S`
/// runs.
pub fn spec(seed: u64) -> LoadSpec {
    LoadSpec::standard(seed, EVENTS, TENANTS, SHARDS)
}

impl Load {
    /// Set-up: fresh analysis cache, per-line bounds, §6 bound, spec.
    pub fn setup(ctx: Ctx, checks: &mut Checks) -> Load {
        Load::with_spec(spec(ctx.seed), ctx, checks)
    }

    /// Set-up for an arbitrary spec (tests use small ones).
    pub fn with_spec(spec: LoadSpec, ctx: Ctx, checks: &mut Checks) -> Load {
        let cache = AnalysisCache::new();
        let cfg = AnalysisConfig::after_l2_off();
        let bounds = rt_wcet::smp_irq_line_bounds(
            &cache,
            &cfg,
            &spec.active_lines(),
            &SmpParams::new(spec.cores),
        );
        let (sys, irq) = section6_bound(&cache);
        checks.value("wcet_bound_cycles", sys + irq);
        let cache_stats = cache.stats();
        Load {
            syscall_wcet: sys,
            phases: setup_phases(&cache),
            spec,
            bounds,
            sys,
            irq,
            pool: Pool::new(ctx.workers),
            cache_stats,
            last: None,
        }
    }

    /// One batch without checks: the shard reports and the merged result
    /// with the worst sample's attribution.
    pub fn run(&self, tr: &Tracer, run: u32) -> (LoadResult, Vec<ShardReport>) {
        tr.span("load.batch", None, run, |root| {
            let shards: Vec<u32> = (0..self.spec.shards).collect();
            let reports = tr.span("load.shards", root, run, |p| {
                self.pool.parallel_map(shards, |s| {
                    tr.span("load.shard", p, run, |sp| {
                        if tr.is_on() {
                            // Twins of the boot and arrival steps run_shard
                            // performs first, so their share can be split
                            // out of its span.
                            tr.span("load.boot", sp, run, |_| black_box(build_shard(&self.spec)));
                            tr.span("load.arrival", sp, run, |_| black_box(self.arrivals(s)));
                        }
                        tr.span("load.run_shard", sp, run, |_| {
                            run_shard(&self.spec, s, &self.bounds)
                        })
                    })
                })
            });
            let mut result = tr.span("load.merge", root, run, |_| {
                LoadResult::merge(&self.spec, &self.bounds, self.syscall_wcet, &reports)
            });
            if let Some(w) = result.worst {
                let replay = tr.span("load.replay", root, run, |_| {
                    attribute_worst(&self.spec, &w, &self.bounds)
                });
                result.attribution = replay.attribution;
            }
            (result, reports)
        })
    }

    /// The open-loop schedules `run_shard` draws for shard `s` first: the
    /// timer and every storm line, each from a random phase, with arrival
    /// gaps clamped to the largest bound.
    fn arrivals(&self, s: u32) -> Vec<Vec<Cycles>> {
        let mut rng = Rng64::new(shard_seed(self.spec.seed, s));
        let budget = self
            .bounds
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(0)
            .max(1);
        let count = (self.spec.shard_quota() / 4 / (self.spec.storm.len() as u64 + 1)).max(4);
        let timer = Arrival::Periodic {
            period: self.spec.timer_period,
        };
        std::iter::once((TIMER_LINE, &timer))
            .chain(self.spec.storm.iter().map(|(l, a)| (*l, a)))
            .map(|(_, arrival)| {
                let phase = rng.gen_range(1, budget + 1);
                arrival.schedule(&mut rng, phase, count as usize, budget)
            })
            .collect()
    }
}

/// All lines' response histograms merged.
pub fn all_lines(r: &LoadResult) -> Hist {
    let mut h = Hist::new();
    for (_, l) in &r.lines {
        h.merge(l);
    }
    h
}

/// The highest of p99.9, p99, p90 and p50 with at least ten samples
/// beyond it, as `(permille, cycles)`.
pub fn tail(h: &Hist) -> (u64, Cycles) {
    let n = h.count();
    for pm in [999, 990, 900, 500] {
        if n * (1000 - pm) / 1000 >= 10 {
            return (pm, h.quantile(pm, 1000));
        }
    }
    (1000, h.max())
}

/// Judges one batch: every response against its bound, the worst
/// sample's replay, and the digest of the rendered report.
pub fn judge(r: &LoadResult, checks: &mut Checks) {
    checks.count(
        r.irq_responses,
        r.violations_total,
        "load responses above their bound",
    );
    let replay = r.attribution.is_some_and(|a| a.replay_matches);
    checks.check(replay, || "load worst-sample replay diverged".into());
    checks.digest(
        &format!("load-standard/seed/{}", r.seed),
        r.render().as_bytes(),
    );
}

impl Workload for Load {
    fn batch(&mut self, tr: &Tracer, run: u32, checks: &mut Checks) -> Batch {
        let t0 = Instant::now();
        let (result, reports) = self.run(tr, run);
        let wall = t0.elapsed().as_secs_f64();
        judge(&result, checks);
        let h = all_lines(&result);
        let sim: u64 = reports.iter().map(|r| r.end_cycle).sum();
        let named = vec![
            ("events_per_s", result.events as f64 / wall),
            ("sim_cycles_per_s", sim as f64 / wall),
            ("irq_p50_cycles", h.quantile(500, 1000) as f64),
            ("irq_p999_cycles", tail(&h).1 as f64),
            ("irq_max_cycles", h.max() as f64),
            ("irq_responses", h.count() as f64),
            ("wcet_bound_cycles", (self.sys + self.irq) as f64),
        ];
        let ops = result.events;
        self.last = Some((result, reports));
        Batch { wall, ops, named }
    }

    fn pool(&self) -> &Pool {
        &self.pool
    }

    fn layer(&self, spans: &[Span], traced: usize, out: &mut Values) {
        let per = traced.max(1) as f64;
        let selfs = self_seconds_by_name(spans);
        let get = |n: &str| selfs.get(n).copied().unwrap_or(0.0) / per;
        let (boot, arrival) = (get("load.boot"), get("load.arrival"));
        out.insert("load.boot_s", boot);
        out.insert("load.arrival_s", arrival);
        out.insert("load.kernel_s", get("load.run_shard") - boot - arrival);
        out.insert("load.merge_s", get("load.merge"));
        out.insert("load.replay_s", get("load.replay"));
        let shard = durations(spans, "load.run_shard");
        let mean = shard.iter().sum::<f64>() / shard.len().max(1) as f64;
        let max = shard.iter().copied().fold(0.0, f64::max);
        out.insert(
            "load.shard_max_over_mean",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        if let Some((r, _)) = &self.last {
            out.insert("load.visits", r.syscall_visits as f64);
            out.insert("load.irq_responses", r.irq_responses as f64);
            out.insert("load.preempted", r.preempted as f64);
            out.insert("load.restarts", r.restarts as f64);
            out.insert(
                "load.fastpath_ratio",
                r.fastpath_hits as f64 / r.syscall_visits.max(1) as f64,
            );
            out.insert(
                "load.syscall_p50_cycles",
                r.syscalls.quantile(500, 1000) as f64,
            );
            out.insert("load.syscall_p999_cycles", tail(&r.syscalls).1 as f64);
            let headroom = r
                .lines
                .iter()
                .filter_map(|(l, h)| Some(r.bound_for(*l)?.saturating_sub(h.max())))
                .min()
                .unwrap_or(0);
            out.insert("load.headroom_min_cycles", headroom as f64);
            if let Some(a) = r.attribution {
                out.insert("hw.worst_pipeline_cycles", a.pipeline as f64);
                out.insert("hw.worst_ifetch_cycles", a.ifetch_miss as f64);
                out.insert("hw.worst_dmiss_cycles", a.dmiss as f64);
                out.insert("hw.worst_l2_cycles", a.l2 as f64);
            }
        }
        wcet_layer(self.cache_stats, &self.phases, self.sys, self.irq, out);
    }

    fn probe_kernels(&self) -> Vec<Kernel> {
        vec![build_shard(&self.spec).kernel]
    }

    fn report(&self) -> String {
        self.last
            .as_ref()
            .map_or(String::new(), |(r, _)| r.render())
    }
}
