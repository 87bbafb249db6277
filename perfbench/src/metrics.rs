//! The metric vocabulary: what each metric is called, its unit, and —
//! for per-layer metrics — the end-to-end metric and workload it should
//! move. `BENCHMARK.json` lists the same names; a test keeps them equal.

/// A metric definition.
pub struct Def {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric (and workload) this one should move, or, for an
    /// end-to-end metric, the workloads it is reported on.
    pub maps_to: &'static str,
}

const fn d(name: &'static str, unit: &'static str, maps_to: &'static str) -> Def {
    Def {
        name,
        unit,
        maps_to,
    }
}

/// End-to-end metrics in the result line of an untraced run. Every
/// workload reports each of them.
pub const E2E: &[Def] = &[
    d(
        "ref_ops_per_s",
        "ops/s",
        "all: events/s, states/s or reports/s by workload, at the reference host speed",
    ),
    d("setup_s", "s", "all, at the reference host speed"),
    d("peak_rss_mb", "MiB", "all"),
];

/// The full end-to-end table, printed by name for the workloads each
/// applies to. The deterministic simulated metrics (`irq_*`,
/// `wcet_bound_cycles`) are also pinned by the digest checks.
pub const NAMED: &[Def] = &[
    d("setup_s", "s", "all, at the reference host speed"),
    d("peak_rss_mb", "MiB", "all"),
    d("host_setup_s", "s", "all, as measured"),
    d("ops_per_s", "ops/s", "all, as measured"),
    d("slot_s", "s", "all: calibration slot, as measured"),
    d("events_per_s", "events/s", "load-standard"),
    d("sim_cycles_per_s", "cycles/s", "load-standard"),
    d("states_per_s", "states/s", "explore-wide, explore-smp"),
    d("analyses_per_s", "reports/s", "fleet-wcet"),
    d("irq_p50_cycles", "cycles", "load-standard"),
    d("irq_p999_cycles", "cycles", "load-standard"),
    d("irq_max_cycles", "cycles", "load-standard"),
    d("wcet_bound_cycles", "cycles", "load-standard, fleet-wcet"),
    d("error_rate", "ratio", "all"),
];

const LOAD_RATE: &str = "events_per_s, sim_cycles_per_s on load-standard";
const LOAD_EVENTS: &str = "events_per_s on load-standard";
const LOAD_TAIL: &str = "irq_p999_cycles on load-standard";
const LOAD_BOUND: &str = "irq_max_cycles, wcet_bound_cycles on load-standard";
const HW_WORST: &str = "irq_max_cycles on load-standard";
const SIM_SPEED: &str = "sim_cycles_per_s on load-standard, states_per_s on explore-wide";
const STATES: &str = "states_per_s on explore-wide, explore-smp";
const BOUND: &str = "wcet_bound_cycles on load-standard, fleet-wcet";
const ANALYSER: &str = "analyses_per_s on fleet-wcet, setup_s elsewhere";
const FLEET: &str = "analyses_per_s on fleet-wcet";
const POOL: &str = "analyses_per_s on fleet-wcet, events_per_s on load-standard";
const TRACE: &str = "tracing overhead (all workloads)";

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports its spans and counts as 0; the probes run on every workload.
pub const LAYER: &[Def] = &[
    // rt-load
    d("load.boot_s", "s", LOAD_RATE),
    d("load.arrival_s", "s", LOAD_RATE),
    d("load.kernel_s", "s", LOAD_RATE),
    d("load.merge_s", "s", LOAD_EVENTS),
    d("load.replay_s", "s", LOAD_EVENTS),
    d("load.shard_max_over_mean", "ratio", LOAD_EVENTS),
    d("load.visits", "count", LOAD_TAIL),
    d("load.irq_responses", "count", LOAD_TAIL),
    d("load.preempted", "count", LOAD_TAIL),
    d("load.restarts", "count", LOAD_TAIL),
    d("load.fastpath_ratio", "ratio", LOAD_TAIL),
    d("load.syscall_p50_cycles", "cycles", LOAD_BOUND),
    d("load.syscall_p999_cycles", "cycles", LOAD_BOUND),
    d("load.headroom_min_cycles", "cycles", LOAD_BOUND),
    // rt-hw
    d("hw.worst_pipeline_cycles", "cycles", HW_WORST),
    d("hw.worst_ifetch_cycles", "cycles", HW_WORST),
    d("hw.worst_dmiss_cycles", "cycles", HW_WORST),
    d("hw.worst_l2_cycles", "cycles", HW_WORST),
    d("hw.access_hit_ns", "ns", SIM_SPEED),
    d("hw.access_miss_ns", "ns", SIM_SPEED),
    // rt-kernel
    d("kernel.snapshot_ns", "ns", STATES),
    d("kernel.restore_ns", "ns", STATES),
    d("kernel.invariants_ns", "ns", STATES),
    d("kernel.choose_thread_cycles.lazy", "cycles", BOUND),
    d("kernel.choose_thread_cycles.benno", "cycles", BOUND),
    d("kernel.choose_thread_cycles.bitmap", "cycles", BOUND),
    d("kernel.choose_thread_ns.lazy", "ns", SIM_SPEED),
    d("kernel.choose_thread_ns.benno", "ns", SIM_SPEED),
    d("kernel.choose_thread_ns.bitmap", "ns", SIM_SPEED),
    d("kernel.decode_cycles.depth1", "cycles", BOUND),
    d("kernel.decode_cycles.depth8", "cycles", BOUND),
    d("kernel.decode_cycles.depth32", "cycles", BOUND),
    d("kernel.decode_ns.depth1", "ns", SIM_SPEED),
    d("kernel.decode_ns.depth8", "ns", SIM_SPEED),
    d("kernel.decode_ns.depth32", "ns", SIM_SPEED),
    // rt-explore
    d("explore.hash_ns", "ns", STATES),
    d("explore.oracle_ns", "ns", STATES),
    d("explore.replay_ns", "ns", STATES),
    d("explore.states", "count", STATES),
    d("explore.distinct_ratio", "ratio", STATES),
    d("explore.interleavings", "count", STATES),
    d("explore.sleep_skips", "count", STATES),
    d("explore.snap_captured", "count", STATES),
    d("explore.snap_forks", "count", STATES),
    d("explore.replays_avoided", "count", STATES),
    d(
        "explore.peak_resident",
        "count",
        "peak_rss_mb on explore-wide, explore-smp",
    ),
    d("explore.hash_share", "ratio", STATES),
    d("explore.snapshot_share", "ratio", STATES),
    d("explore.restore_share", "ratio", STATES),
    d("explore.other_share", "ratio", STATES),
    // rt-wcet / rt-ilp
    d("wcet.cfg_s", "s", ANALYSER),
    d("wcet.costs_s", "s", ANALYSER),
    d("ilp.solve_s", "s", ANALYSER),
    d("wcet.other_s", "s", FLEET),
    d("wcet.hit_rate.cfgs", "ratio", FLEET),
    d("wcet.hit_rate.costs", "ratio", FLEET),
    d("wcet.hit_rate.block_costs", "ratio", FLEET),
    d("wcet.hit_rate.ilp_structure", "ratio", FLEET),
    d("wcet.hit_rate.reports", "ratio", FLEET),
    d("ilp.pivots", "count", FLEET),
    d("ilp.warm_pivots_per_resolve", "ratio", FLEET),
    d("ilp.cold_solve_ns", "ns", ANALYSER),
    d("ilp.warm_solve_ns", "ns", ANALYSER),
    d("ilp.cold_pivots", "count", ANALYSER),
    d("ilp.warm_pivots", "count", ANALYSER),
    d("wcet.syscall_cycles", "cycles", BOUND),
    d("wcet.interrupt_cycles", "cycles", BOUND),
    d("wcet.bound_vs_paper", "ratio", BOUND),
    // rt-pool
    d("pool.steals", "count", POOL),
    d("pool.failed_steals", "count", POOL),
    d("pool.idle_s", "s", POOL),
    // the trace itself
    d("trace.wall_s", "s", TRACE),
    d("trace.untraced_wall_s", "s", TRACE),
    d("trace.overhead_s", "s", TRACE),
    d("trace.self_sum_s", "s", TRACE),
];
