//! The benchmark's own tests: its pipelines reproduce the library's
//! reports, every output check trips on a perturbed input, and the
//! metric vocabulary matches `BENCHMARK.json`.

use std::collections::BTreeMap;

use rt_explore::{explore, scenario, ExploreConfig, PorMode, SeededBug};
use rt_load::{FaultInjection, LoadSpec};
use rt_pool::Pool;
use rt_wcet::{analyze_batch_bounds_with, AnalysisCache, AnalysisConfig};

use crate::check::{fnv1a, parse_expected, Checks, EXPECTED};
use crate::metrics::{E2E, LAYER};
use crate::trace::Tracer;
use crate::workload::Ctx;
use crate::{explore as ex, fleet, load, EXTRA_WORKLOADS, WORKLOADS};

fn small_spec() -> LoadSpec {
    let mut spec = LoadSpec::standard(11, 2_000, 12, 2);
    spec.timer_period = 300_000;
    spec
}

const CTX: Ctx = Ctx {
    seed: 11,
    workers: 1,
};

/// Checks that expect exactly `key -> digest of bytes`.
fn expecting(key: &str, bytes: &[u8]) -> Checks {
    let mut m = BTreeMap::new();
    m.insert(key.to_string(), format!("{:016x}", fnv1a(bytes)));
    Checks::new(m)
}

#[test]
fn load_pipeline_renders_what_run_load_renders() {
    let spec = small_spec();
    let l = load::Load::with_spec(spec.clone(), CTX, &mut Checks::committed());
    let (mine, _) = l.run(&Tracer::new(true), 0);
    let theirs = rt_load::run_load(
        &spec,
        &Pool::new(2),
        &AnalysisCache::new(),
        &AnalysisConfig::after_l2_off(),
    );
    assert_eq!(mine.render(), theirs.render());
}

#[test]
fn load_checks_trip_on_perturbed_results() {
    let l = load::Load::with_spec(small_spec(), CTX, &mut Checks::committed());
    let (clean, _) = l.run(&Tracer::new(false), 0);
    let key = "load-standard/seed/11";
    let mut checks = expecting(key, clean.render().as_bytes());
    load::judge(&clean, &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);

    // A changed simulated statistic changes the digest.
    let mut moved = clean.clone();
    moved.irq_responses += 1;
    let mut checks = expecting(key, clean.render().as_bytes());
    load::judge(&moved, &mut checks);
    assert!(checks.failed > 0, "digest check missed a changed statistic");

    // A worst-sample replay that diverged.
    let mut diverged = clean.clone();
    if let Some(a) = diverged.attribution.as_mut() {
        a.replay_matches = false;
    }
    let mut checks = expecting(key, diverged.render().as_bytes());
    load::judge(&diverged, &mut checks);
    assert_eq!(checks.failed, 1, "{:?}", checks.notes);
}

#[test]
fn load_check_trips_on_a_response_above_its_bound() {
    let mut spec = small_spec();
    let bound_max = rt_wcet::smp_irq_line_bounds(
        &AnalysisCache::new(),
        &AnalysisConfig::after_l2_off(),
        &spec.active_lines(),
        &rt_wcet::SmpParams::new(1),
    )
    .iter()
    .map(|&(_, b)| b)
    .max()
    .expect("lines have bounds");
    spec.fault = Some(FaultInjection {
        shard: 1,
        line: 0,
        after: 1,
        delay: bound_max + 50_000,
    });
    let l = load::Load::with_spec(spec, CTX, &mut Checks::committed());
    let (r, _) = l.run(&Tracer::new(false), 0);
    let mut checks = Checks::new(BTreeMap::new());
    load::judge(&r, &mut checks);
    assert!(checks.failed >= 1, "oracle missed the injected delay");
}

#[test]
fn explore_checks_trip_on_counterexamples_and_changed_reports() {
    let sc = scenario::by_name("ep-delete").expect("scenario");
    let cfg = ExploreConfig {
        max_depth: 6,
        por: PorMode::Sleep,
        ..ExploreConfig::default()
    };
    let pool = Pool::new(1);
    let clean = explore(&sc, &cfg, &pool);
    let line = rt_explore::render_line(&clean);
    let mut checks = expecting("explore-wide", line.as_bytes());
    ex::judge("explore-wide", std::slice::from_ref(&clean), &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);

    let mut moved = clean.clone();
    moved.distinct_states += 1;
    let mut checks = expecting("explore-wide", line.as_bytes());
    ex::judge("explore-wide", &[moved], &mut checks);
    assert_eq!(checks.failed, 1, "digest check missed a changed report");

    let buggy = ExploreConfig {
        seeded_bug: Some(SeededBug::DropRunnable),
        ..cfg
    };
    let bad = explore(&sc, &buggy, &pool);
    let mut checks = Checks::new(BTreeMap::new());
    ex::judge("explore-wide", &[bad], &mut checks);
    assert!(
        checks.failed >= 1,
        "counterexample not counted as a failure"
    );
}

#[test]
fn fleet_checks_trip_on_a_changed_report() {
    let jobs = rt_bench::sweep::fleet_jobs(2);
    let reports = analyze_batch_bounds_with(&jobs, &Pool::new(1), &AnalysisCache::new());
    let bytes = fleet::cycles_bytes(&reports);
    let mut checks = expecting("fleet-wcet", &bytes);
    fleet::judge(&jobs, &reports, &[], &mut checks);
    assert_eq!(checks.failed, 0, "{:?}", checks.notes);

    let mut moved = reports.clone();
    moved[0].cycles += 1;
    let mut checks = expecting("fleet-wcet", &bytes);
    fleet::judge(&jobs, &moved, &[0], &mut checks);
    assert_eq!(
        checks.failed, 2,
        "digest and spot-check must both trip: {:?}",
        checks.notes
    );
}

#[test]
fn committed_values_trip_when_they_differ() {
    let mut checks = Checks::committed();
    checks.value("wcet_bound_cycles", 177_028);
    assert_eq!(checks.failed, 0);
    checks.value("wcet_bound_cycles", 177_029);
    assert_eq!(checks.failed, 1);
    // A run whose batches disagree fails even with no committed digest.
    let mut checks = Checks::new(BTreeMap::new());
    checks.digest("k", b"one");
    checks.digest("k", b"two");
    assert_eq!(checks.failed, 1);
}

#[test]
fn committed_expected_values_cover_every_workload() {
    let e = parse_expected(EXPECTED);
    for key in [
        "wcet_bound_cycles",
        "explore-wide",
        "explore-smp",
        "fleet-wcet",
        "load-standard/seed/42",
        "load-standard/seed/7",
    ] {
        assert!(e.contains_key(key), "expected.txt lacks {key}");
    }
}

#[test]
fn benchmark_json_lists_the_metric_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for d in E2E.iter().chain(LAYER) {
        let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\",", d.name, d.unit);
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")));
    }
    for w in EXTRA_WORKLOADS {
        assert!(
            !compact.contains(&format!("\"{w}\"")),
            "{w} is not benchmarked"
        );
    }
    let names = compact.matches("{\"name\":").count();
    assert_eq!(names, E2E.len() + LAYER.len() + WORKLOADS.len());
}
