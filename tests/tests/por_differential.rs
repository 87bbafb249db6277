//! Reduced-vs-unreduced exploration differentials: partial-order
//! reduction must be *invisible* to everything the explorer is trusted
//! for.
//!
//! Sleep-set reduction skips transitions, never states — so for any
//! scenario (here: randomized small-scope instances) the reduced search
//! must expand exactly the same canonical-state set as the unreduced PR 5
//! style search, while executing no more runs. The seeded §3.4 bugs are
//! caught with reduction on at every worker count, with byte-identical
//! reports.

use proptest::prelude::*;
use rt_explore::scenario::by_name;
use rt_explore::{
    explore, explore_with_states, randomized, ExploreConfig, PorMode, RandomParams, SeededBug,
};
use rt_pool::Pool;

fn cfg(depth: usize, por: PorMode) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        por,
        ..ExploreConfig::default()
    }
}

fn arb_params() -> impl Strategy<Value = RandomParams> {
    (
        1u32..=3,
        0u32..=2,
        any::<bool>(),
        0u32..=2,
        0u32..=2,
        any::<bool>(),
    )
        .prop_map(
            |(senders, badge_every, with_driver, driver_budget, free_budget, revoke)| {
                RandomParams {
                    senders,
                    badge_every,
                    with_driver,
                    driver_budget,
                    free_budget,
                    revoke,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sleep-set reduction preserves the reachable canonical-state set
    /// exactly on randomized small scenarios, agrees on whether any
    /// oracle fires, and never executes *more* runs than the unreduced
    /// search.
    #[test]
    fn sleep_sets_preserve_visited_states_on_random_scenarios(p in arb_params()) {
        let sc = randomized(p);
        let pool = Pool::new(2);
        let (off, off_states) = explore_with_states(&sc, &cfg(6, PorMode::Off), &pool);
        let (sleep, sleep_states) = explore_with_states(&sc, &cfg(6, PorMode::Sleep), &pool);
        prop_assert!(!off.capped && !sleep.capped, "{}: capped", sc.name);
        prop_assert_eq!(
            &off_states,
            &sleep_states,
            "{}: reachable-state sets diverged (off {} vs sleep {})",
            &sc.name,
            off_states.len(),
            sleep_states.len()
        );
        prop_assert_eq!(
            off.counterexample.is_some(),
            sleep.counterexample.is_some(),
            "{}: oracle verdicts diverged",
            &sc.name
        );
        prop_assert!(
            sleep.interleavings <= off.interleavings,
            "{}: reduction executed more runs ({} > {})",
            &sc.name,
            sleep.interleavings,
            off.interleavings
        );
    }
}

/// Both seeded PR 5 bugs stay caught with POR on, at every worker
/// count, with byte-identical reports — the determinism and soundness
/// regression the parallel reduced search must never lose.
#[test]
fn seeded_bugs_caught_with_por_at_every_worker_count() {
    for (name, bug, family) in [
        ("badged-revoke", SeededBug::AbortSkip, "abort-"),
        ("ep-delete", SeededBug::DropRunnable, ""),
    ] {
        let sc = by_name(name).expect("scenario");
        let mut c = cfg(8, PorMode::Sleep);
        c.seeded_bug = Some(bug);
        let baseline = format!("{:?}", explore(&sc, &c, &Pool::new(1)));
        for workers in [2, 4] {
            let rep = explore(&sc, &c, &Pool::new(workers));
            assert_eq!(
                baseline,
                format!("{rep:?}"),
                "{name}: report diverged at {workers} workers"
            );
        }
        let rep = explore(&sc, &c, &Pool::new(4));
        let cex = rep
            .counterexample
            .unwrap_or_else(|| panic!("{name}: seeded bug not found with POR on"));
        assert!(
            cex.violations
                .iter()
                .any(|v| v.invariant.starts_with(family)),
            "{name}: unexpected violations {:?}",
            cex.violations
        );
    }
}

/// The reduction actually reduces: on the standard ep-delete scope the
/// sleep-set search discharges a healthy share of branches without
/// executing them.
#[test]
fn reduction_discharges_branches_on_ep_delete() {
    let sc = by_name("ep-delete").expect("scenario");
    let pool = Pool::new(2);
    let off = explore(&sc, &cfg(8, PorMode::Off), &pool);
    let sleep = explore(&sc, &cfg(8, PorMode::Sleep), &pool);
    assert!(off.counterexample.is_none());
    assert!(sleep.sleep_skips > 0, "sleep sets never fired");
    assert!(
        sleep.interleavings < off.interleavings,
        "no run reduction ({} vs {})",
        sleep.interleavings,
        off.interleavings
    );
    assert_eq!(off.distinct_states, sleep.distinct_states);
}
