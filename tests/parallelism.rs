//! The reproducibility contract of the parallel execution engine.
//!
//! Every parallel entry point in the workspace — the scenario grid,
//! Monte-Carlo population sampling — must return
//! results **bit-for-bit identical** at any `ASICGAP_THREADS` setting,
//! including effort counters that would expose a different work
//! schedule. These tests run each workload at 1, 2 and 8 threads and
//! assert full structural equality (f64s compare exactly; no epsilon).
//!
//! Thread counts are injected through the `ASICGAP_THREADS` environment
//! variable, which is process-global, so every test that sweeps it
//! serializes on [`ENV_LOCK`].

use std::sync::Mutex;

use asicgap::cells::LibrarySpec;
use asicgap::exec::{split_seed, Pool};
use asicgap::netlist::generators;
use asicgap::place::{AnnealOptions, Floorplan, FloorplanStrategy, Placement};
use asicgap::process::{ChipPopulation, VariationComponents, VariationStudy, WithinDieModel};
use asicgap::tech::Technology;
use asicgap::{run_scenarios, DesignScenario};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per thread count and asserts each parallel result is
/// exactly the sequential one.
fn identical_across_threads<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let at = |threads: usize| {
        std::env::set_var("ASICGAP_THREADS", threads.to_string());
        let out = f();
        std::env::remove_var("ASICGAP_THREADS");
        out
    };
    let reference = at(1);
    for threads in [2usize, 4, 8] {
        let out = at(threads);
        assert_eq!(reference, out, "result diverged at {threads} threads");
    }
    reference
}

#[test]
fn scenario_grid_is_bitwise_identical_across_thread_counts() {
    // Every 4th scenario of the 32-point factor grid: still covers both
    // corners and every factor bit, at a quarter of the runtime.
    let grid: Vec<DesignScenario> = DesignScenario::factor_grid()
        .into_iter()
        .step_by(4)
        .collect();
    let outcomes = identical_across_threads(|| {
        run_scenarios(&grid, |lib| generators::alu(lib, 8)).expect("grid runs")
    });
    // The equality above already covers every field; spell out the
    // effort counters, because identical counters prove the parallel
    // schedule did the *same work*, not merely reached the same answer.
    for o in &outcomes {
        assert!(
            o.timing_effort.full_propagations > 0,
            "{}: effort counters were recorded",
            o.scenario
        );
    }
}

#[test]
fn rewrite_pipeline_is_bitwise_identical_across_thread_counts() {
    // The pass-ordering grid arms every rewrite/rebalance combination
    // the exec pool searches over; substitution order inside a pass must
    // not depend on the thread count either.
    let grid = DesignScenario::pass_order_grid();
    let outcomes = identical_across_threads(|| {
        run_scenarios(&grid, |lib| generators::equality_comparator(lib, 32)).expect("grid runs")
    });
    assert_eq!(outcomes.len(), grid.len());
}

#[test]
fn monte_carlo_population_is_bitwise_identical_across_thread_counts() {
    let components = VariationComponents::new_process();
    // 12k chips = 3 manufacturing lots: enough to split across workers.
    identical_across_threads(|| ChipPopulation::sample(&components, 12_000, 42));
    let within = WithinDieModel::new(500, 0.04);
    identical_across_threads(|| ChipPopulation::sample_with_paths(&components, &within, 12_000, 7));
}

#[test]
fn variation_study_is_bitwise_identical_across_thread_counts() {
    identical_across_threads(|| VariationStudy::run(1234));
}

#[test]
fn global_routing_is_bitwise_identical_across_thread_counts() {
    use asicgap::route::{route, route_on, RouterOptions, RoutingGrid};

    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let netlist = generators::alu(&lib, 16).expect("alu16");
    let placement = Placement::initial(&netlist, &lib, 0.7);

    // The common case: a realistic placement that converges without
    // congestion. The single Jacobi round must still schedule
    // identically.
    let r = identical_across_threads(|| route(&netlist, &placement, &RouterOptions::seeded(42)));
    assert_eq!(r.overflow, 0);

    // The adversarial case: a deliberately scarce grid that forces
    // multiple rip-up-and-reroute iterations, so parallel victim
    // rounds, history accumulation and the per-(net, iteration) jitter
    // streams are all exercised across thread counts.
    let scarce = identical_across_threads(|| {
        route_on(
            &netlist,
            &placement,
            RoutingGrid::uniform(8, 8, 12.0, 2),
            &RouterOptions::seeded(7),
        )
    });
    assert!(
        scarce.iterations > 1,
        "the scarce grid must trigger negotiation (got {} iterations)",
        scarce.iterations
    );

    // Scratch reuse: each thread keeps its A* memory between nets and
    // between calls. A floorplanned mult/16 (a large grid) first, then
    // the scarce case twice on whatever threads are left holding that
    // memory; at one thread all three run on this test's thread. Every
    // result must equal the one above and the one-thread run.
    let mult = generators::array_multiplier(&lib, 16).expect("mult16");
    let placed = Floorplan::build(
        &mult,
        &lib,
        FloorplanStrategy::Localized,
        &AnnealOptions::quick(11),
    )
    .placement;
    let (big, again, third) = identical_across_threads(|| {
        let big = route(&mult, &placed, &RouterOptions::seeded(11));
        let scarce_on = || {
            route_on(
                &netlist,
                &placement,
                RoutingGrid::uniform(8, 8, 12.0, 2),
                &RouterOptions::seeded(7),
            )
        };
        (big, scarce_on(), scarce_on())
    });
    assert!(
        big.grid.cell_count() > 8 * 8,
        "mult/16 must route on the larger grid ({}x{})",
        big.grid.nx,
        big.grid.ny
    );
    assert_eq!(again, scarce);
    assert_eq!(third, scarce);
}

#[test]
fn pool_matches_sequential_map_on_a_pure_function() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::remove_var("ASICGAP_THREADS");
    let want: Vec<u64> = (0..997u64).map(|i| split_seed(99, i)).collect();
    for threads in [1usize, 3, 8] {
        let got = Pool::with_threads(threads).run(997, |i| split_seed(99, i as u64));
        assert_eq!(want, got, "pool diverged at {threads} threads");
    }
}

/// The engine's `Send + Sync` audit, checked at compile time: everything
/// a parallel task touches must be shareable across worker threads.
#[test]
fn shared_state_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<asicgap::netlist::Netlist>();
    assert_send_sync::<asicgap::cells::Library>();
    assert_send_sync::<asicgap::sta::TimingGraph>();
    assert_send_sync::<asicgap::place::Placement>();
    assert_send_sync::<asicgap::process::ChipPopulation>();
    assert_send_sync::<DesignScenario>();
    assert_send_sync::<asicgap::ScenarioOutcome>();
}
