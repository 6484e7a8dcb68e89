//! Direct timed calls into single layers, on a workload's own inputs.
//!
//! Each probe times one public function with `Instant`, repeats it
//! within a small time budget, and reports the median. Inputs are
//! cloned or built *outside* the timed region; results go through
//! `black_box` so the call cannot be optimised away.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use asicgap::cells::Library;
use asicgap::netlist::Netlist;
use asicgap::place::{AnnealOptions, Floorplan, FloorplanStrategy};
use asicgap::sta::{analyze, ClockSpec, TimingGraph};
use asicgap::{canonical_key, content_hash, ScenarioOutcome};
use asicgap_serve::proto::RunRequest;

use crate::stats;

pub type Layer = BTreeMap<&'static str, f64>;

/// Median wall time of `f(make())`, seconds; only `f` is timed. Runs
/// once untimed-for-warmth when the budget allows, then until `budget`
/// is spent or `max_reps` are taken (always at least once).
pub fn time_with<I, T>(
    budget: Duration,
    max_reps: usize,
    mut make: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    // The first call is a sample too when it alone eats the budget.
    loop {
        let input = make();
        let t = Instant::now();
        black_box(f(black_box(input)));
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() > max_reps || started.elapsed() >= budget {
            break;
        }
    }
    if samples.len() > 1 {
        samples.remove(0);
    }
    stats::median(&stats::sorted(samples))
}

/// [`time_with`] for a call that needs no fresh input.
pub fn time<T>(budget: Duration, max_reps: usize, mut f: impl FnMut() -> T) -> f64 {
    time_with(budget, max_reps, || (), |()| f())
}

/// Median seconds per call of a call too short to time singly: batches
/// of `batch` calls are timed and divided.
pub fn time_batched<T>(budget: Duration, batch: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    time(budget, 20, || {
        for i in 0..batch {
            black_box(f(i));
        }
    }) / batch as f64
}

/// The timer and placer on one design: `sta.*` and `place.anneal_*`.
/// Returns the floorplan so a caller can go on to route it.
pub fn timing_and_place(
    layer: &mut Layer,
    budget: Duration,
    netlist: &Netlist,
    lib: &Library,
    seed: u64,
) -> Floorplan {
    let cells = netlist.instance_count() as f64;
    let clock = ClockSpec::unconstrained();

    let full_s = time(budget, 9, || analyze(netlist, lib, &clock, None).min_period);
    layer.insert("sta.analyze_cells_per_s", cells / full_s);

    let build_s = time_with(
        budget,
        9,
        || netlist.clone(),
        |n| TimingGraph::new(n, lib, clock, None),
    );
    layer.insert("sta.graph_build_ms", build_s * 1e3);

    // One ECO = one trial resize of a combinational cell to its family's
    // neighbouring drive, answered by the incremental timer and rolled
    // back, so every repetition starts from the same state.
    let mut graph = TimingGraph::new(netlist.clone(), lib, clock, None);
    let mut ecos = Vec::new();
    let stride = (netlist.instance_count() / 64).max(1);
    for (id, inst) in netlist.iter_instances().step_by(stride) {
        if inst.is_sequential() {
            continue;
        }
        let cell = lib.cell(inst.cell());
        let drives = lib.drives_for(cell.function, cell.family);
        if let Some(&other) = drives.iter().find(|&&d| d != inst.cell()) {
            ecos.push((id, other));
        }
    }
    if !ecos.is_empty() {
        let eco_s = time_batched(budget, ecos.len(), |i| {
            let (id, cell) = ecos[i];
            graph.trial_resize(id, cell)
        });
        layer.insert("sta.eco_update_us", eco_s * 1e6);
        layer.insert("sta.incremental_over_full", eco_s / full_s);
    }

    let options = AnnealOptions::quick(seed);
    let place = || Floorplan::build(netlist, lib, FloorplanStrategy::Localized, &options);
    let place_s = time(budget, 9, place);
    layer.insert("place.anneal_ms", place_s * 1e3);
    layer.insert("place.anneal_cells_per_s", cells / place_s);
    place()
}

/// The identity and outcome codecs of `core`, on one request and the
/// outcome it produced.
pub fn core_codecs(layer: &mut Layer, budget: Duration, req: &RunRequest, outcome_text: &str) {
    let scenario = req.scenario();
    let key_s = time_batched(budget, 64, |_| {
        canonical_key(&scenario, &req.workload, req.verify)
    });
    layer.insert("core.canonical_key_us", key_s * 1e6);

    let outcome = ScenarioOutcome::parse_canonical(outcome_text).expect("a checked outcome text");
    let encode_s = time_batched(budget, 64, |_| outcome.canonical_text());
    layer.insert("core.outcome_encode_us", encode_s * 1e6);
    let parse_s = time_batched(budget, 64, |_| {
        ScenarioOutcome::parse_canonical(outcome_text)
    });
    layer.insert("core.outcome_parse_us", parse_s * 1e6);
}

/// `core::content_hash` throughput on `text`, MB/s.
pub fn content_hash_rate(layer: &mut Layer, budget: Duration, text: &str) {
    let s = time(budget, 9, || content_hash(text));
    layer.insert("core.content_hash_mb_per_s", text.len() as f64 / 1e6 / s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_return_a_positive_median_and_respect_max_reps() {
        let mut calls = 0;
        let s = time(Duration::from_secs(5), 3, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(calls, 4, "one warm call plus three samples");
        assert!((0.002..0.5).contains(&s));

        let mut made = 0;
        let s = time_with(
            Duration::ZERO,
            100,
            || {
                made += 1;
                7u32
            },
            |x| x + 1,
        );
        assert_eq!(made, 1, "an exhausted budget still measures once");
        assert!(s >= 0.0);

        let per_call = time_batched(Duration::from_millis(20), 10, |i| i * 2);
        assert!((0.0..0.01).contains(&per_call));
    }
}
