//! Differential oracle for the incremental TILOS loop: the
//! full-re-analysis loop it replaced (PR 1) survives here, test-only and
//! verbatim, and the incremental loop behind [`tilos_size`] must reach the
//! same sizes to the bit.
//! Every decision the loop takes — which gate to bump, when to stop —
//! reads arrivals, so equal sizes mean the incremental cones propagated
//! exactly what a whole-netlist pass would have.
//!
//! Expiry: delete this module when ROADMAP item 7(d)'s random
//! `(scenario, workload, seed)` generator checks incremental ≡ full
//! sizing as a property (it subsumes this one fixed case), or when
//! [`SizedTiming::evaluate`] — the whole-netlist pass this loop is
//! written in — is removed, whichever comes first.

use asicgap_cells::LibrarySpec;
use asicgap_netlist::generators;
use asicgap_tech::Technology;

use super::*;
use crate::continuous::SizedTiming;

/// The pre-refactor TILOS inner loop: one whole-netlist
/// `SizedTiming::evaluate` per trial bump and per commit.
fn tilos_full_reanalysis(
    netlist: &Netlist,
    lib: &Library,
    max_iterations: usize,
) -> (Vec<f64>, usize) {
    let mut sizes = sizes_from_cells(netlist, lib);
    let mut timing = SizedTiming::evaluate(netlist, lib, &sizes);
    let mut evals = 1usize;
    let mut iterations = 0;
    while iterations < max_iterations {
        let path = timing.critical_path();
        if path.is_empty() {
            break;
        }
        let mut best: Option<(usize, f64)> = None;
        let mut best_delay = timing.critical_delay;
        for &inst in &path {
            let i = inst.index();
            if netlist.instance(inst).is_sequential() {
                continue;
            }
            let new_size = sizes[i] * STEP;
            if new_size > MAX_SIZE {
                continue;
            }
            let old = sizes[i];
            sizes[i] = new_size;
            let t = SizedTiming::evaluate(netlist, lib, &sizes);
            sizes[i] = old;
            evals += 1;
            let gain = (timing.critical_delay - t.critical_delay).value();
            if gain <= 0.0 {
                continue;
            }
            let score = gain / (new_size - old);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
                best_delay = t.critical_delay;
            }
        }
        let Some((i, _)) = best else { break };
        let improvement = (timing.critical_delay - best_delay) / timing.critical_delay;
        sizes[i] *= STEP;
        timing = SizedTiming::evaluate(netlist, lib, &sizes);
        evals += 1;
        iterations += 1;
        if improvement < MIN_GAIN {
            break;
        }
    }
    (sizes, evals)
}

#[test]
fn incremental_tilos_matches_full_reanalysis_bitwise() {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let n = generators::array_multiplier(&lib, 16).expect("mult16");
    let (full_sizes, full_evals) = tilos_full_reanalysis(&n, &lib, 30);
    let r = tilos_loop(&n, &lib, 30, MAX_SIZE);
    assert_eq!(full_sizes, r.sizes, "decisions must be bitwise identical");
    assert_eq!(full_evals, r.evaluations, "same trials, same commits");
}
