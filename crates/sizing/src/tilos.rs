//! TILOS-style greedy sensitivity sizing (the paper's reference [7]).

use asicgap_cells::Library;
use asicgap_netlist::{InstId, Netlist};
use asicgap_sta::IncrementalStats;
use asicgap_tech::Ps;

use crate::continuous::sizes_from_cells;
use crate::incremental::IncrementalSizedTiming;

/// Multiplicative bump applied to the chosen gate each iteration.
const STEP: f64 = 1.15;
/// Iteration budget.
const MAX_ITERATIONS: usize = 3000;
/// Upper bound on any single size (unit-inverter multiples).
const MAX_SIZE: f64 = 64.0;
/// Stop when an iteration improves delay by less than this fraction.
const MIN_GAIN: f64 = 1.0e-5;

/// Options of [`tilos_size`]: none. The loop is fixed: each iteration
/// bumps one gate by ×1.15, no size exceeds 64 unit inverters, and it
/// stops after 3000 iterations or once an iteration gains less than 10⁻⁵
/// of the delay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TilosOptions {}

/// Outcome of a sizing run.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// Continuous sizes, indexed like the netlist's instances.
    pub sizes: Vec<f64>,
    /// Critical delay before sizing.
    pub initial_delay: Ps,
    /// Critical delay after sizing.
    pub final_delay: Ps,
    /// Σ size before (area/power proxy).
    pub area_before: f64,
    /// Σ size after.
    pub area_after: f64,
    /// Iterations actually run.
    pub iterations: usize,
    /// Timing evaluations performed (initial + one per trial + one per
    /// commit) — what a full-re-analysis loop would pay a whole-netlist
    /// pass for.
    pub evaluations: usize,
    /// Propagation effort the incremental engine actually spent.
    pub stats: IncrementalStats,
}

impl SizingResult {
    /// Delay improvement ratio (≥ 1).
    pub fn speedup(&self) -> f64 {
        self.initial_delay / self.final_delay
    }
}

/// Runs greedy sensitivity-driven sizing: each iteration evaluates, walks
/// the critical path, trials a ×1.15 bump on every path gate, and commits
/// the bump with the best delay improvement per added area. Stops at the
/// iteration budget or when no bump helps.
///
/// Timing runs on `IncrementalSizedTiming`, so each trial repropagates
/// only the bumped gate's fanout cone rather than the whole netlist; the
/// arrivals (and therefore every decision) are bitwise identical to the
/// original full-re-evaluation loop. The full-vs-incremental effort ratio
/// is `evaluations × comb-gate-count / stats.pins_touched` on the result.
///
/// The paper's calibration targets: "Sizing transistors minimally … except
/// on critical paths where they are optimally sized … can make a speed
/// difference of 20% or more \[7\]"; "Iterative transistor resizing and
/// resynthesis can improve speeds by 20% \[8\]".
pub fn tilos_size(netlist: &Netlist, lib: &Library, _options: &TilosOptions) -> SizingResult {
    tilos_loop(netlist, lib, MAX_ITERATIONS, MAX_SIZE)
}

/// The sizing loop under explicit caps ([`tilos_size`] passes
/// [`MAX_ITERATIONS`] and [`MAX_SIZE`]; tests pass tighter ones).
fn tilos_loop(
    netlist: &Netlist,
    lib: &Library,
    max_iterations: usize,
    max_size: f64,
) -> SizingResult {
    let sizes = sizes_from_cells(netlist, lib);
    let area_before: f64 = sizes.iter().sum();
    let mut timing = IncrementalSizedTiming::new(netlist, lib, sizes);
    let initial_delay = timing.critical_delay();
    let mut evaluations = 1;

    let mut iterations = 0;
    while iterations < max_iterations {
        let current = timing.critical_delay();
        let path = timing.critical_path();
        if path.is_empty() {
            break;
        }
        // Trial a bump on each path gate; keep the best benefit/cost.
        let mut best: Option<(InstId, f64)> = None;
        let mut best_delay = current;
        for &inst in &path {
            if netlist.instance(inst).is_sequential() {
                continue;
            }
            let old = timing.size(inst);
            let new_size = old * STEP;
            if new_size > max_size {
                continue;
            }
            let trial = timing.trial_critical_delay(inst, new_size);
            evaluations += 1;
            let gain = (current - trial).value();
            if gain <= 0.0 {
                continue;
            }
            let cost = new_size - old;
            let score = gain / cost;
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((inst, score));
                best_delay = trial;
            }
        }
        let Some((inst, _)) = best else { break };
        let improvement = (current - best_delay) / current;
        timing.set_size(inst, timing.size(inst) * STEP);
        evaluations += 1;
        iterations += 1;
        if improvement < MIN_GAIN {
            break;
        }
    }

    let final_delay = timing.critical_delay();
    let stats = timing.stats();
    let sizes = timing.into_sizes();
    SizingResult {
        area_after: sizes.iter().sum(),
        final_delay,
        sizes,
        initial_delay,
        area_before,
        iterations,
        evaluations,
        stats,
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn sizing_speeds_up_multiplier_by_paper_magnitude() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::array_multiplier(&lib, 8).expect("mult8");
        let r = tilos_size(&n, &lib, &TilosOptions::default());
        // Paper §6.2: sizing buys "20% or more" on designs sized minimally
        // to start with. Accept anything clearly material.
        assert!(
            r.speedup() > 1.10,
            "TILOS speedup {:.3} too small",
            r.speedup()
        );
        assert!(r.area_after > r.area_before);
        assert!(r.iterations > 10);
    }

    #[test]
    fn sizing_never_hurts() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        for n in [
            generators::parity_tree(&lib, 16).expect("parity"),
            generators::ripple_carry_adder(&lib, 8).expect("rca8"),
        ] {
            let r = tilos_size(&n, &lib, &TilosOptions::default());
            assert!(r.final_delay <= r.initial_delay, "{}", n.name);
        }
    }

    #[test]
    fn iteration_budget_respected() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::array_multiplier(&lib, 6).expect("mult6");
        let r = tilos_loop(&n, &lib, 5, MAX_SIZE);
        assert!(r.iterations <= 5);
    }

    #[test]
    fn incremental_engine_beats_full_reevaluation_effort() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::array_multiplier(&lib, 8).expect("mult8");
        let r = tilos_size(&n, &lib, &TilosOptions::default());
        let comb = n
            .iter_instances()
            .filter(|(_, i)| !i.is_sequential())
            .count();
        // What the old loop paid: a whole-netlist pass per evaluation.
        let full_pins = r.evaluations * comb;
        // On an array multiplier a trial cone (the fanout closure of the
        // bumped gate's fanin nets) covers about a third of the netlist,
        // so the exact-arithmetic pin ratio sits at ~3× independent of
        // width; assert a safety margin below that structural figure.
        // (Wall-clock does better, ~4-5×, because an incremental pin is
        // also cheaper than a full-pass pin, which re-derives loads and
        // delays from scratch.)
        assert!(
            2 * full_pins >= 5 * r.stats.pins_touched,
            "incremental should be ≥2.5× cheaper: full {} vs incremental {}",
            full_pins,
            r.stats.pins_touched
        );
        assert_eq!(r.stats.full_propagations, 1, "only the initial build");
    }

    #[test]
    fn max_size_cap_respected() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let r = tilos_loop(&n, &lib, MAX_ITERATIONS, 4.0);
        assert!(r.sizes.iter().all(|&s| s <= 4.0 + 1e-9));
    }
}
