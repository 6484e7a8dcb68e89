//! Closed-loop timing closure over the open-loop scenario flow.
//!
//! [`run_scenario`](crate::run_scenario) answers "how fast does this
//! methodology go?" — one pass, one number. [`DesignScenario::close_timing`]
//! asks the converse question the paper's practitioners actually face:
//! "*will* this methodology make a given clock, and what sequence of
//! fixes gets it there?" Both run the one flow body in `stage.rs`: the
//! closure driver takes the same stages (rewrite → pipeline → sizing →
//! floorplan → wires → post-layout resize, same seeds, same arithmetic)
//! up to the warm shared timer, hands the graph to the
//! `asicgap-autopilot` fix loop, and folds the result back through the
//! scenario's skew/domino arithmetic, which lives here.

use asicgap_autopilot::{AutopilotError, ClosureTarget, ConvergenceTrace};
use asicgap_cells::Library;
use asicgap_equiv::VerifyLevel;
use asicgap_exec::Pool;
use asicgap_netlist::Netlist;
use asicgap_tech::text::Lines;
use asicgap_tech::{Mhz, Ps};

use crate::canon::bad;
use crate::error::GapError;
use crate::flow::{
    canonical_key, domino_speed_ratio, sequencing_overhead, DesignScenario, LogicStyle,
    WorkloadSpec,
};
use crate::stage::{close_flow, Checkpoints};

/// Fraction of the critical path the domino style converts: only the
/// critical cones convert (the paper's §9 caveat — "when such elements
/// are integrated into an entire path … their individual significance
/// is naturally reduced"). With the library's ~1.7 cell ratio and 70%
/// coverage the §7 factor lands at the paper's own ×1.5.
const DOMINO_COVERAGE: f64 = 0.7;

/// What a closure run produces: the open-loop baseline, the closed-loop
/// result, and the full move-by-move trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The frequency the caller asked for (scenario-level, nominal
    /// silicon — §8 binning is about shipping, not closing).
    pub target: Mhz,
    /// Minimum period the open-loop flow reached, before any ECO
    /// (scenario arithmetic applied: skew folded, domino credited).
    pub open_min_period: Ps,
    /// Minimum period after the fix loop, same arithmetic.
    pub closed_min_period: Ps,
    /// The convergence trace. Its period/WNS numbers are in *graph*
    /// terms (pre-skew, pre-domino); the two `*_min_period` fields above
    /// are the scenario-level view.
    pub trace: ConvergenceTrace,
}

impl ClosureOutcome {
    /// Open-loop nominal frequency.
    pub fn open_mhz(&self) -> Mhz {
        self.open_min_period.frequency()
    }

    /// The canonical text form: a short scenario-level header followed
    /// by the trace's own canonical text. This is what `asicgap-serve`
    /// caches and what the golden pins hash — byte-identical for
    /// byte-identical runs.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(256 + self.trace.iterations.len() * 96);
        writeln!(s, "close-outcome/v1").expect("write to String");
        writeln!(s, "scenario {}", self.scenario).expect("write to String");
        writeln!(s, "target {:?}", self.target.value()).expect("write to String");
        writeln!(s, "open {:?}", self.open_min_period.value()).expect("write to String");
        writeln!(s, "closed {:?}", self.closed_min_period.value()).expect("write to String");
        s.push_str(&self.trace.canonical_text());
        s
    }

    /// Parses [`ClosureOutcome::canonical_text`] back. A parsed trace
    /// keeps only each proof's cone count, so the outcome re-encodes to
    /// the same bytes without equalling the one that wrote them.
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on any text that re-encodes differently.
    pub fn parse_canonical(text: &str) -> Result<ClosureOutcome, GapError> {
        let mut lines = Lines::open(text, "close-outcome/v1")?;
        Ok(ClosureOutcome {
            scenario: lines.field("scenario")?.to_string(),
            target: Mhz::new(lines.num("target")?),
            open_min_period: Ps::new(lines.num("open")?),
            closed_min_period: Ps::new(lines.num("closed")?),
            trace: ConvergenceTrace::parse_canonical(lines.rest())
                .ok_or_else(|| bad("close-outcome/v1 trace"))?,
        })
    }

    /// Closed-loop nominal frequency.
    pub fn closed_mhz(&self) -> Mhz {
        self.closed_min_period.frequency()
    }

    /// `true` when the loop met the target.
    pub fn closed(&self) -> bool {
        self.trace.verdict.closed()
    }

    /// Committed ECO moves.
    pub fn moves(&self) -> usize {
        self.trace.moves()
    }

    /// Committed moves carrying an equivalence proof.
    pub fn proofs(&self) -> usize {
        self.trace.proofs()
    }
}

impl std::fmt::Display for ClosureOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

/// Scenario-level period from a graph-level (pre-skew) period: §7 domino
/// on the critical path speeds the combinational portion by the
/// library's measured domino/static cell ratio, attenuated by
/// [`DOMINO_COVERAGE`]; then the §4.1 fractional skew is folded in. The
/// one place this arithmetic is written — `RUN`'s outcome and both ends
/// of a `CLOSE` go through it.
pub(crate) fn fold_period(scenario: &DesignScenario, lib: &Library, graph_period: Ps) -> Ps {
    let mut p = graph_period;
    if scenario.logic_style == LogicStyle::DominoCriticalPath {
        let ratio = 1.0 + DOMINO_COVERAGE * (domino_speed_ratio(lib) - 1.0);
        let seq = sequencing_overhead(lib);
        let comb = (p - seq).max(Ps::ZERO);
        p = comb / ratio + seq;
    }
    p / (1.0 - scenario.skew_fraction)
}

/// Inverse of [`fold_period`]: the graph-level period the timer must
/// reach for the scenario-level period to hit `target`.
pub(crate) fn unfold_period(scenario: &DesignScenario, lib: &Library, target: Ps) -> Ps {
    let mut p = target * (1.0 - scenario.skew_fraction);
    if scenario.logic_style == LogicStyle::DominoCriticalPath {
        let ratio = 1.0 + DOMINO_COVERAGE * (domino_speed_ratio(lib) - 1.0);
        let seq = sequencing_overhead(lib);
        let comb = (p - seq).max(Ps::ZERO);
        p = comb * ratio + seq;
    }
    p
}

pub(crate) fn map_autopilot_err(e: AutopilotError) -> GapError {
    match e {
        AutopilotError::Inequivalent { kind, output } => GapError::Inequivalent {
            stage: format!("autopilot-{}", kind.name()),
            output,
        },
        AutopilotError::Synth(e) => GapError::Synth(e),
        AutopilotError::Netlist(e) => GapError::Netlist(e),
        AutopilotError::Equiv(e) => GapError::Equiv(e),
        AutopilotError::Replay(what) => GapError::Parse { what },
    }
}

impl DesignScenario {
    /// Runs this scenario's flow to its warm post-layout timing state,
    /// then drives the `asicgap-autopilot` fix loop at `target`. The
    /// loop's verdict, every committed move, and its proof (under
    /// [`VerifyLevel::Full`]) land in [`ClosureOutcome::trace`].
    ///
    /// Deterministic: the prep is the stages `run_scenario` runs (same
    /// code, same seeds), the loop is sequential, so the outcome — trace
    /// bytes included — is identical at any `ASICGAP_THREADS`.
    ///
    /// # Errors
    ///
    /// Prep failures as [`run_scenario`](crate::run_scenario); a
    /// committed move failing its equivalence proof surfaces as
    /// [`GapError::Inequivalent`] with an `autopilot-*` stage name.
    pub fn close_timing(
        &self,
        workload: impl FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
        verify: VerifyLevel,
        target: &ClosureTarget,
    ) -> Result<ClosureOutcome, GapError> {
        self.close_timing_cancellable(workload, verify, target, &|| false)
    }

    /// [`DesignScenario::close_timing`] with a cancellation hook, polled
    /// by the loop once per iteration boundary. A cancelled run is not
    /// an error: it returns the trace built so far with
    /// [`Verdict::Cancelled`](asicgap_autopilot::Verdict::Cancelled).
    ///
    /// # Errors
    ///
    /// As [`DesignScenario::close_timing`].
    pub fn close_timing_cancellable(
        &self,
        workload: impl FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
        verify: VerifyLevel,
        target: &ClosureTarget,
        cancel: &dyn Fn() -> bool,
    ) -> Result<ClosureOutcome, GapError> {
        close_flow(self, workload, verify, target, cancel, Checkpoints::NONE)
            .map(|(outcome, _)| outcome)
    }
}

/// Canonical identity of a closure request: the closure-specific knobs,
/// then the *unchanged* flow key (so the two cache namespaces can never
/// collide — a `CLOSE` result is never served for a `RUN` and vice
/// versa).
pub fn close_canonical_key(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
    target: &ClosureTarget,
) -> String {
    use std::fmt::Write;
    let mut k = String::with_capacity(640);
    writeln!(k, "asicgap-close/v1").expect("write to String");
    writeln!(k, "target_mhz {:?}", target.frequency.value()).expect("write to String");
    // The loop has no area or power budget and examines 4 endpoints (see
    // `ClosureTarget`). `asicgap-close/v1` keys still spell those three
    // values, so `CLOSE` results already in a store stay addressable.
    k.push_str("max_area_um2 inf\nmax_power inf\n");
    writeln!(k, "max_moves {}", target.max_moves).expect("write to String");
    k.push_str("topk 4\n");
    writeln!(k, "rewrite_escalation {}", target.allow_rewrite).expect("write to String");
    writeln!(k, "retime_escalation {}", target.allow_retime).expect("write to String");
    k.push_str(&canonical_key(scenario, workload, verify));
    k
}

/// A target-frequency sweep: one closure run per entry of `targets_mhz`,
/// concurrently on the workspace pool, outcomes in target order. Each
/// run is an independent task with its own library/netlist/timer, so the
/// sweep is bit-for-bit identical to a sequential loop at any
/// `ASICGAP_THREADS` — traces included.
///
/// # Errors
///
/// The first failing run's [`GapError`] (all runs are still executed).
pub fn close_timing_grid<W>(
    scenario: &DesignScenario,
    workload: W,
    verify: VerifyLevel,
    targets_mhz: &[f64],
) -> Result<Vec<ClosureOutcome>, GapError>
where
    W: Fn(&Library) -> Result<Netlist, asicgap_netlist::NetlistError> + Sync,
{
    Pool::from_env()
        .map(targets_mhz, |_, &mhz| {
            scenario.close_timing(&workload, verify, &ClosureTarget::at(mhz))
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `unfold_period` is what turns a scenario-level target into the
    /// graph-level one the fix loop chases, so it must invert
    /// `fold_period` to within the rounding the golden tables absorb (a
    /// few ULPs — they compare printed values) — for the static presets,
    /// where only the skew folds, and for the domino one, where the
    /// combinational portion is rescaled around the sequencing overhead.
    #[test]
    fn unfold_inverts_fold_for_static_and_domino_presets() {
        let presets = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ];
        assert_eq!(presets[2].logic_style, LogicStyle::DominoCriticalPath);
        for scenario in presets {
            let lib = scenario.library.build(&scenario.technology);
            let seq = sequencing_overhead(&lib).value();
            // Graph periods from just above the sequencing overhead (below
            // it the domino fold clamps and is not invertible) to far
            // beyond any workload's.
            for k in 0..200 {
                let p = Ps::new(seq + 1.0 + 97.3 * f64::from(k));
                let folded = fold_period(&scenario, &lib, p);
                let back = unfold_period(&scenario, &lib, folded).value();
                let ulps = ((back - p.value()) / (p.value() * f64::EPSILON)).abs();
                assert!(
                    ulps <= 4.0,
                    "{}: {p:?} came back as {back} ({ulps} ulps)",
                    scenario.name
                );
            }
        }
    }
}
