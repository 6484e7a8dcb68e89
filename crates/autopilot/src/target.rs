//! What closure means: the target, the budgets, and the verdicts.

use asicgap_tech::text::num;
use asicgap_tech::{Mhz, Ps};

/// A timing-closure goal: hit `frequency` within a bounded number of
/// committed ECO moves. Area and power are unbounded, and each iteration
/// examines the 4 worst endpoints.
///
/// The loop treats `frequency` as the *effective* (post-skew) clock: the
/// caller folds its skew fraction into the period it asks the graph to
/// meet (see `DesignScenario::close_timing` in `asicgap`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureTarget {
    /// The clock the design must make.
    pub frequency: Mhz,
    /// Committed-move budget: the loop stops with
    /// [`Verdict::BudgetExhausted`] after this many ECOs.
    pub max_moves: usize,
    /// Arm the rewrite/rebalance escalation (local depth recovery on the
    /// offending cones) when no sizing/wiring move improves WNS.
    pub allow_rewrite: bool,
    /// Arm the retime escalation (one more pipeline stage) as the last
    /// resort. Only applicable while the netlist is still combinational.
    pub allow_retime: bool,
}

impl ClosureTarget {
    /// A target at `mhz` with the default budget of 64 moves, rewrite
    /// escalation armed, no retiming.
    pub fn at(mhz: f64) -> ClosureTarget {
        ClosureTarget {
            frequency: Mhz::new(mhz),
            max_moves: 64,
            allow_rewrite: true,
            allow_retime: false,
        }
    }

    /// The clock period the graph must meet.
    pub fn period(&self) -> Ps {
        self.frequency.period()
    }

    /// This target with a different move budget.
    #[must_use]
    pub fn with_moves(mut self, max_moves: usize) -> ClosureTarget {
        self.max_moves = max_moves;
        self
    }

    /// This target with the retime escalation armed.
    #[must_use]
    pub fn with_retime(mut self) -> ClosureTarget {
        self.allow_retime = true;
        self
    }
}

/// One kind of committed ECO move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Drive-strength swap on a critical-path gate.
    Resize,
    /// Fanout isolation: non-critical sinks moved behind a buffer.
    Buffer,
    /// Single-net rip-up-and-reroute with fresh extraction.
    Reroute,
    /// Local rewrite/rebalance passes on the offending cones.
    Rewrite,
    /// One more pipeline stage (escalation; combinational netlists only).
    Retime,
}

impl MoveKind {
    /// Stable name, used in traces and proofs.
    pub fn name(self) -> &'static str {
        match self {
            MoveKind::Resize => "resize",
            MoveKind::Buffer => "buffer",
            MoveKind::Reroute => "reroute",
            MoveKind::Rewrite => "rewrite",
            MoveKind::Retime => "retime",
        }
    }

    /// Parses a [`MoveKind::name`] spelling.
    pub fn parse(s: &str) -> Option<MoveKind> {
        match s {
            "resize" => Some(MoveKind::Resize),
            "buffer" => Some(MoveKind::Buffer),
            "reroute" => Some(MoveKind::Reroute),
            "rewrite" => Some(MoveKind::Rewrite),
            "retime" => Some(MoveKind::Retime),
            _ => None,
        }
    }
}

/// How a closure run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// WNS ≥ 0 at the target clock: timing met.
    Closed,
    /// The committed-move budget ran out with timing still violated.
    BudgetExhausted,
    /// No candidate improved WNS, but the depth lower bound does not rule
    /// the target out — the move vocabulary is simply exhausted.
    Stuck,
    /// *Proven* infeasible: the netlist's logic depth times the fastest
    /// per-level gate delay the library can offer already exceeds the
    /// target period, and no depth-reducing escalation helps. No schedule
    /// of resize/buffer/reroute moves can ever close this target.
    ProvenInfeasible {
        /// The arrival lower bound, ps.
        bound: Ps,
    },
    /// The caller cancelled at an iteration boundary.
    Cancelled {
        /// Iterations completed before the cancellation was observed.
        iteration: usize,
    },
}

impl Verdict {
    /// Canonical one-token-or-two spelling for the trace text.
    pub fn canonical(&self) -> String {
        match *self {
            Verdict::Closed => "closed".to_string(),
            Verdict::BudgetExhausted => "budget-exhausted".to_string(),
            Verdict::Stuck => "stuck".to_string(),
            Verdict::ProvenInfeasible { bound } => {
                format!("infeasible {:?}", bound.value())
            }
            Verdict::Cancelled { iteration } => format!("cancelled {iteration}"),
        }
    }

    /// Parses a [`Verdict::canonical`] spelling.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "closed" => return Some(Verdict::Closed),
            "budget-exhausted" => return Some(Verdict::BudgetExhausted),
            "stuck" => return Some(Verdict::Stuck),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("infeasible ") {
            return Some(Verdict::ProvenInfeasible {
                bound: Ps::new(num(rest).ok()?),
            });
        }
        if let Some(rest) = s.strip_prefix("cancelled ") {
            return Some(Verdict::Cancelled {
                iteration: num(rest).ok()?,
            });
        }
        None
    }

    /// `true` when the target was met.
    pub fn closed(&self) -> bool {
        matches!(self, Verdict::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_round_trip() {
        for v in [
            Verdict::Closed,
            Verdict::BudgetExhausted,
            Verdict::Stuck,
            Verdict::ProvenInfeasible {
                bound: Ps::new(812.5),
            },
            Verdict::Cancelled { iteration: 7 },
        ] {
            assert_eq!(Verdict::parse(&v.canonical()), Some(v));
        }
        assert_eq!(Verdict::parse("bogus"), None);
        assert_eq!(Verdict::parse("infeasible x"), None);
    }

    #[test]
    fn move_kinds_round_trip() {
        for k in [
            MoveKind::Resize,
            MoveKind::Buffer,
            MoveKind::Reroute,
            MoveKind::Rewrite,
            MoveKind::Retime,
        ] {
            assert_eq!(MoveKind::parse(k.name()), Some(k));
        }
        assert_eq!(MoveKind::parse("upsize"), None);
    }

    #[test]
    fn target_defaults_are_sane() {
        let t = ClosureTarget::at(250.0);
        assert_eq!(t.period(), Ps::new(4000.0));
        assert_eq!(t.max_moves, 64);
        assert!(t.allow_rewrite && !t.allow_retime);
    }
}
