//! The convergence trace: a canonical, replayable record of a closure run.
//!
//! The trace is the loop's *deliverable* as much as the fixed netlist is:
//! its canonical text form is byte-stable across thread counts (the loop
//! itself is sequential; only grids above it parallelize), feeds the
//! content-addressed cache in `asicgap-serve`, and carries enough detail
//! per move for [`replay`](crate::replay) to rebuild the final netlist
//! from the starting one.

use std::fmt;

use asicgap_cells::Library;
use asicgap_equiv::EquivEffort;
use asicgap_netlist::Netlist;
use asicgap_sta::IncrementalStats;
use asicgap_synth::StageProof;
use asicgap_tech::text::{self, Lines, TextError, Tokens};
use asicgap_tech::Ps;

use crate::target::{MoveKind, Verdict};

/// Structural fingerprint of a netlist: FNV-1a 64 over the design name,
/// ports, and every instance's name / cell / connectivity in iteration
/// order. Two netlists with the same fingerprint went through the same
/// edit history; [`replay`](crate::replay) checks its rebuilt netlist
/// against the fingerprint recorded in the trace.
pub fn netlist_fingerprint(netlist: &Netlist, lib: &Library) -> u64 {
    let mut text = String::new();
    text.push_str(&netlist.name);
    text.push('\n');
    for (name, net) in netlist.inputs() {
        text.push_str(&format!("i {} {}\n", name, netlist.net(*net).name()));
    }
    for (name, net) in netlist.outputs() {
        text.push_str(&format!("o {} {}\n", name, netlist.net(*net).name()));
    }
    for (_, inst) in netlist.iter_instances() {
        text.push_str(&format!("g {} {}", inst.name(), lib.cell(inst.cell()).name));
        for &f in inst.fanin() {
            text.push(' ');
            text.push_str(netlist.net(f).name());
        }
        text.push_str(&format!(" -> {}\n", netlist.net(inst.out()).name()));
    }
    asicgap_tech::fnv1a(text.as_bytes())
}

/// One committed ECO move.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    /// What kind of move.
    pub kind: MoveKind,
    /// Canonical, replayable encoding of the move's operands — e.g.
    /// `resize <inst> <cell>` or `buffer <net> <cell> <inst>:<pin>,...`.
    pub detail: String,
    /// Min-period improvement this move bought, ps (strictly positive —
    /// the loop only commits strict improvements).
    pub gain: Ps,
    /// The equivalence proof minted when the move was committed under
    /// [`VerifyLevel::Full`](asicgap_equiv::VerifyLevel::Full).
    pub proof: Option<StageProof>,
}

/// One iteration of the fix loop: the committed move and the design
/// state *after* it.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub index: usize,
    /// Worst negative slack after the move, ps (≥ 0 once closed).
    pub wns: Ps,
    /// Total negative slack after the move, ps (≤ 0; 0 once closed).
    pub tns: Ps,
    /// Total cell area after the move, µm².
    pub area_um2: f64,
    /// The committed move.
    pub mv: MoveRecord,
    /// Incremental-timer evaluations spent this iteration (trials +
    /// commit), from [`IncrementalStats::pins_touched`] deltas.
    pub pins_touched: usize,
}

/// The full record of one closure run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Target frequency, MHz.
    pub target_mhz: f64,
    /// Target clock period the graph had to meet, ps.
    pub period: Ps,
    /// WNS before any move, ps.
    pub start_wns: Ps,
    /// TNS before any move, ps.
    pub start_tns: Ps,
    /// Cell area before any move, µm².
    pub start_area_um2: f64,
    /// One record per committed move, in commit order.
    pub iterations: Vec<IterationRecord>,
    /// How the run ended.
    pub verdict: Verdict,
    /// WNS at exit, ps.
    pub final_wns: Ps,
    /// Cell area at exit, µm².
    pub final_area_um2: f64,
    /// [`netlist_fingerprint`] of the final netlist.
    pub netlist_hash: u64,
    /// Incremental-timer effort over the whole run (trials included).
    pub effort: IncrementalStats,
    /// Accumulated equivalence-checker effort over all move proofs.
    pub verify_effort: EquivEffort,
}

impl ConvergenceTrace {
    /// Committed move count (== iteration count).
    pub fn moves(&self) -> usize {
        self.iterations.len()
    }

    /// Committed moves that carry a [`StageProof`].
    pub fn proofs(&self) -> usize {
        self.iterations
            .iter()
            .filter(|i| i.mv.proof.is_some())
            .count()
    }

    /// The canonical text form. Byte-stable: two runs with identical
    /// inputs produce identical bytes regardless of `ASICGAP_THREADS`,
    /// so the text is safe to content-address and to diff.
    pub fn canonical_text(&self) -> String {
        let mut s = String::new();
        s.push_str("trace/v1\n");
        s.push_str(&format!("target {:?}\n", self.target_mhz));
        s.push_str(&format!("period {:?}\n", self.period.value()));
        s.push_str(&format!(
            "start wns={:?} tns={:?} area={:?}\n",
            self.start_wns.value(),
            self.start_tns.value(),
            self.start_area_um2
        ));
        for it in &self.iterations {
            // `-` for an unproven move: proof *presence* is part of the
            // record (`proofs()` on a parsed trace must be honest), so
            // it cannot collapse into a zero cone count.
            let cones = it
                .mv
                .proof
                .map_or_else(|| "-".to_string(), |p| p.effort.cones.to_string());
            s.push_str(&format!(
                "iter {} {} gain={:?} wns={:?} tns={:?} area={:?} pins={} cones={} :: {}\n",
                it.index,
                it.mv.kind.name(),
                it.mv.gain.value(),
                it.wns.value(),
                it.tns.value(),
                it.area_um2,
                it.pins_touched,
                cones,
                it.mv.detail
            ));
        }
        s.push_str(&format!("verdict {}\n", self.verdict.canonical()));
        s.push_str(&format!(
            "final wns={:?} area={:?}\n",
            self.final_wns.value(),
            self.final_area_um2
        ));
        s.push_str(&format!("netlist {:016x}\n", self.netlist_hash));
        s.push_str(&format!(
            "effort full={} incr={} pins={}\n",
            self.effort.full_propagations,
            self.effort.incremental_updates,
            self.effort.pins_touched
        ));
        s.push_str(&format!(
            "verify cones={} structural={} sat={}\n",
            self.verify_effort.cones, self.verify_effort.structural, self.verify_effort.sat_cones
        ));
        s.push_str("end\n");
        s
    }

    /// Strict parser for [`ConvergenceTrace::canonical_text`]: `None` for
    /// any text that does not re-encode to the same bytes. Proof efforts
    /// are restored only to the cone counts the text carries (the
    /// SAT-level counters live in the aggregate `verify` line).
    pub fn parse_canonical(text: &str) -> Option<ConvergenceTrace> {
        ConvergenceTrace::read(text).ok()
    }

    fn read(text: &str) -> Result<ConvergenceTrace, TextError> {
        let mut lines = Lines::open(text, "trace/v1")?;
        let target_mhz = lines.num("target")?;
        let period = Ps::new(lines.num("period")?);
        let mut t = Tokens::new(lines.field("start")?);
        let (start_wns, start_tns) = (Ps::new(t.key("wns")?), Ps::new(t.key("tns")?));
        let start_area_um2 = t.key("area")?;
        t.end()?;

        let mut iterations = Vec::new();
        while lines.rest().starts_with("iter ") {
            let iter = lines.field("iter")?;
            let (head, detail) = (iter.split_once(" :: "))
                .ok_or_else(|| TextError::new(format!("iter without detail: {iter:?}")))?;
            let mut t = Tokens::new(head);
            let index = t.num()?;
            let kind = MoveKind::parse(t.token()?).ok_or_else(|| TextError::new("move kind"))?;
            let gain = Ps::new(t.key("gain")?);
            iterations.push(IterationRecord {
                index,
                wns: Ps::new(t.key("wns")?),
                tns: Ps::new(t.key("tns")?),
                area_um2: t.key("area")?,
                pins_touched: t.key("pins")?,
                mv: MoveRecord {
                    kind,
                    detail: detail.to_string(),
                    gain,
                    proof: match t.pair("cones")? {
                        "-" => None,
                        cones => Some(StageProof {
                            stage: kind.name(),
                            effort: EquivEffort {
                                cones: text::num(cones)?,
                                ..EquivEffort::default()
                            },
                        }),
                    },
                },
            });
            t.end()?;
        }

        let verdict =
            Verdict::parse(lines.field("verdict")?).ok_or_else(|| TextError::new("verdict"))?;
        let mut t = Tokens::new(lines.field("final")?);
        let (final_wns, final_area_um2) = (Ps::new(t.key("wns")?), t.key("area")?);
        t.end()?;
        let netlist_hash = text::hex(lines.field("netlist")?)?;
        let mut t = Tokens::new(lines.field("effort")?);
        let effort = IncrementalStats {
            full_propagations: t.key("full")?,
            incremental_updates: t.key("incr")?,
            pins_touched: t.key("pins")?,
        };
        t.end()?;
        let mut t = Tokens::new(lines.field("verify")?);
        let verify_effort = EquivEffort {
            cones: t.key("cones")?,
            structural: t.key("structural")?,
            sat_cones: t.key("sat")?,
            ..EquivEffort::default()
        };
        t.end()?;
        lines.end()?;
        Ok(ConvergenceTrace {
            target_mhz,
            period,
            start_wns,
            start_tns,
            start_area_um2,
            iterations,
            verdict,
            final_wns,
            final_area_um2,
            netlist_hash,
            effort,
            verify_effort,
        })
    }
}

impl fmt::Display for ConvergenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConvergenceTrace {
        ConvergenceTrace {
            target_mhz: 250.0,
            period: Ps::new(4000.0),
            start_wns: Ps::new(-312.5),
            start_tns: Ps::new(-812.25),
            start_area_um2: 1234.5,
            iterations: vec![
                IterationRecord {
                    index: 1,
                    wns: Ps::new(-200.0),
                    tns: Ps::new(-500.0),
                    area_um2: 1240.0,
                    mv: MoveRecord {
                        kind: MoveKind::Resize,
                        detail: "resize u42 NAND2_X4".to_string(),
                        gain: Ps::new(112.5),
                        proof: Some(StageProof {
                            stage: MoveKind::Resize.name(),
                            effort: EquivEffort {
                                cones: 17,
                                ..EquivEffort::default()
                            },
                        }),
                    },
                    pins_touched: 96,
                },
                IterationRecord {
                    index: 2,
                    wns: Ps::new(0.5),
                    tns: Ps::new(0.0),
                    area_um2: 1251.0,
                    mv: MoveRecord {
                        kind: MoveKind::Buffer,
                        detail: "buffer n17 BUF_X1 u3:0,u9:1".to_string(),
                        gain: Ps::new(200.5),
                        // Unproven on purpose: presence must round-trip.
                        proof: None,
                    },
                    pins_touched: 41,
                },
            ],
            verdict: Verdict::Closed,
            final_wns: Ps::new(0.5),
            final_area_um2: 1251.0,
            netlist_hash: 0x0123_4567_89ab_cdef,
            effort: IncrementalStats {
                full_propagations: 1,
                incremental_updates: 33,
                pins_touched: 137,
            },
            verify_effort: EquivEffort {
                cones: 34,
                structural: 30,
                sat_cones: 4,
                ..EquivEffort::default()
            },
        }
    }

    #[test]
    fn canonical_text_round_trips() {
        let t = sample();
        let text = t.canonical_text();
        let back = ConvergenceTrace::parse_canonical(&text).expect("parse");
        // The parsed proof keeps only the cone count; re-serialization is
        // nonetheless byte-identical, which is the contract that matters
        // for content addressing.
        assert_eq!(back.canonical_text(), text);
        assert_eq!(back.verdict, Verdict::Closed);
        assert_eq!(back.moves(), 2);
        assert_eq!(
            back.proofs(),
            1,
            "unproven move must parse back as unproven"
        );
        assert_eq!(back.netlist_hash, t.netlist_hash);
        assert_eq!(back.iterations[1].mv.detail, "buffer n17 BUF_X1 u3:0,u9:1");
    }

    #[test]
    fn parser_rejects_truncation_and_noise() {
        let text = sample().canonical_text();
        // Truncated anywhere → None.
        for cut in [10, 40, text.len() - 5] {
            assert!(ConvergenceTrace::parse_canonical(&text[..cut]).is_none());
        }
        // Trailing garbage → None.
        let mut noisy = text.clone();
        noisy.push_str("extra\n");
        assert!(ConvergenceTrace::parse_canonical(&noisy).is_none());
        // Header mismatch → None.
        assert!(ConvergenceTrace::parse_canonical(&text.replace("trace/v1", "trace/v2")).is_none());
    }
}
