//! The equivalence-check driver: miter → structural discharge → SAT →
//! counterexample replay.

use std::collections::HashMap;

use asicgap_cells::Library;
use asicgap_netlist::{Netlist, Simulator};

use crate::error::EquivError;
use crate::graph::{AigOps, Graph, Lit};
use crate::miter::{import_netlist, ImportedNetlist, SeqMode};
use crate::sat::{SatLit, SatOutcome, Solver};

/// Per-check effort counters: how much work the proof took, and where it
/// was done. These surface in flow reports next to the timing-effort
/// counters and are part of the determinism contract — a checker change
/// that does different work moves these numbers, and the golden tests
/// notice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EquivEffort {
    /// Output cones compared (primary outputs + register D cones).
    pub cones: usize,
    /// Cones discharged by structural hashing / constant propagation —
    /// both sides folded to the same literal, no SAT needed.
    pub structural: usize,
    /// Cones that went to the SAT solver.
    pub sat_cones: usize,
    /// CNF variables created across all SAT cones.
    pub vars: usize,
    /// CNF clauses created across all SAT cones.
    pub clauses: usize,
    /// SAT conflicts across all cones.
    pub conflicts: usize,
    /// SAT decisions across all cones.
    pub decisions: usize,
    /// SAT propagations across all cones.
    pub propagations: usize,
}

impl EquivEffort {
    /// Accumulates another effort record into this one.
    pub fn merge(&mut self, other: &EquivEffort) {
        self.cones += other.cones;
        self.structural += other.structural;
        self.sat_cones += other.sat_cones;
        self.vars += other.vars;
        self.clauses += other.clauses;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
    }
}

impl std::fmt::Display for EquivEffort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cones ({} structural, {} SAT), {} clauses, {} conflicts",
            self.cones, self.structural, self.sat_cones, self.clauses, self.conflicts
        )
    }
}

/// A counterexample: an input vector on which the two designs differ,
/// replayed through [`asicgap_netlist::Simulator`] before being reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The differing output (a primary output name, or `__d_<key>` for a
    /// register data cone).
    pub output: String,
    /// Primary-input assignment as (name, value); inputs not listed are
    /// false.
    pub inputs: Vec<(String, bool)>,
    /// Register-state assignment as (cut-point key, value); registers not
    /// listed hold false.
    pub registers: Vec<(String, bool)>,
    /// `true` once simulation confirmed the divergence (always `true` on
    /// values returned by [`check_equiv`]).
    pub confirmed: bool,
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// Proven equivalent on every output cone.
    Equivalent,
    /// A sim-confirmed diverging input vector exists.
    Inequivalent(Counterexample),
}

/// Verdict plus effort counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// The verdict.
    pub result: EquivResult,
    /// How much work the check took.
    pub effort: EquivEffort,
}

impl EquivReport {
    /// `true` for a proven-equivalent verdict.
    pub fn is_equivalent(&self) -> bool {
        matches!(self.result, EquivResult::Equivalent)
    }
}

/// A raw (not yet replayed) counterexample over miter-graph inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawCounterexample {
    /// The differing output pair's name.
    pub(crate) output: String,
    /// Assignment of every miter input, in graph input order.
    pub(crate) assignment: Vec<(String, bool)>,
}

/// Pairs two imported output lists by name and proves each pair equal:
/// structurally when strashing already merged them, by SAT otherwise.
/// Returns at the first diverging cone.
///
/// # Errors
///
/// [`EquivError::InterfaceMismatch`] if the output name sets differ.
pub(crate) fn prove_outputs(
    g: &mut Graph,
    golden: &[(String, Lit)],
    candidate: &[(String, Lit)],
) -> Result<(EquivEffort, Option<RawCounterexample>), EquivError> {
    let mut by_name: HashMap<&str, Lit> = HashMap::new();
    for (name, lit) in candidate {
        if by_name.insert(name.as_str(), *lit).is_some() {
            return Err(EquivError::InterfaceMismatch {
                what: format!("duplicate output {name}"),
            });
        }
    }
    if golden.len() != candidate.len() {
        return Err(EquivError::InterfaceMismatch {
            what: format!("output count {} vs {}", golden.len(), candidate.len()),
        });
    }
    let mut effort = EquivEffort::default();
    for (name, lit_a) in golden {
        let Some(&lit_b) = by_name.get(name.as_str()) else {
            return Err(EquivError::InterfaceMismatch {
                what: format!("output {name} missing on candidate"),
            });
        };
        effort.cones += 1;
        let diff = g.xor(*lit_a, lit_b);
        if diff == Lit::FALSE {
            effort.structural += 1;
            continue;
        }
        if diff == Lit::TRUE {
            // Constantly different: any vector works; report all-false.
            let assignment = g.input_names().iter().map(|n| (n.clone(), false)).collect();
            return Ok((
                effort,
                Some(RawCounterexample {
                    output: name.clone(),
                    assignment,
                }),
            ));
        }
        effort.sat_cones += 1;
        if let Some(assignment) = solve_cone(g, diff, &mut effort) {
            return Ok((
                effort,
                Some(RawCounterexample {
                    output: name.clone(),
                    assignment,
                }),
            ));
        }
    }
    Ok((effort, None))
}

/// Tseitin-encodes the cone of `root` and asks the SAT solver whether it
/// can be made true. Returns a full-input assignment on SAT.
fn solve_cone(g: &Graph, root: Lit, effort: &mut EquivEffort) -> Option<Vec<(String, bool)>> {
    let mut solver = Solver::new();
    let mut var_of: HashMap<usize, usize> = HashMap::new();

    // Iterative postorder over the cone.
    let mut stack = vec![root.node()];
    while let Some(n) = stack.pop() {
        if var_of.contains_key(&n) {
            continue;
        }
        match g.and_children(n) {
            None => {
                // Input or constant: a free variable (constants are
                // folded away by the graph; a stray one is pinned false).
                let v = solver.new_var();
                var_of.insert(n, v);
                if n == 0 {
                    solver.add_clause(&[SatLit::new(v, true)]);
                }
            }
            Some((a, b)) => {
                let need_a = !var_of.contains_key(&a.node());
                let need_b = !var_of.contains_key(&b.node());
                if need_a || need_b {
                    stack.push(n);
                    if need_a {
                        stack.push(a.node());
                    }
                    if need_b {
                        stack.push(b.node());
                    }
                    continue;
                }
                let v = solver.new_var();
                var_of.insert(n, v);
                let y = SatLit::new(v, false);
                let la = SatLit::new(var_of[&a.node()], a.is_complement());
                let lb = SatLit::new(var_of[&b.node()], b.is_complement());
                solver.add_clause(&[y.negate(), la]);
                solver.add_clause(&[y.negate(), lb]);
                solver.add_clause(&[la.negate(), lb.negate(), y]);
            }
        }
    }
    solver.add_clause(&[SatLit::new(var_of[&root.node()], root.is_complement())]);

    let outcome = solver.solve();
    let s = solver.stats();
    effort.vars += s.vars;
    effort.clauses += s.clauses;
    effort.conflicts += s.conflicts;
    effort.decisions += s.decisions;
    effort.propagations += s.propagations;

    match outcome {
        SatOutcome::Unsat => None,
        SatOutcome::Sat(model) => {
            let assignment: Vec<(String, bool)> = g
                .input_names()
                .iter()
                .map(|name| {
                    let node = g
                        .input_literal(name)
                        .expect("input names map to inputs")
                        .node();
                    let value = var_of.get(&node).map(|&v| model[v]).unwrap_or(false);
                    (name.clone(), value)
                })
                .collect();
            // The model must reproduce on the graph itself.
            let by_pos: Vec<bool> = assignment.iter().map(|&(_, v)| v).collect();
            debug_assert!(
                g.eval([root], &by_pos)[0],
                "SAT model does not satisfy the cone"
            );
            Some(assignment)
        }
    }
}

/// Checks combinational (register-cut) equivalence of two netlists.
/// Inputs, outputs, and register cut points are matched by name.
///
/// # Errors
///
/// Interface mismatches, sequential-import failures, and the
/// (checker-bug) case of a counterexample that does not replay.
pub fn check_equiv(
    a: &Netlist,
    lib_a: &Library,
    b: &Netlist,
    lib_b: &Library,
) -> Result<EquivReport, EquivError> {
    check_equiv_with(a, lib_a, b, lib_b, SeqMode::Cut)
}

/// [`check_equiv`] with the candidate's registers handled as `seq_b`
/// says; the golden side's registers are always cut.
///
/// # Errors
///
/// As [`check_equiv`].
pub fn check_equiv_with(
    a: &Netlist,
    lib_a: &Library,
    b: &Netlist,
    lib_b: &Library,
    seq_b: SeqMode,
) -> Result<EquivReport, EquivError> {
    let mut g = Graph::new();
    let ia = import_netlist(&mut g, a, lib_a, SeqMode::Cut)?;
    let ib = import_netlist(&mut g, b, lib_b, seq_b)?;
    let (effort, raw) = prove_outputs(&mut g, &ia.outputs, &ib.outputs)?;
    let Some(raw) = raw else {
        return Ok(EquivReport {
            result: EquivResult::Equivalent,
            effort,
        });
    };

    // Split the miter assignment into primary inputs and register keys.
    let mut inputs: Vec<(String, bool)> = Vec::new();
    let mut registers: Vec<(String, bool)> = Vec::new();
    for (name, value) in &raw.assignment {
        match name.strip_prefix("__q_") {
            Some(key) => registers.push((key.to_string(), *value)),
            None => inputs.push((name.clone(), *value)),
        }
    }

    // Replay through the simulator: the counterexample is only reported
    // once both sides actually produce different values on it.
    let va = replay_side(
        a,
        lib_a,
        &ia,
        SeqMode::Cut,
        &inputs,
        &registers,
        &raw.output,
    );
    let vb = replay_side(b, lib_b, &ib, seq_b, &inputs, &registers, &raw.output);
    let confirmed = match (va, vb) {
        (Some(x), Some(y)) => x != y,
        _ => false,
    };
    if !confirmed {
        return Err(EquivError::Unconfirmed { output: raw.output });
    }
    Ok(EquivReport {
        result: EquivResult::Inequivalent(Counterexample {
            output: raw.output,
            inputs,
            registers,
            confirmed,
        }),
        effort,
    })
}

/// Simulates one side under the counterexample assignment and returns the
/// value of `output` (primary output or `__d_<key>` cone).
fn replay_side(
    n: &Netlist,
    lib: &Library,
    imported: &ImportedNetlist,
    mode: SeqMode,
    inputs: &[(String, bool)],
    registers: &[(String, bool)],
    output: &str,
) -> Option<bool> {
    let mut sim = Simulator::new(n, lib);
    let pi: HashMap<&str, bool> = inputs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (name, _) in n.inputs() {
        sim.set_input(name, pi.get(name.as_str()).copied().unwrap_or(false));
    }
    match mode {
        SeqMode::Cut => {
            let state: HashMap<&str, bool> =
                registers.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            for (key, inst) in &imported.registers {
                sim.set_state(*inst, state.get(key.as_str()).copied().unwrap_or(false));
            }
            sim.eval_comb();
        }
        SeqMode::Transparent => {
            // Flush the pipeline: with inputs held, every register chain
            // settles to the transparent (combinational) value after at
            // most one clock per register.
            sim.eval_comb();
            let seq_count = n
                .iter_instances()
                .filter(|(_, i)| i.is_sequential())
                .count();
            for _ in 0..seq_count {
                sim.step_clock();
            }
        }
    }
    if let Some(key) = output.strip_prefix("__d_") {
        let (_, inst) = imported.registers.iter().find(|(k, _)| k == key)?;
        return Some(sim.value(n.instance(*inst).fanin()[0]));
    }
    let (_, net) = n.outputs().iter().find(|(name, _)| name == output)?;
    Some(sim.value(*net))
}

/// 2⁶⁴/φ: spreads consecutive vector numbers across the state space.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Endless pseudo-random bits: xorshift64 (13, 7, 17) from `state`, the
/// low bit of each step.
fn random_bits(mut state: u64) -> impl Iterator<Item = bool> {
    std::iter::repeat_with(move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    })
}

/// Random input vector number `index` over `inputs` inputs, seeded from
/// `(index + 1)·φ`: a function of its two arguments alone, so every
/// random-simulation tier that draws from it replays identically.
pub fn random_vector(index: u64, inputs: usize) -> Vec<bool> {
    random_bits((index + 1).wrapping_mul(GOLDEN))
        .take(inputs)
        .collect()
}

/// Fast random-simulation smoke check (no proof): drives both designs
/// with `vectors` shared random input vectors, compares outputs by name
/// after combinational settle and after two clock edges. This is the
/// [`crate::VerifyLevel::Sim`] tier — cheap enough to leave on.
pub fn random_sim_equiv(
    a: &Netlist,
    lib_a: &Library,
    b: &Netlist,
    lib_b: &Library,
    vectors: u64,
    seed: u64,
) -> bool {
    let mut sa = Simulator::new(a, lib_a);
    let mut sb = Simulator::new(b, lib_b);
    let out_order: Vec<(usize, usize)> = match match_names(a.outputs(), b.outputs()) {
        Some(o) => o,
        None => return false,
    };
    for v in 0..vectors {
        let mut bits = random_bits(seed ^ v.wrapping_mul(GOLDEN));
        for (name, _) in a.inputs() {
            let val = bits.next().expect("endless");
            sa.set_input(name, val);
            if b.inputs().iter().any(|(n, _)| n == name) {
                sb.set_input(name, val);
            } else {
                return false;
            }
        }
        sa.eval_comb();
        sb.eval_comb();
        for _ in 0..3 {
            let oa = sa.output_values();
            let ob = sb.output_values();
            if out_order.iter().any(|&(i, j)| oa[i] != ob[j]) {
                return false;
            }
            sa.step_clock();
            sb.step_clock();
        }
    }
    true
}

/// Sweeps dead logic from `n` and *proves* the sweep safe before handing
/// the result back: the swept netlist is checked equivalent (register
/// cut) against the original.
///
/// # Errors
///
/// Propagates sweep and checker errors; an inequivalent sweep (a sweep
/// bug) surfaces as the report's verdict for the caller to fail on.
pub fn checked_sweep(
    n: &Netlist,
    lib: &Library,
) -> Result<(Netlist, asicgap_netlist::SweepStats, EquivReport), EquivError> {
    let (swept, stats) = asicgap_netlist::sweep_dead_logic(n, lib)?;
    let report = check_equiv(n, lib, &swept, lib)?;
    Ok((swept, stats, report))
}

fn match_names(
    a: &[(String, asicgap_netlist::NetId)],
    b: &[(String, asicgap_netlist::NetId)],
) -> Option<Vec<(usize, usize)>> {
    if a.len() != b.len() {
        return None;
    }
    a.iter()
        .enumerate()
        .map(|(i, (name, _))| b.iter().position(|(n, _)| n == name).map(|j| (i, j)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_netlist::{generators, NetlistBuilder};
    use asicgap_tech::Technology;

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    #[test]
    fn self_check_is_fully_structural() {
        let lib = lib();
        let n = generators::carry_lookahead_adder(&lib, 8).expect("cla8");
        let report = check_equiv(&n, &lib, &n, &lib).expect("checks");
        assert_eq!(report.result, EquivResult::Equivalent);
        assert_eq!(report.effort.structural, report.effort.cones);
        assert_eq!(report.effort.sat_cones, 0);
    }

    #[test]
    fn restructured_logic_needs_sat_and_proves() {
        let lib = lib();
        // Two structurally different implementations of the same
        // function: a ∧ (b ∨ c)  vs  (a ∧ b) ∨ (a ∧ c).
        let mut b1 = NetlistBuilder::new("lhs", &lib);
        let a = b1.input("a");
        let b = b1.input("b");
        let c = b1.input("c");
        let bc = b1.or2(b, c).expect("or");
        let y = b1.and2(a, bc).expect("and");
        b1.output("y", y);
        let lhs = b1.finish().expect("valid");

        let mut b2 = NetlistBuilder::new("rhs", &lib);
        let a = b2.input("a");
        let b = b2.input("b");
        let c = b2.input("c");
        let ab = b2.and2(a, b).expect("and");
        let ac = b2.and2(a, c).expect("and");
        let y = b2.or2(ab, ac).expect("or");
        b2.output("y", y);
        let rhs = b2.finish().expect("valid");

        let report = check_equiv(&lhs, &lib, &rhs, &lib).expect("checks");
        assert_eq!(report.result, EquivResult::Equivalent);
        assert_eq!(report.effort.sat_cones, 1);
        assert!(report.effort.clauses > 0);
    }

    #[test]
    fn differing_logic_yields_confirmed_counterexample() {
        let lib = lib();
        let mut b1 = NetlistBuilder::new("and", &lib);
        let a = b1.input("a");
        let b = b1.input("b");
        let y = b1.and2(a, b).expect("and");
        b1.output("y", y);
        let lhs = b1.finish().expect("valid");

        let mut b2 = NetlistBuilder::new("or", &lib);
        let a = b2.input("a");
        let b = b2.input("b");
        let y = b2.or2(a, b).expect("or");
        b2.output("y", y);
        let rhs = b2.finish().expect("valid");

        let report = check_equiv(&lhs, &lib, &rhs, &lib).expect("checks");
        match report.result {
            EquivResult::Inequivalent(cex) => {
                assert_eq!(cex.output, "y");
                assert!(cex.confirmed);
                // AND and OR differ exactly when inputs differ.
                let va = cex.inputs.iter().find(|(n, _)| n == "a").expect("a").1;
                let vb = cex.inputs.iter().find(|(n, _)| n == "b").expect("b").1;
                assert_ne!(va, vb);
            }
            EquivResult::Equivalent => panic!("AND vs OR must differ"),
        }
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let lib = lib();
        // Different output sets (an ALU has many, a parity tree one):
        // that is an interface error, not an inequivalence finding.
        let n1 = generators::alu(&lib, 4).expect("alu4");
        let n2 = generators::parity_tree(&lib, 4).expect("p4");
        assert!(matches!(
            check_equiv(&n1, &lib, &n2, &lib),
            Err(EquivError::InterfaceMismatch { .. })
        ));
    }

    #[test]
    fn sequential_design_checks_through_register_cut() {
        let lib = lib();
        let n = generators::counter(&lib, 6).expect("counter6");
        let report = check_equiv(&n, &lib, &n, &lib).expect("checks");
        assert_eq!(report.result, EquivResult::Equivalent);
        // D cones count along with primary outputs.
        assert!(report.effort.cones > n.outputs().len());
    }

    #[test]
    fn register_state_divergence_is_caught_and_replays() {
        let lib = lib();
        // q -> y   vs   q -> !y: differ only through register state.
        let dff = lib.smallest(CellFunction::Dff).expect("dff");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let buf = lib.smallest(CellFunction::Buf).expect("buf");

        let mut n1 = Netlist::new("pass");
        let a = n1.add_net("a");
        n1.add_input("a", a).expect("fresh");
        let q = n1.add_net("qnet");
        n1.add_instance("ff", &lib, dff, &[a], q).expect("ff");
        let y = n1.add_net("ynet");
        n1.add_instance("g", &lib, buf, &[q], y).expect("buf");
        n1.add_output("y", y);

        let mut n2 = Netlist::new("flip");
        let a = n2.add_net("a");
        n2.add_input("a", a).expect("fresh");
        let q = n2.add_net("qnet2");
        n2.add_instance("ff", &lib, dff, &[a], q).expect("ff");
        let y = n2.add_net("ynet2");
        n2.add_instance("g", &lib, inv, &[q], y).expect("inv");
        n2.add_output("y", y);

        let report = check_equiv(&n1, &lib, &n2, &lib).expect("checks");
        match report.result {
            EquivResult::Inequivalent(cex) => {
                assert!(cex.confirmed);
                assert_eq!(cex.output, "y");
            }
            EquivResult::Equivalent => panic!("buf vs inv behind a register must differ"),
        }
    }

    #[test]
    fn random_sim_smoke_tier_agrees() {
        let lib = lib();
        let n = generators::alu(&lib, 4).expect("alu4");
        assert!(random_sim_equiv(&n, &lib, &n, &lib, 16, 7));
        let other = generators::parity_tree(&lib, 4).expect("p4");
        assert!(!random_sim_equiv(&n, &lib, &other, &lib, 4, 7));
    }
}
