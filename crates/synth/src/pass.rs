//! Named optimization passes composed into verified pipelines.
//!
//! A [`PassPipeline`] is an ordered list of [`PassKind`]s run over a
//! mapped netlist. Ordering is explicit and deterministic — the same
//! pipeline on the same netlist produces the same result at any thread
//! count — and every pass records a [`PassDelta`] (depth, area, gate
//! count before/after). With [`VerifyLevel::Full`] each pass boundary
//! is discharged through the miter/CDCL checker and carries its
//! [`StageProof`]; a pass that changes any output function aborts the
//! pipeline with [`SynthError::Inequivalent`]. This is the per-pass
//! proof obligation of DESIGN.md §10: no rewrite lands unproven.

use asicgap_cells::Library;
use asicgap_equiv::VerifyLevel;
use asicgap_netlist::{Netlist, NetlistStats};

use crate::error::SynthError;
use crate::flow::{verify_stage, StageProof};
use crate::rewrite::{
    rebalance_pass, rewrite_pass, ChainFamily, ReplacementLibrary, RewriteOptions,
};

/// One named netlist-to-netlist optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Cut-based rewriting ([`rewrite_pass`]).
    Rewrite,
    /// AND-chain rebalancing.
    RebalanceAnd,
    /// OR-chain rebalancing.
    RebalanceOr,
    /// XOR-chain rebalancing.
    RebalanceXor,
}

impl PassKind {
    /// Stable pass name, used in scenario keys, proofs, and reports.
    pub fn name(self) -> &'static str {
        match self {
            PassKind::Rewrite => "rewrite",
            PassKind::RebalanceAnd => "rebalance-and",
            PassKind::RebalanceOr => "rebalance-or",
            PassKind::RebalanceXor => "rebalance-xor",
        }
    }

    /// Parses a pass name produced by [`PassKind::name`].
    pub fn parse(s: &str) -> Option<PassKind> {
        match s {
            "rewrite" => Some(PassKind::Rewrite),
            "rebalance-and" => Some(PassKind::RebalanceAnd),
            "rebalance-or" => Some(PassKind::RebalanceOr),
            "rebalance-xor" => Some(PassKind::RebalanceXor),
            _ => None,
        }
    }
}

/// What one pass did to the netlist, with its proof when verification
/// was armed at [`VerifyLevel::Full`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassDelta {
    /// The pass name ([`PassKind::name`]).
    pub pass: &'static str,
    /// Logic depth entering the pass.
    pub depth_before: usize,
    /// Logic depth leaving the pass (never above `depth_before`).
    pub depth_after: usize,
    /// Cell area entering the pass, µm².
    pub area_before: f64,
    /// Cell area leaving the pass, µm².
    pub area_after: f64,
    /// Instances entering the pass.
    pub gates_before: usize,
    /// Instances leaving the pass.
    pub gates_after: usize,
    /// Accepted substitutions.
    pub substitutions: usize,
    /// The equivalence proof for this boundary (`Full` verify only).
    pub proof: Option<StageProof>,
}

/// An ordered, named, verified sequence of passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassPipeline {
    /// The passes, run in order.
    pub passes: Vec<PassKind>,
    /// Per-pass verification level.
    pub verify: VerifyLevel,
    /// Rewrite-pass knobs (shared by every `Rewrite` entry).
    pub options: RewriteOptions,
}

impl PassPipeline {
    /// The empty pipeline: a no-op.
    pub fn empty() -> PassPipeline {
        PassPipeline {
            passes: Vec::new(),
            verify: VerifyLevel::Off,
            options: RewriteOptions::default(),
        }
    }

    /// A pipeline of the given passes, verification off.
    pub fn new(passes: Vec<PassKind>) -> PassPipeline {
        PassPipeline {
            passes,
            verify: VerifyLevel::Off,
            options: RewriteOptions::default(),
        }
    }

    /// The canonical depth-recovery recipe: rebalance the associative
    /// chains first (cheap, global restructuring the cut rewriter cannot
    /// see past its 4-leaf horizon), then two rewrite sweeps — the
    /// second picks up cones the first one shortened into range.
    pub fn depth_recovery() -> PassPipeline {
        PassPipeline::new(vec![
            PassKind::RebalanceAnd,
            PassKind::RebalanceOr,
            PassKind::RebalanceXor,
            PassKind::Rewrite,
            PassKind::Rewrite,
        ])
    }

    /// This pipeline with verification armed at `level`.
    #[must_use]
    pub fn with_verify(mut self, level: VerifyLevel) -> PassPipeline {
        self.verify = level;
        self
    }

    /// True when there is nothing to run.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The pipeline's stable name: pass names joined with `+`, or
    /// `off` when empty — the scenario-grid encoding.
    pub fn key(&self) -> String {
        if self.passes.is_empty() {
            "off".to_string()
        } else {
            self.passes
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// Parses a [`PassPipeline::key`] encoding.
    pub fn parse(s: &str) -> Option<PassPipeline> {
        if s == "off" {
            return Some(PassPipeline::empty());
        }
        let passes = s
            .split('+')
            .map(PassKind::parse)
            .collect::<Option<Vec<_>>>()?;
        Some(PassPipeline::new(passes))
    }

    /// Runs every pass in order over `netlist`, returning one
    /// [`PassDelta`] per pass.
    ///
    /// # Errors
    ///
    /// [`SynthError::Inequivalent`] when an armed verify level catches a
    /// pass changing an output function (see the sabotage hook in
    /// [`RewriteOptions`]), plus propagated arena/library errors.
    pub fn run(&self, netlist: &mut Netlist, lib: &Library) -> Result<Vec<PassDelta>, SynthError> {
        let mut deltas = Vec::with_capacity(self.passes.len());
        if self.passes.is_empty() {
            return Ok(deltas);
        }
        let mut replib = ReplacementLibrary::for_library(lib);
        for &kind in &self.passes {
            let before = NetlistStats::of(netlist, lib);
            let golden = (self.verify != VerifyLevel::Off).then(|| netlist.clone());
            let stats = match kind {
                PassKind::Rewrite => rewrite_pass(netlist, lib, &mut replib, &self.options)?,
                PassKind::RebalanceAnd => rebalance_pass(netlist, lib, ChainFamily::And)?,
                PassKind::RebalanceOr => rebalance_pass(netlist, lib, ChainFamily::Or)?,
                PassKind::RebalanceXor => rebalance_pass(netlist, lib, ChainFamily::Xor)?,
            };
            let mut proofs = Vec::new();
            if let Some(golden) = golden {
                verify_stage(
                    self.verify,
                    kind.name(),
                    &golden,
                    lib,
                    netlist,
                    lib,
                    &mut proofs,
                )?;
            }
            let after = NetlistStats::of(netlist, lib);
            deltas.push(PassDelta {
                pass: kind.name(),
                depth_before: before.logic_depth,
                depth_after: after.logic_depth,
                area_before: before.area_um2,
                area_after: after.area_um2,
                gates_before: before.instances,
                gates_after: after.instances,
                substitutions: stats.substitutions,
                proof: proofs.pop(),
            });
        }
        Ok(deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn key_round_trips() {
        let p = PassPipeline::depth_recovery();
        assert_eq!(
            p.key(),
            "rebalance-and+rebalance-or+rebalance-xor+rewrite+rewrite"
        );
        assert_eq!(
            PassPipeline::parse(&p.key()).expect("parses").passes,
            p.passes
        );
        assert_eq!(PassPipeline::parse("off").expect("parses").passes, vec![]);
        assert!(PassPipeline::parse("bogus").is_none());
        assert_eq!(PassPipeline::empty().key(), "off");
    }

    #[test]
    fn depth_recovery_is_proven_and_monotone_on_a_naive_alu() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        // A naively mapped ALU (NAND2-only, unbalanced) is what the
        // pipeline exists to repair; the rich-mapped ALU is already
        // 4-cut-optimal and would be a no-op.
        let golden = generators::alu(&lib, 8).expect("alu8");
        let mut n = crate::SynthFlow::naive()
            .remap_from(&golden, &lib, &lib)
            .expect("naive remap");
        let pipeline = PassPipeline::depth_recovery().with_verify(VerifyLevel::Full);
        let deltas = pipeline.run(&mut n, &lib).expect("pipeline");
        assert_eq!(deltas.len(), 5);
        for d in &deltas {
            assert!(d.depth_after <= d.depth_before, "{} grew depth", d.pass);
            let proof = d.proof.as_ref().expect("Full verify records a proof");
            assert_eq!(proof.stage, d.pass);
        }
        let total: usize = deltas.iter().map(|d| d.substitutions).sum();
        assert!(total > 0, "pipeline should find substitutions");
        let before = deltas.first().expect("nonempty").depth_before;
        let after = deltas.last().expect("nonempty").depth_after;
        assert!(
            (after as f64) <= 0.85 * before as f64,
            "pipeline should cut naive alu8 depth >= 15%: {before} -> {after}"
        );
    }

    #[test]
    fn corrupted_pass_is_caught_by_full_verify() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let golden = generators::equality_comparator(&lib, 32).expect("eq32");
        // Corrupt the last substitution so no later one rebuilds the
        // correct cone over it (the count is deterministic, so a dry
        // run pins it down).
        let subs = {
            let mut probe = golden.clone();
            PassPipeline::new(vec![PassKind::Rewrite])
                .run(&mut probe, &lib)
                .expect("dry run")[0]
                .substitutions
        };
        assert!(subs > 0, "eq32 must have rewrite headroom");
        let mut n = golden.clone();
        let mut pipeline =
            PassPipeline::new(vec![PassKind::Rewrite]).with_verify(VerifyLevel::Full);
        pipeline.options.corrupt_substitution = Some(subs - 1);
        let err = pipeline.run(&mut n, &lib).expect_err("proof must fail");
        assert!(
            matches!(err, SynthError::Inequivalent { ref stage, .. } if stage == "rewrite"),
            "unexpected error: {err:?}"
        );
    }
}
