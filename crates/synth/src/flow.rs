//! The end-to-end synthesis recipe.

use asicgap_cells::Library;
use asicgap_equiv::{check_equiv, random_sim_equiv, EquivEffort, EquivResult, VerifyLevel};
use asicgap_netlist::Netlist;

use crate::buffer::buffer_high_fanout;
use crate::drive::select_drives_with;
use crate::error::SynthError;
use crate::map::{map_with_seq, MapOptions};
use crate::reentry::netlist_to_aig;

/// One verified transform boundary: which stage, and what the proof
/// cost. Returned by [`SynthFlow::remap_verified`] when
/// [`SynthFlow::verify`] is [`VerifyLevel::Full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageProof {
    /// Stage name: `map` (re-entry, AIG restructuring and technology
    /// mapping), `buffer`, or `drive`.
    pub stage: &'static str,
    /// Checker effort for this stage.
    pub effort: EquivEffort,
}

/// A synthesis flow: balance → map → drive-select → buffer.
///
/// Each knob is an ablation axis for the experiments: `balance` is the
/// technology-independent restructuring step, `map.use_complex` the §4.2
/// complex-gate question, `drive_passes`/`buffer_max_fanout` the §6
/// electrical discipline (drive selection targets a logical-effort stage
/// gain of 4). `verify` arms per-stage equivalence checking:
/// every transform boundary is proven (or smoke-tested) function-
/// preserving before the flow returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthFlow {
    /// Run AIG tree balancing before mapping.
    pub balance: bool,
    /// Mapper options.
    pub map: MapOptions,
    /// Drive-selection sweeps.
    pub drive_passes: usize,
    /// Maximum net fanout before buffers split it.
    pub buffer_max_fanout: usize,
    /// Per-stage verification level.
    pub verify: VerifyLevel,
}

impl Default for SynthFlow {
    fn default() -> SynthFlow {
        SynthFlow {
            balance: true,
            map: MapOptions::default(),
            drive_passes: 3,
            buffer_max_fanout: 8,
            verify: VerifyLevel::Off,
        }
    }
}

impl SynthFlow {
    /// A deliberately naive flow: no balancing, no complex gates, no
    /// buffering — the "poor methodology" comparison point.
    pub fn naive() -> SynthFlow {
        SynthFlow {
            balance: false,
            map: MapOptions {
                use_complex: false,
                max_fanin: 2,
            },
            drive_passes: 0,
            buffer_max_fanout: usize::MAX / 2,
            verify: VerifyLevel::Off,
        }
    }

    /// This flow with verification armed at `level`.
    #[must_use]
    pub fn with_verify(mut self, level: VerifyLevel) -> SynthFlow {
        self.verify = level;
        self
    }

    /// Re-synthesises `netlist` (mapped against `source_lib`) onto
    /// `target_lib`.
    ///
    /// # Example
    ///
    /// ```
    /// use asicgap_tech::Technology;
    /// use asicgap_cells::LibrarySpec;
    /// use asicgap_netlist::generators;
    /// use asicgap_synth::SynthFlow;
    ///
    /// let tech = Technology::cmos025_asic();
    /// let rich = LibrarySpec::rich().build(&tech);
    /// let poor = LibrarySpec::poor().build(&tech);
    /// let design = generators::parity_tree(&rich, 8)?;
    /// // Same logic, NAND/NOR-only target: several times the cells.
    /// let remapped = SynthFlow::default().remap_from(&design, &rich, &poor)?;
    /// assert!(remapped.instance_count() > 2 * design.instance_count());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates mapper errors.
    pub fn remap_from(
        &self,
        netlist: &Netlist,
        source_lib: &Library,
        target_lib: &Library,
    ) -> Result<Netlist, SynthError> {
        Ok(self.remap_verified(netlist, source_lib, target_lib)?.0)
    }

    /// [`SynthFlow::remap_from`] returning the per-stage equivalence
    /// proofs: `map` (re-entry + balancing + mapping, checked source
    /// netlist against mapped netlist with registers cut by name),
    /// `buffer`, and `drive`. With [`VerifyLevel::Off`] the list is
    /// empty; [`VerifyLevel::Sim`] smoke-tests each stage and records no
    /// proofs.
    ///
    /// # Errors
    ///
    /// As [`SynthFlow::remap_from`].
    pub fn remap_verified(
        &self,
        netlist: &Netlist,
        source_lib: &Library,
        target_lib: &Library,
    ) -> Result<(Netlist, Vec<StageProof>), SynthError> {
        let (aig, seq) = netlist_to_aig(netlist, source_lib);
        let balanced;
        let aig_ref = if self.balance {
            balanced = aig.balanced();
            &balanced
        } else {
            &aig
        };
        let mut out = map_with_seq(aig_ref, target_lib, &self.map, &seq, &netlist.name)?;
        let mut proofs = Vec::new();
        let lib = target_lib;
        verify_stage(
            self.verify,
            "map",
            netlist,
            source_lib,
            &out,
            lib,
            &mut proofs,
        )?;
        let keep_golden = self.verify != VerifyLevel::Off;
        if self.buffer_max_fanout < usize::MAX / 2 {
            let before = keep_golden.then(|| out.clone());
            buffer_high_fanout(&mut out, lib, self.buffer_max_fanout)?;
            if let Some(before) = before {
                verify_stage(self.verify, "buffer", &before, lib, &out, lib, &mut proofs)?;
            }
        }
        if self.drive_passes > 0 {
            let before = keep_golden.then(|| out.clone());
            select_drives_with(&mut out, lib, None, self.drive_passes);
            if let Some(before) = before {
                verify_stage(self.verify, "drive", &before, lib, &out, lib, &mut proofs)?;
            }
        }
        Ok((out, proofs))
    }
}

/// Checks one netlist-to-netlist transform boundary at `verify` level:
/// `Off` is a no-op, `Sim` smoke-tests 64 random vectors, `Full` runs
/// the miter/CDCL checker and appends a [`StageProof`] on success.
/// Shared by [`SynthFlow`] stages and [`crate::PassPipeline`] passes.
pub(crate) fn verify_stage(
    verify: VerifyLevel,
    stage: &'static str,
    golden: &Netlist,
    lib_golden: &Library,
    candidate: &Netlist,
    lib_candidate: &Library,
    proofs: &mut Vec<StageProof>,
) -> Result<(), SynthError> {
    match verify {
        VerifyLevel::Off => Ok(()),
        VerifyLevel::Sim => {
            if random_sim_equiv(
                golden,
                lib_golden,
                candidate,
                lib_candidate,
                64,
                0xA51C_6A70,
            ) {
                Ok(())
            } else {
                Err(SynthError::Inequivalent {
                    stage: stage.to_string(),
                    output: "<random simulation>".to_string(),
                })
            }
        }
        VerifyLevel::Full => {
            let report =
                check_equiv(golden, lib_golden, candidate, lib_candidate).map_err(|e| {
                    SynthError::Verify {
                        stage: stage.to_string(),
                        what: e.to_string(),
                    }
                })?;
            match report.result {
                EquivResult::Equivalent => {
                    proofs.push(StageProof {
                        stage,
                        effort: report.effort,
                    });
                    Ok(())
                }
                EquivResult::Inequivalent(cex) => Err(SynthError::Inequivalent {
                    stage: stage.to_string(),
                    output: cex.output,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, Simulator};
    use asicgap_sta::{analyze, ClockSpec};
    use asicgap_tech::Technology;

    fn equivalent(a: &Netlist, la: &Library, b: &Netlist, lb: &Library, vectors: u64) -> bool {
        let mut sa = Simulator::new(a, la);
        let mut sb = Simulator::new(b, lb);
        let n = a.inputs().len();
        assert_eq!(n, b.inputs().len());
        // Match inputs by name.
        let order: Vec<usize> = b
            .inputs()
            .iter()
            .map(|(name, _)| {
                a.inputs()
                    .iter()
                    .position(|(x, _)| x == name)
                    .expect("same input names")
            })
            .collect();
        for seed in 0..vectors {
            let bits_a: Vec<bool> = (0..n)
                .map(|i| (seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32)) & 1 == 1)
                .collect();
            let bits_b: Vec<bool> = order.iter().map(|&i| bits_a[i]).collect();
            if sa.run_comb(&bits_a) != sb.run_comb(&bits_b) {
                return false;
            }
        }
        true
    }

    #[test]
    fn remap_preserves_adder_function_across_libraries() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let poor = LibrarySpec::poor().build(&tech);
        let golden = generators::carry_lookahead_adder(&rich, 8).expect("cla8");
        let flow = SynthFlow::default();
        let on_poor = flow.remap_from(&golden, &rich, &poor).expect("remaps");
        assert!(equivalent(&golden, &rich, &on_poor, &poor, 200));
    }

    #[test]
    fn default_flow_beats_naive_flow() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let golden = generators::alu(&rich, 8).expect("alu8");
        let clock = ClockSpec::unconstrained();
        let good = SynthFlow::default()
            .remap_from(&golden, &rich, &rich)
            .expect("good flow");
        let bad = SynthFlow::naive()
            .remap_from(&golden, &rich, &rich)
            .expect("naive flow");
        let t_good = analyze(&good, &rich, &clock, None).min_period;
        let t_bad = analyze(&bad, &rich, &clock, None).min_period;
        assert!(
            t_good < t_bad,
            "default flow should be faster: {t_good} vs {t_bad}"
        );
        assert!(equivalent(&good, &rich, &bad, &rich, 100));
    }

    #[test]
    fn verified_remap_proves_every_stage() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let poor = LibrarySpec::poor().build(&tech);
        let golden = generators::carry_lookahead_adder(&rich, 8).expect("cla8");
        let flow = SynthFlow::default().with_verify(VerifyLevel::Full);
        let (_, proofs) = flow.remap_verified(&golden, &rich, &poor).expect("remaps");
        let stages: Vec<&str> = proofs.iter().map(|p| p.stage).collect();
        assert_eq!(stages, ["map", "buffer", "drive"]);
        // Mapping restructures logic, so the map proof needs SAT; buffer
        // and drive only touch drive strengths and buffer trees, which
        // import as identities — pure structural discharge.
        assert!(proofs[0].effort.sat_cones > 0, "map proof uses SAT");
        for p in &proofs[1..] {
            assert_eq!(
                p.effort.structural, p.effort.cones,
                "{} is structural",
                p.stage
            );
        }
    }

    #[test]
    fn sim_tier_verification_passes_quietly() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let golden = generators::parity_tree(&rich, 8).expect("p8");
        let flow = SynthFlow::default().with_verify(VerifyLevel::Sim);
        let (_, proofs) = flow.remap_verified(&golden, &rich, &rich).expect("remaps");
        assert!(proofs.is_empty(), "Sim tier records no proofs");
    }

    #[test]
    fn verified_remap_covers_sequential_designs() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let golden = generators::counter(&rich, 6).expect("counter6");
        let flow = SynthFlow::default().with_verify(VerifyLevel::Full);
        let (out, proofs) = flow.remap_verified(&golden, &rich, &rich).expect("remaps");
        let seq = out
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .count();
        assert_eq!(seq, 6, "registers survive verified remap");
        // Register D cones participate in the proof.
        assert!(proofs[0].effort.cones > golden.outputs().len());
    }

    #[test]
    fn remap_keeps_sequential_elements() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let mut b = asicgap_netlist::NetlistBuilder::new("pipe", &rich);
        let a = b.input("a");
        let c = b.input("b");
        let x = b.xor2(a, c).expect("xor");
        let q = b.dff(x).expect("dff");
        let y = b.inv(q).expect("inv");
        b.output("y", y);
        let n = b.finish().expect("valid");
        let out = SynthFlow::default()
            .remap_from(&n, &rich, &rich)
            .expect("remap");
        let seq = out
            .iter_instances()
            .filter(|(_, i)| i.is_sequential())
            .count();
        assert_eq!(seq, 1, "flip-flop survives remap");
        // Behaviour check across a clock cycle.
        let mut sim_a = Simulator::new(&n, &rich);
        let mut sim_b = Simulator::new(&out, &rich);
        for (va, vb) in [(true, false), (true, true), (false, true)] {
            sim_a.set_inputs(&[va, vb]);
            sim_b.set_input("a", va);
            sim_b.set_input("b", vb);
            sim_a.eval_comb();
            sim_b.eval_comb();
            sim_a.step_clock();
            sim_b.step_clock();
            assert_eq!(sim_a.output_values(), sim_b.output_values());
        }
    }
}
