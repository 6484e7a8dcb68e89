//! Shared experiment drivers for the `repro` binary and
//! `tests/golden.rs`. Each `eN_*` function computes one experiment of
//! the index in DESIGN.md and returns its headline numbers, so the
//! binary prints, and the golden suite pins, the same code path.

#![warn(missing_docs)]

pub mod harness;

use asicgap::cells::LibrarySpec;
use asicgap::chips;
use asicgap::equiv::checked_sweep;
use asicgap::gap::FactorTable;
use asicgap::netlist::{generators, Netlist};
use asicgap::pipeline::{pipeline_netlist, verify_pipeline, PipelineModel};
use asicgap::place::FloorplanStudy;
use asicgap::process::VariationStudy;
use asicgap::sizing::{snap_to_library, tilos_size, TilosOptions};
use asicgap::sta::{analyze, ClockSpec};
use asicgap::synth::SynthFlow;
use asicgap::tech::{Fo4, Mhz, Ps, Technology};
use asicgap::{
    close_timing_grid, domino_speed_ratio, run_scenario, run_scenario_verified, run_scenarios,
    ClosureTarget, DesignScenario, EquivEffort, GapFactor, ScenarioOutcome, VerifyLevel, WireModel,
    WorkloadSpec,
};

/// E1: the observed silicon gap.
pub fn e1_chip_gap() -> chips::ObservedGap {
    chips::observed_gap()
}

/// E2 (measured side): end-to-end scenario gap and a measured factor
/// table. Returns (gap, measured table).
pub fn e2_measured() -> (f64, FactorTable) {
    let asic = run_scenario(&DesignScenario::typical_asic(), |lib| {
        generators::alu(lib, 16)
    })
    .expect("asic scenario");
    let custom =
        run_scenario(&DesignScenario::custom(), |lib| generators::alu(lib, 16)).expect("custom");
    let gap = custom.shipped / asic.shipped;

    let mut measured = FactorTable::new();
    // Pipelining: measured on the multiplier netlist (5 stages).
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mult = generators::array_multiplier(&lib, 8).expect("mult8");
    let clock = ClockSpec::unconstrained();
    let flat = analyze(&mult, &lib, &clock, None).min_period;
    let piped = pipeline_netlist(&mult, &lib, 5).expect("pipe");
    let fast = analyze(&piped.netlist, &lib, &clock, None).min_period;
    measured.set(GapFactor::Microarchitecture, flat / fast);
    // Floorplanning.
    let alu = generators::alu(&lib, 32).expect("alu32");
    measured.set(
        GapFactor::Floorplanning,
        FloorplanStudy::run(&alu, &lib, 4, 42).speedup().max(1.0),
    );
    // Sizing.
    let sized = tilos_size(&mult, &lib, &TilosOptions::default());
    measured.set(GapFactor::CircuitSizing, sized.speedup().max(1.0));
    // Dynamic logic.
    let custom_lib = LibrarySpec::custom().build(&Technology::cmos025_custom());
    measured.set(GapFactor::DynamicLogic, domino_speed_ratio(&custom_lib));
    // Process variation & access.
    measured.set(
        GapFactor::ProcessVariation,
        VariationStudy::run(0xDAC2000).custom_access_over_asic,
    );
    (gap, measured)
}

/// E3: FO4-per-cycle rows for the published chips.
pub fn e3_fo4_rows() -> Vec<(String, f64, Option<f64>)> {
    chips::all_profiles()
        .into_iter()
        .map(|c| {
            (
                c.name.clone(),
                c.fo4_per_cycle().count(),
                c.quoted_fo4_per_cycle,
            )
        })
        .collect()
}

/// E4: closed-form pipeline speedups (Xtensa, PowerPC) and the measured
/// 5-stage multiplier speedup.
pub fn e4_pipeline() -> (f64, f64, f64) {
    let xtensa = PipelineModel::from_overhead_fraction(Fo4::new(154.0), 5, 0.30);
    let ppc = PipelineModel::from_overhead_fraction(Fo4::new(41.6), 4, 0.20);
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mult = generators::array_multiplier(&lib, 8).expect("mult8");
    let clock = ClockSpec::unconstrained();
    let flat = analyze(&mult, &lib, &clock, None).min_period;
    let piped = pipeline_netlist(&mult, &lib, 5).expect("pipe");
    let fast = analyze(&piped.netlist, &lib, &clock, None).min_period;
    (
        xtensa.speedup_vs_unpipelined(),
        ppc.speedup_vs_unpipelined(),
        flat / fast,
    )
}

/// E5: clock-skew numbers, now derived from the H-tree model rather than
/// assumed. Returns (speed gain from custom-quality skew, ASIC tree skew
/// fraction at 200 MHz, custom tree skew in ps on an Alpha-class die).
pub fn e5_skew() -> (f64, f64, f64) {
    use asicgap::tech::Um;
    use asicgap::wire::{ClockTree, CtsQuality};
    let asic_tech = Technology::cmos025_asic();
    let custom_tech = Technology::cmos025_custom();
    let asic_tree = ClockTree::build(&asic_tech, Um::from_mm(10.0), CtsQuality::asic());
    let custom_tree = ClockTree::build(&custom_tech, Um::from_mm(15.0), CtsQuality::custom());
    let asic_fraction = asic_tree.skew_fraction(Mhz::new(200.0).period());
    let gain = (1.0 / (1.0 - 0.10)) / (1.0 / (1.0 - 0.05));
    let _ = ClockSpec::custom(Mhz::new(600.0));
    (gain, asic_fraction, custom_tree.skew.value())
}

/// E6: the floorplanning study on a 32-bit ALU.
pub fn e6_floorplan() -> FloorplanStudy {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let alu = generators::alu(&lib, 32).expect("alu32");
    FloorplanStudy::run(&alu, &lib, 4, 42)
}

/// E7: (tilos speedup, rich snap penalty, two-drive snap penalty).
pub fn e7_sizing() -> (f64, f64, f64) {
    let tech = Technology::cmos025_asic();
    let rich = LibrarySpec::rich().build(&tech);
    let two = LibrarySpec::two_drive().build(&tech);
    let mult = generators::array_multiplier(&rich, 8).expect("mult8");
    let sized = tilos_size(&mult, &rich, &TilosOptions::default());
    let snap_rich = snap_to_library(&mult, &rich, &sized.sizes);
    let mult2 = generators::array_multiplier(&two, 8).expect("mult8 two");
    let sized2 = tilos_size(&mult2, &two, &TilosOptions::default());
    let snap_two = snap_to_library(&mult2, &two, &sized2.sizes);
    (sized.speedup(), snap_rich.penalty(), snap_two.penalty())
}

/// E8: domino/static speed ratios — (cell-level, mapped-netlist-level).
/// The netlist-level figure comes from the dual-rail domino mapping flow
/// (the §7.2 synthesis that never shipped commercially).
pub fn e8_domino() -> (f64, f64) {
    use asicgap::synth::{map_aig, map_dual_rail_domino, netlist_to_aig, MapOptions};
    let custom = LibrarySpec::custom().build(&Technology::cmos025_custom());
    let cell_ratio = domino_speed_ratio(&custom);

    let golden = generators::ripple_carry_adder(&custom, 8).expect("rca8");
    let (aig, _) = netlist_to_aig(&golden, &custom);
    let statik = map_aig(&aig, &custom, &MapOptions::default()).expect("static map");
    let domino = map_dual_rail_domino(&aig, &custom, "rca8_domino").expect("domino map");
    let clock = ClockSpec::unconstrained();
    let t_static = analyze(&statik, &custom, &clock, None).min_period;
    let t_domino = analyze(&domino, &custom, &clock, None).min_period;
    (cell_ratio, t_static / t_domino)
}

/// E9: the §8 variation study.
pub fn e9_variation() -> VariationStudy {
    VariationStudy::run(0xDAC2000)
}

/// E4 ablation: latch time borrowing on a real (integer-granularity,
/// hence imbalanced) pipelined adder. Returns (ff cycle ps, borrowed
/// cycle ps, speedup).
pub fn e4_borrowing_ablation() -> (f64, f64, f64) {
    use asicgap::pipeline::borrowing_gain;
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let rca = generators::ripple_carry_adder(&lib, 24).expect("rca24");
    let piped = pipeline_netlist(&rca, &lib, 3).expect("pipelines");
    let r = borrowing_gain(&piped.netlist, &lib);
    (
        r.flip_flop_cycle.value(),
        r.borrowed_cycle.value(),
        r.speedup(),
    )
}

/// E9 ablation: what different quoting policies promise from the same
/// silicon. Returns (guaranteed yield, quoted relative speed) rows.
pub fn e9_binning_sweep() -> Vec<(f64, f64)> {
    use asicgap::process::{BinningPolicy, ChipPopulation, VariationComponents};
    let pop = ChipPopulation::sample(&VariationComponents::new_process(), 30_000, 0xB1);
    [0.999, 0.99, 0.95, 0.80, 0.50, 0.10, 0.02]
        .into_iter()
        .map(|y| {
            let policy = BinningPolicy {
                guaranteed_yield: y,
                guard_band: 1.02,
            };
            (y, policy.quote(&pop))
        })
        .collect()
}

/// Extension: §8.3 technology migration (0.25 µm ASIC → 0.18 µm copper),
/// "ASIC designs are typically easy to migrate between technology
/// generations, as they are retargetable to different processes".
/// Migration is literal: collapse the mapped design to its AIG, re-map
/// it against the new process's library, re-run drive selection — the
/// push-button flow a 2000-era ASIC team ran. Returns (migration
/// speedup, raw process FO4 ratio).
pub fn ext_migration() -> (f64, f64) {
    let tech025 = Technology::cmos025_asic();
    let tech018 = Technology::cmos018_copper();
    let lib025 = LibrarySpec::rich().build(&tech025);
    let lib018 = LibrarySpec::rich().build(&tech018);
    let design = generators::alu(&lib025, 16).expect("alu16");
    let migrated = SynthFlow::default()
        .remap_from(&design, &lib025, &lib018)
        .expect("migration succeeds");
    let clock = ClockSpec::unconstrained();
    let source_period = analyze(&design, &lib025, &clock, None).min_period;
    let target_period = analyze(&migrated, &lib018, &clock, None).min_period;
    (
        source_period / target_period,
        tech018.generation_speedup(&tech025),
    )
}

/// E11: the 32-scenario factor grid — every subset of the five §3
/// upgrades run end-to-end on one workload, concurrently on the
/// workspace pool.
#[derive(Debug, Clone, PartialEq)]
pub struct GridStudy {
    /// One outcome per [`DesignScenario::factor_grid`] scenario, in grid
    /// (bitmask) order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Marginal contribution of each §3 factor, grid-measured: the
    /// geometric mean, over all 16 scenario pairs differing only in that
    /// factor, of the shipped-frequency ratio. The paper's table is the
    /// *maximum* of each factor; this is its average effect in context
    /// (§9: "when such elements are integrated into an entire path …
    /// their individual significance is naturally reduced").
    pub marginal: [f64; 5],
    /// Shipped-frequency ratio of grid corner 31 (full custom) over
    /// corner 0 (careless ASIC).
    pub corner_gap: f64,
}

/// Runs E11 on a 16-bit ALU. Deterministic at any `ASICGAP_THREADS`.
pub fn e11_factor_grid() -> GridStudy {
    let grid = DesignScenario::factor_grid();
    let outcomes = run_scenarios(&grid, |lib| generators::alu(lib, 16)).expect("grid runs");
    let mut marginal = [0.0f64; 5];
    for (bit, m) in marginal.iter_mut().enumerate() {
        let mask = 1usize << bit;
        let mut log_sum = 0.0;
        let mut pairs = 0usize;
        for base in 0..outcomes.len() {
            if base & mask == 0 {
                log_sum += (outcomes[base | mask].shipped / outcomes[base].shipped).ln();
                pairs += 1;
            }
        }
        *m = (log_sum / pairs as f64).exp();
    }
    let corner_gap = outcomes[31].shipped / outcomes[0].shipped;
    GridStudy {
        outcomes,
        marginal,
        corner_gap,
    }
}

/// E12: one row per formally verified transform — the benchmark netlist,
/// the verdict, and how hard the checker had to work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRow {
    /// What was checked, e.g. `remap cla8` or `pipeline rca8 x4`.
    pub name: String,
    /// `true` when the transform was proven function-preserving (always,
    /// for the shipped transforms — a `false` here is a tool bug).
    pub equivalent: bool,
    /// Checker effort counters for the proof.
    pub effort: EquivEffort,
}

/// E12: equivalence checking across the transform boundaries — every
/// synthesis remap (map + buffer + drive stages, efforts merged),
/// pipelining runs, and dead-logic sweeps, each on a benchmark netlist.
/// Deterministic: the SAT solver has no randomness, so the effort
/// counters are part of the golden contract.
pub fn e12_verification() -> Vec<VerifyRow> {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let flow = SynthFlow::default().with_verify(VerifyLevel::Full);
    let mut rows = Vec::new();

    let benches: Vec<(&str, Netlist)> = vec![
        (
            "rca8",
            generators::ripple_carry_adder(&lib, 8).expect("rca8"),
        ),
        (
            "cla8",
            generators::carry_lookahead_adder(&lib, 8).expect("cla8"),
        ),
        ("ks8", generators::kogge_stone_adder(&lib, 8).expect("ks8")),
        (
            "csel8",
            generators::carry_select_adder(&lib, 8, 2).expect("csel8"),
        ),
        ("alu8", generators::alu(&lib, 8).expect("alu8")),
        ("mux_tree8", generators::mux_tree(&lib, 8).expect("mux8")),
        (
            "barrel8",
            generators::barrel_shifter(&lib, 8).expect("barrel8"),
        ),
        (
            "crc16",
            generators::crc_checker(&lib, 16, 0x07, 8).expect("crc16"),
        ),
        (
            "parity9",
            generators::parity_tree(&lib, 9).expect("parity9"),
        ),
        ("counter6", generators::counter(&lib, 6).expect("counter6")),
    ];
    for (name, n) in &benches {
        let (_, proofs) = flow.remap_verified(n, &lib, &lib).expect("remap verifies");
        let mut effort = EquivEffort::default();
        for p in &proofs {
            effort.merge(&p.effort);
        }
        rows.push(VerifyRow {
            name: format!("remap {name}"),
            equivalent: true,
            effort,
        });
    }

    for (name, flat, stages) in [
        (
            "rca8",
            generators::ripple_carry_adder(&lib, 8).expect("rca8"),
            4usize,
        ),
        (
            "mult6",
            generators::array_multiplier(&lib, 6).expect("mult6"),
            3,
        ),
    ] {
        let piped = pipeline_netlist(&flat, &lib, stages).expect("pipelines");
        let report = verify_pipeline(&flat, &piped.netlist, &lib).expect("verifies");
        rows.push(VerifyRow {
            name: format!("pipeline {name} x{stages}"),
            equivalent: report.is_equivalent(),
            effort: report.effort,
        });
    }

    // A netlist with genuinely dead logic: datapath8 plus a three-gate
    // cone driving nothing (the kind of residue rewiring passes leave).
    let datapath_dead = {
        use asicgap::cells::CellFunction;
        let mut n = generators::datapath(&lib, 8).expect("dp8");
        let and2 = lib.smallest(CellFunction::And(2)).expect("and2");
        let or2 = lib.smallest(CellFunction::Or(2)).expect("or2");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let a = n.inputs()[0].1;
        let b = n.inputs()[1].1;
        let d1 = n.add_net("dead1");
        n.add_instance("dead_g1", &lib, and2, &[a, b], d1)
            .expect("dead and");
        let d2 = n.add_net("dead2");
        n.add_instance("dead_g2", &lib, or2, &[d1, a], d2)
            .expect("dead or");
        let d3 = n.add_net("dead3");
        n.add_instance("dead_g3", &lib, inv, &[d2], d3)
            .expect("dead inv");
        n
    };
    for (name, n) in [
        ("datapath8+dead", datapath_dead),
        ("alu8", generators::alu(&lib, 8).expect("alu8")),
    ] {
        let (_, stats, report) = checked_sweep(&n, &lib).expect("sweeps");
        rows.push(VerifyRow {
            name: format!("sweep {name} (-{} cells)", stats.removed),
            equivalent: report.is_equivalent(),
            effort: report.effort,
        });
    }
    rows
}

/// One scenario of E13: the same grid point priced by HPWL and by the
/// global router.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedRow {
    /// Scenario name (grid-point tags).
    pub scenario: String,
    /// Minimum period under the HPWL wire model.
    pub hpwl_period: Ps,
    /// Minimum period under routed parasitics.
    pub routed_period: Ps,
    /// `(routed − hpwl) / hpwl`, percent — what the HPWL estimate hid.
    pub delta_pct: f64,
    /// Total routed wirelength over total HPWL (≥ 1 by construction).
    pub wire_ratio: f64,
    /// Residual track overflow after negotiation (0 = converged).
    pub overflow: u64,
    /// Negotiation rounds the router ran.
    pub iterations: usize,
}

impl RoutedRow {
    /// The E13 delta cell exactly as `repro` prints it and the golden
    /// test pins it — one definition, so the two cannot drift.
    pub fn delta_cell(&self) -> String {
        format!(
            "{:+.1}% (wire x{:.2}, ovfl {}, {} iter)",
            self.delta_pct, self.wire_ratio, self.overflow, self.iterations
        )
    }
}

/// E13: the routed-wire study — headline rows plus the §5 floorplanning
/// factor recomputed under each wire model.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedStudy {
    /// One row per grid point, in grid (bitmask) order.
    pub rows: Vec<RoutedRow>,
    /// Floorplanning marginal factor measured with HPWL wires.
    pub floorplan_factor_hpwl: f64,
    /// Floorplanning marginal factor measured with routed wires.
    pub floorplan_factor_routed: f64,
}

/// E13: closing the place→route→timing loop. The wire-relevant corner of
/// the factor grid (bits {pipeline, floorplan, sizing} → 8 scenarios)
/// runs end-to-end twice on a 16-bit ALU — once with HPWL wire
/// estimates, once with `asicgap-route`'s negotiated-congestion global
/// router feeding extracted parasitics — and the §5 floorplanning factor
/// is re-measured from the routed runs. All 16 flows run concurrently on
/// the workspace pool; like E11 the outcome is bitwise deterministic at
/// any `ASICGAP_THREADS`.
pub fn e13_routed_wires() -> RoutedStudy {
    let base: Vec<DesignScenario> = DesignScenario::factor_grid().into_iter().take(8).collect();
    let mut all = base.clone();
    all.extend(
        base.iter()
            .map(|s| s.clone().with_wire_model(WireModel::Routed)),
    );
    let outcomes = run_scenarios(&all, |lib| generators::alu(lib, 16)).expect("routed grid runs");
    let (hpwl, routed) = outcomes.split_at(base.len());

    let rows = (0..base.len())
        .map(|i| {
            let r = routed[i]
                .route
                .as_ref()
                .expect("routed scenarios carry router numbers");
            RoutedRow {
                scenario: base[i].name.clone(),
                hpwl_period: hpwl[i].min_period,
                routed_period: routed[i].min_period,
                delta_pct: (routed[i].min_period / hpwl[i].min_period - 1.0) * 100.0,
                wire_ratio: r.routed_um / r.hpwl_um,
                overflow: r.overflow,
                iterations: r.iterations,
            }
        })
        .collect();

    // The §5 marginal, E11-style: geometric mean of the shipped-frequency
    // ratio over the pairs differing only in the floorplan bit (bit 1).
    let floorplan_factor = |outs: &[ScenarioOutcome]| {
        let mask = 2usize;
        let mut log_sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..outs.len() {
            if i & mask == 0 {
                log_sum += (outs[i | mask].shipped / outs[i].shipped).ln();
                pairs += 1;
            }
        }
        (log_sum / pairs as f64).exp()
    };

    RoutedStudy {
        rows,
        floorplan_factor_hpwl: floorplan_factor(hpwl),
        floorplan_factor_routed: floorplan_factor(routed),
    }
}

/// One generator row of E14: the canonical depth-recovery pipeline
/// ([`asicgap::synth::PassPipeline::depth_recovery`]) run with every
/// pass boundary proven at [`VerifyLevel::Full`].
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteRow {
    /// Generator name.
    pub name: String,
    /// Logic depth entering the pipeline.
    pub depth_before: usize,
    /// Logic depth leaving the pipeline.
    pub depth_after: usize,
    /// Cell area entering, µm².
    pub area_before: f64,
    /// Cell area leaving, µm².
    pub area_after: f64,
    /// Accepted substitutions, summed over the passes.
    pub substitutions: usize,
    /// Pass boundaries discharged through the miter (must equal the
    /// pass count: no rewrite lands unproven).
    pub proofs: usize,
}

impl RewriteRow {
    /// Depth reduction, percent (positive = shallower).
    pub fn depth_cut_pct(&self) -> f64 {
        (1.0 - self.depth_after as f64 / self.depth_before as f64) * 100.0
    }

    /// The E14 depth cell exactly as `repro` prints it and the golden
    /// test pins it.
    pub fn depth_cell(&self) -> String {
        format!(
            "{} -> {} (-{:.1}%)",
            self.depth_before,
            self.depth_after,
            self.depth_cut_pct()
        )
    }

    /// The E14 area cell (depth recovery buys speed with area — the §9
    /// caveat applies to logic restructuring too).
    pub fn area_cell(&self) -> String {
        format!("{:.0} -> {:.0} um^2", self.area_before, self.area_after)
    }
}

/// E14: the rewrite & rebalance study.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteStudy {
    /// One row per benchmark generator.
    pub rows: Vec<RewriteRow>,
    /// The pass-ordering sweep: (pipeline key, shipped MHz) for each
    /// [`DesignScenario::pass_order_grid`] point on the small xlarge
    /// block, run concurrently on the workspace pool.
    pub orderings: Vec<(String, f64)>,
    /// §4 microarchitecture factor (5-stage pipelining speedup on the
    /// 8×8 multiplier), measured as E2 does.
    pub microarch_plain: f64,
    /// The same factor with the depth-recovery passes run first: the
    /// paper's "poor microarchitecture" deficit shrinks when synthesis
    /// itself recovers logic depth, so the *remaining* custom advantage
    /// is smaller.
    pub microarch_rewritten: f64,
}

/// E14: cut-based rewriting and chain rebalancing across the benchmark
/// generators, every pass proven function-preserving. The rich-mapped
/// ALU row is deliberate: well-mapped arithmetic is already 4-cut
/// optimal (a cut cannot span two full-adder stages), so the pipeline
/// must be a near-no-op there — headroom lives in comparator trees,
/// random control logic, and naively mapped netlists.
pub fn e14_rewrite() -> RewriteStudy {
    use asicgap::netlist::generators::{RandomLogicSpec, XlargeSpec};
    use asicgap::synth::PassPipeline;
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);

    let alu8 = generators::alu(&lib, 8).expect("alu8");
    let benches: Vec<(&str, Netlist)> = vec![
        (
            "eqcmp32",
            generators::equality_comparator(&lib, 32).expect("eq32"),
        ),
        (
            "random control block",
            generators::random_logic(&lib, &RandomLogicSpec::control_block(7)).expect("random"),
        ),
        ("alu8 (rich map)", alu8.clone()),
        (
            "alu8 (naive map)",
            SynthFlow::naive()
                .remap_from(&alu8, &lib, &lib)
                .expect("naive remap"),
        ),
        (
            "xlarge small",
            generators::xlarge(&lib, &XlargeSpec::small(7)).expect("xl small"),
        ),
    ];
    let pipeline = PassPipeline::depth_recovery().with_verify(VerifyLevel::Full);
    let rows = benches
        .into_iter()
        .map(|(name, mut n)| {
            let deltas = pipeline.run(&mut n, &lib).expect("pipeline proves");
            let first = deltas.first().expect("pipeline is nonempty");
            let last = deltas.last().expect("pipeline is nonempty");
            RewriteRow {
                name: name.to_string(),
                depth_before: first.depth_before,
                depth_after: last.depth_after,
                area_before: first.area_before,
                area_after: last.area_after,
                substitutions: deltas.iter().map(|d| d.substitutions).sum(),
                proofs: deltas.iter().filter(|d| d.proof.is_some()).count(),
            }
        })
        .collect();

    // Pass ordering as a grid dimension: the same workload under every
    // interesting ordering, concurrently on the exec pool.
    let grid = DesignScenario::pass_order_grid();
    let outs = run_scenarios(&grid, |lib| generators::xlarge(lib, &XlargeSpec::small(7)))
        .expect("pass-order grid runs");
    let orderings = grid
        .iter()
        .zip(&outs)
        .map(|(s, o)| {
            let key = PassPipeline::new(s.rewrite.clone()).key();
            (key, o.shipped.value())
        })
        .collect();

    // §4 factor, E2-style, with and without depth recovery first.
    let clock = ClockSpec::unconstrained();
    let microarch = |netlist: &Netlist| {
        let flat = analyze(netlist, &lib, &clock, None).min_period;
        let piped = pipeline_netlist(netlist, &lib, 5).expect("pipe");
        let fast = analyze(&piped.netlist, &lib, &clock, None).min_period;
        flat / fast
    };
    let mult = generators::array_multiplier(&lib, 8).expect("mult8");
    let mut mult_rw = mult.clone();
    pipeline
        .run(&mut mult_rw, &lib)
        .expect("mult8 pipeline proves");
    RewriteStudy {
        rows,
        orderings,
        microarch_plain: microarch(&mult),
        microarch_rewritten: microarch(&mult_rw),
    }
}

/// One E15 row: a scenario preset asked to close a target its open-loop
/// flow misses.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureRow {
    /// Scenario preset name.
    pub scenario: String,
    /// Workload spelling.
    pub workload: String,
    /// Open-loop nominal frequency, MHz.
    pub open_mhz: f64,
    /// The target the fix loop was asked to reach, MHz.
    pub target_mhz: f64,
    /// Closed-loop nominal frequency, MHz.
    pub closed_mhz: f64,
    /// Closure verdict, canonical spelling.
    pub verdict: String,
    /// Committed ECO moves.
    pub moves: usize,
    /// Committed moves carrying an equivalence proof.
    pub proofs: usize,
}

impl ClosureRow {
    /// Did the loop make the target?
    pub fn closed(&self) -> bool {
        self.verdict == "closed"
    }

    /// Speedup the loop bought over the open-loop flow.
    pub fn factor_delta(&self) -> f64 {
        self.closed_mhz / self.open_mhz
    }

    /// The E15 frequency cell exactly as `repro` prints it and the
    /// golden test pins it.
    pub fn freq_cell(&self) -> String {
        format!(
            "{:.0} -> {:.0} MHz @ {:.0} (x{:.3})",
            self.open_mhz,
            self.closed_mhz,
            self.target_mhz,
            self.factor_delta()
        )
    }

    /// The E15 work cell: move count, proof count, verdict.
    pub fn work_cell(&self) -> String {
        format!(
            "{} moves, {} proven, {}",
            self.moves, self.proofs, self.verdict
        )
    }
}

/// E15: the timing-closure autopilot study.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureStudy {
    /// One row per (preset, workload) pair.
    pub rows: Vec<ClosureRow>,
    /// Fraction of rows that closed their stretch target.
    pub closure_rate: f64,
    /// The target-frequency sweep on the typical ASIC + 16-bit ALU:
    /// `(target MHz, closed?, moves)` per point, run concurrently on the
    /// workspace pool via [`close_timing_grid`] — bit-identical at any
    /// `ASICGAP_THREADS`.
    pub sweep: Vec<(f64, bool, usize)>,
}

/// E15: every headline preset (plus an xlarge block) asked to close a
/// target 5% above what its open-loop flow reaches, under
/// [`VerifyLevel::Full`] so each committed move carries an equivalence
/// proof. The open-loop frequency comes from a trivial-target probe of
/// the same prep (1 MHz always closes with zero moves), so the stretch
/// target is measured, not assumed.
pub fn e15_closure() -> ClosureStudy {
    use asicgap::netlist::generators::XlargeSpec;
    type Gen = fn(&asicgap::cells::Library) -> Result<Netlist, asicgap::netlist::NetlistError>;
    let cases: Vec<(DesignScenario, &str, Gen)> = vec![
        (DesignScenario::typical_asic(), "alu/16", |lib| {
            generators::alu(lib, 16)
        }),
        (DesignScenario::best_practice_asic(), "mult/8", |lib| {
            generators::array_multiplier(lib, 8)
        }),
        (DesignScenario::network_asic(), "cla/16", |lib| {
            generators::carry_lookahead_adder(lib, 16)
        }),
        (DesignScenario::custom(), "alu/16", |lib| {
            generators::alu(lib, 16)
        }),
        (DesignScenario::typical_asic(), "xlarge small", |lib| {
            generators::xlarge(lib, &XlargeSpec::small(7))
        }),
    ];
    let rows: Vec<ClosureRow> = cases
        .into_iter()
        .map(|(scenario, workload, gen)| {
            let probe = scenario
                .close_timing(gen, VerifyLevel::Off, &ClosureTarget::at(1.0))
                .expect("probe closes trivially");
            assert_eq!(probe.moves(), 0, "1 MHz must close without work");
            let open_mhz = probe.open_mhz().value();
            let target_mhz = open_mhz * 1.05;
            let out = scenario
                .close_timing(
                    gen,
                    VerifyLevel::Full,
                    &ClosureTarget::at(target_mhz).with_moves(48),
                )
                .expect("closure run completes");
            ClosureRow {
                scenario: scenario.name.clone(),
                workload: workload.to_string(),
                open_mhz,
                target_mhz,
                closed_mhz: out.closed_mhz().value(),
                verdict: out.trace.verdict.canonical(),
                moves: out.moves(),
                proofs: out.proofs(),
            }
        })
        .collect();
    let closure_rate = rows.iter().filter(|r| r.closed()).count() as f64 / rows.len() as f64;

    // The sweep leg: one preset across a ladder of targets, in parallel.
    let base = rows[0].open_mhz;
    let targets: Vec<f64> = [0.90, 1.00, 1.03, 1.05, 1.08]
        .iter()
        .map(|s| base * s)
        .collect();
    let sweep = close_timing_grid(
        &DesignScenario::typical_asic(),
        |lib| generators::alu(lib, 16),
        VerifyLevel::Off,
        &targets,
    )
    .expect("sweep runs")
    .into_iter()
    .map(|o| (o.target.value(), o.closed(), o.moves()))
    .collect();
    ClosureStudy {
        rows,
        closure_rate,
        sweep,
    }
}

/// One E16 row: a real design file ingested by the frontend and pushed
/// through the fully verified flow under two scenarios.
#[derive(Debug, Clone)]
pub struct FrontendRow {
    /// Design file name.
    pub design: String,
    /// Canonical `file/<format>/<hash>` workload key — the design's
    /// content-addressed identity.
    pub spec: String,
    /// Gate count after the ASIC flow.
    pub gates: usize,
    /// Shipped frequency under the typical ASIC scenario, MHz.
    pub asic_mhz: f64,
    /// Shipped frequency under the full-custom scenario, MHz.
    pub custom_mhz: f64,
}

impl FrontendRow {
    /// The measured custom/ASIC gap on this design.
    pub fn gap(&self) -> f64 {
        self.custom_mhz / self.asic_mhz
    }
}

/// The fixture directory, relative to this crate.
pub fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures")
}

/// E16: real circuits through the ingestion frontend — the checked-in
/// Yosys-JSON and EDIF fixtures, each proven through the fully verified
/// flow under the typical-ASIC and custom scenarios, with the gap
/// factor measured on ingested rather than generated netlists.
pub fn e16_frontend() -> Vec<FrontendRow> {
    let dir = fixture_dir();
    [
        "riscv_alu.json",
        "riscv_datapath.edif",
        "alu8_exported.json",
    ]
    .iter()
    .map(|file| {
        let path = dir.join(file);
        let spec = WorkloadSpec::from_file(&path).expect("fixture spec");
        // Ingested designs may already carry registers; the retimer only
        // pipelines combinational workloads, so those run every scenario
        // at their native register structure.
        let probe_lib = LibrarySpec::rich().build(&Technology::cmos025_asic());
        let sequential = spec
            .build(&probe_lib)
            .expect("fixture builds")
            .iter_instances()
            .any(|(_, i)| i.is_sequential());
        let mut custom_scenario = DesignScenario::custom();
        if sequential {
            custom_scenario.pipeline_stages = 1;
        }
        let asic = run_scenario_verified(
            &DesignScenario::typical_asic(),
            |lib| spec.build(lib),
            VerifyLevel::Full,
        )
        .expect("verified ASIC flow on fixture");
        let custom =
            run_scenario_verified(&custom_scenario, |lib| spec.build(lib), VerifyLevel::Full)
                .expect("verified custom flow on fixture");
        assert!(
            asic.verify_effort.is_some() && custom.verify_effort.is_some(),
            "E16 rows must carry stage proofs"
        );
        FrontendRow {
            design: (*file).to_string(),
            spec: spec.canonical(),
            gates: asic.gates,
            asic_mhz: asic.shipped.value(),
            custom_mhz: custom.shipped.value(),
        }
    })
    .collect()
}

/// E10: §9 residuals (two-factor, three-factor) at the 18× idealised gap.
pub fn e10_residuals() -> (f64, f64) {
    let t = FactorTable::paper_maxima();
    (
        t.residual(
            18.0,
            &[GapFactor::Microarchitecture, GapFactor::ProcessVariation],
        ),
        t.residual(
            18.0,
            &[
                GapFactor::Microarchitecture,
                GapFactor::ProcessVariation,
                GapFactor::DynamicLogic,
            ],
        ),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn migration_to_018_captures_the_generation_speedup() {
        // The paper's scaling datum: ~1.5x per generation. Remapping can
        // shift logic structure slightly, so allow a band around the raw
        // process ratio.
        let (speedup, process_speedup) = super::ext_migration();
        assert!(
            (1.2..=1.9).contains(&speedup),
            "migration speedup {speedup:.2} (process ratio {process_speedup:.2})"
        );
        assert!(speedup > 0.75 * process_speedup);
    }
}
