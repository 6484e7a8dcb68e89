//! Property suite for the rewrite & rebalance pass framework
//! (DESIGN.md §10).
//!
//! Three contracts, checked across the benchmark generators:
//!
//! 1. **Function preservation** — every pass, run alone on every
//!    generator, is simulation-equivalent to what it was handed, and
//!    the composed pipeline additionally discharges a full structural
//!    miter proof.
//! 2. **Depth monotonicity** — no pass ever *increases* logic depth
//!    (rewrite and rebalance both accept a substitution only when it
//!    strictly improves the root's level).
//! 3. **Arena safety** — wide cells whose fan-in spills into the
//!    arena's overflow area are cut boundaries: the enumerator never
//!    reads the overflow arena and the rewriter leaves such cells
//!    untouched.
//!
//! Plus the negative control: a deliberately corrupted substitution
//! (the test-only sabotage hook in `RewriteOptions`) must be caught by
//! the miter/CDCL checker with a *confirmed* counterexample — proof
//! that the verification actually bites.

use asicgap::cells::{CellFunction, LibCell, Library, LibraryBuilder, LibrarySpec, LogicFamily};
use asicgap::equiv::{check_equiv, random_sim_equiv, EquivResult, VerifyLevel};
use asicgap::netlist::cuts::enumerate_cuts;
use asicgap::netlist::generators::{self, RandomLogicSpec};
use asicgap::netlist::{Netlist, NetlistStats};
use asicgap::synth::{
    rewrite_pass, PassKind, PassPipeline, ReplacementLibrary, RewriteOptions, SynthError, SynthFlow,
};
use asicgap::tech::Technology;

fn rich() -> (Technology, Library) {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    (tech, lib)
}

/// The benchmark generators the property tests sweep. Mixes rich-mapped
/// arithmetic (little to no rewrite headroom — the passes must prove
/// they are near-no-ops), comparator/control logic (real headroom), and
/// a naively mapped netlist (large headroom).
fn bench_suite(lib: &Library) -> Vec<(&'static str, Netlist)> {
    let alu8 = generators::alu(lib, 8).expect("alu8");
    vec![
        (
            "rca16",
            generators::ripple_carry_adder(lib, 16).expect("rca16"),
        ),
        (
            "cla8",
            generators::carry_lookahead_adder(lib, 8).expect("cla8"),
        ),
        ("ks8", generators::kogge_stone_adder(lib, 8).expect("ks8")),
        (
            "mult6",
            generators::array_multiplier(lib, 6).expect("mult6"),
        ),
        (
            "barrel8",
            generators::barrel_shifter(lib, 8).expect("barrel8"),
        ),
        ("mux_tree16", generators::mux_tree(lib, 16).expect("mux16")),
        (
            "parity16",
            generators::parity_tree(lib, 16).expect("parity16"),
        ),
        (
            "eqcmp32",
            generators::equality_comparator(lib, 32).expect("eq32"),
        ),
        (
            "crc16",
            generators::crc_checker(lib, 16, 0x07, 8).expect("crc16"),
        ),
        (
            "random",
            generators::random_logic(lib, &RandomLogicSpec::control_block(3)).expect("random"),
        ),
        ("alu8", alu8.clone()),
        (
            "alu8_naive",
            SynthFlow::naive()
                .remap_from(&alu8, lib, lib)
                .expect("naive remap"),
        ),
    ]
}

/// Contract 1 + 2, per pass: simulation equivalence after each pass run
/// alone, and logic depth monotonically non-increasing — on every
/// generator in the suite.
#[test]
fn every_pass_preserves_function_and_never_deepens() {
    let (_, lib) = rich();
    let passes = [
        PassKind::Rewrite,
        PassKind::RebalanceAnd,
        PassKind::RebalanceOr,
        PassKind::RebalanceXor,
    ];
    for (name, golden) in bench_suite(&lib) {
        for kind in passes {
            let mut n = golden.clone();
            let deltas = PassPipeline::new(vec![kind])
                .run(&mut n, &lib)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", kind.name()));
            let d = &deltas[0];
            assert!(
                d.depth_after <= d.depth_before,
                "{name}/{}: depth grew {} -> {}",
                kind.name(),
                d.depth_before,
                d.depth_after
            );
            assert!(
                random_sim_equiv(&golden, &lib, &n, &lib, 48, 0x9E14 ^ d.substitutions as u64),
                "{name}/{}: simulation mismatch after {} substitutions",
                kind.name(),
                d.substitutions
            );
        }
    }
}

/// Contract 1, composed: the canonical depth-recovery pipeline under
/// `VerifyLevel::Full` carries a per-pass `StageProof` for every pass,
/// and the end-to-end result additionally discharges one more full
/// structural miter proof against the original netlist.
#[test]
fn composed_pipeline_carries_full_miter_proof() {
    let (_, lib) = rich();
    for (name, golden) in [
        (
            "eqcmp32",
            generators::equality_comparator(&lib, 32).expect("eq32"),
        ),
        ("alu8_naive", {
            let alu8 = generators::alu(&lib, 8).expect("alu8");
            SynthFlow::naive()
                .remap_from(&alu8, &lib, &lib)
                .expect("naive remap")
        }),
    ] {
        let mut n = golden.clone();
        let deltas = PassPipeline::depth_recovery()
            .with_verify(VerifyLevel::Full)
            .run(&mut n, &lib)
            .unwrap_or_else(|e| panic!("{name}: pipeline must prove, got {e}"));
        assert_eq!(deltas.len(), 5, "{name}: five passes, five deltas");
        for d in &deltas {
            let proof = d
                .proof
                .as_ref()
                .unwrap_or_else(|| panic!("{name}/{}: missing StageProof", d.pass));
            assert_eq!(proof.stage, d.pass);
        }
        let report = check_equiv(&golden, &lib, &n, &lib).expect("checker runs");
        assert!(
            matches!(report.result, EquivResult::Equivalent),
            "{name}: composed pipeline must be end-to-end equivalent"
        );
    }
}

/// Contract 2, explicitly for the rebalancers: a long associative chain
/// collapses to logarithmic depth, and a second application is a no-op
/// (the fixed point is stable, depth still non-increasing).
#[test]
fn rebalance_reaches_a_stable_logarithmic_fixed_point() {
    let (_, lib) = rich();
    let and2 = lib.smallest(CellFunction::And(2)).expect("and2");
    let mut n = Netlist::new("chain24");
    let mut acc = n.add_net("i0");
    n.add_input("i0", acc).expect("input");
    for i in 1..24usize {
        let inp = n.add_net(format!("i{i}"));
        n.add_input(format!("i{i}"), inp).expect("input");
        let out = n.add_net(format!("c{i}"));
        n.add_instance(format!("g{i}"), &lib, and2, &[acc, inp], out)
            .expect("and gate");
        acc = out;
    }
    n.add_output("o", acc);

    let run = |n: &mut Netlist| {
        PassPipeline::new(vec![PassKind::RebalanceAnd])
            .run(n, &lib)
            .expect("rebalance runs")[0]
            .clone()
    };
    let golden = n.clone();
    let first = run(&mut n);
    assert_eq!(first.depth_before, 23, "linear chain enters at depth 23");
    // ceil(log2(24)) + 1 slack level: the rebalancer pairs greedily by
    // level rather than building a perfect tree.
    assert!(
        first.depth_after <= 6,
        "24-leaf chain must leave logarithmic ({} levels)",
        first.depth_after
    );
    assert!(random_sim_equiv(&golden, &lib, &n, &lib, 64, 0xC4A1));
    let second = run(&mut n);
    assert_eq!(second.substitutions, 0, "fixed point must be stable");
    assert_eq!(second.depth_after, first.depth_after);
}

/// The negative control, at the integration level: corrupt the *last*
/// rewrite substitution (nothing downstream can rebuild over it) and
/// demand the SAT checker report a counterexample it re-simulated and
/// *confirmed*. Also proves `VerifyLevel::Full` inside the pipeline
/// aborts with the failing stage named.
#[test]
fn corrupted_substitution_is_caught_with_confirmed_counterexample() {
    let (_, lib) = rich();
    let golden = generators::equality_comparator(&lib, 32).expect("eq32");
    let subs = {
        let mut probe = golden.clone();
        PassPipeline::new(vec![PassKind::Rewrite])
            .run(&mut probe, &lib)
            .expect("dry run")[0]
            .substitutions
    };
    assert!(subs > 0, "eq32 must have rewrite headroom");

    // Direct pass + full checker: the counterexample must be concrete
    // and confirmed by re-simulation.
    let mut corrupted = golden.clone();
    let mut replib = ReplacementLibrary::for_library(&lib);
    let opts = RewriteOptions {
        corrupt_substitution: Some(subs - 1),
    };
    let stats =
        rewrite_pass(&mut corrupted, &lib, &mut replib, &opts).expect("sabotaged pass runs");
    assert_eq!(stats.corrupted, 1, "the hook must have fired");
    let report = check_equiv(&golden, &lib, &corrupted, &lib).expect("checker runs");
    match report.result {
        EquivResult::Inequivalent(cex) => {
            assert!(cex.confirmed, "counterexample must re-simulate");
            assert!(!cex.output.is_empty(), "counterexample names the output");
        }
        EquivResult::Equivalent => panic!("corruption went undetected"),
    }

    // Same sabotage through the verified pipeline: it must abort with
    // the rewrite stage named.
    let mut n = golden.clone();
    let mut pipeline = PassPipeline::new(vec![PassKind::Rewrite]).with_verify(VerifyLevel::Full);
    pipeline.options.corrupt_substitution = Some(subs - 1);
    let err = pipeline.run(&mut n, &lib).expect_err("proof must fail");
    assert!(
        matches!(err, SynthError::Inequivalent { ref stage, .. } if stage == "rewrite"),
        "unexpected error: {err:?}"
    );
}

/// Contract 3: a cell whose fan-in spills into the overflow arena is a
/// cut boundary. The enumerator gives its output only the trivial cut,
/// the rewriter leaves the wide instance in place, and the pass is
/// still function-preserving around it.
#[test]
fn wide_cells_are_cut_boundaries_and_survive_rewriting() {
    let tech = Technology::cmos025_asic();
    // A library with a 6-input NAND: wider than INLINE_FANIN (4), so
    // instances of it live in the fan-in overflow arena.
    let mut b = LibraryBuilder::new("wide", &tech);
    for f in [
        CellFunction::Inv,
        CellFunction::Nand(2),
        CellFunction::And(2),
        CellFunction::Or(2),
        CellFunction::Nand(6),
    ] {
        b.add(LibCell::combinational(
            f,
            LogicFamily::StaticCmos,
            1.0,
            &tech,
        ))
        .expect("cell adds");
    }
    let lib = b.build();
    let nand6 = lib.smallest(CellFunction::Nand(6)).expect("nand6");
    let and2 = lib.smallest(CellFunction::And(2)).expect("and2");

    let mut n = Netlist::new("wide");
    let ins: Vec<_> = (0..6)
        .map(|i| {
            let net = n.add_net(format!("i{i}"));
            n.add_input(format!("i{i}"), net).expect("input");
            net
        })
        .collect();
    let wide_out = n.add_net("w");
    n.add_instance("wide0", &lib, nand6, &ins, wide_out)
        .expect("wide instance");
    // A lopsided AND chain above the wide cell, so the rebalancer and
    // rewriter both have work to do around the boundary.
    let mut acc = wide_out;
    for (i, &inp) in ins.iter().enumerate().take(5) {
        let out = n.add_net(format!("c{i}"));
        n.add_instance(format!("g{i}"), &lib, and2, &[acc, inp], out)
            .expect("and gate");
        acc = out;
    }
    n.add_output("o", acc);
    assert!(
        n.fanin_overflow_len() > 0,
        "the 6-input cell must spill into the overflow arena"
    );

    // The enumerator must stop at the wide output: trivial cut only.
    let cuts = enumerate_cuts(&n, 6);
    assert_eq!(cuts[wide_out.index()].len(), 1);
    assert!(cuts[wide_out.index()][0].is_trivial());

    let golden = n.clone();
    let before = NetlistStats::of(&n, &lib);
    PassPipeline::depth_recovery()
        .run(&mut n, &lib)
        .expect("pipeline runs over the boundary");
    let after = NetlistStats::of(&n, &lib);
    assert!(after.logic_depth <= before.logic_depth);
    assert!(
        n.fanin_overflow_len() > 0,
        "the wide instance must survive (it feeds the output cone)"
    );
    assert!(
        random_sim_equiv(&golden, &lib, &n, &lib, 64, 0x51DE),
        "function must be preserved around the wide boundary"
    );
}

/// Slow SAT tier (CI runs `--ignored` in the formal-equivalence job):
/// the composed pipeline on an 8×8 array multiplier and a naive-mapped
/// 16-bit ALU, every pass proven through the miter/CDCL checker, plus
/// an end-to-end proof.
///
/// mult8 is the provable frontier for multipliers, not a soft choice:
/// a single 4-cut substitution un-collapses every downstream product
/// cone in the miter, and restructured multiplier cones are the
/// canonical resolution-hard instances for a CDCL solver without
/// arithmetic reasoning (the remap SAT tier in tests/equivalence.rs
/// caps at mult6 for the same reason; mult8 through the pipeline is
/// ~30 s release, mult12 is beyond hours). ALU/comparator cones by
/// contrast prove in milliseconds at any width — the hardness is in
/// the multiplier structure, not the netlist size.
#[test]
#[ignore = "slow SAT tier: full per-pass proofs on mult8 + naive alu16"]
fn composed_pipeline_sat_proof_on_mult8_and_naive_alu16() {
    let (_, lib) = rich();
    let alu16 = generators::alu(&lib, 16).expect("alu16");
    for (name, golden) in [
        (
            "mult8",
            generators::array_multiplier(&lib, 8).expect("mult8"),
        ),
        (
            "alu16_naive",
            SynthFlow::naive()
                .remap_from(&alu16, &lib, &lib)
                .expect("naive remap"),
        ),
    ] {
        let mut n = golden.clone();
        let deltas = PassPipeline::depth_recovery()
            .with_verify(VerifyLevel::Full)
            .run(&mut n, &lib)
            .unwrap_or_else(|e| panic!("{name}: pipeline must prove every pass, got {e}"));
        assert!(
            deltas.iter().all(|d| d.proof.is_some()),
            "{name}: every pass carries a StageProof"
        );
        let report = check_equiv(&golden, &lib, &n, &lib).expect("checker runs");
        assert!(
            matches!(report.result, EquivResult::Equivalent),
            "{name}: end-to-end proof"
        );
    }
}
