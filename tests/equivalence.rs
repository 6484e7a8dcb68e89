//! Cross-crate functional-equivalence checks: every transformation must
//! preserve behaviour, now *proven* by the `asicgap-equiv` checker
//! (miter + structural hashing + CDCL SAT) rather than sampled.
//!
//! Two tiers:
//!
//! - the default tier runs the cheap formal checks (structural-discharge
//!   transforms, small SAT cones) plus the random-simulation smoke path
//!   that survives from the pre-checker era as a fast cross-check;
//! - the `#[ignore]`d SAT tier proves the full generator sweep through
//!   both libraries formally; CI's `verify` job runs it with
//!   `cargo test --release -- --ignored`.

use asicgap::cells::{Library, LibrarySpec};
use asicgap::equiv::{check_equiv, random_sim_equiv, EquivResult};
use asicgap::netlist::{generators, to_bits, Netlist, Simulator};
use asicgap::pipeline::{pipeline_netlist, verify_pipeline};
use asicgap::sizing::{snap_to_library, tilos_size, TilosOptions};
use asicgap::synth::{buffer_high_fanout, select_drives_with, SynthFlow};
use asicgap::tech::Technology;

fn libs() -> (Library, Library) {
    let tech = Technology::cmos025_asic();
    (
        LibrarySpec::rich().build(&tech),
        LibrarySpec::poor().build(&tech),
    )
}

/// Formal proof that `a` and `b` are equivalent; panics with the
/// counterexample on divergence.
fn prove(a: &Netlist, la: &Library, b: &Netlist, lb: &Library) -> asicgap::EquivEffort {
    let report = check_equiv(a, la, b, lb).expect("checker runs");
    match report.result {
        EquivResult::Equivalent => report.effort,
        EquivResult::Inequivalent(cex) => panic!(
            "{} vs {} diverge on output {} under {:?}",
            a.name, b.name, cex.output, cex.inputs
        ),
    }
}

fn generator_sweep(rich: &Library) -> Vec<Netlist> {
    vec![
        generators::ripple_carry_adder(rich, 8).expect("rca"),
        generators::carry_lookahead_adder(rich, 8).expect("cla"),
        generators::carry_select_adder(rich, 8, 3).expect("csel"),
        generators::kogge_stone_adder(rich, 8).expect("ks"),
        generators::barrel_shifter(rich, 8).expect("shift"),
        generators::equality_comparator(rich, 8).expect("eq"),
        generators::alu(rich, 6).expect("alu"),
    ]
}

#[test]
fn remap_preserves_every_generator_smoke() {
    // Fast tier: the random-simulation path, cheap enough to leave in
    // the default run as a cross-check on the formal tier.
    let (rich, poor) = libs();
    let flow = SynthFlow::default();
    for w in &generator_sweep(&rich) {
        let on_rich = flow.remap_from(w, &rich, &rich).expect("rich remap");
        assert!(
            random_sim_equiv(w, &rich, &on_rich, &rich, 100, 0xE9),
            "{} rich remap smoke",
            w.name
        );
        let on_poor = flow.remap_from(w, &rich, &poor).expect("poor remap");
        assert!(
            random_sim_equiv(w, &rich, &on_poor, &poor, 100, 0xE9),
            "{} poor remap smoke",
            w.name
        );
    }
}

#[test]
#[ignore = "slow SAT tier: run with --ignored (CI verify job)"]
fn remap_proofs_every_generator_formally() {
    let (rich, poor) = libs();
    let flow = SynthFlow::default();
    let mut sweep = generator_sweep(&rich);
    sweep.push(generators::array_multiplier(&rich, 6).expect("mult6"));
    sweep.push(generators::crc_checker(&rich, 16, 0x07, 8).expect("crc16"));
    sweep.push(generators::counter(&rich, 8).expect("counter8"));
    for w in &sweep {
        let on_rich = flow.remap_from(w, &rich, &rich).expect("rich remap");
        prove(w, &rich, &on_rich, &rich);
        let on_poor = flow.remap_from(w, &rich, &poor).expect("poor remap");
        prove(w, &rich, &on_poor, &poor);
    }
}

#[test]
fn drive_selection_and_buffering_preserve_function() {
    let (rich, _) = libs();
    let golden = generators::alu(&rich, 8).expect("alu");
    let mut work = golden.clone();
    select_drives_with(&mut work, &rich, None, 3);
    buffer_high_fanout(&mut work, &rich, 6).expect("buffering");
    // Drive swaps and buffer trees import as identities: this is a
    // formal proof and it never touches the SAT solver.
    let effort = prove(&golden, &rich, &work, &rich);
    assert_eq!(effort.sat_cones, 0, "resize/buffer must fold structurally");
}

#[test]
fn pipelined_designs_compute_the_same_values() {
    let (rich, _) = libs();
    let mult = generators::array_multiplier(&rich, 6).expect("mult6");
    let piped = pipeline_netlist(&mult, &rich, 4).expect("pipeline");

    // Formal: registers-transparent miter against the flat original.
    let report = verify_pipeline(&mult, &piped.netlist, &rich).expect("verifies");
    assert!(report.is_equivalent());
    assert_eq!(report.effort.sat_cones, 0);

    // Smoke: a few concrete multiplications through the flushed pipe.
    let mut flat_sim = Simulator::new(&mult, &rich);
    let mut pipe_sim = Simulator::new(&piped.netlist, &rich);
    for (a, b) in [(63u64, 63u64), (17, 42), (0, 55), (32, 2)] {
        let mut inputs = to_bits(a, 6);
        inputs.extend(to_bits(b, 6));
        let want = flat_sim.run_comb(&inputs);
        let got = pipe_sim.run_pipelined(&inputs, piped.stages + 1);
        assert_eq!(got, want, "{a} * {b}");
    }
}

#[test]
fn counter_feedback_survives_remap_and_times_as_reg_to_reg() {
    use asicgap::netlist::{from_bits, Simulator};
    use asicgap::sta::{analyze, ClockSpec, PathGroup};
    let (rich, _) = libs();
    let n = generators::counter(&rich, 16).expect("counter16");

    // Critical path is register-to-register, and grows with width.
    let r = analyze(&n, &rich, &ClockSpec::unconstrained(), None);
    assert!(r.group(PathGroup::RegToReg).is_some());
    let wide = analyze(
        &generators::counter(&rich, 32).expect("counter32"),
        &rich,
        &ClockSpec::unconstrained(),
        None,
    );
    assert!(wide.min_period > r.min_period);

    // The feedback loop survives AIG re-entry and re-mapping: proven
    // formally (register cut points matched by name), then stepped.
    let small = generators::counter(&rich, 4).expect("counter4");
    let remapped = SynthFlow::default()
        .remap_from(&small, &rich, &rich)
        .expect("remap keeps the loop");
    let effort = prove(&small, &rich, &remapped, &rich);
    assert!(effort.cones > small.outputs().len(), "D cones checked too");
    let mut sim = Simulator::new(&remapped, &rich);
    sim.set_inputs(&[true]);
    sim.eval_comb();
    for expect in 1..=9u64 {
        sim.step_clock();
        assert_eq!(from_bits(&sim.output_values()), expect);
    }
}

#[test]
fn sizing_changes_delay_not_function() {
    let (rich, _) = libs();
    let golden = generators::ripple_carry_adder(&rich, 8).expect("rca");
    let sized = tilos_size(&golden, &rich, &TilosOptions::default());
    let snap = snap_to_library(&golden, &rich, &sized.sizes);
    // Apply snapped drives to a copy of the netlist.
    let mut work = golden.clone();
    let ids: Vec<_> = work.iter_instances().map(|(id, _)| id).collect();
    for (id, &s) in ids.iter().zip(&snap.sizes) {
        let cell = rich.closest_drive(work.instance(*id).cell(), s);
        work.set_instance_cell(&rich, *id, cell);
    }
    let effort = prove(&golden, &rich, &work, &rich);
    assert_eq!(
        effort.structural, effort.cones,
        "sizing is function-neutral"
    );
}
