//! `repro`: regenerates every table and figure of the paper and prints
//! paper-vs-measured rows. The output of this binary is the source of
//! EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p asicgap-bench --bin repro`
//!
//! With `--verify`, the end-to-end scenario flows additionally run with
//! [`asicgap::VerifyLevel::Full`]: every pipeline and sizing stage is
//! formally proven function-preserving, and the process exits nonzero if
//! any stage (or any E12 row) is inequivalent.
//!
//! `--threads N` overrides `ASICGAP_THREADS` for this run (results are
//! bitwise identical at any thread count; only wall time changes).
//! `--rewrite` additionally runs the headline scenarios with the
//! canonical depth-recovery pass pipeline armed (E14 measures the
//! passes per generator either way; the flag shows their end-to-end
//! effect). `--stages` appends a per-stage wall-time breakdown, the
//! arena memory accounting with logic-depth histograms, and the
//! canonical outcome text of the headline scenarios — the same
//! serialization the `served` wire protocol ships. All are flag-gated:
//! the default output (`repro_output.txt`) is a committed deterministic
//! artifact and timings are not deterministic.

use std::time::Duration;

use asicgap::netlist::generators;
use asicgap::report::Table;
use asicgap::{
    run_scenario_observed, run_scenarios, run_scenarios_verified, DesignScenario, FlowObserver,
    FlowStage, GapFactor, VerifyLevel, WireModel,
};
use asicgap_bench as exp;
use asicgap_serve::metrics::Metrics;

/// Feeds per-stage wall times into a serve metrics registry, so `repro`
/// prints the same breakdown `served`'s `STATS` verb exposes.
struct StageTally(Metrics);

impl FlowObserver for StageTally {
    fn stage_done(&self, stage: FlowStage, elapsed: Duration) {
        self.0.record_stage(stage, elapsed);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--verify] [--wire-model=routed] [--rewrite] [--stages] [--close] [--design PATH] [--threads N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut verify = false;
    let mut routed_headline = false;
    let mut rewrite_headline = false;
    let mut stages = false;
    let mut close = false;
    let mut design: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--verify" => verify = true,
            "--wire-model=routed" => routed_headline = true,
            "--rewrite" => rewrite_headline = true,
            "--stages" => stages = true,
            "--close" => close = true,
            "--design" => {
                design = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                std::env::set_var("ASICGAP_THREADS", n.to_string());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("repro: unknown flag {other:?}");
                usage();
            }
        }
    }
    println!("== asicgap repro: Chinnery & Keutzer, DAC 2000 ==\n");

    // E1 -------------------------------------------------------------
    let gap = exp::e1_chip_gap();
    let mut t = Table::new(&["E1 (sec. 2)", "paper", "measured"]);
    t.row_owned(vec![
        "custom/ASIC frequency gap".into(),
        "6x - 8x".into(),
        format!("{:.1}x - {:.1}x", gap.min_ratio, gap.max_ratio),
    ]);
    t.row_owned(vec![
        "equivalent process generations".into(),
        "~5".into(),
        format!("{:.1}", gap.process_generations),
    ]);
    println!("{t}");

    // E2 -------------------------------------------------------------
    let (measured_gap, measured) = exp::e2_measured();
    let mut t = Table::new(&["E2 factor (sec. 3)", "paper max", "measured"]);
    for f in GapFactor::ALL {
        t.row_owned(vec![
            f.label().into(),
            format!("x{:.2}", f.paper_maximum()),
            measured.get(f).map_or("-".into(), |v| format!("x{v:.2}")),
        ]);
    }
    t.row_owned(vec![
        "combined (ideal)".into(),
        "x17.8".into(),
        format!("x{:.1}", measured.combined()),
    ]);
    t.row_owned(vec![
        "end-to-end scenario gap (16b ALU)".into(),
        "6x - 8x observed".into(),
        format!("x{measured_gap:.1}"),
    ]);
    println!("{t}");

    // E3 -------------------------------------------------------------
    let mut t = Table::new(&["E3 chip (sec. 2/4)", "paper FO4/cycle", "rule-of-thumb FO4"]);
    for (name, rule, quoted) in exp::e3_fo4_rows() {
        t.row_owned(vec![
            name,
            quoted.map_or("-".into(), |q| format!("{q:.0}")),
            format!("{rule:.1}"),
        ]);
    }
    println!("{t}");

    // E4 -------------------------------------------------------------
    let (xtensa, ppc, netlist) = exp::e4_pipeline();
    let mut t = Table::new(&["E4 pipelining (sec. 4)", "paper", "measured"]);
    t.row_owned(vec![
        "Xtensa 5 stages @30% overhead".into(),
        "~3.8x".into(),
        format!("{xtensa:.2}x"),
    ]);
    t.row_owned(vec![
        "PowerPC 4 stages @20% overhead".into(),
        "~3.4x".into(),
        format!("{ppc:.2}x"),
    ]);
    t.row_owned(vec![
        "8x8 multiplier netlist, 5 stages (STA)".into(),
        "same class".into(),
        format!("{netlist:.2}x"),
    ]);
    println!("{t}");

    // E5 -------------------------------------------------------------
    let (gain, asic_frac, custom_skew_ps) = exp::e5_skew();
    let mut t = Table::new(&["E5 clock skew (sec. 4.1)", "paper", "measured"]);
    t.row_owned(vec![
        "ASIC H-tree skew fraction (10 mm die, 200 MHz)".into(),
        "typically 10% or more".into(),
        format!("{:.1}%", asic_frac * 100.0),
    ]);
    t.row_owned(vec![
        "custom H-tree skew (15 mm Alpha-class die)".into(),
        "75 ps".into(),
        format!("{custom_skew_ps:.0} ps"),
    ]);
    t.row_owned(vec![
        "custom (5%) over ASIC (10%) skew".into(),
        "~10% (absolute-skew view)".into(),
        format!("{:.1}% (fractional view)", (gain - 1.0) * 100.0),
    ]);
    println!("{t}");

    // E6 -------------------------------------------------------------
    let study = exp::e6_floorplan();
    let mut t = Table::new(&["E6 floorplanning (sec. 5)", "paper", "measured"]);
    t.row_owned(vec![
        "localized vs spread-over-100mm^2 speedup".into(),
        "up to 25%".into(),
        format!("{:.0}%", (study.speedup() - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "repeater insertion gain on spread design".into(),
        "(part of 'proper driving')".into(),
        format!("{:.1}x", study.repeater_gain()),
    ]);
    println!("{t}");

    // E7 -------------------------------------------------------------
    let (tilos, snap_rich, snap_two) = exp::e7_sizing();
    let mut t = Table::new(&["E7 sizing & libraries (sec. 6)", "paper", "measured"]);
    t.row_owned(vec![
        "TILOS-style sizing speedup".into(),
        "20%+".into(),
        format!("{:.0}%", (tilos - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "discrete-size penalty, rich menu".into(),
        "2-7%".into(),
        format!("{:.1}%", snap_rich * 100.0),
    ]);
    t.row_owned(vec![
        "discrete-size penalty, two-drive menu".into(),
        "up to ~25% (with polarity/buffers)".into(),
        format!("{:.1}%", snap_two * 100.0),
    ]);
    println!("{t}");

    // E8 -------------------------------------------------------------
    let (cell_ratio, netlist_ratio) = exp::e8_domino();
    let mut t = Table::new(&["E8 dynamic logic (sec. 7)", "paper", "measured"]);
    t.row_owned(vec![
        "domino vs static, cell level".into(),
        "50%-100% faster".into(),
        format!("{:.0}% faster", (cell_ratio - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "dual-rail-domino vs static, mapped 8b adder".into(),
        "~50% sequential speedup implied".into(),
        format!("{:.0}% faster", (netlist_ratio - 1.0) * 100.0),
    ]);
    println!("{t}");

    // E9 -------------------------------------------------------------
    let s = exp::e9_variation();
    let mut t = Table::new(&["E9 process variation (sec. 8)", "paper", "measured"]);
    t.row_owned(vec![
        "typical silicon over worst-case quote".into(),
        "60%-70%".into(),
        format!("{:.0}%", (s.typical_over_worst_case - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "typical over statistical quote (99.5%)".into(),
        "-".into(),
        format!("{:.0}%", (s.typical_over_statistical_quote - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "fastest bins over typical".into(),
        "20%-40%".into(),
        format!(
            "{:.0}% (yield {:.1}%)",
            (s.top_bin_over_typical - 1.0) * 100.0,
            s.top_bin_yield * 100.0
        ),
    ]);
    t.row_owned(vec![
        "foundry-to-foundry spread".into(),
        "20%-25%".into(),
        format!("{:.0}%", (s.foundry_spread - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "speed-grading gain over worst case".into(),
        "30%-40%".into(),
        format!("{:.0}%", (s.grading_gain - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "custom access over ASIC (headline)".into(),
        "~90%".into(),
        format!("{:.0}%", (s.custom_access_over_asic - 1.0) * 100.0),
    ]);
    t.row_owned(vec![
        "speed lost to a stale library".into(),
        "up to 20%".into(),
        format!("{:.0}%", s.stale_library_loss * 100.0),
    ]);
    println!("{t}");

    // E11 ------------------------------------------------------------
    let g = exp::e11_factor_grid();
    let mut t = Table::new(&[
        "E11 factor grid (32 scenarios)",
        "paper max",
        "grid marginal",
    ]);
    for (i, f) in GapFactor::ALL.into_iter().enumerate() {
        t.row_owned(vec![
            f.label().into(),
            format!("x{:.2}", f.paper_maximum()),
            format!("x{:.2}", g.marginal[i]),
        ]);
    }
    t.row_owned(vec![
        "corner gap (full custom / careless ASIC)".into(),
        "6x - 8x observed".into(),
        format!("x{:.1}", g.corner_gap),
    ]);
    t.row_owned(vec![
        "careless ASIC corner".into(),
        "-".into(),
        format!("{:.0} MHz", g.outcomes[0].shipped.value()),
    ]);
    t.row_owned(vec![
        "full custom corner".into(),
        "-".into(),
        format!("{:.0} MHz", g.outcomes[31].shipped.value()),
    ]);
    println!("{t}");

    // E10 ------------------------------------------------------------
    let (two, three) = exp::e10_residuals();
    let mut t = Table::new(&["E10 residuals (sec. 9)", "paper", "measured"]);
    t.row_owned(vec![
        "after pipelining x variation".into(),
        "~2-3x".into(),
        format!("{two:.1}x"),
    ]);
    t.row_owned(vec![
        "after adding dynamic logic".into(),
        "~1.6x".into(),
        format!("{three:.2}x"),
    ]);
    println!("{t}");

    // E12 ------------------------------------------------------------
    let rows = exp::e12_verification();
    let mut all_equivalent = true;
    let mut t = Table::new(&["E12 equivalence checking", "verdict", "checker effort"]);
    for r in &rows {
        all_equivalent &= r.equivalent;
        t.row_owned(vec![
            r.name.clone(),
            if r.equivalent {
                "equivalent".into()
            } else {
                "INEQUIVALENT".into()
            },
            format!("{}", r.effort),
        ]);
    }
    println!("{t}");

    // E13 ------------------------------------------------------------
    let r13 = exp::e13_routed_wires();
    let mut t = Table::new(&["E13 routed wires (16b ALU)", "hpwl", "routed", "delta"]);
    for row in &r13.rows {
        t.row_owned(vec![
            row.scenario.clone(),
            format!("{:.0} ps", row.hpwl_period.value()),
            format!("{:.0} ps", row.routed_period.value()),
            row.delta_cell(),
        ]);
    }
    t.row_owned(vec![
        "floorplanning factor (sec. 5)".into(),
        format!("x{:.2}", r13.floorplan_factor_hpwl),
        format!("x{:.2}", r13.floorplan_factor_routed),
        "paper max x1.25".into(),
    ]);
    println!("{t}");

    // E14 ------------------------------------------------------------
    let r14 = exp::e14_rewrite();
    let mut t = Table::new(&[
        "E14 rewrite & rebalance (proven)",
        "logic depth",
        "area",
        "work",
    ]);
    for row in &r14.rows {
        t.row_owned(vec![
            row.name.clone(),
            row.depth_cell(),
            row.area_cell(),
            format!("{} subs, {}/5 proven", row.substitutions, row.proofs),
        ]);
    }
    t.row_owned(vec![
        "microarch factor, 5-stage mult8 (sec. 4)".into(),
        format!("x{:.2} plain", r14.microarch_plain),
        format!("x{:.2} rewritten", r14.microarch_rewritten),
        "paper max x4.00".into(),
    ]);
    println!("{t}");
    let mut t = Table::new(&["E14 pass ordering (xlarge small)", "shipped"]);
    for (key, mhz) in &r14.orderings {
        t.row_owned(vec![key.clone(), format!("{mhz:.0} MHz")]);
    }
    println!("{t}");

    // E16 ------------------------------------------------------------
    let r16 = exp::e16_frontend();
    let mut t = Table::new(&[
        "E16 ingested designs (proven)",
        "gates",
        "ASIC",
        "custom",
        "gap",
    ]);
    for row in &r16 {
        t.row_owned(vec![
            row.design.clone(),
            format!("{}", row.gates),
            format!("{:.0} MHz", row.asic_mhz),
            format!("{:.0} MHz", row.custom_mhz),
            format!("x{:.1}", row.gap()),
        ]);
    }
    println!("{t}");

    // Ablations --------------------------------------------------------
    let (ff, borrowed, gain) = exp::e4_borrowing_ablation();
    let mut t = Table::new(&["ablations", "value"]);
    t.row_owned(vec![
        "E4: 3-stage rca24, flip-flop cycle".into(),
        format!("{ff:.0} ps"),
    ]);
    t.row_owned(vec![
        "E4: same stages, two-phase latch borrowing".into(),
        format!("{borrowed:.0} ps  ({gain:.2}x)"),
    ]);
    for (y, quote) in exp::e9_binning_sweep() {
        t.row_owned(vec![
            format!("E9: quote at {:.1}% guaranteed yield", y * 100.0),
            format!("{quote:.3} of nominal"),
        ]);
    }
    println!("{t}");

    // Extensions ------------------------------------------------------
    let (mig, process) = exp::ext_migration();
    let mut t = Table::new(&["extensions", "paper", "measured"]);
    t.row_owned(vec![
        "sec. 8.3 migration 0.25um -> 0.18um Cu".into(),
        "~1.5x per generation".into(),
        format!("{mig:.2}x (process ratio {process:.2}x)"),
    ]);
    for row in asicgap::wire::wire_scaling_study() {
        t.row_owned(vec![
            format!("sec. 5 trend: 10 mm wire at {}", row.node),
            "wires do not scale".into(),
            format!("{:.1} FO4 ({:.0} ps)", row.wire_10mm_fo4, row.wire_10mm_ps),
        ]);
    }
    println!("{t}");

    // --wire-model=routed: headline scenarios on routed parasitics -----
    if routed_headline {
        let scenarios: Vec<DesignScenario> = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ]
        .into_iter()
        .map(|s| s.with_wire_model(WireModel::Routed))
        .collect();
        let outs = run_scenarios(&scenarios, |lib| generators::alu(lib, 16))
            .expect("routed headline scenarios run");
        let mut t = Table::new(&["routed scenario (16b ALU)", "shipped", "router"]);
        for o in &outs {
            let r = o
                .route
                .as_ref()
                .expect("routed scenarios carry router numbers");
            t.row_owned(vec![
                o.scenario.clone(),
                format!("{:.0} MHz", o.shipped.value()),
                format!("{r}"),
            ]);
        }
        println!("{t}");
    }

    // --design: a user-supplied design file (Yosys JSON or EDIF)
    // ingested by the frontend and run under the headline scenarios,
    // content-addressed like any other workload.
    if let Some(path) = &design {
        let spec = asicgap::WorkloadSpec::from_file(path).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(2);
        });
        let mut scenarios = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ];
        // The retimer only pipelines combinational workloads: designs
        // ingested with registers keep their native structure.
        let probe_lib =
            asicgap::cells::LibrarySpec::rich().build(&asicgap::tech::Technology::cmos025_asic());
        let sequential = spec
            .build(&probe_lib)
            .map(|n| n.iter_instances().any(|(_, i)| i.is_sequential()))
            .unwrap_or(false);
        if sequential {
            for s in &mut scenarios {
                s.pipeline_stages = 1;
            }
        }
        let outs = run_scenarios(&scenarios, |lib| spec.build(lib)).unwrap_or_else(|e| {
            eprintln!("repro: design flow failed: {e}");
            std::process::exit(1);
        });
        let header = format!("design {}", spec.canonical());
        let mut t = Table::new(&[header.as_str(), "shipped", "gates", "min period"]);
        for o in &outs {
            t.row_owned(vec![
                o.scenario.clone(),
                format!("{:.0} MHz", o.shipped.value()),
                format!("{}", o.gates),
                format!("{:.0} ps", o.min_period.value()),
            ]);
        }
        println!("{t}");
    }

    // --close: E15, the timing-closure autopilot. Flag-gated because
    // each row runs its prep flow twice (open-loop probe + closed loop)
    // with every committed move formally proven.
    if close {
        let r15 = exp::e15_closure();
        let mut t = Table::new(&[
            "E15 closure autopilot (proven)",
            "workload",
            "frequency",
            "work",
        ]);
        for row in &r15.rows {
            t.row_owned(vec![
                row.scenario.clone(),
                row.workload.clone(),
                row.freq_cell(),
                row.work_cell(),
            ]);
        }
        t.row_owned(vec![
            "closure rate at +5% stretch".into(),
            String::new(),
            format!("{:.0}%", r15.closure_rate * 100.0),
            String::new(),
        ]);
        println!("{t}");
        let mut t = Table::new(&[
            "E15 target sweep (typical ASIC, 16b ALU)",
            "closed",
            "moves",
        ]);
        for (mhz, closed, moves) in &r15.sweep {
            t.row_owned(vec![
                format!("{mhz:.0} MHz"),
                if *closed { "yes".into() } else { "no".into() },
                format!("{moves}"),
            ]);
        }
        println!("{t}");
    }

    // --rewrite: headline scenarios with the depth-recovery pipeline
    // armed. Flag-gated so the committed default output keeps the
    // workloads exactly as generated (E14 above measures the passes on
    // their own terms either way).
    if rewrite_headline {
        use asicgap::synth::PassPipeline;
        let passes = PassPipeline::depth_recovery().passes;
        let scenarios: Vec<DesignScenario> = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ]
        .into_iter()
        .map(|s| s.with_rewrite(passes.clone()))
        .collect();
        let outs = run_scenarios(&scenarios, |lib| generators::alu(lib, 16))
            .expect("rewritten headline scenarios run");
        let mut t = Table::new(&["rewritten scenario (16b ALU)", "shipped", "gates"]);
        for o in &outs {
            t.row_owned(vec![
                o.scenario.clone(),
                format!("{:.0} MHz", o.shipped.value()),
                format!("{}", o.gates),
            ]);
        }
        println!("{t}");
    }

    // --verify: the fully checked end-to-end flows ---------------------
    if verify {
        let scenarios = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ];
        let mut t = Table::new(&["verified scenario (16b ALU)", "verdict", "checker effort"]);
        match run_scenarios_verified(
            &scenarios,
            |lib| generators::alu(lib, 16),
            VerifyLevel::Full,
        ) {
            Ok(outs) => {
                for out in &outs {
                    let effort = out.verify_effort.expect("full verify records effort");
                    t.row_owned(vec![
                        out.scenario.clone(),
                        "equivalent".into(),
                        format!("{effort}"),
                    ]);
                }
                println!("{t}");
            }
            Err(e) => {
                eprintln!("verified scenario flow FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    // --stages: per-stage wall-time breakdown + canonical outcome text.
    // Timings are nondeterministic, so this never lands in the committed
    // repro_output.txt.
    if stages {
        let tally = StageTally(Metrics::default());
        let scenarios = [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
            DesignScenario::custom(),
        ];
        let mut canonical = String::new();
        for s in &scenarios {
            let out =
                run_scenario_observed(s, |lib| generators::alu(lib, 16), VerifyLevel::Off, &tally)
                    .expect("headline scenario runs");
            canonical.push_str(&out.to_string());
        }
        let snap = tally.0.snapshot(0, 0);
        let mut t = Table::new(&["flow stage", "runs", "total ms", "p50 us", "p99 us"]);
        for (stage, h) in FlowStage::ALL.iter().zip(&snap.stage_us) {
            t.row_owned(vec![
                stage.label().into(),
                format!("{}", h.count),
                format!("{:.2}", h.sum as f64 / 1e3),
                format!("{}", h.p50()),
                format!("{}", h.p99()),
            ]);
        }
        println!("{t}");

        // Arena memory accounting for a small and an xlarge workload:
        // the per-component bytes the compact IR holds, plus the peak
        // sink-pool high-water mark (see DESIGN.md on the arena layout).
        let lib =
            asicgap::cells::LibrarySpec::rich().build(&asicgap::tech::Technology::cmos025_asic());
        let mut t = Table::new(&[
            "netlist arena",
            "gates",
            "B/gate",
            "insts B",
            "nets B",
            "sinks B",
            "names B",
            "peak sinks",
        ]);
        let workloads: [(&str, asicgap::netlist::Netlist); 2] = [
            ("alu16", generators::alu(&lib, 16).expect("alu16")),
            (
                "xlarge",
                generators::xlarge(&lib, &generators::XlargeSpec::soc(2026)).expect("xlarge"),
            ),
        ];
        for (name, n) in &workloads {
            let fp = asicgap::netlist::MemoryFootprint::of(n);
            t.row_owned(vec![
                (*name).into(),
                format!("{}", fp.instances),
                format!("{:.1}", fp.bytes_per_gate()),
                format!("{}", fp.instance_bytes),
                format!("{}", fp.net_bytes),
                format!("{}", fp.sink_pool_bytes),
                format!("{}", fp.name_table_bytes),
                format!("{}", fp.peak_sink_pool_entries),
            ]);
        }
        println!("{t}");

        // Where the levels live: the netlist-stats depth histogram for
        // the same two workloads (nets per logic level, bucketed).
        for (name, n) in &workloads {
            let hist = asicgap::netlist::depth_histogram(n);
            println!(
                "logic-depth histogram ({name}):\n{}\n",
                asicgap::netlist::format_depth_histogram(&hist, 16)
            );
        }
        println!("canonical outcome text (as served over the wire):\n");
        print!("{canonical}");
    }

    if !all_equivalent {
        eprintln!("E12 found an inequivalent transform");
        std::process::exit(1);
    }
}
