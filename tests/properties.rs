//! Randomized property tests over the core data structures and invariants.
//!
//! These were originally `proptest` properties; to keep the workspace
//! buildable with no registry access they now run on the internal
//! [`Rng64`] stream (same properties, fixed seeds, explicit case counts).
//! Each test draws `CASES` random samples and asserts the invariant on
//! every one; failures print the offending sample.

use asicgap::cells::{CellFunction, LibrarySpec, LogicFamily};
use asicgap::netlist::{from_bits, generators, to_bits, Simulator};
use asicgap::pipeline::{borrowed_cycle, PipelineModel};
use asicgap::process::{ChipPopulation, VariationComponents};
use asicgap::synth::{Aig, AigOps, Lit};
use asicgap::tech::{Ff, Fo4, Mhz, Ps, Rng64, Technology};
use std::sync::OnceLock;

const CASES: usize = 64;

fn adder_fixture() -> &'static (asicgap::cells::Library, asicgap::netlist::Netlist) {
    static FIXTURE: OnceLock<(asicgap::cells::Library, asicgap::netlist::Netlist)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::kogge_stone_adder(&lib, 8).expect("ks8");
        (lib, n)
    })
}

type AdderSet = (asicgap::cells::Library, Vec<asicgap::netlist::Netlist>);

fn all_adders_fixture() -> &'static AdderSet {
    static FIXTURE: OnceLock<AdderSet> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let adders = vec![
            generators::ripple_carry_adder(&lib, 8).expect("rca"),
            generators::carry_lookahead_adder(&lib, 8).expect("cla"),
            generators::carry_select_adder(&lib, 8, 3).expect("csel"),
            generators::carry_skip_adder(&lib, 8, 3).expect("cskip"),
            generators::kogge_stone_adder(&lib, 8).expect("ks"),
        ];
        (lib, adders)
    })
}

#[test]
fn ps_mhz_round_trip() {
    let mut rng = Rng64::new(0x01);
    for _ in 0..CASES {
        let freq = rng.uniform_in(1.0, 10_000.0);
        let f = Mhz::new(freq);
        let back = f.period().frequency();
        assert!(
            (back.value() - freq).abs() / freq < 1e-12,
            "round trip failed at {freq}"
        );
    }
}

#[test]
fn fo4_round_trip() {
    let tech = Technology::cmos025_asic();
    let mut rng = Rng64::new(0x02);
    for _ in 0..CASES {
        let count = rng.uniform_in(0.1, 1000.0);
        let fo4 = Fo4::new(count);
        let back = Fo4::from_delay(fo4.to_ps(&tech), &tech);
        assert!((back.count() - count).abs() < 1e-9, "failed at {count}");
    }
}

#[test]
fn bits_round_trip() {
    let mut rng = Rng64::new(0x03);
    for _ in 0..CASES {
        let value = rng.next_u64();
        let width = 1 + rng.index(63);
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        let v = value & mask;
        assert_eq!(from_bits(&to_bits(v, width)), v, "width {width} value {v}");
    }
}

#[test]
fn lit_complement_involution() {
    let mut rng = Rng64::new(0x04);
    for _ in 0..CASES {
        let node = rng.index(1_000_000);
        let comp = rng.flip();
        let l = Lit::new(node, comp);
        assert_eq!(l.not().not(), l);
        assert_eq!(l.node(), node);
        assert_eq!(l.is_complement(), comp);
    }
}

#[test]
fn cell_delay_monotone_in_load() {
    use asicgap::cells::LibCell;
    let tech = Technology::cmos025_asic();
    let drives = [0.5f64, 1.0, 2.0, 4.0, 8.0];
    let mut rng = Rng64::new(0x05);
    for _ in 0..CASES {
        let drive = drives[rng.index(drives.len())];
        let load_a = rng.uniform_in(1.0, 100.0);
        let extra = rng.uniform_in(0.1, 100.0);
        let cell =
            LibCell::combinational(CellFunction::Nand(2), LogicFamily::StaticCmos, drive, &tech);
        let d1 = cell.delay(&tech, Ff::new(load_a));
        let d2 = cell.delay(&tech, Ff::new(load_a + extra));
        assert!(d2 > d1, "drive {drive} load {load_a} extra {extra}");
    }
}

#[test]
fn adder_matches_u64_on_random_operands() {
    let (lib, n) = adder_fixture();
    let mut sim = Simulator::new(n, lib);
    let mut rng = Rng64::new(0x06);
    for _ in 0..CASES {
        let a = rng.below(256);
        let b = rng.below(256);
        let cin = rng.flip();
        let got = generators::adder_io::apply(&mut sim, 8, a, b, cin);
        assert_eq!(got, (a + b + cin as u64) & 0x1FF, "{a}+{b}+{cin}");
    }
}

#[test]
fn aig_balance_preserves_behaviour() {
    // Build a random AIG from a small op stream, then check balanced()
    // is observationally equivalent on sampled inputs.
    let mut rng = Rng64::new(0x07);
    for _ in 0..24 {
        let len = 1 + rng.index(39);
        let ops: Vec<u8> = (0..len).map(|_| rng.index(6) as u8).collect();
        let mut g = Aig::new();
        let inputs: Vec<Lit> = (0..6).map(|i| g.input(format!("i{i}"))).collect();
        let mut pool = inputs.clone();
        for (k, &op) in ops.iter().enumerate() {
            let a = pool[k % pool.len()];
            let b = pool[(k * 7 + 3) % pool.len()];
            let lit = match op {
                0 => g.and(a, b),
                1 => g.or(a, b),
                2 => g.xor(a, b),
                3 => g.and(a.not(), b),
                4 => g.mux(a, b, pool[(k * 13 + 1) % pool.len()]),
                _ => a.not(),
            };
            pool.push(lit);
        }
        let out = *pool.last().expect("non-empty pool");
        g.set_output("y", out);
        let bal = g.balanced();
        for bits in 0..64u32 {
            let ins: Vec<bool> = (0..6).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(g.eval(&ins), bal.eval(&ins), "ops {ops:?} bits {bits}");
        }
    }
}

#[test]
fn pipeline_cycle_decreases_with_stages() {
    let mut rng = Rng64::new(0x08);
    for _ in 0..CASES {
        let logic = rng.uniform_in(20.0, 500.0);
        let overhead = rng.uniform_in(1.0, 10.0);
        let n = 1 + rng.index(19);
        let m = PipelineModel::new(Fo4::new(logic), n, Fo4::new(overhead), 0.0);
        let deeper = m.with_stages(n + 1);
        let cycle = m.cycle();
        assert!(deeper.cycle() < cycle, "logic {logic} n {n}");
        // And never below the overhead floor.
        assert!(cycle.count() > overhead);
    }
}

#[test]
fn borrowing_never_worse_than_flip_flops_at_equal_overhead() {
    let mut rng = Rng64::new(0x09);
    for _ in 0..CASES {
        let n_stages = 1 + rng.index(11);
        let delays: Vec<Ps> = (0..n_stages)
            .map(|_| Ps::new(rng.uniform_in(10.0, 500.0)))
            .collect();
        let overhead = rng.uniform_in(1.0, 100.0);
        let r = borrowed_cycle(&delays, Ps::new(overhead), Ps::new(overhead));
        assert!(
            r.borrowed_cycle <= r.flip_flop_cycle + Ps::new(1e-9),
            "delays {delays:?} overhead {overhead}"
        );
    }
}

#[test]
fn verilog_round_trip_on_random_logic() {
    use asicgap::netlist::generators::{random_logic, RandomLogicSpec};
    use asicgap::netlist::verilog::{from_verilog, to_verilog};
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mut rng = Rng64::new(0x0A);
    for _ in 0..24 {
        let seed = rng.below(200);
        let spec = RandomLogicSpec {
            inputs: 8,
            gates: 40,
            seed,
            depth_bias: 3,
        };
        let original = random_logic(&lib, &spec).expect("generates");
        let text = to_verilog(&original, &lib);
        let parsed = from_verilog(&text, &lib).expect("parses");
        assert_eq!(parsed.instance_count(), original.instance_count());
        let mut sim_a = Simulator::new(&original, &lib);
        let mut sim_b = Simulator::new(&parsed, &lib);
        for bits in [0u64, 0xFF, 0xA5, 0x3C] {
            let v = to_bits(bits, 8);
            assert_eq!(sim_a.run_comb(&v), sim_b.run_comb(&v), "seed {seed}");
        }
    }
}

#[test]
fn within_die_penalty_monotone_in_paths() {
    use asicgap::process::WithinDieModel;
    let mut rng = Rng64::new(0x0B);
    for _ in 0..CASES {
        let sigma = rng.uniform_in(0.0, 0.1);
        let small = 1 + rng.index(99);
        let factor = 2 + rng.index(98);
        let a = WithinDieModel::new(small, sigma);
        let b = WithinDieModel::new(small * factor, sigma);
        assert!(
            b.expected_penalty() <= a.expected_penalty() + 1e-12,
            "sigma {sigma} paths {small}x{factor}"
        );
        assert!(b.expected_penalty() > 0.0);
    }
}

#[test]
fn all_five_adder_architectures_agree() {
    let (lib, adders) = all_adders_fixture();
    let mut rng = Rng64::new(0x0C);
    for _ in 0..CASES {
        let a = rng.below(256);
        let b = rng.below(256);
        let cin = rng.flip();
        let want = (a + b + cin as u64) & 0x1FF;
        for adder in adders {
            let mut sim = Simulator::new(adder, lib);
            let got = generators::adder_io::apply(&mut sim, 8, a, b, cin);
            assert_eq!(got, want, "{} disagrees on {}+{}+{}", adder.name, a, b, cin);
        }
    }
}

#[test]
fn crc_netlist_matches_reference_for_random_data() {
    use asicgap::netlist::generators::{crc_checker, crc_reference};
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mut rng = Rng64::new(0x0D);
    for _ in 0..24 {
        let data = rng.below(0xFFFF);
        // Odd polynomials keep every output bit live.
        let poly = rng.below(255) | 1;
        if let Ok(n) = crc_checker(&lib, 16, poly, 8) {
            let mut sim = Simulator::new(&n, &lib);
            let out = sim.run_comb(&to_bits(data, 16));
            assert_eq!(
                from_bits(&out),
                crc_reference(data, 16, poly, 8),
                "data {data:#x} poly {poly:#x}"
            );
        }
    }
}

#[test]
fn sweep_is_idempotent_and_simulation_equivalent_on_every_generator() {
    use asicgap::netlist::generators::RandomLogicSpec;
    use asicgap::netlist::sweep_dead_logic;
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let spec = RandomLogicSpec {
        inputs: 8,
        gates: 60,
        seed: 5,
        depth_bias: 3,
    };
    // One instance of every generator in `crates/netlist/src/generators`.
    let circuits = vec![
        generators::ripple_carry_adder(&lib, 8).expect("rca"),
        generators::carry_lookahead_adder(&lib, 8).expect("cla"),
        generators::carry_select_adder(&lib, 8, 3).expect("csel"),
        generators::carry_skip_adder(&lib, 8, 3).expect("cskip"),
        generators::kogge_stone_adder(&lib, 8).expect("ks"),
        generators::alu(&lib, 8).expect("alu"),
        generators::array_multiplier(&lib, 6).expect("mult"),
        generators::barrel_shifter(&lib, 8).expect("bshift"),
        generators::counter(&lib, 6).expect("counter"),
        generators::crc_checker(&lib, 16, 0x07, 8).expect("crc"),
        generators::datapath(&lib, 8).expect("datapath"),
        generators::equality_comparator(&lib, 8).expect("eq"),
        generators::mux_tree(&lib, 8).expect("mux"),
        generators::parity_tree(&lib, 9).expect("parity"),
        generators::random_logic(&lib, &spec).expect("rand"),
    ];
    let mut rng = Rng64::new(0x0F);
    for n in &circuits {
        // Idempotence: sweeping a swept netlist removes nothing.
        let (swept, _) = sweep_dead_logic(n, &lib).expect("sweeps");
        let (again, stats) = sweep_dead_logic(&swept, &lib).expect("sweeps twice");
        assert_eq!(stats.removed, 0, "{} sweep is not idempotent", n.name);
        assert_eq!(again.instance_count(), swept.instance_count(), "{}", n.name);
        // Simulation equivalence: same outputs on random vectors, with
        // clock steps so sequential state is exercised too.
        let width = n.inputs().len();
        let mut sim_a = Simulator::new(n, &lib);
        let mut sim_b = Simulator::new(&swept, &lib);
        for _ in 0..16 {
            let bits: Vec<bool> = (0..width).map(|_| rng.flip()).collect();
            sim_a.set_inputs(&bits);
            sim_b.set_inputs(&bits);
            sim_a.eval_comb();
            sim_b.eval_comb();
            assert_eq!(
                sim_a.output_values(),
                sim_b.output_values(),
                "{} diverges after sweep",
                n.name
            );
            sim_a.step_clock();
            sim_b.step_clock();
        }
    }
}

#[test]
fn population_quantiles_monotone() {
    let mut rng = Rng64::new(0x0E);
    for _ in 0..12 {
        let seed = rng.below(1000);
        let p = ChipPopulation::sample(&VariationComponents::new_process(), 2000, seed);
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let v = p.quantile(q);
            assert!(v >= prev, "seed {seed} quantile {q}");
            prev = v;
        }
        // Yield at the median is ~50%.
        let y = p.yield_at(p.median());
        assert!((y - 0.5).abs() < 0.05, "seed {seed} yield {y}");
    }
}

/// Order-independent fingerprint inputs are deliberately avoided: the
/// hash folds in instance order, pin order, and per-net sink order, so
/// any divergence in mutation bookkeeping — not just in final topology —
/// shows up as a different value.
fn netlist_fingerprint(n: &asicgap::netlist::Netlist) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (id, inst) in n.iter_instances() {
        mix(id.index() as u64);
        mix(inst.cell().index() as u64);
        mix(inst.out().index() as u64);
        for &f in inst.fanin() {
            mix(f.index() as u64);
        }
    }
    for (_, net) in n.iter_nets() {
        mix(net.sinks().len() as u64);
        for s in net.sinks() {
            mix(s.inst.index() as u64);
            mix(u64::from(s.pin));
        }
    }
    h
}

/// One seeded ECO storm: a random interleaving of drive swaps
/// (`set_instance_cell`), sink retargets (`redirect_sink`), and buffer
/// insertions (new net + new instance + a subset of sinks moved over),
/// validating the CSR sink slots against the from-scratch rebuild after
/// every mutation burst. Returns the final structural fingerprint.
fn eco_storm(seed: u64, lib: &asicgap::cells::Library) -> u64 {
    use asicgap::netlist::{validate, Issue};

    let mut rng = Rng64::new(seed);
    let mut n = generators::alu(lib, 8).expect("alu8 builds");
    let buf = lib.smallest(CellFunction::Buf).expect("rich lib has buf");
    let base_insts = n.instance_count();
    for step in 0..120 {
        match rng.index(3) {
            0 => {
                // Drive swap: any other cell implementing the same function.
                let id = asicgap::netlist::InstId::from_index(rng.index(n.instance_count()));
                let function = n.instance(id).function();
                let drives = lib.drives_for(function, LogicFamily::StaticCmos);
                if !drives.is_empty() {
                    n.set_instance_cell(lib, id, drives[rng.index(drives.len())]);
                }
            }
            1 => {
                // Retarget one sink onto a random net (validate checks
                // bookkeeping, not acyclicity, so any target is legal).
                let id = asicgap::netlist::InstId::from_index(rng.index(n.instance_count()));
                let arity = n.instance(id).fanin().len();
                if arity > 0 {
                    let pin = rng.index(arity);
                    let tgt = asicgap::netlist::NetId::from_index(rng.index(n.net_count()));
                    n.redirect_sink(id, pin, tgt);
                }
            }
            _ => {
                // Buffer insertion: split a loaded net, moving a random
                // non-empty subset of its sinks behind the buffer.
                let src = asicgap::netlist::NetId::from_index(rng.index(n.net_count()));
                let sinks = n.net(src).sinks().to_vec();
                if sinks.is_empty() {
                    continue;
                }
                let out = n.add_net(format!("storm_n{step}"));
                n.add_instance(format!("storm_b{step}"), lib, buf, &[src], out)
                    .expect("buffer inserts");
                let keep = 1 + rng.index(sinks.len());
                for s in sinks.into_iter().take(keep) {
                    n.redirect_sink(s.inst, s.pin as usize, out);
                }
            }
        }
        // The property under test: CSR sink lists stay exactly
        // consistent with a from-scratch rebuild through arbitrary
        // interleavings. Dangling/undriven lints may legitimately
        // appear mid-storm; bookkeeping corruption must not.
        let corrupt: Vec<_> = validate(&n)
            .into_iter()
            .filter(|i| {
                matches!(
                    i,
                    Issue::InconsistentSink { .. } | Issue::CorruptSinkSlot { .. }
                )
            })
            .collect();
        assert!(
            corrupt.is_empty(),
            "seed {seed} step {step} corrupted sinks: {corrupt:?}"
        );
    }
    assert!(n.instance_count() > base_insts, "storms insert buffers");
    netlist_fingerprint(&n)
}

#[test]
fn eco_interleavings_keep_csr_sinks_consistent_across_threads() {
    use asicgap::exec::Pool;

    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let seeds: Vec<u64> = (0..32u64).map(|i| 0x5107_0000 + i).collect();
    let one = Pool::with_threads(1).map(&seeds, |_, &s| eco_storm(s, &lib));
    let eight = Pool::with_threads(8).map(&seeds, |_, &s| eco_storm(s, &lib));
    assert_eq!(one, eight, "ECO storms must be thread-count invariant");
    // Distinct seeds explore distinct interleavings.
    assert!(one.windows(2).any(|w| w[0] != w[1]));
}
