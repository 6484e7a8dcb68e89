//! The frontend subsystem end-to-end: the exporter→parser round trip
//! proven equivalent by the miter/CDCL checker over the generator
//! suite, the checked-in real-design fixtures through the fully
//! verified routed flow, the malformed-input corpus (typed errors,
//! never panics), and the content-hashed identity contract of
//! `file/...` workloads.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use asicgap::cells::{Library, LibrarySpec};
use asicgap::equiv::{check_equiv, EquivResult};
use asicgap::frontend::{self, DesignFormat, FrontendError};
use asicgap::netlist::yosys_json::to_yosys_json;
use asicgap::netlist::{generators, Netlist, NetlistError};
use asicgap::tech::Technology;
use asicgap::{
    canonical_key, content_hash, run_scenario_verified, DesignScenario, VerifyLevel, WireModel,
    WorkloadSpec,
};

/// `ASICGAP_THREADS` is process-global; thread-sweeping tests serialize.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn rich_library() -> Library {
    LibrarySpec::rich().build(&Technology::cmos025_asic())
}

/// The round-trip suite: every generator family, combinational and
/// sequential. Adding a generator here extends the proof, not just the
/// parse.
fn round_trip_cases(lib: &Library) -> Vec<(&'static str, Netlist)> {
    type Gen = fn(&Library) -> Result<Netlist, NetlistError>;
    let gens: Vec<(&'static str, Gen)> = vec![
        ("alu8", |l| generators::alu(l, 8)),
        ("rca8", |l| generators::ripple_carry_adder(l, 8)),
        ("cla8", |l| generators::carry_lookahead_adder(l, 8)),
        ("csel8", |l| generators::carry_select_adder(l, 8, 2)),
        ("cskip8", |l| generators::carry_skip_adder(l, 8, 2)),
        ("ks8", |l| generators::kogge_stone_adder(l, 8)),
        ("counter6", |l| generators::counter(l, 6)),
        ("crc8", |l| generators::crc_checker(l, 8, 0x07, 8)),
        ("datapath4", |l| generators::datapath(l, 4)),
        ("mux8", |l| generators::mux_tree(l, 8)),
        ("parity9", |l| generators::parity_tree(l, 9)),
        ("eq8", |l| generators::equality_comparator(l, 8)),
        ("mult4", |l| generators::array_multiplier(l, 4)),
        ("bshift8", |l| generators::barrel_shifter(l, 8)),
    ];
    gens.into_iter()
        .map(|(name, g)| (name, g(lib).expect(name)))
        .collect()
}

#[test]
fn exporter_round_trip_is_proven_equivalent_for_every_generator() {
    let lib = rich_library();
    let cases = round_trip_cases(&lib);
    assert!(cases.len() >= 10, "the suite must cover >= 10 generators");
    for (name, golden) in &cases {
        let text = to_yosys_json(golden, &lib);
        let parsed = frontend::load_design(DesignFormat::YosysJson, &text, &lib).expect("reparses");
        assert_eq!(
            parsed.instance_count(),
            golden.instance_count(),
            "{name}: reparse must preserve the instance list exactly"
        );
        let report = check_equiv(golden, &lib, &parsed, &lib).expect("checker runs");
        assert_eq!(
            report.result,
            EquivResult::Equivalent,
            "{name}: round trip must be proven equivalent, got {:?}",
            report.result
        );
    }
}

#[test]
fn riscv_fixtures_parse_into_bound_netlists() {
    let lib = rich_library();

    // The Yosys-JSON ALU: hierarchical, generic cells, a multi-bit
    // $dff, a constant carry-in — the AIG lowering path end to end.
    let alu = frontend::load_file(&fixture("riscv_alu.json"), &lib).expect("riscv_alu parses");
    assert_eq!(alu.name, "riscv_alu");
    assert!(
        alu.instance_count() >= 8,
        "4 slices and 4 registers lower to >= 8 instances, got {}",
        alu.instance_count()
    );
    assert_eq!(alu.inputs().len(), 1 + 4 + 4 + 2, "clk + a + b + op bits");
    assert_eq!(alu.outputs().len(), 4);
    // Flattened hierarchical names repeat prefixes, so the frontend
    // lowers with name dedup on. Pinned so hash-consing drift shows as a
    // number; tracks this fixture and the flattened naming scheme only.
    assert_eq!(alu.name_table_bytes(), 1297, "riscv_alu interner bytes");

    // The EDIF datapath: external leaf library, array ports, renamed
    // hierarchy — the direct lowering path with preserved names.
    let dp =
        frontend::load_file(&fixture("riscv_datapath.edif"), &lib).expect("riscv_datapath parses");
    assert_eq!(dp.name, "riscv_datapath");
    // 2 stages x (mux + dff) + the parity xor, names hierarchical.
    assert_eq!(dp.instance_count(), 5);
    let names: Vec<&str> = dp.iter_instances().map(|(_, i)| i.name()).collect();
    for expected in ["s0.m", "s0.f", "s1.m", "s1.f", "px"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
}

#[test]
fn fixtures_complete_the_fully_verified_routed_flow() {
    let scenario = DesignScenario::typical_asic().with_wire_model(WireModel::Routed);
    for file in ["riscv_alu.json", "riscv_datapath.edif"] {
        let spec = WorkloadSpec::from_file(&fixture(file)).expect("spec from file");
        let out = run_scenario_verified(&scenario, |lib| spec.build(lib), VerifyLevel::Full)
            .unwrap_or_else(|e| panic!("{file}: verified flow failed: {e}"));
        let route = out.route.as_ref().expect("routed flow carries a summary");
        assert_eq!(route.overflow, 0, "{file}: routing must converge");
        assert!(
            out.verify_effort.is_some(),
            "{file}: full verification must record checker effort"
        );
        assert!(out.gates > 0 && out.shipped.value() > 0.0);
    }
}

#[test]
fn malformed_designs_produce_typed_errors_never_panics() {
    let lib = rich_library();

    // Truncated JSON, at every byte offset (the export is ASCII). The
    // reader has no tree to fall back on: whatever it was in the middle
    // of when the bytes ran out must answer for itself.
    let alu = generators::alu(&lib, 4).expect("alu4");
    let text = to_yosys_json(&alu, &lib);
    assert!(text.is_ascii());
    for cut in 0..text.trim_end().len() {
        let err = frontend::load_design(DesignFormat::YosysJson, &text[..cut], &lib)
            .expect_err("truncation must fail");
        assert!(
            matches!(err, FrontendError::Syntax { .. }),
            "cut at {cut}: {err}"
        );
    }

    // Unknown cell type.
    let unknown = r#"{ "modules": { "m": {
        "ports": { "a": { "direction": "input", "bits": [2] },
                   "y": { "direction": "output", "bits": [3] } },
        "cells": { "g": { "type": "mystery9000",
                          "connections": { "A": [2], "Y": [3] } } },
        "netnames": {} } } }"#;
    let err = frontend::load_design(DesignFormat::YosysJson, unknown, &lib)
        .expect_err("unknown cell must fail");
    assert!(matches!(err, FrontendError::UnknownCell { .. }), "{err}");

    // Width mismatch: a scalar submodule port handed two bits.
    let wide = r#"{ "modules": {
        "leaf": { "ports": { "a": { "direction": "input", "bits": [2] },
                             "y": { "direction": "output", "bits": [3] } },
                  "cells": { "n": { "type": "$not",
                                    "connections": { "A": [2], "Y": [3] } } },
                  "netnames": {} },
        "top": { "attributes": { "top": 1 },
                 "ports": { "p": { "direction": "input", "bits": [2, 3] },
                            "q": { "direction": "output", "bits": [4] } },
                 "cells": { "u": { "type": "leaf",
                                   "connections": { "a": [2, 3], "y": [4] } } },
                 "netnames": {} } } }"#;
    let err = frontend::load_design(DesignFormat::YosysJson, wide, &lib)
        .expect_err("width mismatch must fail");
    assert!(matches!(err, FrontendError::WidthMismatch { .. }), "{err}");

    // Dangling reference: an EDIF portRef naming an unknown instance.
    let dangling = r#"(edif d (edifVersion 2 0 0)
      (library work
        (cell top (cellType GENERIC)
          (view netlist (viewType NETLIST)
            (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
            (contents
              (instance g (viewRef netlist (cellRef inv_x1)))
              (net n (joined (portRef a) (portRef a (instanceRef ghost))))))))
      (design d (cellRef top)))"#;
    let err = frontend::load_design(DesignFormat::Edif, dangling, &lib)
        .expect_err("dangling ref must fail");
    assert!(matches!(err, FrontendError::DanglingRef { .. }), "{err}");

    // Truncated EDIF.
    let err = frontend::load_design(DesignFormat::Edif, &dangling[..dangling.len() / 2], &lib)
        .expect_err("truncated EDIF must fail");
    assert!(matches!(err, FrontendError::Syntax { .. }), "{err}");
}

/// The one-module export with its `attributes` / `ports` / `cells` /
/// `netnames` sections listed in `order` instead.
fn reorder_sections(export: &str, order: &[&str]) -> String {
    // The exporter's layout is fixed: section keys sit at six spaces,
    // the module closes at four.
    fn section_key(line: &str) -> Option<&str> {
        line.strip_prefix("      \"")?.split('"').next()
    }
    let lines: Vec<&str> = export.lines().collect();
    let first = lines
        .iter()
        .position(|l| section_key(l).is_some())
        .expect("a section");
    let close = lines
        .iter()
        .rposition(|l| *l == "    }")
        .expect("module close");
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for &line in &lines[first..close] {
        match section_key(line) {
            Some(key) => sections.push((key, vec![line])),
            None => sections.last_mut().expect("opened").1.push(line),
        }
    }
    assert_eq!(sections.len(), 4, "export has four sections");
    let body: Vec<String> = order
        .iter()
        .map(|want| {
            let (_, lines) = sections
                .iter()
                .find(|(key, _)| key == want)
                .expect("section present");
            lines.join("\n").trim_end_matches(',').to_string()
        })
        .collect();
    format!(
        "{}\n{}\n{}\n",
        lines[..first].join("\n"),
        body.join(",\n"),
        lines[close..].join("\n")
    )
}

fn permutations<'a>(items: &[&'a str]) -> Vec<Vec<&'a str>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

#[test]
fn section_order_in_the_file_does_not_change_the_design() {
    // Nets are numbered ports, then cells, then netnames, wherever the
    // file puts them: a section that arrives early is revisited.
    let lib = rich_library();
    const CANONICAL: [&str; 4] = ["attributes", "ports", "cells", "netnames"];
    for netlist in [
        generators::alu(&lib, 4).expect("alu4"),
        generators::counter(&lib, 6).expect("counter6"),
    ] {
        let export = to_yosys_json(&netlist, &lib);
        assert_eq!(reorder_sections(&export, &CANONICAL), export);
        let canonical =
            frontend::parse_design(DesignFormat::YosysJson, &export).expect("canonical parses");
        let orders = permutations(&CANONICAL);
        assert_eq!(orders.len(), 24);
        for order in orders {
            let shuffled = reorder_sections(&export, &order);
            let design = frontend::parse_design(DesignFormat::YosysJson, &shuffled)
                .unwrap_or_else(|e| panic!("{order:?}: {e}"));
            assert_eq!(design, canonical, "sections in order {order:?}");
        }
    }
}

#[test]
fn first_of_a_repeated_key_wins_at_every_level() {
    let parse = |text: &'static str| frontend::parse_design(DesignFormat::YosysJson, text);
    let plain = parse(
        r#"{ "modules": { "m": {
            "attributes": { "top": 1 },
            "ports": { "a": { "direction": "input", "bits": [2] },
                       "y": { "direction": "output", "bits": [3] } },
            "cells": { "g": { "type": "$not", "connections": { "A": [2], "Y": [3] } } },
            "netnames": { "a": { "bits": [2] }, "y": { "bits": [3] } } } } }"#,
    )
    .expect("plain parses");
    let repeated = parse(
        r#"{ "modules": { "m": {
            "attributes": { "top": 1, "top": 0 },
            "attributes": { "top": 0 },
            "ports": { "a": { "direction": "input", "direction": "output",
                              "bits": [2], "bits": [9, 9] },
                       "y": { "direction": "output", "bits": [3] } },
            "ports": { "zz": { "direction": "input", "bits": [7] } },
            "cells": { "g": { "type": "$not", "type": "$and",
                              "connections": { "A": [2], "Y": [3] },
                              "connections": { "A": [8] } } },
            "cells": {},
            "netnames": { "a": { "bits": [2], "bits": [3] }, "y": { "bits": [3] } },
            "netnames": { "late": { "bits": [2] } } } },
          "modules": {} }"#,
    )
    .expect("repeated keys parse");
    assert_eq!(repeated, plain);

    // Members of `ports` / `cells` / `connections` are entries, not
    // keys to look up: a repeated name is a second entry.
    let twice = parse(
        r#"{ "modules": { "m": {
            "ports": { "p": { "direction": "input", "bits": [2] },
                       "p": { "direction": "input", "bits": [3] } },
            "cells": { "c": { "type": "t", "connections": { "A": [2], "A": [3] } },
                       "c": { "type": "u" } } } } }"#,
    )
    .expect("parses");
    let m = twice.top_module();
    assert_eq!(m.ports().len(), 2);
    assert_eq!(m.insts().len(), 2);
    assert_eq!(m.inst(0).conns().len(), 2);
}

#[test]
fn escaped_and_multibyte_names_round_trip() {
    let lib = rich_library();
    // Decoded: a"b, c\d, eAf (\u0041), g/h (\/), ünï-中 (raw multi-byte),
    // é (\u00e9).
    let text = r#"{ "modules": { "top \"quoted\" \u4e2d": {
        "ports": { "a\"b": { "direction": "input", "bits": [2] },
                   "c\\d": { "direction": "input", "bits": [3] },
                   "e\u0041f": { "direction": "output", "bits": [4] } },
        "cells": { "g\/h": { "type": "$and",
                             "connections": { "A": [2], "B": [3], "Y": [4] } } },
        "netnames": { "ünï-中": { "bits": [2] }, "\u00e9": { "bits": [3, 4] } } } } }"#;
    let design = frontend::parse_design(DesignFormat::YosysJson, text).expect("parses");
    let m = design.top_module();
    assert_eq!(m.name(), "top \"quoted\" 中");
    let ports: Vec<&str> = m.ports().map(|p| p.name).collect();
    assert_eq!(ports, ["a\"b", "c\\d", "eAf"]);
    assert_eq!(m.inst(0).name(), "g/h");
    assert!(m.net_names().eq(["ünï-中", "é[0]", "é[1]"]));

    // And through the exporter, which escapes them again.
    let netlist = frontend::load_design(DesignFormat::YosysJson, text, &lib).expect("lowers");
    let again = frontend::load_design(
        DesignFormat::YosysJson,
        &to_yosys_json(&netlist, &lib),
        &lib,
    )
    .expect("re-loads");
    assert_eq!(again.name, "top \"quoted\" 中");
    let names = |n: &Netlist| -> Vec<String> {
        n.inputs()
            .iter()
            .chain(n.outputs())
            .map(|(name, _)| name.clone())
            .collect()
    };
    assert_eq!(names(&again), ["a\"b", "c\\d", "eAf"]);
    assert_eq!(names(&again), names(&netlist));
}

#[test]
fn wild_bit_numbers_are_nets_like_any_other() {
    // A bit number is an identity, not an index: a claimed value in the
    // trillions (or below zero) must not size anything.
    let text = r#"{ "modules": { "m": {
        "ports": { "a": { "direction": "input", "bits": [9000000000000] },
                   "b": { "direction": "input", "bits": [-4] },
                   "y": { "direction": "output", "bits": [2] } },
        "cells": { "g": { "type": "$and",
                          "connections": { "A": [9000000000000], "B": [-4], "Y": [2] } } },
        "netnames": { "far": { "bits": [9000000000001, -4] },
                      "min": { "bits": [-9223372036854775808] } } } } }"#;
    let design = frontend::parse_design(DesignFormat::YosysJson, text).expect("parses");
    let names: Vec<&str> = design.top_module().net_names().collect();
    assert_eq!(names, ["_9000000000000", "far[1]", "_2", "far[0]", "min"]);
    let lib = rich_library();
    let netlist = frontend::load_design(DesignFormat::YosysJson, text, &lib).expect("lowers");
    assert_eq!(netlist.inputs().len(), 2);

    // One past either end of `i64` is not a bit number at all.
    for bad in ["9223372036854775808", "-9223372036854775809", "2.0", "2e3"] {
        let text = format!(
            r#"{{ "modules": {{ "m": {{ "ports": {{ "a": {{ "direction": "input", "bits": [{bad}] }} }} }} }} }}"#
        );
        assert!(matches!(
            frontend::parse_design(DesignFormat::YosysJson, &text),
            Err(FrontendError::Syntax { .. })
        ));
    }
}

#[test]
fn hostile_nesting_is_a_typed_error_in_both_readers() {
    let lib = rich_library();
    // 2 MB of open brackets: a stack overflow (process abort) before
    // the depth cap.
    for (format, open) in [(DesignFormat::YosysJson, "["), (DesignFormat::Edif, "(")] {
        let err = frontend::load_design(format, &open.repeat(2 << 20), &lib)
            .expect_err("must be refused");
        assert!(
            matches!(err, FrontendError::Syntax { .. }),
            "{format}: {err}"
        );
    }
    // Inside an otherwise plausible document, too, on a path the reader
    // only steps over.
    let deep = format!(
        r#"{{ "modules": {{ "m": {{ "attributes": {{ "src": {}1{} }} }} }} }}"#,
        "[".repeat(100),
        "]".repeat(100)
    );
    assert!(matches!(
        frontend::parse_design(DesignFormat::YosysJson, &deep),
        Err(FrontendError::Syntax { .. })
    ));

    // Hierarchy is expanded by recursion as well: a chain of modules
    // each instantiating the next may not choose the stack depth either.
    let chain = |levels: usize| {
        let mut text = String::from(r#"{ "modules": { "#);
        for i in 0..levels {
            text.push_str(&format!(
                r#""m{i}": {{ "ports": {{ "a": {{ "direction": "input", "bits": [2] }},
                                          "y": {{ "direction": "output", "bits": [3] }} }},
                             "cells": {{ "u": {{ "type": "m{}",
                                "connections": {{ "a": [2], "y": [3] }} }} }} }}, "#,
                i + 1
            ));
        }
        text.push_str(&format!(
            r#""m{levels}": {{ "ports": {{ "a": {{ "direction": "input", "bits": [2] }},
                                          "y": {{ "direction": "output", "bits": [3] }} }},
                              "cells": {{ "n": {{ "type": "$not",
                                 "connections": {{ "A": [2], "Y": [3] }} }} }} }} }} }}"#
        ));
        text
    };
    let ok = frontend::load_design(DesignFormat::YosysJson, &chain(40), &lib).expect("40 levels");
    assert_eq!(ok.inputs().len(), 1);
    let err = frontend::load_design(DesignFormat::YosysJson, &chain(5000), &lib)
        .expect_err("5000 levels");
    assert!(matches!(err, FrontendError::Unsupported { .. }), "{err}");
}

#[test]
fn export_load_export_is_a_fixed_point_for_every_generator() {
    // The loader numbers nets ports-first, so the first re-export may
    // renumber bits; from then on the text must not move by a byte, and
    // no instance or port may be gained or lost on the way.
    type Gen = fn(&Library, usize) -> Result<Netlist, NetlistError>;
    let gens: [(&str, Gen); 15] = [
        ("alu", |l, s| generators::alu(l, 2 + s)),
        ("rca", |l, s| generators::ripple_carry_adder(l, 2 + s)),
        ("cla", |l, s| generators::carry_lookahead_adder(l, 2 + s)),
        ("csel", |l, s| generators::carry_select_adder(l, 4 + s, 2)),
        ("cskip", |l, s| generators::carry_skip_adder(l, 4 + s, 2)),
        ("ks", |l, s| generators::kogge_stone_adder(l, 2 + s)),
        ("counter", |l, s| generators::counter(l, 2 + s)),
        ("crc", |l, s| generators::crc_checker(l, 8 + s, 0x07, 8)),
        ("datapath", |l, s| generators::datapath(l, 2 + s)),
        ("mux", |l, s| generators::mux_tree(l, 2 << (s % 5))),
        ("parity", |l, s| generators::parity_tree(l, 3 + s)),
        ("eq", |l, s| generators::equality_comparator(l, 2 + s)),
        ("mult", |l, s| generators::array_multiplier(l, 2 + s)),
        ("bshift", |l, s| generators::barrel_shifter(l, 2 << (s % 4))),
        ("xlarge", |l, s| {
            generators::xlarge(l, &generators::XlargeSpec::small(s as u64))
        }),
    ];
    let lib = rich_library();
    let load = |text: &str| frontend::load_design(DesignFormat::YosysJson, text, &lib);
    for (name, gen) in gens {
        for seed in 0..8 {
            let golden = gen(&lib, seed).unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
            let once = load(&to_yosys_json(&golden, &lib))
                .unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
            assert_eq!(
                once.instance_count(),
                golden.instance_count(),
                "{name}/{seed}"
            );
            assert_eq!(once.inputs().len(), golden.inputs().len(), "{name}/{seed}");
            // Generators intern append-only, the loader with dedup on.
            assert!(
                once.name_table_bytes() <= golden.name_table_bytes(),
                "{name}/{seed}: dedup interner {} B exceeds append-only {} B",
                once.name_table_bytes(),
                golden.name_table_bytes()
            );
            assert_eq!(
                once.outputs().len(),
                golden.outputs().len(),
                "{name}/{seed}"
            );
            let text = to_yosys_json(&once, &lib);
            let twice = load(&text).unwrap_or_else(|e| panic!("{name}/{seed} again: {e}"));
            assert_eq!(
                to_yosys_json(&twice, &lib),
                text,
                "{name}/{seed}: re-export moved"
            );
        }
    }
}

#[test]
fn file_workload_identity_is_content_hashed_and_thread_invariant() {
    let path = fixture("riscv_alu.json");
    let text = std::fs::read_to_string(&path).expect("fixture readable");
    let spec = WorkloadSpec::from_file(&path).expect("spec from file");

    // The canonical key is the content hash, not the path.
    assert_eq!(
        spec.canonical(),
        format!("file/yosys-json/{:016x}", content_hash(&text))
    );
    let reparsed = WorkloadSpec::parse(&spec.canonical()).expect("wire form parses");
    assert_eq!(reparsed.canonical(), spec.canonical());

    // A wire-parsed spec carries no payload and must refuse to build
    // rather than guess.
    let lib = rich_library();
    assert!(matches!(
        reparsed.build(&lib),
        Err(NetlistError::Invalid { .. })
    ));

    // E16 golden pin: the full scenario-identity hash of the checked-in
    // fixture under the verified routed flow. Editing the fixture (or
    // the canonical-key format) changes this on purpose; update the pin
    // alongside EXPERIMENTS.md.
    let scenario = DesignScenario::typical_asic().with_wire_model(WireModel::Routed);
    let key = canonical_key(&scenario, &spec, VerifyLevel::Full);
    let pinned = format!("{:#018x}", content_hash(&key));
    assert_eq!(pinned, "0x8a587ff9b17f56c5");

    // Identity is byte-identical across thread counts.
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let at = |threads: &str| {
        std::env::set_var("ASICGAP_THREADS", threads);
        let spec = WorkloadSpec::from_file(&path).expect("spec from file");
        let key = canonical_key(&scenario, &spec, VerifyLevel::Full);
        std::env::remove_var("ASICGAP_THREADS");
        (spec.canonical(), key)
    };
    assert_eq!(at("1"), at("8"), "file keys must not depend on threads");
}

#[test]
fn exported_generator_fixture_matches_the_exporter() {
    // fixtures/alu8_exported.json is the committed output of
    // `to_yosys_json` on the 8-bit ALU: a regression pin on the
    // exporter's byte-level determinism, and a ready-made import
    // example that needs no generator to reproduce.
    let lib = rich_library();
    let alu = generators::alu(&lib, 8).expect("alu8");
    let exported = to_yosys_json(&alu, &lib);
    let committed =
        std::fs::read_to_string(fixture("alu8_exported.json")).expect("fixture readable");
    assert_eq!(
        exported, committed,
        "exporter output drifted from the committed fixture"
    );
    let parsed = frontend::load_file(&fixture("alu8_exported.json"), &lib).expect("parses");
    let report = check_equiv(&alu, &lib, &parsed, &lib).expect("checker runs");
    assert_eq!(report.result, EquivResult::Equivalent);
}
