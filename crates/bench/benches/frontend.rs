//! Frontend ingestion bench: the Yosys-JSON reader (`parse_design`,
//! MB/s) and the lowering behind it (`lower`, cells/s) on the exported
//! ~120k-gate `xlarge` netlist — timed apart and printed under the
//! names `BENCHMARK.json` gives the same two calls on `soc_ingest`, so
//! this bench and the benchmark's layer table read side by side — the
//! EDIF reader on the RISC-V datapath fixture, and the interner-bytes
//! pin for the dedup name table on the flattened fixture designs.
//! (The harness drops each result inside the timed region, so the
//! parse figure here also pays for freeing the `Design`, about 40 ms at
//! this size; the benchmark's `frontend.parse` span does not.)
//!
//! Flattened hierarchical names repeat prefixes heavily, so the
//! frontend lowers with [`NameTable`] dedup enabled; this bench pins
//! the resulting interner size for a checked-in fixture so a
//! regression in hash-consing shows up as a number, not a hunch.

use std::path::Path;

use asicgap_bench::harness::{bench, group};

use asicgap::cells::LibrarySpec;
use asicgap::frontend::{self, DesignFormat, LowerOptions};
use asicgap::netlist::generators;
use asicgap::netlist::yosys_json::to_yosys_json;
use asicgap::tech::Technology;

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn main() {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);

    group("frontend_parse_throughput");
    let xl = generators::xlarge(&lib, &generators::XlargeSpec::soc(2026)).expect("xlarge builds");
    let json = to_yosys_json(&xl, &lib);
    let cells = xl.instance_count();
    println!(
        "xlarge export: {} instances, {:.1} MB of JSON",
        cells,
        json.len() as f64 / 1e6
    );
    let parse_s = bench("parse_design(yosys-json, xlarge)", 9, || {
        frontend::parse_design(DesignFormat::YosysJson, &json).expect("reparses")
    }) / 1e9;
    let design = frontend::parse_design(DesignFormat::YosysJson, &json).expect("reparses");
    let lower_s = bench("lower(xlarge)", 9, || {
        frontend::lower(&design, &lib, &LowerOptions::default()).expect("lowers")
    }) / 1e9;
    println!(
        "frontend.parse_mb_per_s     {:>12.1} MB/s",
        json.len() as f64 / 1e6 / parse_s
    );
    println!(
        "frontend.lower_cells_per_s  {:>12.0} 1/s",
        cells as f64 / lower_s
    );
    println!(
        "frontend.load_cells_per_s   {:>12.0} 1/s",
        cells as f64 / (parse_s + lower_s)
    );

    let edif = std::fs::read_to_string(fixture("riscv_datapath.edif")).expect("fixture readable");
    bench("parse_edif_riscv_datapath", 20, || {
        frontend::load_design(DesignFormat::Edif, &edif, &lib).expect("parses")
    });

    group("frontend_interner_bytes");
    // The frontend lowers with name dedup on; the generator path interns
    // append-only. The reparse must never hold more name bytes than the
    // original, and the fixture pin below catches hash-consing drift.
    let reparsed = frontend::load_design(DesignFormat::YosysJson, &json, &lib).expect("reparses");
    println!(
        "xlarge name table: generator {} B, frontend reparse {} B",
        xl.name_table_bytes(),
        reparsed.name_table_bytes()
    );
    assert!(
        reparsed.name_table_bytes() <= xl.name_table_bytes(),
        "dedup interner must not exceed the append-only table: {} > {}",
        reparsed.name_table_bytes(),
        xl.name_table_bytes()
    );

    let alu = frontend::load_file(&fixture("riscv_alu.json"), &lib).expect("fixture parses");
    let pinned = alu.name_table_bytes();
    println!("riscv_alu.json interner: {pinned} B");
    assert_eq!(
        pinned, RISCV_ALU_INTERNER_BYTES,
        "interner bytes for the checked-in fixture drifted; if the \
         fixture or naming scheme changed on purpose, update the pin"
    );
    println!("acceptance: PASS (dedup <= append-only, fixture pin holds)");
}

/// Interner bytes for `fixtures/riscv_alu.json` lowered through the
/// dedup name table. Computed once; tracks the fixture and the
/// flattened naming scheme, nothing else.
const RISCV_ALU_INTERNER_BYTES: usize = 1297;
