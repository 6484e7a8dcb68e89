//! What parsing a design costs the allocator: a counting global
//! allocator around `parse_design` pins that the parsed `Design` is laid
//! out per module — names borrowed from the text, connections as runs of
//! shared vectors — so an export four times larger parses with the same
//! number of allocations, give or take the vectors' doublings.
//!
//! The counter is per thread, so tests running beside this one in the
//! same binary cannot move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asicgap::cells::{Library, LibrarySpec};
use asicgap::frontend::{self, DesignFormat};
use asicgap::netlist::generators::{xlarge, XlargeSpec};
use asicgap::netlist::yosys_json::to_yosys_json;
use asicgap::tech::Technology;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every call that hands out memory.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by parsing `text` (dropping the design excluded),
/// and the parsed top module's instance count.
fn allocations_to_parse(text: &str) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let design = frontend::parse_design(DesignFormat::YosysJson, text).expect("export parses");
    let after = ALLOCATIONS.with(Cell::get);
    let cells = design.top_module().insts().len();
    (after - before, cells)
}

fn export(lib: &Library, spec: &XlargeSpec) -> String {
    to_yosys_json(&xlarge(lib, spec).expect("xlarge generates"), lib)
}

#[test]
fn parsing_allocates_per_module_not_per_instance() {
    let lib = LibrarySpec::rich().build(&Technology::cmos025_asic());
    let small = XlargeSpec::small(5);
    let large = XlargeSpec {
        gates_per_stage: 5 * small.gates_per_stage,
        ..small.clone()
    };
    let (small_allocs, small_cells) = allocations_to_parse(&export(&lib, &small));
    let (large_allocs, large_cells) = allocations_to_parse(&export(&lib, &large));
    assert!(
        large_cells >= 4 * small_cells,
        "{large_cells} cells is not 4x {small_cells}"
    );
    assert!(
        large_allocs.abs_diff(small_allocs) < 64,
        "{small_allocs} allocations for {small_cells} cells, \
         {large_allocs} for {large_cells}: parsing allocates per instance"
    );
}
