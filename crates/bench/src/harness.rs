//! A minimal wall-clock bench harness, plus the ECO mutation fuzzer.
//!
//! The workspace builds with no registry access, so the one bench
//! target left here (`benches/netlist.rs`, the arena-vs-seed-layout
//! ratio gate) uses this module instead of Criterion: a plain
//! `fn main()` binary (`harness = false`) that times closures with
//! `std::time::Instant` and reports the median over a fixed iteration
//! count. Recorded numbers come from `benchmark/`, not from here.
//!
//! [`eco_equivalence_fuzz`] stress-tests the incremental timing API the
//! way the checker is meant to be used in anger: seeded random ECO
//! sequences (cell resizes, drive swaps, buffer insertions) against live
//! [`TimingGraph`]s, every final netlist formally proven equivalent to
//! its golden, on a worker pool whose results must be bit-identical at
//! any thread count.

use std::hint::black_box;
use std::time::Instant;

use asicgap::cells::{CellFunction, LibrarySpec};
use asicgap::equiv::check_equiv;
use asicgap::exec::Pool;
use asicgap::netlist::{generators, InstId, NetId, Sink};
use asicgap::sta::{ClockSpec, TimingGraph};
use asicgap::tech::Technology;
use asicgap::EquivEffort;

/// Times `f` over `iters` runs (after one warm-up) and prints the
/// median, minimum, and total. Returns the median in nanoseconds so
/// callers can compute ratios between benches.
pub fn bench<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    black_box(f());
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "{name:<44} median {:>12}  min {:>12}  ({iters} iters)",
        fmt_ns(median),
        fmt_ns(min),
    );
    median
}

/// Formats a nanosecond count with a human-readable unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Prints a section header so bench output groups like the old
/// Criterion groups did.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

/// One fuzzed ECO run's result: everything that must reproduce across
/// thread counts, plus the equivalence verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoFuzzOutcome {
    /// The run's seed.
    pub seed: u64,
    /// Which workload the seed selected.
    pub workload: &'static str,
    /// ECOs actually applied (skipped picks — sequential cells, sinkless
    /// nets — don't count).
    pub ecos_applied: usize,
    /// Minimum clock period after the ECO sequence, ps.
    pub min_period_ps: f64,
    /// Whether the mutated netlist proved equivalent to its golden
    /// (always true — ECOs only resize, swap drives, and buffer).
    pub equivalent: bool,
    /// Checker effort for the end-to-end proof.
    pub effort: EquivEffort,
}

/// Applies one seeded random ECO sequence to a fresh workload through
/// the incremental [`TimingGraph`] API and proves the result equivalent
/// to the untouched golden netlist.
fn eco_run(seed: u64, ecos: usize) -> EcoFuzzOutcome {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let (workload, golden) = match seed % 4 {
        0 => ("alu8", generators::alu(&lib, 8)),
        1 => ("cla8", generators::carry_lookahead_adder(&lib, 8)),
        2 => ("barrel8", generators::barrel_shifter(&lib, 8)),
        _ => ("counter6", generators::counter(&lib, 6)),
    };
    let golden = golden.expect("generator builds");
    let mut graph = TimingGraph::new(golden.clone(), &lib, ClockSpec::unconstrained(), None);
    let buf = lib.smallest(CellFunction::Buf).expect("rich lib has Buf");

    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut applied = 0usize;
    for _ in 0..ecos {
        match rnd() % 3 {
            0 | 1 => {
                // Resize a random combinational cell to the drive closest
                // to a random target size.
                let idx = rnd() as usize % graph.netlist().instance_count();
                let inst = InstId::from_index(idx);
                if graph.netlist().instance(inst).is_sequential() {
                    continue;
                }
                let size = 0.5 + (rnd() % 1000) as f64 / 1000.0 * 7.5;
                let cell = lib.closest_drive(graph.netlist().instance(inst).cell(), size);
                graph.resize_cell(inst, cell);
                applied += 1;
            }
            _ => {
                // Split a random subset of a random net's sinks behind a
                // buffer.
                let net = NetId::from_index(rnd() as usize % graph.netlist().net_count());
                let sinks: Vec<Sink> = graph.netlist().net(net).sinks().to_vec();
                if sinks.is_empty() {
                    continue;
                }
                let take = 1 + rnd() as usize % sinks.len();
                graph
                    .insert_buffer(net, buf, &sinks[..take])
                    .expect("buffer cell is single-input");
                applied += 1;
            }
        }
    }

    let min_period = graph.min_period();
    let (mutated, _) = graph.into_parts();
    let report = check_equiv(&golden, &lib, &mutated, &lib).expect("checker runs");
    EcoFuzzOutcome {
        seed,
        workload,
        ecos_applied: applied,
        min_period_ps: min_period.value(),
        equivalent: report.is_equivalent(),
        effort: report.effort,
    }
}

/// Runs `count` seeded random ECO sequences of `ecos` edits each on a
/// pool of `threads` workers, proving every mutated netlist equivalent
/// to its golden. The outcome vector (timing numbers, verdicts, and
/// checker effort counters alike) is deterministic: identical at any
/// `threads`, which the fuzz test tier asserts by running it at 1 and 4.
pub fn eco_equivalence_fuzz(count: usize, ecos: usize, threads: usize) -> Vec<EcoFuzzOutcome> {
    let seeds: Vec<u64> = (0..count as u64).collect();
    Pool::with_threads(threads).map(&seeds, |_, &seed| eco_run(seed, ecos))
}
