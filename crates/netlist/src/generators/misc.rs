//! Small combinational blocks: mux trees, parity, comparators.

use asicgap_cells::Library;

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::ids::NetId;
use crate::netlist::Netlist;

/// An `n`-way multiplexer tree (`n` a power of two): data inputs
/// `d0..d{n-1}`, select inputs `s0..s{k-1}` (LSB first), output `y`.
///
/// # Errors
///
/// [`NetlistError::Invalid`] if `n` is not a power of two or `n < 2`
/// (the size arrives from request text, so it is an answer, not a
/// panic); otherwise propagates [`NetlistError`] if the library lacks
/// required primitives.
pub fn mux_tree(lib: &Library, n: usize) -> Result<Netlist, NetlistError> {
    if n < 2 || !n.is_power_of_two() {
        return Err(NetlistError::Invalid {
            summary: format!("mux tree size must be a power of two >= 2, got {n}"),
        });
    }
    let k = n.trailing_zeros() as usize;
    let mut b = NetlistBuilder::new(format!("mux{n}"), lib);
    let mut level: Vec<NetId> = (0..n).map(|i| b.input(format!("d{i}"))).collect();
    let sel: Vec<NetId> = (0..k).map(|i| b.input(format!("s{i}"))).collect();
    for &s in &sel {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks(2) {
            next.push(b.mux2(pair[0], pair[1], s)?);
        }
        level = next;
    }
    b.output("y", level[0]);
    b.finish()
}

/// A `width`-input parity (XOR) tree: inputs `d0..`, output `p`.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the library lacks required primitives.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn parity_tree(lib: &Library, width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "parity width must be positive");
    let mut b = NetlistBuilder::new(format!("parity{width}"), lib);
    let ins: Vec<NetId> = (0..width).map(|i| b.input(format!("d{i}"))).collect();
    let p = b.xor_tree(&ins)?;
    b.output("p", p);
    b.finish()
}

/// A `width`-bit equality comparator: inputs `a0..`, `b0..`, output `eq`.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the library lacks required primitives.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn equality_comparator(lib: &Library, width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "comparator width must be positive");
    let mut b = NetlistBuilder::new(format!("eq{width}"), lib);
    let a: Vec<NetId> = (0..width).map(|i| b.input(format!("a{i}"))).collect();
    let bv: Vec<NetId> = (0..width).map(|i| b.input(format!("b{i}"))).collect();
    let mut bits = Vec::with_capacity(width);
    for i in 0..width {
        bits.push(b.xnor2(a[i], bv[i])?);
    }
    let eq = b.and_tree(&bits)?;
    b.output("eq", eq);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{to_bits, Simulator};
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn mux_tree_selects_correct_input() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = mux_tree(&lib, 8).expect("mux8");
        let mut sim = Simulator::new(&n, &lib);
        for sel in 0..8u64 {
            let mut inputs = vec![false; 8];
            inputs[sel as usize] = true;
            inputs.extend(to_bits(sel, 3));
            let out = sim.run_comb(&inputs);
            assert!(out[0], "selected input {sel} is high");
        }
    }

    #[test]
    fn mux_tree_refuses_sizes_that_are_not_a_power_of_two() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        for n in [0, 1, 3, 6, 12] {
            assert!(
                matches!(mux_tree(&lib, n), Err(NetlistError::Invalid { .. })),
                "mux{n}"
            );
        }
    }

    #[test]
    fn parity_counts_ones() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = parity_tree(&lib, 16).expect("parity16");
        let mut sim = Simulator::new(&n, &lib);
        for v in [0u64, 1, 3, 0xFFFF, 0x8001, 0x1234] {
            let out = sim.run_comb(&to_bits(v, 16));
            assert_eq!(out[0], v.count_ones() % 2 == 1, "parity of {v:#x}");
        }
    }

    #[test]
    fn equality_comparator_detects_equal_words() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::poor().build(&tech);
        let n = equality_comparator(&lib, 8).expect("eq8");
        let mut sim = Simulator::new(&n, &lib);
        for (a, b) in [(5u64, 5u64), (5, 6), (0, 0), (255, 254)] {
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            let out = sim.run_comb(&inputs);
            assert_eq!(out[0], a == b, "{a} == {b}");
        }
    }
}
