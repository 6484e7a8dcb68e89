//! A composite processor-style datapath: operand bypass muxes, an ALU,
//! a barrel shifter, and a writeback select — the closest thing in this
//! workspace to one pipeline stage of the §2 processors. Used as the
//! large end-to-end workload for the scenario experiments.

use asicgap_cells::Library;

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::ids::NetId;
use crate::netlist::Netlist;

/// A `width`-bit execute-stage datapath.
///
/// Interface:
/// - operands `a0..`, `b0..`, a forwarded value `f0..` with bypass
///   selects `bypa`, `bypb`;
/// - ALU controls `cin`, `op0`, `op1` (add/and/or/xor as in
///   [`crate::generators::alu`]);
/// - shift amount `sh0..sh{k-1}` and a final select `wsel`
///   (0 = ALU result, 1 = shifted operand);
/// - outputs `r0..r{w-1}` and `cout`.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the library lacks required primitives.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn datapath(lib: &Library, width: usize) -> Result<Netlist, NetlistError> {
    assert!(width >= 2, "datapath width must be at least 2");
    let mut b = NetlistBuilder::new(format!("datapath{width}"), lib);

    let a_in: Vec<NetId> = (0..width).map(|i| b.input(format!("a{i}"))).collect();
    let b_in: Vec<NetId> = (0..width).map(|i| b.input(format!("b{i}"))).collect();
    let fwd: Vec<NetId> = (0..width).map(|i| b.input(format!("f{i}"))).collect();
    let bypa = b.input("bypa");
    let bypb = b.input("bypb");
    let cin = b.input("cin");
    let op0 = b.input("op0");
    let op1 = b.input("op1");
    let stages = usize::BITS as usize - (width - 1).leading_zeros() as usize;
    let sh: Vec<NetId> = (0..stages).map(|i| b.input(format!("sh{i}"))).collect();
    let wsel = b.input("wsel");

    // Operand bypass: forwarded result can replace either operand.
    let mut a = Vec::with_capacity(width);
    let mut bv = Vec::with_capacity(width);
    for i in 0..width {
        a.push(b.mux2(a_in[i], fwd[i], bypa)?);
        bv.push(b.mux2(b_in[i], fwd[i], bypb)?);
    }

    // ALU core (ripple adder + bitwise units + select).
    let mut carry = cin;
    let mut alu = Vec::with_capacity(width);
    for i in 0..width {
        let s = b.xor3(a[i], bv[i], carry)?;
        let c = b.maj3(a[i], bv[i], carry)?;
        let and_r = b.and2(a[i], bv[i])?;
        let or_r = b.or2(a[i], bv[i])?;
        let xor_r = b.xor2(a[i], bv[i])?;
        let lo = b.mux2(s, and_r, op0)?;
        let hi = b.mux2(or_r, xor_r, op0)?;
        alu.push(b.mux2(lo, hi, op1)?);
        carry = c;
    }

    // Barrel shifter on operand A (logical left, zero fill).
    let mut cur = a.clone();
    for (k, &s) in sh.iter().enumerate() {
        let amount = 1usize << k;
        let ns = b.inv(s)?;
        let mut next = Vec::with_capacity(width);
        for j in 0..width {
            if j < amount {
                next.push(b.and2(cur[j], ns)?);
            } else {
                next.push(b.mux2(cur[j], cur[j - amount], s)?);
            }
        }
        cur = next;
    }

    // Writeback select.
    for i in 0..width {
        let r = b.mux2(alu[i], cur[i], wsel)?;
        b.output(format!("r{i}"), r);
    }
    b.output("cout", carry);
    b.finish()
}

/// Reference semantics of [`datapath`], for tests.
#[allow(clippy::too_many_arguments)]
pub fn datapath_reference(
    width: usize,
    a: u64,
    b: u64,
    f: u64,
    bypa: bool,
    bypb: bool,
    cin: bool,
    op: crate::generators::AluOp,
    shift: u64,
    wsel: bool,
) -> u64 {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let a_eff = if bypa { f } else { a } & mask;
    let b_eff = if bypb { f } else { b } & mask;
    let alu = op.apply(a_eff, b_eff, cin, width);
    let shifted = (a_eff << shift) & mask;
    if wsel {
        shifted
    } else {
        alu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::AluOp;
    use crate::sim::{from_bits, to_bits, Simulator};
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn datapath_matches_reference_semantics() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let width = 8;
        let n = datapath(&lib, width).expect("datapath builds");
        let mut sim = Simulator::new(&n, &lib);
        let cases = [
            (
                200u64,
                100u64,
                7u64,
                false,
                false,
                false,
                AluOp::Add,
                0u64,
                false,
            ),
            (200, 100, 7, true, false, true, AluOp::Add, 0, false),
            (0x5A, 0xA5, 0xFF, false, true, false, AluOp::Xor, 0, false),
            (0x0F, 0, 0, false, false, false, AluOp::And, 3, true),
            (1, 0, 0, false, false, false, AluOp::Or, 7, true),
        ];
        for &(a, b, f, bypa, bypb, cin, op, shift, wsel) in &cases {
            let mut inputs = to_bits(a, width);
            inputs.extend(to_bits(b, width));
            inputs.extend(to_bits(f, width));
            inputs.push(bypa);
            inputs.push(bypb);
            inputs.push(cin);
            inputs.push(op as u8 & 1 != 0);
            inputs.push(op as u8 & 2 != 0);
            inputs.extend(to_bits(shift, 3));
            inputs.push(wsel);
            let out = sim.run_comb(&inputs);
            let r = from_bits(&out[..width]);
            let want = datapath_reference(width, a, b, f, bypa, bypb, cin, op, shift, wsel);
            assert_eq!(
                r, want,
                "{a},{b},{f} byp({bypa},{bypb}) {op:?} <<{shift} w{wsel}"
            );
        }
    }

    #[test]
    fn datapath_is_substantially_larger_than_the_alu() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let alu = crate::generators::alu(&lib, 16).expect("alu16");
        let dp = datapath(&lib, 16).expect("datapath16");
        assert!(dp.instance_count() > 3 * alu.instance_count() / 2);
    }
}
