//! A small ALU: the representative "entire path" workload of the paper's
//! §9 caveat ("when such elements are integrated into an entire path, such
//! as in an ALU, their individual significance is naturally reduced").

use asicgap_cells::Library;

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::ids::NetId;
use crate::netlist::Netlist;

/// Operations of the generated ALU, selected by two opcode bits
/// (`op0` = LSB, `op1` = MSB); the discriminant is the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// `a + b + cin` (opcode 00).
    Add = 0b00,
    /// `a & b` (opcode 01).
    And = 0b01,
    /// `a | b` (opcode 10).
    Or = 0b10,
    /// `a ^ b` (opcode 11).
    Xor = 0b11,
}

impl AluOp {
    /// Reference semantics over `width`-bit words.
    pub fn apply(self, a: u64, b: u64, cin: bool, width: usize) -> u64 {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        match self {
            AluOp::Add => (a + b + cin as u64) & mask,
            AluOp::And => a & b & mask,
            AluOp::Or => (a | b) & mask,
            AluOp::Xor => (a ^ b) & mask,
        }
    }
}

/// A `width`-bit four-function ALU with a ripple-carry adder core.
///
/// Interface: inputs `a0..`, `b0..`, `cin`, `op0`, `op1`;
/// outputs `r0..r{w-1}`, `cout`.
///
/// The critical path runs through the carry chain and two result-select
/// muxes — a realistic unpipelined ASIC datapath with tens of FO4s at 32
/// bits.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the library lacks required primitives.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn alu(lib: &Library, width: usize) -> Result<Netlist, NetlistError> {
    assert!(width > 0, "ALU width must be positive");
    let mut b = NetlistBuilder::new(format!("alu{width}"), lib);
    let a: Vec<NetId> = (0..width).map(|i| b.input(format!("a{i}"))).collect();
    let bv: Vec<NetId> = (0..width).map(|i| b.input(format!("b{i}"))).collect();
    let cin = b.input("cin");
    let op0 = b.input("op0");
    let op1 = b.input("op1");

    // Adder core (ripple).
    let mut carry = cin;
    let mut add = Vec::with_capacity(width);
    for i in 0..width {
        let s = b.xor3(a[i], bv[i], carry)?;
        let c = b.maj3(a[i], bv[i], carry)?;
        add.push(s);
        carry = c;
    }

    // Bitwise units.
    let mut and_r = Vec::with_capacity(width);
    let mut or_r = Vec::with_capacity(width);
    let mut xor_r = Vec::with_capacity(width);
    for i in 0..width {
        and_r.push(b.and2(a[i], bv[i])?);
        or_r.push(b.or2(a[i], bv[i])?);
        xor_r.push(b.xor2(a[i], bv[i])?);
    }

    // Result select: first by op0 (add/and and or/xor), then by op1.
    for i in 0..width {
        let lo = b.mux2(add[i], and_r[i], op0)?;
        let hi = b.mux2(or_r[i], xor_r[i], op0)?;
        let r = b.mux2(lo, hi, op1)?;
        b.output(format!("r{i}"), r);
    }
    b.output("cout", carry);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{from_bits, to_bits, Simulator};
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    fn run(
        sim: &mut Simulator<'_>,
        width: usize,
        a: u64,
        b: u64,
        cin: bool,
        op: AluOp,
    ) -> (u64, bool) {
        let mut inputs = to_bits(a, width);
        inputs.extend(to_bits(b, width));
        inputs.push(cin);
        inputs.push(op as u8 & 1 != 0);
        inputs.push(op as u8 & 2 != 0);
        let out = sim.run_comb(&inputs);
        (from_bits(&out[..width]), out[width])
    }

    #[test]
    fn all_ops_match_reference() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let width = 8;
        let n = alu(&lib, width).expect("alu builds");
        let mut sim = Simulator::new(&n, &lib);
        for op in [AluOp::Add, AluOp::And, AluOp::Or, AluOp::Xor] {
            for (a, b, cin) in [
                (200u64, 100u64, false),
                (255, 255, true),
                (0x5A, 0xA5, false),
            ] {
                let (r, cout) = run(&mut sim, width, a, b, cin, op);
                assert_eq!(r, op.apply(a, b, cin, width), "{op:?} {a},{b},{cin}");
                if op == AluOp::Add {
                    assert_eq!(cout, (a + b + cin as u64) > 255, "carry of {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn alu_builds_in_poor_library_with_more_gates() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let poor = LibrarySpec::poor().build(&tech);
        let n_rich = alu(&rich, 8).expect("rich alu");
        let n_poor = alu(&poor, 8).expect("poor alu");
        assert!(n_poor.instance_count() > n_rich.instance_count());
        // And it still computes correctly.
        let mut sim = Simulator::new(&n_poor, &poor);
        let (r, _) = run(&mut sim, 8, 123, 45, false, AluOp::Add);
        assert_eq!(r, 168);
    }
}
