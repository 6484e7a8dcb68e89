//! K-feasible cut enumeration and truth-table utilities over the arena
//! netlist — the analysis layer under the synthesis crate's rewrite
//! engine.
//!
//! A *cut* of a net `r` is a set of nets (the *leaves*) such that every
//! path from a primary input or register output to `r` passes through a
//! leaf; the logic between the leaves and `r` (the *cone*) computes a
//! function of at most [`CUT_INPUTS`] variables, recorded here as a
//! 16-bit truth table. Cuts are enumerated bottom-up in topological
//! order, merging fan-in cut sets per instance and keeping a bounded,
//! deterministically ranked *priority* subset per net.
//!
//! Cut boundaries: primary inputs, undriven nets, sequential (register)
//! outputs, and — deliberately — the outputs of *wide* cells whose
//! fan-in spills into the arena's overflow area (`> INLINE_FANIN` pins).
//! Wide cells cannot appear inside a 4-input cone anyway, and keeping
//! the enumerator off the overflow arena means a rewrite pass never has
//! to reason about out-of-line pin storage.

use crate::ids::NetId;
use crate::netlist::{Netlist, INLINE_FANIN};
use crate::stats::net_levels;

/// Maximum cut width: cones are functions of at most this many leaves.
pub const CUT_INPUTS: usize = 4;

/// Truth table of projection variable `i` over [`CUT_INPUTS`] = 4
/// variables: bit `m` is set when bit `i` of minterm `m` is set.
pub const VAR_TT: [u16; CUT_INPUTS] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// One cut: up to [`CUT_INPUTS`] leaf nets (sorted by id) plus the
/// cone's truth table over those leaves (leaf 0 is variable 0, the
/// least-significant minterm bit; unused variables are don't-cares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    leaves: [NetId; CUT_INPUTS],
    len: u8,
    /// Truth table of the cone over the cut leaves.
    pub tt: u16,
}

impl Cut {
    /// The trivial cut `{net}` — the identity function of one leaf.
    pub fn trivial(net: NetId) -> Cut {
        Cut {
            leaves: [net; CUT_INPUTS],
            len: 1,
            tt: VAR_TT[0],
        }
    }

    /// The leaf nets, sorted by id.
    pub fn leaves(&self) -> &[NetId] {
        &self.leaves[..self.len as usize]
    }

    /// `true` for the single-leaf identity cut.
    pub fn is_trivial(&self) -> bool {
        self.len == 1
    }
}

/// Variables of `tt` (over [`CUT_INPUTS`] vars) the function actually
/// depends on, as a bitmask.
pub fn tt_support(tt: u16) -> u8 {
    let mut mask = 0u8;
    for i in 0..CUT_INPUTS {
        if cofactor(tt, i, true) != cofactor(tt, i, false) {
            mask |= 1 << i;
        }
    }
    mask
}

/// Cofactor of `tt` with variable `var` fixed to `value`, still
/// expressed over 4 variables (the fixed variable becomes don't-care).
pub fn cofactor(tt: u16, var: usize, value: bool) -> u16 {
    let mut out = 0u16;
    for m in 0..16u16 {
        let src = if value {
            m | (1 << var)
        } else {
            m & !(1 << var)
        };
        if tt & (1 << src) != 0 {
            out |= 1 << m;
        }
    }
    out
}

/// An NPN transform: permute inputs, negate a subset of inputs, negate
/// the output. [`apply_npn`] composes them as
/// `g(x0..x3) = f(x[perm[0]] ^ n0, .., x[perm[3]] ^ n3) ^ out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpnTransform {
    /// `perm[j]` is the source variable feeding position `j` of `f`.
    pub perm: [u8; CUT_INPUTS],
    /// Input-negation mask (bit `j` negates the variable fed to `f`'s
    /// position `j`).
    pub input_neg: u8,
    /// Negate the output.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub fn identity() -> NpnTransform {
        NpnTransform {
            perm: [0, 1, 2, 3],
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Applies `t` to `tt`: returns `g` with
/// `g(x) = f(x[t.perm[0]] ^ n0, ..) ^ t.output_neg`.
pub fn apply_npn(tt: u16, t: &NpnTransform) -> u16 {
    let mut out = 0u16;
    for m in 0..16u16 {
        // Build f's argument minterm from g's minterm m.
        let mut src = 0u16;
        for (j, &p) in t.perm.iter().enumerate() {
            let bit = (m >> p) & 1 != 0;
            let bit = bit ^ (t.input_neg >> j & 1 != 0);
            if bit {
                src |= 1 << j;
            }
        }
        let mut v = tt & (1 << src) != 0;
        v ^= t.output_neg;
        if v {
            out |= 1 << m;
        }
    }
    out
}

const PERMS: [[u8; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// NPN-canonical form of `tt`: the minimum table over all 24 input
/// permutations × 16 input negations × 2 output negations, with the
/// transform that produces it. Two truth tables share a canonical form
/// iff they are NPN-equivalent — the key of the rewrite engine's
/// replacement library.
pub fn npn_canon(tt: u16) -> (u16, NpnTransform) {
    let mut best = tt;
    let mut best_t = NpnTransform::identity();
    for perm in PERMS {
        for input_neg in 0..16u8 {
            for output_neg in [false, true] {
                let t = NpnTransform {
                    perm,
                    input_neg,
                    output_neg,
                };
                let got = apply_npn(tt, &t);
                if got < best {
                    best = got;
                    best_t = t;
                }
            }
        }
    }
    (best, best_t)
}

/// Remaps `tt` (over `from` leaves) onto the `to` leaf set (a superset
/// of `from`, both sorted): variable `j` of the result reads the `to`
/// position of `from[j]`.
fn remap_tt(tt: u16, from: &[NetId], to: &[NetId]) -> u16 {
    let mut pos = [0usize; CUT_INPUTS];
    for (j, leaf) in from.iter().enumerate() {
        pos[j] = to.iter().position(|l| l == leaf).expect("superset leaf");
    }
    let mut out = 0u16;
    for m in 0..16u16 {
        let mut src = 0u16;
        for (j, &p) in pos.iter().enumerate().take(from.len()) {
            if (m >> p) & 1 != 0 {
                src |= 1 << j;
            }
        }
        if tt & (1 << src) != 0 {
            out |= 1 << m;
        }
    }
    out
}

/// Merges two sorted leaf sets; `None` when the union exceeds
/// [`CUT_INPUTS`].
fn merge_leaves(a: &[NetId], b: &[NetId]) -> Option<([NetId; CUT_INPUTS], usize)> {
    let mut out = [NetId(u32::MAX); CUT_INPUTS];
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x == y {
                    i += 1;
                    j += 1;
                    x
                } else if x < y {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition"),
        };
        if n == CUT_INPUTS {
            return None;
        }
        out[n] = next;
        n += 1;
    }
    Some((out, n))
}

/// Per-net priority cut sets for the whole netlist, indexed by net id.
///
/// Every net carries its trivial cut first; nets whose driver is
/// combinational with in-line fan-in additionally carry up to
/// `max_cuts − 1` merged cuts, ranked by (Σ leaf level, leaf count,
/// leaf ids) — deeper cones first, deterministically. The ranking and
/// the bottom-up merge order are pure functions of the netlist, so the
/// result is identical across thread counts and runs.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle (cuts are defined
/// over an acyclic cone structure).
pub fn enumerate_cuts(netlist: &Netlist, max_cuts: usize) -> Vec<Vec<Cut>> {
    let order = netlist
        .topo_order()
        .expect("cut enumeration requires an acyclic netlist");
    let levels = net_levels(netlist);
    let mut cuts: Vec<Vec<Cut>> = (0..netlist.net_count())
        .map(|i| vec![Cut::trivial(NetId(i as u32))])
        .collect();
    let max_merged = max_cuts.saturating_sub(1).max(1);
    let mut ins = [false; CUT_INPUTS];
    for &inst_id in order {
        let inst = netlist.instance(inst_id);
        // Boundaries: sequential outputs restart cones; wide cells live
        // in the fan-in overflow arena and are never interior to a
        // 4-feasible cone — both keep only the trivial cut.
        if inst.is_sequential() || inst.fanin().len() > INLINE_FANIN {
            continue;
        }
        let fanin = inst.fanin();
        debug_assert!(
            fanin.len() <= INLINE_FANIN,
            "cut enumerator must not read the fan-in overflow arena"
        );
        let f = inst.function();
        let root = inst.out();
        let mut merged: Vec<Cut> = Vec::new();
        // Cross product of fan-in cut sets, depth-first with early
        // leaf-set overflow pruning.
        let mut stack: Vec<(usize, [NetId; CUT_INPUTS], usize, [u16; CUT_INPUTS])> =
            vec![(0, [NetId(u32::MAX); CUT_INPUTS], 0, [0; CUT_INPUTS])];
        while let Some((pin, leaves, nleaves, tts)) = stack.pop() {
            if pin == fanin.len() {
                // Evaluate the cell function bitwise over the minterms.
                let mut tt = 0u16;
                for m in 0..16u16 {
                    for (j, t) in tts.iter().enumerate().take(fanin.len()) {
                        ins[j] = t & (1 << m) != 0;
                    }
                    if f.eval(&ins[..fanin.len()]) {
                        tt |= 1 << m;
                    }
                }
                merged.push(Cut {
                    leaves,
                    len: nleaves as u8,
                    tt,
                });
                continue;
            }
            for cut in &cuts[fanin[pin].index()] {
                let Some((new_leaves, n)) = merge_leaves(&leaves[..nleaves], cut.leaves()) else {
                    continue;
                };
                let mut new_tts = tts;
                // Remap the already-chosen pins onto the grown leaf set,
                // then add this pin's table.
                for (j, t) in tts.iter().enumerate().take(pin) {
                    new_tts[j] = remap_tt(*t, &leaves[..nleaves], &new_leaves[..n]);
                }
                new_tts[pin] = remap_tt(cut.tt, cut.leaves(), &new_leaves[..n]);
                stack.push((pin + 1, new_leaves, n, new_tts));
            }
        }
        // Deterministic priority ranking: deeper cones (smaller leaf
        // levels relative to the root) first.
        merged.sort_by_key(|c| {
            let depth_sum: usize = c.leaves().iter().map(|l| levels[l.index()]).sum();
            let ids: Vec<u32> = c.leaves().iter().map(|l| l.0).collect();
            (depth_sum, c.len, ids)
        });
        merged.dedup_by_key(|c| (c.leaves.to_vec(), c.len));
        merged.truncate(max_merged);
        let slot = &mut cuts[root.index()];
        slot.extend(merged);
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::netlist::NetDriver;
    use crate::Simulator;
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn npn_canon_identifies_equivalent_functions() {
        // AND(a, b) and NOR(a', b') = AND again; OR via output negation.
        let and2 = VAR_TT[0] & VAR_TT[1];
        let or2 = VAR_TT[0] | VAR_TT[1];
        let nand2 = !and2;
        assert_eq!(npn_canon(and2).0, npn_canon(nand2).0, "N-equivalence");
        assert_eq!(npn_canon(and2).0, npn_canon(or2).0, "input-negation class");
        let xor = VAR_TT[0] ^ VAR_TT[1];
        assert_ne!(npn_canon(and2).0, npn_canon(xor).0);
        // The transform round-trips.
        let (canon, t) = npn_canon(0x1AC5);
        assert_eq!(apply_npn(0x1AC5, &t), canon);
    }

    #[test]
    fn npn_canon_invariant_under_random_transforms() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..50 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tt = x as u16;
            let t = NpnTransform {
                perm: PERMS[(x >> 16) as usize % 24],
                input_neg: (x >> 24) as u8 & 0xF,
                output_neg: x >> 32 & 1 != 0,
            };
            let tt2 = apply_npn(tt, &t);
            assert_eq!(npn_canon(tt).0, npn_canon(tt2).0, "tt {tt:#06x}");
        }
    }

    #[test]
    fn support_and_cofactors() {
        let f = (VAR_TT[0] & VAR_TT[1]) | VAR_TT[3];
        assert_eq!(tt_support(f), 0b1011);
        assert_eq!(cofactor(f, 3, true), 0xFFFF);
        assert_eq!(cofactor(f, 3, false), VAR_TT[0] & VAR_TT[1]);
    }

    /// Simulation cross-check: every enumerated cut's truth table must
    /// match the cone it claims to summarize, on every leaf assignment.
    #[test]
    fn cut_truth_tables_match_simulation() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 4).expect("alu4");
        let cuts = enumerate_cuts(&n, 6);
        let mut sim = Simulator::new(&n, &lib);
        let inputs = n.inputs().to_vec();
        // A few random primary-input vectors; for each, check every
        // non-trivial cut agrees with the simulated cone value.
        let mut x = 0xD1CEu64;
        for _ in 0..8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for (i, (name, _)) in inputs.iter().enumerate() {
                sim.set_input(name, x >> i & 1 != 0);
            }
            sim.eval_comb();
            for (id, _) in n.iter_nets() {
                for cut in &cuts[id.index()] {
                    if cut.is_trivial() {
                        continue;
                    }
                    let mut m = 0u16;
                    for (j, leaf) in cut.leaves().iter().enumerate() {
                        if sim.value(*leaf) {
                            m |= 1 << j;
                        }
                    }
                    let want = sim.value(id);
                    let got = cut.tt & (1 << m) != 0;
                    assert_eq!(got, want, "net {} cut {:?}", id.index(), cut.leaves());
                }
            }
        }
    }

    #[test]
    fn sequential_outputs_are_cut_boundaries() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::counter(&lib, 4).expect("counter4");
        let cuts = enumerate_cuts(&n, 6);
        for (id, net) in n.iter_nets() {
            if let Some(NetDriver::Instance(inst)) = net.driver() {
                if n.instance(inst).is_sequential() {
                    assert_eq!(cuts[id.index()].len(), 1, "register output has cuts");
                    assert!(cuts[id.index()][0].is_trivial());
                }
            }
        }
    }
}
