//! Simulated-annealing placement.
//!
//! §5.2: "Custom ICs are typically manually floorplanned. A number of tools
//! are now reaching the ASIC market to facilitate chip-level floorplanning."
//! This is that tool: a classic swap-based annealer minimising total HPWL.
//!
//! # The kernel, and why it is exact
//!
//! A swap of two cells changes only the nets those cells touch, so a move
//! costs `after − before` summed over that short list. Three things are
//! built in one pass per call so that a move allocates nothing: each
//! instance's touched nets (ascending, deduplicated) and each net's pins as
//! flat cell indices, with the bounding box of its fixed pins (ports, the
//! undriven origin) folded in ahead of time — the `PinViews` — and `cur`,
//! the current HPWL of every net. `before` is read from `cur`; `after` is evaluated once
//! into a scratch buffer and written back to `cur` only when the move is
//! accepted.
//!
//! The placements are bit-identical to recomputing every touched net with
//! [`Placement::net_hpwl`] before and after each swap, because no
//! arithmetic is reordered or replaced:
//!
//! - a net's value is `(max_x − min_x) + (max_y − min_y)` over exact
//!   `min`/`max` folds of the same pin coordinates. `min`/`max` of finite,
//!   non-negative die coordinates round nothing and do not depend on the
//!   order the pins are visited in, so folding the fixed pins first yields
//!   the same four extremes, hence the same two subtractions and one add;
//! - a cached `cur[net]` was produced by that evaluation under a placement
//!   that is still current for every pin of the net (an accepted move
//!   rewrites every net either cell touches; a rejected one restores the
//!   cells and writes nothing), so it holds the very bits a fresh
//!   evaluation would;
//! - `before` and `after` are `Iterator::sum` folds, left to right, over
//!   the touched nets in ascending `NetId` order — the order and the fold
//!   a sort-and-dedup of the two cells' nets gives — and the returned
//!   total is the same fold over every net in id order, which is what
//!   [`Placement::total_hpwl`] computes. No delta is ever accumulated.
//!
//! The RNG draw sequence is part of the result: two indices per move, and
//! one `uniform()` only when `delta > 0`. The test-only `oracle` module
//! holds the recompute-from-scratch loop and checks all of this
//! differentially.

use asicgap_netlist::{InstId, NetDriver, NetId, Netlist};
use asicgap_tech::Rng64;

use crate::placement::Placement;

/// Seed of an anneal. Every anneal runs one schedule: 25 temperature
/// steps of 400 moves, cooling by 0.88 per step from twice the mean
/// random-swap |ΔHPWL|.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealOptions {
    /// RNG seed.
    pub seed: u64,
}

impl AnnealOptions {
    /// An anneal seeded by `seed`.
    pub fn quick(seed: u64) -> AnnealOptions {
        AnnealOptions { seed }
    }
}

/// A cooling schedule: [`SCHEDULE`], or the oracle's short one.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Moves attempted per temperature step.
    moves_per_temp: usize,
    /// Number of temperature steps.
    temp_steps: usize,
    /// Initial temperature as a fraction of the mean |ΔHPWL| of random
    /// swaps.
    initial_temp_factor: f64,
    /// Geometric cooling rate per step.
    cooling: f64,
}

/// The schedule of every anneal (see [`AnnealOptions`]).
const SCHEDULE: Schedule = Schedule {
    moves_per_temp: 400,
    temp_steps: 25,
    initial_temp_factor: 2.0,
    cooling: 0.88,
};

/// Tag on the first pin entry of a net that has fixed pins: the low bits
/// index [`PinViews::boxes`] instead of a cell. The arena guards instance
/// ids below 2³¹, so a cell index never carries the bit.
const FIXED: u32 = 1 << 31;

/// Every view index is a `u32`, like the arena's own ids; anything that
/// would not fit (an offset past 2³² pins) stops here rather than wrap.
fn ix(i: usize) -> u32 {
    u32::try_from(i).expect("placement view index exceeds u32")
}

/// The netlist as the move loop reads it: flat, immutable, built once per
/// call.
struct PinViews {
    /// Instances allowed to move.
    movable: Vec<usize>,
    /// CSR over instances: `nets[net_off[i]..net_off[i + 1]]` are the nets
    /// instance `i` touches (fan-in and output), ascending, deduplicated.
    net_off: Vec<u32>,
    nets: Vec<u32>,
    /// CSR over nets: `pins[pin_off[j]..pin_off[j + 1]]` are the cell
    /// indices of net `j`'s driver and sinks. If the net has fixed pins
    /// the run starts with `FIXED | b`, `boxes[b]` being their box.
    pin_off: Vec<u32>,
    pins: Vec<u32>,
    /// `[min_x, max_x, min_y, max_y]` of the fixed pins (input port or the
    /// undriven origin, output port) of the nets that have any.
    boxes: Vec<[f64; 4]>,
}

impl PinViews {
    /// The views, and `cur`: every net's HPWL under `placement` (evaluated
    /// while its pin run is still hot). `None` when there is nothing to anneal:
    /// fewer than two instances, or fewer than two left movable by `frozen`.
    fn build(
        netlist: &Netlist,
        placement: &Placement,
        frozen: &[bool],
    ) -> Option<(PinViews, Vec<f64>)> {
        let n = netlist.instance_count();
        if n < 2 {
            return None;
        }
        assert!(
            frozen.is_empty() || frozen.len() == n,
            "frozen mask must be empty or cover every instance"
        );
        let movable: Vec<usize> = (0..n)
            .filter(|&i| frozen.is_empty() || !frozen[i])
            .collect();
        if movable.len() < 2 {
            return None;
        }

        let mut net_off = Vec::with_capacity(n + 1);
        let mut nets: Vec<u32> = Vec::with_capacity(4 * n);
        net_off.push(0);
        for i in 0..n {
            let inst = InstId::from_index(i);
            let start = nets.len();
            nets.extend(netlist.fanin(inst).iter().map(|net| ix(net.index())));
            nets.push(ix(netlist.out(inst).index()));
            nets[start..].sort_unstable();
            // A fan-in may name one net twice: keep one of each.
            let mut kept = start + 1;
            for k in start + 1..nets.len() {
                if nets[k] != nets[kept - 1] {
                    nets[kept] = nets[k];
                    kept += 1;
                }
            }
            nets.truncate(kept);
            net_off.push(ix(nets.len()));
        }

        // The port of an output net is the first one listed for it, as
        // `net_hpwl`'s `position()` finds it.
        let mut ports: Vec<(u32, usize)> = netlist
            .outputs()
            .iter()
            .enumerate()
            .map(|(k, (_, net))| (ix(net.index()), k))
            .collect();
        ports.sort_unstable();
        ports.dedup_by_key(|port| port.0);
        let mut ports = ports.into_iter().peekable();

        let net_count = netlist.net_count();
        let mut pin_off = Vec::with_capacity(net_count + 1);
        let mut pins: Vec<u32> = Vec::with_capacity(4 * n);
        let mut boxes = Vec::new();
        let mut cur = Vec::with_capacity(net_count);
        pin_off.push(0);
        for j in 0..net_count {
            let start = pins.len();
            let net = NetId::from_index(j);
            let driver = netlist.driver(net);
            let mut fixed = match driver {
                Some(NetDriver::Instance(_)) => None,
                Some(NetDriver::PrimaryInput(k)) => Some(placement.inputs[k]),
                None => Some((0.0, 0.0)),
            }
            .map(|(x, y)| [x, x, y, y]);
            let port = ports.next_if(|port| port.0 == ix(j));
            if let Some((_, k)) = port.filter(|_| netlist.net(net).is_output()) {
                let (x, y) = placement.outputs[k];
                let b = fixed.get_or_insert([x, x, y, y]);
                *b = [b[0].min(x), b[1].max(x), b[2].min(y), b[3].max(y)];
            }
            if let Some(b) = fixed {
                let at = ix(boxes.len());
                assert!(at & FIXED == 0, "fixed-pin box index exceeds 31 bits");
                pins.push(FIXED | at);
                boxes.push(b);
            }
            if let Some(NetDriver::Instance(inst)) = driver {
                pins.push(ix(inst.index()));
            }
            pins.extend(netlist.sinks(net).iter().map(|s| ix(s.inst.index())));
            pin_off.push(ix(pins.len()));
            cur.push(run_hpwl(&boxes, &placement.cells, &pins[start..]));
        }

        let views = PinViews {
            movable,
            net_off,
            nets,
            pin_off,
            pins,
            boxes,
        };
        Some((views, cur))
    }

    /// Nets touched by instance `i`, ascending.
    fn nets_of(&self, i: usize) -> &[u32] {
        &self.nets[self.net_off[i] as usize..self.net_off[i + 1] as usize]
    }

    /// HPWL of `net` under `cells`: bit-equal to [`Placement::net_hpwl`]
    /// (see the module docs).
    fn hpwl(&self, cells: &[(f64, f64)], net: u32) -> f64 {
        let (from, to) = (self.pin_off[net as usize], self.pin_off[net as usize + 1]);
        run_hpwl(&self.boxes, cells, &self.pins[from as usize..to as usize])
    }
}

/// HPWL of one net's pin run. Every net has at least one entry — a driver
/// cell, or the box holding its input port or the origin.
fn run_hpwl(boxes: &[[f64; 4]], cells: &[(f64, f64)], run: &[u32]) -> f64 {
    let (&first, rest) = run
        .split_first()
        .expect("a net has a driver or a fixed pin");
    let [mut min_x, mut max_x, mut min_y, mut max_y] = if first & FIXED != 0 {
        boxes[(first & !FIXED) as usize]
    } else {
        let (x, y) = cells[first as usize];
        [x, x, y, y]
    };
    for &pin in rest {
        let (x, y) = cells[pin as usize];
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    (max_x - min_x) + (max_y - min_y)
}

/// One chain's mutable state: the per-net HPWL cache and the two scratch
/// buffers a move reuses.
struct Chain<'v> {
    views: &'v PinViews,
    /// Current HPWL of every net, indexed by net id.
    cur: Vec<f64>,
    /// Nets touched by the move in flight, ascending.
    touched: Vec<u32>,
    /// Their HPWL after the swap, parallel to `touched`.
    fresh: Vec<f64>,
}

impl Chain<'_> {
    /// Swaps cells `a` and `b` and returns the HPWL change; `touched` and
    /// `fresh` describe the move until the next one.
    fn swap(&mut self, cells: &mut [(f64, f64)], a: usize, b: usize) -> f64 {
        let views = self.views;
        // Merge the two ascending lists, keeping one of each shared net.
        let (mut of_a, mut of_b) = (views.nets_of(a), views.nets_of(b));
        self.touched.clear();
        while let (Some(&x), Some(&y)) = (of_a.first(), of_b.first()) {
            self.touched.push(x.min(y));
            of_a = &of_a[usize::from(x <= y)..];
            of_b = &of_b[usize::from(y <= x)..];
        }
        self.touched.extend_from_slice(of_a);
        self.touched.extend_from_slice(of_b);

        let before: f64 = self.touched.iter().map(|&net| self.cur[net as usize]).sum();
        cells.swap(a, b);
        self.fresh.clear();
        self.fresh
            .extend(self.touched.iter().map(|&net| views.hpwl(cells, net)));
        let after: f64 = self.fresh.iter().copied().sum();
        after - before
    }

    /// Keeps the last [`Chain::swap`]: its fresh values become current.
    fn commit(&mut self) {
        for (&net, &hpwl) in self.touched.iter().zip(&self.fresh) {
            self.cur[net as usize] = hpwl;
        }
    }
}

/// Anneals one chain seeded by `seed` over `views`, starting from
/// `placement` and its per-net HPWL `cur`, and returns that cache
/// coherent with the final `placement`.
fn anneal_chain(
    views: &PinViews,
    cur: Vec<f64>,
    placement: &mut Placement,
    seed: u64,
    schedule: &Schedule,
) -> Vec<f64> {
    let cells = &mut placement.cells[..];
    let movable = &views.movable[..];
    let mut chain = Chain {
        views,
        cur,
        touched: Vec::new(),
        fresh: Vec::new(),
    };
    let mut rng = Rng64::new(seed);

    // Calibrate the initial temperature from random swap deltas.
    let mut deltas = 0.0;
    for _ in 0..50 {
        let a = movable[rng.index(movable.len())];
        let b = movable[rng.index(movable.len())];
        if a == b {
            continue;
        }
        let delta = chain.swap(cells, a, b);
        cells.swap(a, b);
        deltas += delta.abs();
    }
    let mut temp = (deltas / 50.0).max(1.0) * schedule.initial_temp_factor;

    for _ in 0..schedule.temp_steps {
        for _ in 0..schedule.moves_per_temp {
            let a = movable[rng.index(movable.len())];
            let b = movable[rng.index(movable.len())];
            if a == b {
                continue;
            }
            let delta = chain.swap(cells, a, b);
            if delta <= 0.0 || rng.uniform() < (-delta / temp).exp() {
                chain.commit();
            } else {
                cells.swap(a, b);
            }
        }
        temp *= schedule.cooling;
    }
    chain.cur
}

/// Anneals `placement` in place by swapping instance positions, returning
/// the final total HPWL in µm. Only cell positions move; the die and port
/// positions are fixed. Instances whose index appears in `frozen` never
/// move (used by region-constrained floorplans to pin cells).
///
/// Deterministic for a given seed.
pub fn anneal_placement(
    netlist: &Netlist,
    placement: &mut Placement,
    options: &AnnealOptions,
    frozen: &[bool],
) -> f64 {
    anneal_with(netlist, placement, options.seed, &SCHEDULE, frozen)
}

/// [`anneal_placement`] under any schedule (the oracle's short one too).
fn anneal_with(
    netlist: &Netlist,
    placement: &mut Placement,
    seed: u64,
    schedule: &Schedule,
    frozen: &[bool],
) -> f64 {
    match PinViews::build(netlist, placement, frozen) {
        Some((views, cur)) => anneal_chain(&views, cur, placement, seed, schedule)
            .iter()
            .copied()
            .sum(),
        None => placement.total_hpwl(netlist).value(),
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn annealing_reduces_hpwl() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let mut p = Placement::initial(&n, &lib, 0.7);
        // Scramble first so the grid order is not already good.
        let mut rng = Rng64::new(99);
        for i in 0..p.cells.len() {
            let j = rng.index(p.cells.len());
            p.cells.swap(i, j);
        }
        let before = p.total_hpwl(&n).value();
        let after = anneal_with(&n, &mut p, 3, &SCHEDULE, &[]);
        assert!(
            after < before * 0.8,
            "annealing should cut HPWL: {before:.0} -> {after:.0}"
        );
    }

    #[test]
    fn annealing_is_deterministic() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 32).expect("parity");
        let mut p1 = Placement::initial(&n, &lib, 0.7);
        let mut p2 = Placement::initial(&n, &lib, 0.7);
        let h1 = anneal_with(&n, &mut p1, 7, &SCHEDULE, &[]);
        let h2 = anneal_with(&n, &mut p2, 7, &SCHEDULE, &[]);
        assert_eq!(h1, h2);
        assert_eq!(p1.cells, p2.cells);
    }

    #[test]
    fn public_entry_is_the_scheduled_anneal() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 16).expect("parity");
        let mut a = Placement::initial(&n, &lib, 0.7);
        let mut b = Placement::initial(&n, &lib, 0.7);
        let ha = anneal_with(&n, &mut a, 5, &SCHEDULE, &[]);
        let hb = anneal_placement(&n, &mut b, &AnnealOptions::quick(5), &[]);
        assert_eq!(ha, hb);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn frozen_cells_do_not_move() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 16).expect("parity");
        let mut p = Placement::initial(&n, &lib, 0.7);
        let mut frozen = vec![false; n.instance_count()];
        frozen[0] = true;
        let pinned = p.cells[0];
        anneal_with(&n, &mut p, 11, &SCHEDULE, &frozen);
        assert_eq!(p.cells[0], pinned);
    }
}
