//! Differential oracle for the routing kernel: the search that filled
//! three grid-sized vectors per call, the `route_net` that filled a fourth
//! per net, and the Jacobi cost that binary-searched the net's own edges
//! survive here verbatim, test-only, with the negotiation loop and the
//! ECO reroute around them. Every path, route and [`RoutingResult`] the
//! kernel produces must equal theirs to the bit.
//!
//! Expiry: delete this module with the first change meant to alter routes
//! (bounding-box search, victim colouring), which re-pins E13; the kernel
//! as it then stands becomes the reference.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use asicgap_cells::LibrarySpec;
use asicgap_exec::{split_seed, Pool};
use asicgap_netlist::generators::{self, RandomLogicSpec};
use asicgap_netlist::{NetId, Netlist, NetlistError};
use asicgap_place::{anneal_placement, AnnealOptions, Placement};
use asicgap_tech::{Rng64, Technology};

use super::*;
use crate::negotiate::{
    jitter_unit, negotiate, raise_stamps, route_on, routed_net, terminals_of, RoutedNet,
    RouterOptions, RoutingResult, HISTORY_WEIGHT, JITTER, MAX_ITERATIONS, PRESENT_BASE,
    PRESENT_GROWTH,
};

// ---- The reference, as the kernel stood before generation stamps. ----

/// Calls `f(neighbor_cell, edge)` for each grid neighbour of `cell`, in
/// the fixed order west, east, south, north (part of the determinism
/// contract; the kernel unrolls the same order and edge numbering).
fn for_each_neighbor(grid: &RoutingGrid, cell: usize, mut f: impl FnMut(usize, usize)) {
    let (x, y) = grid.cell_xy(cell);
    let h0 = grid.h_edge_count();
    if x > 0 {
        f(cell - 1, y * (grid.nx - 1) + (x - 1));
    }
    if x + 1 < grid.nx {
        f(cell + 1, y * (grid.nx - 1) + x);
    }
    if y > 0 {
        f(cell - grid.nx, h0 + (y - 1) * grid.nx + x);
    }
    if y + 1 < grid.ny {
        f(cell + grid.nx, h0 + y * grid.nx + x);
    }
}

struct Entry {
    f: f64,
    g: f64,
    cell: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Entry) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Entry) -> Ordering {
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then(self.g.partial_cmp(&other.g).unwrap_or(Ordering::Equal))
            .then(other.cell.cmp(&self.cell))
    }
}

fn shortest_path_reference<C: Fn(usize) -> f64>(
    grid: &RoutingGrid,
    cost: &C,
    sources: &[usize],
    target: usize,
) -> Vec<(usize, usize)> {
    let n = grid.cell_count();
    let (tx, ty) = grid.cell_xy(target);
    let h = |c: usize| {
        let (x, y) = grid.cell_xy(c);
        (x as f64 - tx as f64).abs() * grid.pitch_x_um
            + (y as f64 - ty as f64).abs() * grid.pitch_y_um
    };

    let mut dist = vec![f64::INFINITY; n];
    let mut from: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX); n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(sources.len() * 4);
    for &s in sources {
        dist[s] = 0.0;
        heap.push(Entry {
            f: h(s),
            g: 0.0,
            cell: s,
        });
    }

    while let Some(e) = heap.pop() {
        if done[e.cell] {
            continue;
        }
        done[e.cell] = true;
        if e.cell == target {
            break;
        }
        let base = dist[e.cell];
        for_each_neighbor(grid, e.cell, |nc, edge| {
            if done[nc] {
                return;
            }
            let g = base + cost(edge);
            if g < dist[nc] {
                dist[nc] = g;
                from[nc] = (e.cell, edge);
                heap.push(Entry {
                    f: g + h(nc),
                    g,
                    cell: nc,
                });
            }
        });
    }
    assert!(done[target], "grid is connected; target must be reachable");

    let mut path = Vec::new();
    let mut c = target;
    while from[c].0 != usize::MAX {
        path.push((c, from[c].1));
        c = from[c].0;
    }
    path.reverse();
    path
}

fn route_net_reference<C: Fn(usize) -> f64>(
    grid: &RoutingGrid,
    cost: &C,
    terminals: &[usize],
) -> (Vec<u32>, usize) {
    if terminals.len() < 2 {
        return (Vec::new(), 0);
    }
    let mut in_tree = vec![false; grid.cell_count()];
    in_tree[terminals[0]] = true;
    let mut tree = vec![terminals[0]];
    let mut edges: Vec<u32> = Vec::new();
    let mut bends = 0usize;
    for &t in &terminals[1..] {
        if in_tree[t] {
            continue;
        }
        let path = shortest_path_reference(grid, cost, &tree, t);
        let mut prev_h: Option<bool> = None;
        for &(cell, edge) in &path {
            let is_h = edge < grid.h_edge_count();
            if prev_h.is_some_and(|p| p != is_h) {
                bends += 1;
            }
            prev_h = Some(is_h);
            edges.push(edge as u32);
            if !in_tree[cell] {
                in_tree[cell] = true;
                tree.push(cell);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (edges, bends)
}

fn route_on_reference(
    netlist: &Netlist,
    placement: &Placement,
    grid: RoutingGrid,
    options: &RouterOptions,
    max_iterations: usize,
) -> RoutingResult {
    let nn = netlist.net_count();
    let mut terminals: Vec<Vec<usize>> = vec![Vec::new(); nn];
    let mut escapes = vec![0.0f64; nn];
    let mut routable: Vec<usize> = Vec::new();
    for (id, _) in netlist.iter_nets() {
        let pins = placement.net_pins(netlist, id);
        if pins.len() < 2 {
            continue;
        }
        let (cells, esc) = terminals_of(&grid, &pins);
        terminals[id.index()] = cells;
        escapes[id.index()] = esc;
        routable.push(id.index());
    }

    let pool = Pool::from_env();
    let ne = grid.edge_count();
    let mut usage = vec![0u32; ne];
    let mut history = vec![0f64; ne];
    let mut routes: Vec<(Vec<u32>, usize)> = vec![(Vec::new(), 0); nn];
    let mut iterations = 0;
    let mut overflow = 0u64;

    for iter in 0..max_iterations {
        iterations = iter + 1;
        let victims: Vec<usize> = if iter == 0 {
            routable.clone()
        } else {
            routable
                .iter()
                .copied()
                .filter(|&i| {
                    routes[i]
                        .0
                        .iter()
                        .any(|&e| usage[e as usize] > grid.edge_capacity(e as usize))
                })
                .collect()
        };
        let pressure = PRESENT_BASE * PRESENT_GROWTH.powi(iter as i32);
        let rerouted = pool.map(&victims, |_, &i| {
            let own = &routes[i].0;
            let seed = split_seed(options.seed, (iter * nn + i) as u64);
            let cost = |e: usize| {
                let mut u = usage[e];
                if own.binary_search(&(e as u32)).is_ok() {
                    u -= 1; // Jacobi: a net does not compete with itself.
                }
                let over = (u + 1).saturating_sub(grid.edge_capacity(e)) as f64;
                let penalty = 1.0 + pressure * over + HISTORY_WEIGHT * history[e];
                let j = 1.0 + JITTER * jitter_unit(seed, e);
                grid.edge_length_um(e) * penalty * j
            };
            route_net_reference(&grid, &cost, &terminals[i])
        });
        for (k, &i) in victims.iter().enumerate() {
            routes[i] = rerouted[k].clone();
        }

        usage.iter_mut().for_each(|u| *u = 0);
        for &i in &routable {
            for &e in &routes[i].0 {
                usage[e as usize] += 1;
            }
        }
        overflow = (0..ne)
            .map(|e| usage[e].saturating_sub(grid.edge_capacity(e)) as u64)
            .sum();
        if overflow == 0 {
            break;
        }
        for e in 0..ne {
            let over = usage[e].saturating_sub(grid.edge_capacity(e));
            history[e] += over as f64;
        }
    }

    let mut nets: Vec<Option<RoutedNet>> = vec![None; nn];
    for (id, _) in netlist.iter_nets() {
        let i = id.index();
        if terminals[i].is_empty() {
            continue;
        }
        let (edges, bends) = std::mem::take(&mut routes[i]);
        nets[i] = Some(routed_net(&grid, id, edges, bends, escapes[i]));
    }

    RoutingResult {
        grid,
        nets,
        usage,
        history,
        iterations,
        overflow,
    }
}

fn recount_overflow_reference(r: &mut RoutingResult) {
    r.overflow = (0..r.grid.edge_count())
        .map(|e| r.usage[e].saturating_sub(r.grid.edge_capacity(e)) as u64)
        .sum();
}

fn reroute_net_reference(
    r: &mut RoutingResult,
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
    options: &RouterOptions,
) -> Option<asicgap_tech::Um> {
    let i = net.index();
    if r.nets.len() <= i {
        r.nets.resize(i + 1, None);
    }
    if let Some(old) = r.nets[i].take() {
        for &e in &old.edges {
            r.usage[e as usize] -= 1;
        }
    }
    let pins = placement.net_pins(netlist, net);
    if pins.len() < 2 {
        recount_overflow_reference(r);
        return None;
    }
    let (terminals, escape_um) = terminals_of(&r.grid, &pins);
    let pressure = PRESENT_BASE * PRESENT_GROWTH.powi(r.iterations as i32);
    let seed = split_seed(options.seed, (r.iterations * r.nets.len() + i) as u64);
    let (edges, bends) = {
        let grid = &r.grid;
        let usage = &r.usage;
        let history = &r.history;
        let cost = move |e: usize| {
            let over = (usage[e] + 1).saturating_sub(grid.edge_capacity(e)) as f64;
            let penalty = 1.0 + pressure * over + HISTORY_WEIGHT * history[e];
            let j = 1.0 + JITTER * jitter_unit(seed, e);
            grid.edge_length_um(e) * penalty * j
        };
        route_net_reference(grid, &cost, &terminals)
    };
    for &e in &edges {
        r.usage[e as usize] += 1;
    }
    let routed = routed_net(&r.grid, net, edges, bends, escape_um);
    let length = routed.length;
    r.nets[i] = Some(routed);
    recount_overflow_reference(r);
    Some(length)
}

// ---- Helpers. ----

/// Bitwise equality of two routing results: the derived `PartialEq`
/// compares every field, and `history` is compared by `to_bits` on top.
fn assert_same(got: &RoutingResult, want: &RoutingResult, case: &str) {
    assert!(
        got == want,
        "{case}: routing result differs from the reference"
    );
    let bits = |r: &RoutingResult| r.history.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{case}: history bits differ");
}

/// Edge costs for a random search: each at least the edge length, and
/// with `quantised` a small whole multiple of it, so on a unit-pitch grid
/// many `f` and `g` values tie exactly.
fn random_costs(grid: &RoutingGrid, rng: &mut Rng64, quantised: bool) -> Vec<f64> {
    (0..grid.edge_count())
        .map(|e| {
            let len = grid.edge_length_um(e);
            if quantised {
                len * (1 + rng.index(3)) as f64
            } else {
                len * (1.0 + 4.0 * rng.uniform())
            }
        })
        .collect()
}

fn random_grid(rng: &mut Rng64, max_side: usize, quantised: bool) -> RoutingGrid {
    loop {
        let (nx, ny) = (1 + rng.index(max_side), 1 + rng.index(max_side));
        if nx * ny < 2 {
            continue;
        }
        let pitch = if quantised {
            1.0
        } else {
            rng.uniform_in(0.5, 20.0)
        };
        let mut g = RoutingGrid::uniform(nx, ny, pitch, 2);
        if !quantised {
            g.pitch_y_um = rng.uniform_in(0.5, 20.0);
        }
        return g;
    }
}

type Generator = fn(&asicgap_cells::Library) -> Result<Netlist, NetlistError>;

/// One member of every generator family but `xlarge`, whose smallest
/// spec negotiates for all 48 rounds on its own grid (over a minute in
/// the reference).
fn families() -> Vec<(&'static str, Generator)> {
    vec![
        ("rca", |l| generators::ripple_carry_adder(l, 8)),
        ("cla", |l| generators::carry_lookahead_adder(l, 8)),
        ("csel", |l| generators::carry_select_adder(l, 8, 2)),
        ("cskip", |l| generators::carry_skip_adder(l, 8, 2)),
        ("ks", |l| generators::kogge_stone_adder(l, 8)),
        ("alu", |l| generators::alu(l, 8)),
        ("counter", |l| generators::counter(l, 6)),
        ("crc", |l| generators::crc_checker(l, 8, 0x07, 8)),
        ("datapath", |l| generators::datapath(l, 4)),
        ("mux", |l| generators::mux_tree(l, 8)),
        ("parity", |l| generators::parity_tree(l, 12)),
        ("eq", |l| generators::equality_comparator(l, 8)),
        ("mult", |l| generators::array_multiplier(l, 6)),
        ("bshift", |l| generators::barrel_shifter(l, 8)),
        ("random", |l| {
            generators::random_logic(l, &RandomLogicSpec::control_block(7))
        }),
    ]
}

/// The placement a seed routes on: the initial grid for even seeds, a
/// quick anneal of it for odd ones.
fn placed(netlist: &Netlist, lib: &asicgap_cells::Library, seed: u64) -> Placement {
    let mut p = Placement::initial(netlist, lib, 0.7);
    if seed % 2 == 1 {
        anneal_placement(netlist, &mut p, &AnnealOptions::quick(seed), &[]);
    }
    p
}

// ---- The checks. ----

#[test]
fn edge_indexing_is_a_bijection() {
    let g = RoutingGrid::uniform(5, 4, 10.0, 8);
    assert_eq!(g.edge_count(), 4 * 4 + 5 * 3);
    // Every edge index produced by neighbour enumeration is in range,
    // and each undirected edge is reported from both endpoints.
    let mut seen = vec![0u32; g.edge_count()];
    for c in 0..g.cell_count() {
        for_each_neighbor(&g, c, |nc, e| {
            assert!(nc < g.cell_count());
            seen[e] += 1;
        });
    }
    assert!(seen.iter().all(|&s| s == 2), "{seen:?}");
}

#[test]
fn search_matches_reference_on_random_grids() {
    let mut scratch = Scratch::default();
    let mut rng = Rng64::new(0x5EA7_C400);
    let mut steps = 0usize;
    for case in 0..3000 {
        let quantised = case % 2 == 0;
        let grid = random_grid(&mut rng, 40, quantised);
        let costs = random_costs(&grid, &mut rng, quantised);
        let cost = |e: usize| costs[e];
        let n = grid.cell_count();
        let sources: Vec<usize> = (0..1 + rng.index(5)).map(|_| rng.index(n)).collect();
        let target = rng.index(n);
        let want = shortest_path_reference(&grid, &cost, &sources, target);
        let sources32: Vec<u32> = sources.iter().map(|&s| s as u32).collect();
        let got = scratch.shortest_path(&grid, &cost, &sources32, target as u32);
        let got: Vec<(usize, usize)> = got.iter().map(|&(c, e)| (c as usize, e as usize)).collect();
        assert_eq!(
            got, want,
            "case {case}: {}x{} grid, sources {sources:?}, target {target}",
            grid.nx, grid.ny
        );
        steps += want.len();
    }
    assert!(
        steps > 10_000,
        "searches must be non-trivial ({steps} steps)"
    );
}

#[test]
fn route_on_matches_reference_on_every_generator() {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let mut negotiated = 0;
    for (name, generate) in families() {
        let netlist = generate(&lib).expect("generator");
        for seed in 1..=8u64 {
            let placement = placed(&netlist, &lib, seed);
            // Eight rounds: the scarce grids never converge, and eight
            // exercise pressure, history and the jitter streams as well
            // as forty-eight would, at a sixth of the cost.
            let options = RouterOptions::seeded(seed);
            for grid in [
                RoutingGrid::from_placement(&placement),
                RoutingGrid::uniform(8, 8, 12.0, 2),
                RoutingGrid::uniform(12, 12, 10.0, 3),
            ] {
                let case = format!("{name} seed {seed} on {}x{}", grid.nx, grid.ny);
                let want = route_on_reference(&netlist, &placement, grid.clone(), &options, 8);
                let got = negotiate(&netlist, &placement, grid, &options, 8);
                assert_same(&got, &want, &case);
                negotiated += usize::from(want.iterations > 1);
            }
        }
    }
    assert!(
        negotiated >= 20,
        "the scarce grids must negotiate ({negotiated} cases did)"
    );
}

#[test]
fn eco_sequences_match_reference() {
    let tech = Technology::cmos025_asic();
    let lib = LibrarySpec::rich().build(&tech);
    let netlist = generators::alu(&lib, 8).expect("alu8");
    let nets: Vec<NetId> = netlist.iter_nets().map(|(id, _)| id).collect();
    for seed in 1..=6u64 {
        let mut placement = placed(&netlist, &lib, seed);
        let options = RouterOptions::seeded(seed);
        let grid = if seed % 2 == 0 {
            RoutingGrid::uniform(8, 8, 12.0, 2)
        } else {
            RoutingGrid::from_placement(&placement)
        };
        let mut got = route_on(&netlist, &placement, grid, &options);
        let mut want = got.clone();
        let mut rng = Rng64::new(split_seed(0xEC0, seed));
        let mut saved: Vec<(NetId, Option<RoutedNet>)> = Vec::new();
        for step in 0..120 {
            let net = nets[rng.index(nets.len())];
            let case = format!("seed {seed} step {step} net {net:?}");
            match rng.index(4) {
                0 | 1 => {
                    if rng.flip() {
                        // Move one cell across the die first, as a
                        // placement ECO would.
                        let c = rng.index(placement.cells.len());
                        placement.cells[c] = (
                            rng.uniform_in(0.0, placement.width_um),
                            rng.uniform_in(0.0, placement.height_um),
                        );
                    }
                    let a = got.reroute_net(&netlist, &placement, net, &options);
                    let b = reroute_net_reference(&mut want, &netlist, &placement, net, &options);
                    assert_eq!(a, b, "{case}");
                }
                2 => {
                    let a = got.take_net(net);
                    assert_eq!(a, want.take_net(net), "{case}");
                    saved.push((net, a));
                }
                _ => {
                    if let Some((net, route)) = saved.pop() {
                        got.restore_net(net, route.clone());
                        want.restore_net(net, route);
                    }
                }
            }
            assert_same(&got, &want, &case);
        }
    }
}

#[test]
fn one_thread_reuses_its_scratch_across_grid_sizes_and_stamp_wrap() {
    std::thread::spawn(|| {
        let mut rng = Rng64::new(0x5CA7_C400);
        let mut scratch = Scratch::default();
        let check =
            |scratch: &mut Scratch, grid: &RoutingGrid, costs: &[f64], terminals: &[usize]| {
                let cost = |e: usize| costs[e];
                let want = route_net_reference(grid, &cost, terminals);
                let got = scratch.route_net(grid, &cost, terminals);
                assert_eq!(
                    got, want,
                    "{}x{} net, terminals {terminals:?}",
                    grid.nx, grid.ny
                );
            };
        let nets_on = |scratch: &mut Scratch, rng: &mut Rng64, side: usize, count: usize| {
            let grid = RoutingGrid::uniform(side, side, 1.0, 2);
            for k in 0..count {
                let costs = random_costs(&grid, rng, k % 2 == 0);
                let terminals: Vec<usize> = (0..2 + rng.index(7))
                    .map(|_| rng.index(grid.cell_count()))
                    .collect();
                check(scratch, &grid, &costs, &terminals);
            }
        };
        // Stale marks at the stamps a wrap restarts from. On a fresh
        // scratch, search stamp 1 reaches every cell of a 40×40 grid from
        // index 36 on (all but the target are sources, at cost 0); then a
        // net through all 36 cells of a 6×6 grid takes tree stamp 1 and
        // search stamps 2 to 36, on indices below 36 only. Raised to the
        // top, both counters wrap back to 1 on the next net, and a wrap
        // that did not zero the marks would find those cells set.
        let large = RoutingGrid::uniform(40, 40, 1.0, 2);
        let large_costs = random_costs(&large, &mut rng, true);
        let cost = |e: usize| large_costs[e];
        let sources: Vec<usize> = (36..1599).collect();
        let want = shortest_path_reference(&large, &cost, &sources, 1599);
        let sources: Vec<u32> = (36..1599).collect();
        let got = scratch.shortest_path(&large, &cost, &sources, 1599);
        let got: Vec<(usize, usize)> = got.iter().map(|&(c, e)| (c as usize, e as usize)).collect();
        assert_eq!(got, want);
        let small = RoutingGrid::uniform(6, 6, 1.0, 2);
        let snake: Vec<usize> = (0..6)
            .flat_map(|y| (0..6).map(move |x| y * 6 + if y % 2 == 0 { x } else { 5 - x }))
            .collect();
        check(
            &mut scratch,
            &small,
            &random_costs(&small, &mut rng, true),
            &snake,
        );
        scratch.raise_stamps(u32::MAX);
        check(&mut scratch, &large, &large_costs, &[0, 1599, 5, 1000]);
        assert!(scratch.raise_stamps(0) <= 3, "the search stamp wrapped");

        // Grow, shrink and grow again; then through a second wrap on the
        // small grid and the large one.
        for side in [40, 6, 40] {
            nets_on(&mut scratch, &mut rng, side, 30);
        }
        let high = u32::MAX - 40;
        scratch.raise_stamps(high);
        nets_on(&mut scratch, &mut rng, 6, 60);
        nets_on(&mut scratch, &mut rng, 40, 30);
        // Stamps only grow between wraps: one below the raised value
        // proves the wrap happened.
        let stamp = scratch.raise_stamps(0);
        assert!(
            stamp < high,
            "the search stamp must have wrapped (at {stamp})"
        );

        // The thread's own routing memory, which `reroute_net` always uses
        // and `route_on` uses when the pool runs on the caller. Its first
        // net marks stamp 1; the same net right after a wrap must route
        // the same.
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let netlist = generators::alu(&lib, 8).expect("alu8");
        let placement = placed(&netlist, &lib, 3);
        let options = RouterOptions::seeded(3);
        let grid = RoutingGrid::uniform(6, 6, 20.0, 2);
        let mut want =
            route_on_reference(&netlist, &placement, grid.clone(), &options, MAX_ITERATIONS);
        let mut got = want.clone();
        let nets: Vec<NetId> = netlist.iter_nets().map(|(id, _)| id).collect();
        let widest = *nets
            .iter()
            .max_by_key(|&&id| {
                terminals_of(&grid, &placement.net_pins(&netlist, id))
                    .0
                    .len()
            })
            .expect("nets");
        let mut reroute = |id: NetId, when: &str| {
            let a = got.reroute_net(&netlist, &placement, id, &options);
            let b = reroute_net_reference(&mut want, &netlist, &placement, id, &options);
            assert_eq!(a, b, "reroute {id:?} {when}");
            assert_same(&got, &want, &format!("reroute {id:?} {when}"));
        };
        reroute(widest, "at stamp 1");
        raise_stamps(u32::MAX);
        reroute(widest, "right after the wrap");
        for &id in &nets {
            reroute(id, "after the wrap");
        }
        raise_stamps(high);
        for &id in nets.iter().chain(&nets) {
            reroute(id, "through a second wrap");
        }
        let stamp = raise_stamps(0);
        assert!(
            stamp < high,
            "the thread's stamp must have wrapped (at {stamp})"
        );
        // At one pool thread this also takes the Jacobi edge marks
        // through a wrap.
        raise_stamps(high);
        for _ in 0..2 {
            let want =
                route_on_reference(&netlist, &placement, grid.clone(), &options, MAX_ITERATIONS);
            let got = route_on(&netlist, &placement, grid.clone(), &options);
            assert_same(&got, &want, "route_on through a wrap");
        }
    })
    .join()
    .expect("oracle thread");
}
