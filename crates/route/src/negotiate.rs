//! PathFinder-style negotiated-congestion routing.
//!
//! Every net first takes its shortest path; edges that end up over
//! capacity then charge a *present* congestion penalty (growing each
//! iteration) plus an accumulating *history* penalty, and the nets
//! crossing them are ripped up and rerouted. Nets with cheap alternatives
//! move away; nets that truly need a contested edge outbid them. The loop
//! converges when no edge is over capacity.
//!
//! # Deterministic parallelism
//!
//! The classic PathFinder reroutes nets one at a time against live usage,
//! which makes the result depend on net order — and a parallel version of
//! that is scheduling-dependent. This router instead runs Jacobi-style
//! rounds: within an iteration every victim net is rerouted *against the
//! same usage snapshot* (with its own usage subtracted), in parallel on
//! [`asicgap_exec::Pool`]; usage is rebuilt once afterwards. Each net's
//! route is then a pure function of `(iteration, snapshot, net)`, so the
//! result is bitwise identical at any thread count. Symmetric nets would
//! ping-pong between equal-cost alternatives forever, so each net's costs
//! carry a tiny deterministic jitter derived from
//! [`asicgap_exec::split_seed`]`(seed, iteration·nets + net)` — different
//! nets prefer different (near-)ties and the symmetry breaks.
//!
//! Each thread keeps its search memory in a thread-local and reuses it for
//! every net it routes. A search reads only records its own generation
//! stamp wrote (see `maze`), so which nets a thread routed before cannot
//! show in a route.

use std::cell::RefCell;

use asicgap_exec::{split_seed, Pool};
use asicgap_netlist::{NetId, Netlist};
use asicgap_place::Placement;
use asicgap_tech::{SplitMix64, Um, WireLayer};
use asicgap_wire::layer_for_length;

use crate::grid::RoutingGrid;
use crate::maze::{Marks, Scratch};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One thread's routing memory, reused by every net the thread routes:
/// the search scratch, and the edges of the net being rerouted (the
/// Jacobi cost's self-usage test).
#[derive(Debug, Default)]
struct Worker {
    net: Scratch,
    own: Marks,
}

thread_local! {
    static WORKER: RefCell<Worker> = RefCell::default();
}

/// Raises every stamp of this thread's routing memory to at least
/// `stamp`; returns the search stamp held before (the oracle's wrap-around
/// hook).
#[cfg(test)]
pub(crate) fn raise_stamps(stamp: u32) -> u32 {
    WORKER.with_borrow_mut(|w| {
        w.own.raise(stamp);
        w.net.raise_stamps(stamp)
    })
}

/// Rip-up-and-reroute rounds before the loop gives up with overflow left
/// (the congestion tests assert convergence well inside this bound).
pub(crate) const MAX_ITERATIONS: usize = 48;
/// Present-congestion penalty at round 0 …
pub(crate) const PRESENT_BASE: f64 = 1.0;
/// … multiplied by this factor every round.
pub(crate) const PRESENT_GROWTH: f64 = 1.6;
/// Weight of the accumulated history penalty.
pub(crate) const HISTORY_WEIGHT: f64 = 0.5;
/// Relative amplitude of the deterministic per-(net, round, edge) cost
/// jitter that breaks rip-up symmetry.
pub(crate) const JITTER: f64 = 0.02;

/// Knobs of the negotiation loop: only the jitter seed. The loop itself
/// is fixed: at most 48 rounds; round `r` prices a grid edge at
/// `length · (1 + 1.0 · 1.6^r · over + 0.5 · history) · (1 + 0.02 · u)`,
/// where `over` is the overflow one more track would cause, `history` the
/// edge's accumulated overflow and `u ∈ [0, 1)` the jitter draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// Base seed of the jitter streams.
    pub seed: u64,
}

impl RouterOptions {
    /// Options with an explicit jitter seed (flows derive it from the
    /// scenario seed so reruns reproduce).
    pub fn seeded(seed: u64) -> RouterOptions {
        RouterOptions { seed }
    }
}

/// One net's global route.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNet {
    /// The net.
    pub net: NetId,
    /// Grid edges the route occupies (sorted, deduplicated).
    pub edges: Vec<u32>,
    /// Length of the grid portion (centre-to-centre), µm.
    pub grid_um: f64,
    /// Length of the pin escape stubs (pin to g-cell centre), µm.
    pub escape_um: f64,
    /// Via count: two for the pin escape stack plus one per bend.
    pub vias: usize,
    /// Total routed length (`grid_um + escape_um`).
    pub length: Um,
    /// Metal layer class chosen for the routed length.
    pub layer: WireLayer,
}

/// Compact per-run numbers for reports (experiment E13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteSummary {
    /// Negotiation rounds run.
    pub iterations: usize,
    /// Total track overflow left (0 when converged).
    pub overflow: u64,
    /// Total routed wirelength, µm.
    pub routed_um: f64,
    /// Total HPWL of the same nets, µm (the lower bound).
    pub hpwl_um: f64,
    /// Total via count.
    pub vias: usize,
}

impl RouteSummary {
    /// Routed length over HPWL — ≥ 1 by construction (the router never
    /// beats the half-perimeter lower bound).
    pub fn wire_ratio(&self) -> f64 {
        self.routed_um / self.hpwl_um
    }
}

/// The one spelling of router effort every report uses:
/// `wire x<ratio>, ovfl <overflow>, <n> iter`.
impl std::fmt::Display for RouteSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire x{:.2}, ovfl {}, {} iter",
            self.wire_ratio(),
            self.overflow,
            self.iterations
        )
    }
}

/// The output of [`route`]: per-net routes plus the congestion map.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// The grid the routes live on.
    pub grid: RoutingGrid,
    /// Per-net routes, indexed by `NetId::index()`. `None` for nets with
    /// fewer than two pins (nothing to route).
    pub nets: Vec<Option<RoutedNet>>,
    /// Tracks in use per edge — the congestion map.
    pub usage: Vec<u32>,
    /// Accumulated history penalty per edge.
    pub history: Vec<f64>,
    /// Negotiation rounds run.
    pub iterations: usize,
    /// Total track overflow after the last round (0 when converged).
    pub overflow: u64,
}

impl RoutingResult {
    /// The route of `net`, if it has one.
    pub fn net(&self, net: NetId) -> Option<&RoutedNet> {
        self.nets.get(net.index()).and_then(|r| r.as_ref())
    }

    /// Worst edge utilisation, `usage / capacity` (> 1 means overflow).
    pub fn max_congestion(&self) -> f64 {
        (0..self.grid.edge_count())
            .map(|e| self.usage[e] as f64 / self.grid.edge_capacity(e) as f64)
            .fold(0.0, f64::max)
    }

    /// Per-run numbers for reports.
    pub fn summary(&self, netlist: &Netlist, placement: &Placement) -> RouteSummary {
        let mut routed_um = 0.0;
        let mut hpwl_um = 0.0;
        let mut vias = 0;
        for (id, _) in netlist.iter_nets() {
            if let Some(r) = self.net(id) {
                routed_um += r.length.value();
                hpwl_um += placement.net_hpwl(netlist, id).value();
                vias += r.vias;
            }
        }
        RouteSummary {
            iterations: self.iterations,
            overflow: self.overflow,
            routed_um,
            hpwl_um,
            vias,
        }
    }

    /// Rips up and reroutes a single net against the *current* usage and
    /// history — the ECO entry point after a netlist edit (buffer
    /// insertion, sink retarget) or a cell move. Unchanged nets keep
    /// their routes. Returns the new routed length, or `None` if the net
    /// now has fewer than two pins.
    ///
    /// Edges are priced as negotiation round `self.iterations` would
    /// price them, one round past the last one run: present pressure
    /// `1.0 · 1.6^iterations`, and the jitter stream
    /// `split_seed(seed, iterations · nets.len() + net)`, with
    /// `nets.len()` read after the table is extended. Routed `CLOSE`
    /// results are pinned on this pricing.
    ///
    /// `netlist` may have grown since the full route (the route table is
    /// extended on demand), but `placement` must place every instance the
    /// net touches.
    pub fn reroute_net(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        net: NetId,
        options: &RouterOptions,
    ) -> Option<Um> {
        let i = net.index();
        if self.nets.len() <= i {
            self.nets.resize(i + 1, None);
        }
        if let Some(old) = self.nets[i].take() {
            for &e in &old.edges {
                self.usage[e as usize] -= 1;
            }
        }
        let pins = placement.net_pins(netlist, net);
        if pins.len() < 2 {
            self.recount_overflow();
            return None;
        }
        let (terminals, escape_um) = terminals_of(&self.grid, &pins);
        let pressure = PRESENT_BASE * PRESENT_GROWTH.powi(self.iterations as i32);
        let seed = split_seed(options.seed, (self.iterations * self.nets.len() + i) as u64);
        let (edges, bends) = {
            let grid = &self.grid;
            let usage = &self.usage;
            let history = &self.history;
            let cost = move |e: usize| {
                let over = (usage[e] + 1).saturating_sub(grid.edge_capacity(e)) as f64;
                let penalty = 1.0 + pressure * over + HISTORY_WEIGHT * history[e];
                let j = 1.0 + JITTER * jitter_unit(seed, e);
                grid.edge_length_um(e) * penalty * j
            };
            WORKER.with_borrow_mut(|w| w.net.route_net(grid, &cost, &terminals))
        };
        for &e in &edges {
            self.usage[e as usize] += 1;
        }
        let routed = routed_net(&self.grid, net, edges, bends, escape_um);
        let length = routed.length;
        self.nets[i] = Some(routed);
        self.recount_overflow();
        Some(length)
    }

    /// Removes `net`'s route from the table *and* the congestion map,
    /// returning it so a speculative [`RoutingResult::reroute_net`] can be
    /// undone with [`RoutingResult::restore_net`]. The pair is the trial
    /// idiom for routing ECOs: take, reroute, measure, and either keep the
    /// new route or put the old one back — usage and overflow stay
    /// consistent on every path.
    pub fn take_net(&mut self, net: NetId) -> Option<RoutedNet> {
        let i = net.index();
        if self.nets.len() <= i {
            return None;
        }
        let taken = self.nets[i].take();
        if let Some(r) = &taken {
            for &e in &r.edges {
                self.usage[e as usize] -= 1;
            }
            self.recount_overflow();
        }
        taken
    }

    /// Reinstates a route previously removed by
    /// [`RoutingResult::take_net`] (displacing and unbooking whatever
    /// route the net carries now), or clears the net's route when `saved`
    /// is `None`.
    pub fn restore_net(&mut self, net: NetId, saved: Option<RoutedNet>) {
        let i = net.index();
        if self.nets.len() <= i {
            self.nets.resize(i + 1, None);
        }
        if let Some(current) = self.nets[i].take() {
            for &e in &current.edges {
                self.usage[e as usize] -= 1;
            }
        }
        if let Some(r) = saved {
            for &e in &r.edges {
                self.usage[e as usize] += 1;
            }
            self.nets[i] = Some(r);
        }
        self.recount_overflow();
    }

    fn recount_overflow(&mut self) {
        self.overflow = (0..self.grid.edge_count())
            .map(|e| self.usage[e].saturating_sub(self.grid.edge_capacity(e)) as u64)
            .sum();
    }
}

/// Globally routes every net of `netlist` under `placement`, on a grid
/// derived from the die ([`RoutingGrid::from_placement`]).
pub fn route(netlist: &Netlist, placement: &Placement, options: &RouterOptions) -> RoutingResult {
    route_on(
        netlist,
        placement,
        RoutingGrid::from_placement(placement),
        options,
    )
}

/// [`route`] on an explicit grid — the congestion tests pass a grid with
/// deliberately scarce capacity.
pub fn route_on(
    netlist: &Netlist,
    placement: &Placement,
    grid: RoutingGrid,
    options: &RouterOptions,
) -> RoutingResult {
    negotiate(netlist, placement, grid, options, MAX_ITERATIONS)
}

/// The negotiation loop, capped at `max_iterations` rounds ([`route_on`]
/// passes [`MAX_ITERATIONS`]; the kernel oracle passes fewer to bound its
/// run time).
pub(crate) fn negotiate(
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
        // Iteration 0 routes everything; later rounds rip up only the
        // nets crossing an over-capacity edge.
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
            let seed = split_seed(options.seed, (iter * nn + i) as u64);
            WORKER.with_borrow_mut(|w| {
                w.own.clear(ne);
                for &e in &routes[i].0 {
                    w.own.insert(e as usize);
                }
                let own = &w.own;
                let cost = |e: usize| {
                    let mut u = usage[e];
                    if own.contains(e) {
                        u -= 1; // Jacobi: a net does not compete with itself.
                    }
                    let over = (u + 1).saturating_sub(grid.edge_capacity(e)) as f64;
                    let penalty = 1.0 + pressure * over + HISTORY_WEIGHT * history[e];
                    let j = 1.0 + JITTER * jitter_unit(seed, e);
                    grid.edge_length_um(e) * penalty * j
                };
                w.net.route_net(&grid, &cost, &terminals[i])
            })
        });
        for (&i, route) in victims.iter().zip(rerouted) {
            routes[i] = route;
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

/// Maps pins to g-cells (deduplicated, pin order kept) and sums the
/// escape-stub length from each pin to its g-cell centre.
pub(crate) fn terminals_of(grid: &RoutingGrid, pins: &[(f64, f64)]) -> (Vec<usize>, f64) {
    let mut cells = Vec::with_capacity(pins.len());
    let mut escape = 0.0;
    for &(x, y) in pins {
        let c = grid.cell_at(x, y);
        let (cx, cy) = grid.cell_center(c);
        escape += (x - cx).abs() + (y - cy).abs();
        if !cells.contains(&c) {
            cells.push(c);
        }
    }
    (cells, escape)
}

pub(crate) fn routed_net(
    grid: &RoutingGrid,
    net: NetId,
    edges: Vec<u32>,
    bends: usize,
    escape_um: f64,
) -> RoutedNet {
    let grid_um: f64 = edges.iter().map(|&e| grid.edge_length_um(e as usize)).sum();
    let length = Um::new(grid_um + escape_um);
    RoutedNet {
        net,
        edges,
        grid_um,
        escape_um,
        vias: 2 + bends,
        length,
        layer: layer_for_length(length),
    }
}

/// A uniform deviate in `[0, 1)` that is a pure function of
/// `(seed, edge)` — the deterministic jitter source.
pub(crate) fn jitter_unit(seed: u64, edge: usize) -> f64 {
    let mut sm = SplitMix64::new(seed.wrapping_add((edge as u64 + 1).wrapping_mul(GOLDEN)));
    (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn setup() -> (asicgap_cells::Library, Netlist) {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        (lib, n)
    }

    #[test]
    fn routes_cover_every_multi_pin_net_without_overflow() {
        let (lib, n) = setup();
        let p = Placement::initial(&n, &lib, 0.7);
        let r = route(&n, &p, &RouterOptions::seeded(7));
        assert_eq!(
            r.overflow, 0,
            "capacity model must fit an initial placement"
        );
        for (id, _) in n.iter_nets() {
            let pins = p.net_pins(&n, id);
            if pins.len() >= 2 {
                let routed = r.net(id).expect("multi-pin net routed");
                assert!(routed.length.value() >= 0.0);
                assert!(routed.vias >= 2);
            }
        }
    }

    #[test]
    fn routed_length_bounds_hpwl_from_above() {
        let (lib, n) = setup();
        let p = Placement::initial(&n, &lib, 0.7);
        let r = route(&n, &p, &RouterOptions::seeded(7));
        for (id, _) in n.iter_nets() {
            if let Some(routed) = r.net(id) {
                let hpwl = p.net_hpwl(&n, id);
                assert!(
                    routed.length.value() >= hpwl.value() - 1e-9,
                    "net {id:?}: routed {} < hpwl {}",
                    routed.length,
                    hpwl
                );
            }
        }
    }

    #[test]
    fn usage_matches_routes_exactly() {
        let (lib, n) = setup();
        let p = Placement::initial(&n, &lib, 0.7);
        let r = route(&n, &p, &RouterOptions::seeded(7));
        let mut usage = vec![0u32; r.grid.edge_count()];
        for routed in r.nets.iter().flatten() {
            for &e in &routed.edges {
                usage[e as usize] += 1;
            }
        }
        assert_eq!(usage, r.usage);
    }

    #[test]
    fn reroute_after_cell_move_updates_usage_and_length() {
        let (lib, n) = setup();
        let mut p = Placement::initial(&n, &lib, 0.7);
        let mut r = route(&n, &p, &RouterOptions::seeded(7));
        // Find a net driven by an instance and yank its driver across
        // the die; the rerouted net must get longer.
        let (id, net) = n
            .iter_nets()
            .find(|(_, net)| {
                matches!(net.driver(), Some(asicgap_netlist::NetDriver::Instance(_)))
                    && !net.sinks().is_empty()
            })
            .expect("instance-driven net");
        let inst = match net.driver() {
            Some(asicgap_netlist::NetDriver::Instance(i)) => i,
            _ => unreachable!(),
        };
        let before = r.net(id).expect("routed").length;
        p.cells[inst.index()] = (p.width_um * 3.0, p.height_um * 3.0);
        let after = r
            .reroute_net(&n, &p, id, &RouterOptions::seeded(7))
            .expect("still multi-pin");
        assert!(after > before, "{after} vs {before}");
        // Usage must still tally with the stored routes.
        let mut usage = vec![0u32; r.grid.edge_count()];
        for routed in r.nets.iter().flatten() {
            for &e in &routed.edges {
                usage[e as usize] += 1;
            }
        }
        assert_eq!(usage, r.usage);
    }
}
