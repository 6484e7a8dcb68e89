//! Cut-based rewriting and chain rebalancing, directly on the arena
//! netlist.
//!
//! [`rewrite_pass`] walks the netlist bottom-up, enumerates 4-input
//! priority cuts per net ([`asicgap_netlist::cuts`]), and replaces a
//! cone with a shallower implementation of the same truth table drawn
//! from a [`ReplacementLibrary`] — NPN-canonical classes realised by
//! Shannon-decomposing the table into a mini-AIG and technology-mapping
//! it against the target library. [`rebalance_pass`] flattens chains of
//! associative same-function gates (AND/OR/XOR) and rebuilds them as
//! depth-balanced trees (leaf-arrival-aware Huffman merge).
//!
//! Both passes mutate the netlist only through the arena's public
//! mutation API (`add_net` / `add_instance` / `redirect_sink`): a
//! substitution builds fresh logic beside the old cone, re-points every
//! sink of the root net, and lets [`sweep_dead_logic`] reclaim the dead
//! cone at pass end. Nothing is deleted mid-pass, so cut leaves remain
//! valid for later substitutions. A substitution is accepted only when
//! it strictly lowers the root's arrival level measured against frozen
//! entry levels — which makes the pass depth-monotone: the netlist's
//! logic depth never increases across a pass.
//!
//! Primary-output nets are never rewrite roots (output bindings cannot
//! be re-pointed); register D pins are ordinary sinks and redirect
//! freely. Sequential outputs and wide cells (fan-in in the overflow
//! arena) are cut boundaries upstream, in the enumerator itself.

use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use asicgap_cells::{CellFunction, Library, LogicFamily};
use asicgap_equiv::{AigOps, Lit};
use asicgap_netlist::cuts::{enumerate_cuts, npn_canon, tt_support, CUT_INPUTS, VAR_TT};
use asicgap_netlist::{
    net_levels, sweep_dead_logic, InstId, NetDriver, NetId, Netlist, INLINE_FANIN,
};

use crate::aig::Aig;
use crate::error::SynthError;
use crate::map::{map_aig, MapOptions};

/// Priority cuts kept per net during enumeration.
const MAX_CUTS: usize = 6;
/// Largest replacement structure considered (library cells).
const MAX_TEMPLATE_GATES: usize = 8;

/// Knobs of [`rewrite_pass`]: only the sabotage hook. The pass keeps 6
/// priority cuts per net and considers replacements of at most 8 cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteOptions {
    /// **Test-only sabotage hook**: corrupt the N-th accepted
    /// substitution (0-based) by inserting a spurious inverter between
    /// the replacement cone and the redirected sinks — a wrong-phase
    /// bug a correct pass can never produce. Exists so the negative
    /// tests can prove the per-pass equivalence checker actually
    /// catches a broken rewrite; never set outside tests.
    pub corrupt_substitution: Option<usize>,
}

/// What a pass did, in counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Accepted substitutions (cones replaced or chains rebalanced).
    pub substitutions: usize,
    /// Library cells instantiated by the replacements.
    pub gates_added: usize,
    /// Distinct NPN classes among the substituted cones (0 for
    /// rebalance passes, which work structurally).
    pub distinct_classes: usize,
    /// Substitutions corrupted by the test-only sabotage hook.
    pub corrupted: usize,
}

/// A reference inside a [`Template`]: a cut leaf or an earlier template
/// gate's output.
#[derive(Debug, Clone, Copy)]
enum TRef {
    Leaf(usize),
    Gate(usize),
}

#[derive(Debug, Clone)]
struct TemplateGate {
    f: CellFunction,
    ins: Vec<TRef>,
}

/// A replacement structure: library cells in topological order, the
/// last reference being the cone's output.
#[derive(Debug, Clone)]
struct Template {
    gates: Vec<TemplateGate>,
    root: TRef,
}

impl Template {
    /// Root arrival level given the leaf arrival levels.
    fn arrival(&self, leaf_levels: &[usize]) -> usize {
        let mut lv = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            lv[i] = 1 + g
                .ins
                .iter()
                .map(|r| match *r {
                    TRef::Leaf(j) => leaf_levels[j],
                    TRef::Gate(k) => lv[k],
                })
                .max()
                .unwrap_or(0);
        }
        match self.root {
            TRef::Gate(k) => lv[k],
            TRef::Leaf(j) => leaf_levels[j],
        }
    }
}

/// The precomputed replacement library: truth table → mapped template.
///
/// Keys are *arrival-sorted* truth tables (variable 0 is the
/// latest-arriving cut leaf); each is reduced to its NPN-canonical
/// class for bookkeeping, and the template itself is built once per
/// table by Shannon-decomposing variable 0 at the top of a mini-AIG —
/// so the latest leaf crosses the fewest levels — and technology-
/// mapping the mini-AIG against the target library with the ordinary
/// DP mapper. Construction pre-seeds the classes every combinational
/// cell of the library realises; tables first met mid-pass extend the
/// library lazily (memoized, so each distinct table is mapped once).
#[derive(Debug)]
pub struct ReplacementLibrary {
    templates: HashMap<u16, Option<Rc<Template>>>,
    classes: HashMap<u16, usize>,
}

impl ReplacementLibrary {
    /// Builds the library pre-seeded with every combinational function
    /// `lib` offers as a single cell.
    pub fn for_library(lib: &Library) -> ReplacementLibrary {
        let mut rl = ReplacementLibrary {
            templates: HashMap::new(),
            classes: HashMap::new(),
        };
        for f in CellFunction::combinational_set(CUT_INPUTS as u8, true) {
            if !lib.has_function(f, LogicFamily::StaticCmos) || f.num_inputs() < 2 {
                continue;
            }
            let tt = tt_of_function(f);
            rl.template_for(tt, lib);
        }
        rl
    }

    /// The template for `tt` (over its 4-variable minterm encoding),
    /// building and memoizing it on first use. `None` when the table is
    /// constant, the mapper cannot realise it, or mapping failed.
    fn template_for(&mut self, tt: u16, lib: &Library) -> Option<Rc<Template>> {
        if let Some(t) = self.templates.get(&tt) {
            return t.clone();
        }
        let (canon, _) = npn_canon(tt);
        *self.classes.entry(canon).or_insert(0) += 1;
        let built = build_template(tt, lib).map(Rc::new);
        self.templates.insert(tt, built.clone());
        built
    }
}

/// Truth table of a combinational cell function over the 4-variable
/// minterm encoding (unused high variables are don't-cares).
fn tt_of_function(f: CellFunction) -> u16 {
    let n = f.num_inputs();
    debug_assert!(n <= CUT_INPUTS);
    let mut tt = 0u16;
    let mut ins = [false; CUT_INPUTS];
    for m in 0..16u16 {
        for (j, slot) in ins.iter_mut().enumerate().take(n) {
            *slot = (m >> j) & 1 != 0;
        }
        if f.eval(&ins[..n]) {
            tt |= 1 << m;
        }
    }
    tt
}

/// Shannon-decomposes `tt` into `aig`, expanding variable `var` first
/// so earlier (later-arriving) variables sit closest to the root.
fn shannon(aig: &mut Aig, tt: u16, xs: &[Lit; CUT_INPUTS], var: usize) -> Lit {
    if tt == 0 {
        return Lit::FALSE;
    }
    if tt == 0xFFFF {
        return Lit::TRUE;
    }
    debug_assert!(var < CUT_INPUTS, "non-constant table with all vars fixed");
    if tt_support(tt) & (1 << var) == 0 {
        return shannon(aig, tt, xs, var + 1);
    }
    let hi = asicgap_netlist::cuts::cofactor(tt, var, true);
    let lo = asicgap_netlist::cuts::cofactor(tt, var, false);
    let h = shannon(aig, hi, xs, var + 1);
    let l = shannon(aig, lo, xs, var + 1);
    aig.mux(l, h, xs[var])
}

/// Builds the mapped template for `tt`: mini-AIG, DP map, then netlist
/// → template conversion. `None` for constant tables or mapper misses.
fn build_template(tt: u16, lib: &Library) -> Option<Template> {
    if tt == 0 || tt == 0xFFFF {
        return None;
    }
    let mut aig = Aig::new();
    let xs = [
        aig.input("x0"),
        aig.input("x1"),
        aig.input("x2"),
        aig.input("x3"),
    ];
    let y = shannon(&mut aig, tt, &xs, 0);
    if y.is_const() {
        return None;
    }
    aig.set_output("y", y);
    let mini = map_aig(&aig, lib, &MapOptions::default()).ok()?;
    // Convert: leaf refs by input position, gate refs in topo order.
    let order = mini.topo_order().ok()?;
    let mut net_ref: HashMap<NetId, TRef> = HashMap::new();
    for (pos, (_, net)) in mini.inputs().iter().enumerate() {
        net_ref.insert(*net, TRef::Leaf(pos));
    }
    let mut gates = Vec::with_capacity(order.len());
    for inst_id in order {
        let inst = mini.instance(*inst_id);
        let ins = inst
            .fanin()
            .iter()
            .map(|n| net_ref.get(n).copied())
            .collect::<Option<Vec<TRef>>>()?;
        net_ref.insert(inst.out(), TRef::Gate(gates.len()));
        gates.push(TemplateGate {
            f: inst.function(),
            ins,
        });
    }
    let root = net_ref.get(&mini.outputs().first()?.1).copied()?;
    Some(Template { gates, root })
}

/// Follows the substitution map to the current live equivalent of `n`.
fn resolve(repl: &HashMap<NetId, NetId>, mut n: NetId) -> NetId {
    while let Some(&m) = repl.get(&n) {
        n = m;
    }
    n
}

/// The plan chosen for one root, before mutation.
enum Plan {
    /// Re-point sinks straight at an existing net (the cone collapsed
    /// to a leaf).
    Wire(NetId),
    /// Re-point sinks at an inverter of an existing net.
    InvertOf(NetId),
    /// Instantiate a template over the resolved, arrival-sorted leaves.
    Build(Rc<Template>, Vec<NetId>),
}

/// One cut-rewriting sweep: bottom-up over the frozen topological
/// order, substituting each root's best cut implementation when it
/// strictly lowers the root's arrival level. Returns the counts;
/// mutates `netlist` in place (including the final dead-cone sweep).
///
/// # Errors
///
/// Propagates arena mutation failures ([`SynthError::Netlist`]) and
/// [`SynthError::LibraryTooPoor`] when a template needs a cell the
/// library lost between mapping and instantiation (cannot happen with
/// a consistent library).
pub fn rewrite_pass(
    netlist: &mut Netlist,
    lib: &Library,
    replib: &mut ReplacementLibrary,
    opts: &RewriteOptions,
) -> Result<RewriteStats, SynthError> {
    // The loop adds instances, which drops the netlist's kept order.
    let order = netlist.topo_order()?.to_vec();
    let cuts = enumerate_cuts(netlist, MAX_CUTS);
    let mut level = net_levels(netlist);
    let mut repl: HashMap<NetId, NetId> = HashMap::new();
    let mut stats = RewriteStats::default();
    let mut classes: HashSet<u16> = HashSet::new();
    let mut fresh = 0usize;
    for inst_id in order {
        let (root, is_seq) = {
            let inst = netlist.instance(inst_id);
            (inst.out(), inst.is_sequential())
        };
        if is_seq || netlist.net(root).is_output() {
            continue;
        }
        let root_level = level[root.index()];
        if root_level <= 1 {
            continue;
        }
        let mut best: Option<(usize, usize, u16, Plan)> = None; // (level, gates, tt, plan)
        for cut in &cuts[root.index()] {
            if cut.is_trivial() {
                continue;
            }
            let sup = tt_support(cut.tt);
            // Support variables with their resolved leaves and levels.
            let mut leaves: Vec<(usize, NetId, usize)> = Vec::with_capacity(CUT_INPUTS);
            for (j, &leaf) in cut.leaves().iter().enumerate() {
                if sup & (1 << j) != 0 {
                    let r = resolve(&repl, leaf);
                    leaves.push((j, r, level[r.index()]));
                }
            }
            let candidate = match leaves.len() {
                0 => None, // Constant cone; no tie cells — leave it.
                1 => {
                    let (j, r, lv) = leaves[0];
                    // Projection or complement of one leaf?
                    if cut.tt == VAR_TT[j] {
                        Some((lv, 0, Plan::Wire(r)))
                    } else {
                        debug_assert_eq!(cut.tt, !VAR_TT[j]);
                        Some((lv + 1, 1, Plan::InvertOf(r)))
                    }
                }
                _ => {
                    // Latest leaf first, net id as deterministic tie.
                    leaves.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)));
                    let tt_sorted = permute_tt(cut.tt, &leaves);
                    replib.template_for(tt_sorted, lib).and_then(|t| {
                        if t.gates.len() > MAX_TEMPLATE_GATES {
                            return None;
                        }
                        let leaf_levels: Vec<usize> = leaves.iter().map(|l| l.2).collect();
                        let arrival = t.arrival(&leaf_levels);
                        let nets: Vec<NetId> = leaves.iter().map(|l| l.1).collect();
                        Some((arrival, t.gates.len(), Plan::Build(t, nets)))
                    })
                }
            };
            let Some((new_level, gates, plan)) = candidate else {
                continue;
            };
            if new_level >= root_level {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bl, bg, _, _)) => (new_level, gates) < (*bl, *bg),
            };
            if better {
                best = Some((new_level, gates, cut.tt, plan));
            }
        }
        let Some((new_level, _, tt, plan)) = best else {
            continue;
        };
        // Apply the plan through the mutation API.
        let mut new_root = match plan {
            Plan::Wire(n) => n,
            Plan::InvertOf(n) => add_gate(
                netlist,
                lib,
                CellFunction::Inv,
                &[n],
                &mut fresh,
                &mut level,
            )?,
            Plan::Build(t, leaf_nets) => {
                let mut outs: Vec<NetId> = Vec::with_capacity(t.gates.len());
                for g in &t.gates {
                    let fanin: Vec<NetId> = g
                        .ins
                        .iter()
                        .map(|r| match *r {
                            TRef::Leaf(j) => leaf_nets[j],
                            TRef::Gate(k) => outs[k],
                        })
                        .collect();
                    outs.push(add_gate(netlist, lib, g.f, &fanin, &mut fresh, &mut level)?);
                }
                stats.gates_added += t.gates.len();
                match t.root {
                    TRef::Gate(k) => outs[k],
                    TRef::Leaf(j) => leaf_nets[j],
                }
            }
        };
        debug_assert!(level[new_root.index()] <= new_level);
        if opts.corrupt_substitution == Some(stats.substitutions) {
            // Sabotage (tests only): a dropped/spurious inverter.
            new_root = add_gate(
                netlist,
                lib,
                CellFunction::Inv,
                &[new_root],
                &mut fresh,
                &mut level,
            )?;
            stats.corrupted += 1;
        }
        let sinks: Vec<(InstId, usize)> = netlist
            .sinks(root)
            .iter()
            .map(|s| (s.inst, s.pin as usize))
            .collect();
        for (inst, pin) in sinks {
            netlist.redirect_sink(inst, pin, new_root);
        }
        repl.insert(root, new_root);
        stats.substitutions += 1;
        classes.insert(npn_canon(tt).0);
    }
    stats.distinct_classes = classes.len();
    let (swept, _) = sweep_dead_logic(netlist, lib)?;
    *netlist = swept;
    Ok(stats)
}

/// Permutes `tt` so variable `j'` reads the original variable
/// `leaves[j'].0` — the arrival-sorted encoding the template library is
/// keyed on. Variables beyond the support read constant 0.
fn permute_tt(tt: u16, leaves: &[(usize, NetId, usize)]) -> u16 {
    let mut out = 0u16;
    for m in 0..16u16 {
        let mut src = 0u16;
        for (jp, &(orig, _, _)) in leaves.iter().enumerate() {
            if (m >> jp) & 1 != 0 {
                src |= 1 << orig;
            }
        }
        if tt & (1 << src) != 0 {
            out |= 1 << m;
        }
    }
    out
}

/// Adds one gate through the mutation API, growing the frozen level
/// table with the new net's arrival.
fn add_gate(
    netlist: &mut Netlist,
    lib: &Library,
    f: CellFunction,
    fanin: &[NetId],
    fresh: &mut usize,
    level: &mut Vec<usize>,
) -> Result<NetId, SynthError> {
    let cell = lib.smallest(f).ok_or_else(|| SynthError::LibraryTooPoor {
        what: f.to_string(),
    })?;
    let arrival = 1 + fanin.iter().map(|n| level[n.index()]).max().unwrap_or(0);
    let net = netlist.add_net(format!("rw{}", *fresh));
    netlist.add_instance(format!("rw{}g", *fresh), lib, cell, fanin, net)?;
    *fresh += 1;
    debug_assert_eq!(net.index(), level.len());
    level.push(arrival);
    Ok(net)
}

/// Pops the smaller head of the two Huffman queues (queue 1 wins ties,
/// keeping the merge deterministic: leaves before equal-level subtrees).
fn pop_min<T: Copy>(q1: &mut VecDeque<(usize, T)>, q2: &mut VecDeque<(usize, T)>) -> (usize, T) {
    match (q1.front(), q2.front()) {
        (Some(&(lx, _)), Some(&(ly, _))) if ly < lx => q2.pop_front().expect("front exists"),
        (Some(_), _) => q1.pop_front().expect("front exists"),
        (None, _) => q2.pop_front().expect("merge invariant: one queue nonempty"),
    }
}

/// Which associative chain family a rebalance pass targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChainFamily {
    /// AND chains (`And(n)` gates).
    And,
    /// OR chains (`Or(n)` gates).
    Or,
    /// XOR chains (`Xor2`/`Xor3` gates).
    Xor,
}

impl ChainFamily {
    fn matches(self, f: CellFunction) -> bool {
        match self {
            ChainFamily::And => matches!(f, CellFunction::And(_)),
            ChainFamily::Or => matches!(f, CellFunction::Or(_)),
            ChainFamily::Xor => matches!(f, CellFunction::Xor2 | CellFunction::Xor3),
        }
    }

    fn cell2(self) -> CellFunction {
        match self {
            ChainFamily::And => CellFunction::And(2),
            ChainFamily::Or => CellFunction::Or(2),
            ChainFamily::Xor => CellFunction::Xor2,
        }
    }
}

/// Flattens the maximal same-family cone rooted at `root`: fan-in nets
/// driven by a matching gate with exactly one sink and no output
/// binding are expanded; everything else is a leaf. Returns `None`
/// when the cone is trivial or oversized.
fn flatten_chain(netlist: &Netlist, root_inst: InstId, family: ChainFamily) -> Option<Vec<NetId>> {
    const MAX_LEAVES: usize = 64;
    let mut leaves: Vec<NetId> = Vec::new();
    let mut gates = 0usize;
    let mut stack: Vec<InstId> = vec![root_inst];
    while let Some(inst_id) = stack.pop() {
        gates += 1;
        if gates > MAX_LEAVES {
            return None;
        }
        let inst = netlist.instance(inst_id);
        for &f in inst.fanin() {
            let net = netlist.net(f);
            let expandable = !net.is_output()
                && net.sinks().len() == 1
                && match net.driver() {
                    Some(NetDriver::Instance(drv)) => {
                        let d = netlist.instance(drv);
                        family.matches(d.function()) && d.fanin().len() <= INLINE_FANIN
                    }
                    _ => false,
                };
            if expandable {
                if let Some(NetDriver::Instance(drv)) = net.driver() {
                    stack.push(drv);
                }
            } else {
                if leaves.len() == MAX_LEAVES {
                    return None;
                }
                leaves.push(f);
            }
        }
    }
    if gates < 2 || leaves.len() < 3 {
        return None;
    }
    Some(leaves)
}

/// One chain-rebalancing sweep for `family`: flatten, dedup (AND/OR)
/// or cancel pairs (XOR), then rebuild as a leaf-arrival Huffman tree
/// of 2-input gates when that strictly lowers the root level. Returns
/// zeroed stats untouched when the library lacks the 2-input primitive.
///
/// # Errors
///
/// Propagates arena mutation failures.
pub(crate) fn rebalance_pass(
    netlist: &mut Netlist,
    lib: &Library,
    family: ChainFamily,
) -> Result<RewriteStats, SynthError> {
    let mut stats = RewriteStats::default();
    let Some(cell2) = lib.smallest(family.cell2()) else {
        return Ok(stats);
    };
    // The loop adds instances, which drops the netlist's kept order.
    let order = netlist.topo_order()?.to_vec();
    let mut level = net_levels(netlist);
    let mut fresh = 0usize;
    for inst_id in order {
        let inst = netlist.instance(inst_id);
        if !family.matches(inst.function()) {
            continue;
        }
        let root = inst.out();
        if netlist.net(root).is_output() {
            continue;
        }
        let Some(mut leaves) = flatten_chain(netlist, inst_id, family) else {
            continue;
        };
        // AND/OR are idempotent: dedup. XOR cancels pairs: keep odd
        // multiplicities only.
        leaves.sort();
        if family == ChainFamily::Xor {
            let mut kept: Vec<NetId> = Vec::with_capacity(leaves.len());
            let mut i = 0;
            while i < leaves.len() {
                let mut j = i;
                while j < leaves.len() && leaves[j] == leaves[i] {
                    j += 1;
                }
                if (j - i) % 2 == 1 {
                    kept.push(leaves[i]);
                }
                i = j;
            }
            leaves = kept;
            if leaves.len() < 2 {
                // The whole cone cancelled to a constant or a single
                // literal — a rewrite-pass job, not a rebalance.
                continue;
            }
        } else {
            leaves.dedup();
        }
        // Two-queue Huffman on arrival level: queue 1 holds the leaves
        // sorted by (level, net id), queue 2 the combined subtrees in
        // creation order. Both fronts are minimal, so popping the
        // smaller head is a true Huffman merge — O(n) and fully
        // deterministic.
        let mut sorted: Vec<(usize, NetId)> =
            leaves.iter().map(|n| (level[n.index()], *n)).collect();
        sorted.sort();
        // Dry-run the merge on levels alone to decide acceptance.
        let new_depth = {
            let mut q1: VecDeque<(usize, ())> = sorted.iter().map(|&(l, _)| (l, ())).collect();
            let mut q2: VecDeque<(usize, ())> = VecDeque::new();
            loop {
                let (lx, ()) = pop_min(&mut q1, &mut q2);
                if q1.is_empty() && q2.is_empty() {
                    break lx;
                }
                let (ly, ()) = pop_min(&mut q1, &mut q2);
                q2.push_back((lx.max(ly) + 1, ()));
            }
        };
        if new_depth >= level[root.index()] {
            continue;
        }
        // Real merge, building the tree.
        let mut q1: VecDeque<(usize, NetId)> = sorted.into();
        let mut q2: VecDeque<(usize, NetId)> = VecDeque::new();
        let new_root = loop {
            let (lx, nx) = pop_min(&mut q1, &mut q2);
            if q1.is_empty() && q2.is_empty() {
                break nx;
            }
            let (ly, ny) = pop_min(&mut q1, &mut q2);
            let net = netlist.add_net(format!("rb{fresh}"));
            netlist.add_instance(format!("rb{fresh}g"), lib, cell2, &[nx, ny], net)?;
            fresh += 1;
            let lv = lx.max(ly) + 1;
            debug_assert_eq!(net.index(), level.len());
            level.push(lv);
            stats.gates_added += 1;
            q2.push_back((lv, net));
        };
        let sinks: Vec<(InstId, usize)> = netlist
            .sinks(root)
            .iter()
            .map(|s| (s.inst, s.pin as usize))
            .collect();
        for (si, sp) in sinks {
            netlist.redirect_sink(si, sp, new_root);
        }
        stats.substitutions += 1;
    }
    let (swept, _) = sweep_dead_logic(netlist, lib)?;
    *netlist = swept;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_equiv::random_sim_equiv;
    use asicgap_netlist::{generators, NetlistBuilder, NetlistStats};
    use asicgap_tech::Technology;

    fn rich() -> (Library, Technology) {
        let tech = Technology::cmos025_asic();
        (LibrarySpec::rich().build(&tech), tech)
    }

    #[test]
    fn replacement_library_seeds_library_classes() {
        let (lib, _) = rich();
        let rl = ReplacementLibrary::for_library(&lib);
        assert!(rl.classes.len() >= 5, "classes: {}", rl.classes.len());
    }

    #[test]
    fn shannon_tables_round_trip_through_the_aig() {
        let mut x = 0xACE1u64;
        for _ in 0..40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tt = x as u16;
            if tt == 0 || tt == 0xFFFF {
                continue;
            }
            let mut aig = Aig::new();
            let xs = [
                aig.input("x0"),
                aig.input("x1"),
                aig.input("x2"),
                aig.input("x3"),
            ];
            let y = shannon(&mut aig, tt, &xs, 0);
            aig.set_output("y", y);
            for m in 0..16u16 {
                let bits: Vec<bool> = (0..4).map(|j| (m >> j) & 1 != 0).collect();
                let want = tt & (1 << m) != 0;
                assert_eq!(aig.eval(&bits)[0], want, "tt {tt:#06x} minterm {m}");
            }
        }
    }

    #[test]
    fn rewrite_pass_preserves_function_and_depth() {
        let (lib, _) = rich();
        for build in [
            generators::alu as fn(&Library, usize) -> _,
            generators::array_multiplier,
            generators::barrel_shifter,
        ] {
            let golden = build(&lib, 8).expect("generator");
            let mut n = golden.clone();
            let mut rl = ReplacementLibrary::for_library(&lib);
            let stats =
                rewrite_pass(&mut n, &lib, &mut rl, &RewriteOptions::default()).expect("pass");
            let before = NetlistStats::of(&golden, &lib);
            let after = NetlistStats::of(&n, &lib);
            assert!(
                after.logic_depth <= before.logic_depth,
                "{}: depth {} -> {}",
                golden.name,
                before.logic_depth,
                after.logic_depth
            );
            assert!(
                random_sim_equiv(&golden, &lib, &n, &lib, 128, 0xBEEF),
                "{}: function changed ({} substitutions)",
                golden.name,
                stats.substitutions
            );
        }
    }

    #[test]
    fn rebalance_collapses_a_linear_and_chain() {
        let (lib, _) = rich();
        let mut b = NetlistBuilder::new("chain", &lib);
        let mut acc = b.input("i0");
        for i in 1..16 {
            let x = b.input(format!("i{i}"));
            acc = b.and2(acc, x).expect("and2");
        }
        let inv = b.inv(acc).expect("inv");
        b.output("y", inv);
        let golden = b.finish().expect("valid");
        let mut n = golden.clone();
        let stats = rebalance_pass(&mut n, &lib, ChainFamily::And).expect("pass");
        assert!(stats.substitutions >= 1);
        let before = NetlistStats::of(&golden, &lib);
        let after = NetlistStats::of(&n, &lib);
        assert!(
            after.logic_depth <= 6 && before.logic_depth >= 15,
            "depth {} -> {}",
            before.logic_depth,
            after.logic_depth
        );
        assert!(random_sim_equiv(&golden, &lib, &n, &lib, 128, 7));
    }

    #[test]
    fn sabotage_hook_flips_the_function() {
        use asicgap_equiv::{check_equiv, EquivResult};
        let (lib, _) = rich();
        let golden = generators::equality_comparator(&lib, 32).expect("eq32");
        // Corrupt the LAST substitution: an earlier one can be silently
        // repaired when a later substitution's cut reaches below the
        // corrupted net and rebuilds the correct cone from its frozen
        // truth table. Nothing runs after the last, so its wrong phase
        // must survive to the outputs. Passes are deterministic, so a
        // dry run gives the exact count.
        let subs = {
            let mut probe = golden.clone();
            let mut rl = ReplacementLibrary::for_library(&lib);
            rewrite_pass(&mut probe, &lib, &mut rl, &RewriteOptions::default())
                .expect("dry run")
                .substitutions
        };
        assert!(subs > 0, "eq32 must have rewrite headroom");
        let mut n = golden.clone();
        let mut rl = ReplacementLibrary::for_library(&lib);
        let opts = RewriteOptions {
            corrupt_substitution: Some(subs - 1),
        };
        let stats = rewrite_pass(&mut n, &lib, &mut rl, &opts).expect("pass");
        assert_eq!(stats.corrupted, 1);
        // Random vectors rarely observe an AND-reduction (the output is
        // almost always 0 either way); the complete SAT check must find
        // and confirm a counterexample.
        let report = check_equiv(&golden, &lib, &n, &lib).expect("well-formed miter");
        match report.result {
            EquivResult::Inequivalent(cex) => {
                assert!(cex.confirmed, "counterexample must replay on both sides");
            }
            EquivResult::Equivalent => panic!("sabotaged pass must change the function"),
        }
    }

    #[test]
    fn rewrite_cuts_depth_where_headroom_exists() {
        let (lib, _) = rich();
        let golden = generators::equality_comparator(&lib, 32).expect("eq32");
        let mut n = golden.clone();
        let mut rl = ReplacementLibrary::for_library(&lib);
        let stats = rewrite_pass(&mut n, &lib, &mut rl, &RewriteOptions::default()).expect("pass");
        assert!(stats.substitutions > 0);
        assert!(stats.distinct_classes > 0);
        let before = NetlistStats::of(&golden, &lib);
        let after = NetlistStats::of(&n, &lib);
        assert!(
            after.logic_depth < before.logic_depth,
            "depth {} -> {}",
            before.logic_depth,
            after.logic_depth
        );
        assert!(random_sim_equiv(&golden, &lib, &n, &lib, 256, 0xC0DE));
    }
}
