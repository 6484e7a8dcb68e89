//! The incremental arrival-propagation engine.
//!
//! [`ArrivalEngine`] owns the per-net arrival tables that
//! [`analyze`](crate::analyze) used to rebuild from scratch on every call,
//! plus a levelized dirty-worklist that repropagates only the fanout cone
//! of a mutation. The engine is generic over a [`DelayModel`] so the same
//! machinery serves both the library-cell STA ([`TimingGraph`]) and the
//! continuous-size evaluator in `asicgap-sizing`.
//!
//! # Why incremental equals full, bit for bit
//!
//! In both delay models a gate's delay depends only on its *loads* (sink
//! input capacitances, wire parasitics, PO allowance), never on arrival
//! times. Arrivals over an acyclic netlist therefore have a unique fixed
//! point, and any worklist order converges to it: each net's final arrival
//! is computed by exactly the same floating-point expression, from exactly
//! the same fanin arrivals, as one full topological pass. Pruning a
//! repropagation when the recomputed arrival is bitwise equal to the
//! cached one is safe for the same reason.
//!
//! [`TimingGraph`]: crate::TimingGraph

use asicgap_netlist::{InstId, NetDriver, NetId, Netlist};
use asicgap_tech::Ps;

/// How gates delay signals: the one hook that differs between the
/// library-cell STA and the continuous-size evaluator.
pub trait DelayModel {
    /// Delay added by combinational instance `id` (gate + wire), as a
    /// function of its output load only — never of arrival times.
    fn gate_delay(&self, netlist: &Netlist, id: InstId) -> Ps;

    /// Launch time of sequential instance `id`'s output (clk→Q).
    fn launch(&self, netlist: &Netlist, id: InstId) -> Ps;

    /// Arrival time of every primary input.
    fn input_arrival(&self) -> Ps {
        Ps::ZERO
    }
}

/// Propagation-effort counters, surfaced in
/// [`TimingReport`](crate::TimingReport) and `SizingResult`.
///
/// `pins_touched` counts instance evaluations: a full propagation touches
/// every combinational instance once, an incremental update touches only
/// the dirty cone. The ratio `(full-equivalent evaluations × instance
/// count) / pins_touched` is the speedup the incremental engine buys over
/// per-query full re-analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Full (whole-netlist) propagations run.
    pub full_propagations: usize,
    /// Incremental (dirty-cone) updates run.
    pub incremental_updates: usize,
    /// Total instance evaluations across both kinds.
    pub pins_touched: usize,
}

/// Counter-wise sum: effort accrued by two timers, or by one over two
/// spans.
impl std::ops::Add for IncrementalStats {
    type Output = IncrementalStats;

    fn add(self, rhs: IncrementalStats) -> IncrementalStats {
        IncrementalStats {
            full_propagations: self.full_propagations + rhs.full_propagations,
            incremental_updates: self.incremental_updates + rhs.incremental_updates,
            pins_touched: self.pins_touched + rhs.pins_touched,
        }
    }
}

impl std::ops::AddAssign for IncrementalStats {
    fn add_assign(&mut self, rhs: IncrementalStats) {
        *self = *self + rhs;
    }
}

/// Counter-wise difference: what a timer did between an earlier reading
/// (`rhs`) and a later one.
///
/// # Panics
///
/// Panics if any counter of `rhs` exceeds `self`'s — the readings were
/// not taken in that order, or not from the same timer.
impl std::ops::Sub for IncrementalStats {
    type Output = IncrementalStats;

    fn sub(self, rhs: IncrementalStats) -> IncrementalStats {
        let sub = |later: usize, earlier: usize| {
            later
                .checked_sub(earlier)
                .expect("timer counters only grow: subtract the earlier reading from the later")
        };
        IncrementalStats {
            full_propagations: sub(self.full_propagations, rhs.full_propagations),
            incremental_updates: sub(self.incremental_updates, rhs.incremental_updates),
            pins_touched: sub(self.pins_touched, rhs.pins_touched),
        }
    }
}

/// Saved pre-overwrite state of one net, for trial rollback.
/// `worst_driver`/`worst_pred` are absent on purpose: recorded
/// evaluations never write them (worst-path queries are only made on
/// committed state), so there is nothing to roll back.
#[derive(Debug, Clone)]
struct UndoEntry {
    net: u32,
    from_register: bool,
    arrival: Ps,
}

/// What a [`TimingReport`](crate::TimingReport) keeps of an engine: the
/// per-net tables (indexed by [`NetId::index`]) and the effort counters.
pub(crate) struct ArrivalTables {
    pub(crate) arrival: Vec<Ps>,
    pub(crate) worst_driver: Vec<Option<InstId>>,
    pub(crate) worst_pred: Vec<Option<NetId>>,
    pub(crate) from_register: Vec<bool>,
    pub(crate) stats: IncrementalStats,
}

/// Cached arrival state plus the levelized dirty worklist.
#[derive(Debug, Clone)]
pub struct ArrivalEngine {
    arrival: Vec<Ps>,
    worst_driver: Vec<Option<InstId>>,
    worst_pred: Vec<Option<NetId>>,
    from_register: Vec<bool>,
    /// Topological level per instance (sequential = 0; combinational =
    /// 1 + max over combinational fanin drivers). Orders the worklist so
    /// a cone is normally evaluated fanin-before-fanout. The ordering is
    /// purely an efficiency heuristic: any order reaches the same fixed
    /// point (see the module docs), it just may touch a pin twice.
    level: Vec<u32>,
    /// Flat topology mirror of the netlist, for cache-friendly pin
    /// evaluation: per-instance sequential flag, output net, fanin nets
    /// (CSR), and per-net non-sequential sink instances (CSR). Rebuilt by
    /// [`ArrivalEngine::grow`] after structural mutations.
    is_seq: Vec<bool>,
    out_net: Vec<u32>,
    fanin_start: Vec<u32>,
    fanin_nets: Vec<u32>,
    sink_start: Vec<u32>,
    sink_insts: Vec<u32>,
    /// Bucket worklist indexed by level.
    dirty: Vec<Vec<InstId>>,
    dirty_len: usize,
    /// Lowest possibly-non-empty bucket; may move backward on push.
    cursor: usize,
    queued: Vec<bool>,
    /// While recording a trial, every overwritten net's prior state, in
    /// write order.
    undo: Vec<UndoEntry>,
    recording: bool,
    stats: IncrementalStats,
}

impl ArrivalEngine {
    /// Allocates tables and computes the topological levels for
    /// `netlist`, from the order the netlist keeps
    /// ([`Netlist::topo_order`]). No arrivals are propagated yet — call
    /// [`ArrivalEngine::full_propagate`] first.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn new(netlist: &Netlist) -> ArrivalEngine {
        let n_nets = netlist.net_count();
        let n_insts = netlist.instance_count();
        let mut engine = ArrivalEngine {
            arrival: vec![Ps::ZERO; n_nets],
            worst_driver: vec![None; n_nets],
            worst_pred: vec![None; n_nets],
            from_register: vec![false; n_nets],
            level: vec![0; n_insts],
            is_seq: Vec::new(),
            out_net: Vec::new(),
            fanin_start: Vec::new(),
            fanin_nets: Vec::new(),
            sink_start: Vec::new(),
            sink_insts: Vec::new(),
            dirty: Vec::new(),
            dirty_len: 0,
            cursor: 0,
            queued: vec![false; n_insts],
            undo: Vec::new(),
            recording: false,
            stats: IncrementalStats::default(),
        };
        for &id in ordered(netlist) {
            engine.level[id.index()] = engine.level_of(netlist, id);
        }
        engine.rebuild_topology(netlist);
        engine
    }

    /// Rebuilds the flat topology mirror from `netlist`.
    fn rebuild_topology(&mut self, netlist: &Netlist) {
        self.is_seq.clear();
        self.out_net.clear();
        self.fanin_start.clear();
        self.fanin_nets.clear();
        for (_, inst) in netlist.iter_instances() {
            self.is_seq.push(inst.is_sequential());
            self.out_net.push(inst.out().index() as u32);
            self.fanin_start.push(self.fanin_nets.len() as u32);
            for &n in inst.fanin() {
                self.fanin_nets.push(n.index() as u32);
            }
        }
        self.fanin_start.push(self.fanin_nets.len() as u32);
        self.sink_start.clear();
        self.sink_insts.clear();
        for (_, net) in netlist.iter_nets() {
            self.sink_start.push(self.sink_insts.len() as u32);
            for s in net.sinks() {
                if !netlist.instance(s.inst).is_sequential() {
                    self.sink_insts.push(s.inst.index() as u32);
                }
            }
        }
        self.sink_start.push(self.sink_insts.len() as u32);
    }

    /// Arrival time of a net.
    pub fn arrival(&self, net: NetId) -> Ps {
        self.arrival[net.index()]
    }

    /// The instance driving the worst path into `net`.
    pub fn worst_driver(&self, net: NetId) -> Option<InstId> {
        self.worst_driver[net.index()]
    }

    /// The predecessor net on the worst path into `net`.
    pub fn worst_pred(&self, net: NetId) -> Option<NetId> {
        self.worst_pred[net.index()]
    }

    /// Effort counters so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// `true` when no invalidations are pending.
    pub fn is_clean(&self) -> bool {
        self.dirty_len == 0
    }

    pub(crate) fn arrivals(&self) -> &[Ps] {
        &self.arrival
    }

    pub(crate) fn launch_flags(&self) -> &[bool] {
        &self.from_register
    }

    /// A copy of the per-net tables a report keeps; the topology mirror
    /// and the worklist stay behind.
    pub(crate) fn tables(&self) -> ArrivalTables {
        ArrivalTables {
            arrival: self.arrival.clone(),
            worst_driver: self.worst_driver.clone(),
            worst_pred: self.worst_pred.clone(),
            from_register: self.from_register.clone(),
            stats: self.stats,
        }
    }

    /// The per-net tables a report keeps, moved out of the engine.
    pub(crate) fn into_tables(self) -> ArrivalTables {
        ArrivalTables {
            arrival: self.arrival,
            worst_driver: self.worst_driver,
            worst_pred: self.worst_pred,
            from_register: self.from_register,
            stats: self.stats,
        }
    }

    /// Recomputes every arrival from scratch (sources, then one pass in
    /// the netlist's kept topological order) and clears the dirty set.
    /// This is exactly the propagation `analyze` has always run. Any
    /// topological order gives the same arrivals (see the module docs),
    /// so one the netlist re-sorted after an edit is as good as the first.
    pub fn full_propagate(&mut self, netlist: &Netlist, model: &impl DelayModel) {
        assert!(!self.recording, "cannot full-propagate during a trial");
        for a in &mut self.arrival {
            *a = Ps::ZERO;
        }
        for d in &mut self.worst_driver {
            *d = None;
        }
        for p in &mut self.worst_pred {
            *p = None;
        }
        for f in &mut self.from_register {
            *f = false;
        }
        // Sources: primary inputs arrive at the declared input delay…
        for (_, net) in netlist.inputs() {
            self.arrival[net.index()] = model.input_arrival();
        }
        // …and register outputs launch at clk->Q.
        for (id, inst) in netlist.iter_instances() {
            if inst.is_sequential() {
                self.arrival[inst.out().index()] = model.launch(netlist, id);
                self.worst_driver[inst.out().index()] = Some(id);
                self.from_register[inst.out().index()] = true;
            }
        }
        let order = ordered(netlist);
        for &id in order {
            self.eval_comb(netlist, model, id);
        }
        for bucket in &mut self.dirty {
            bucket.clear();
        }
        self.dirty_len = 0;
        self.cursor = 0;
        for q in &mut self.queued {
            *q = false;
        }
        self.stats.full_propagations += 1;
        self.stats.pins_touched += order.len();
    }

    /// Starts recording table overwrites so they can be undone by
    /// [`ArrivalEngine::rollback_trial`]. The engine must be clean. The
    /// rollback then costs O(pins touched during the trial), not
    /// O(netlist) — the cheap half of a trial-and-revert pair.
    ///
    /// # Panics
    ///
    /// Panics if the engine is dirty or already recording.
    pub fn begin_trial(&mut self) {
        assert!(self.is_clean(), "trial requires a flushed engine");
        assert!(!self.recording, "trials cannot nest");
        self.recording = true;
    }

    /// Restores every table entry overwritten since
    /// [`ArrivalEngine::begin_trial`] and stops recording. The engine must
    /// be clean (flush before rolling back). Effort counters keep the
    /// trial's cost — the propagation genuinely happened.
    ///
    /// # Panics
    ///
    /// Panics if no trial is being recorded or the engine is dirty.
    pub fn rollback_trial(&mut self) {
        assert!(self.recording, "no trial to roll back");
        assert!(self.is_clean(), "flush before rolling back");
        self.recording = false;
        while let Some(e) = self.undo.pop() {
            let n = e.net as usize;
            self.arrival[n] = e.arrival;
            self.from_register[n] = e.from_register;
        }
    }

    /// Marks one instance dirty: its delay (combinational) or launch
    /// (sequential) may have changed and its output arrival must be
    /// re-derived at the next [`ArrivalEngine::flush`].
    pub fn invalidate(&mut self, id: InstId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            let level = self.level[id.index()] as usize;
            if level >= self.dirty.len() {
                self.dirty.resize_with(level + 1, Vec::new);
            }
            self.dirty[level].push(id);
            self.dirty_len += 1;
            self.cursor = self.cursor.min(level);
        }
    }

    /// Invalidates the instance driving `net`, if any. Used when a net's
    /// load changed (a sink was resized, added, or moved away).
    pub fn invalidate_driver(&mut self, netlist: &Netlist, net: NetId) {
        if let Some(NetDriver::Instance(src)) = netlist.net(net).driver() {
            self.invalidate(src);
        }
    }

    /// Syncs the engine with `netlist` after a structural mutation:
    /// extends the tables for appended nets/instances (new entries start
    /// clean at zero arrival) and rebuilds the flat topology mirror, so
    /// call it after sink lists changed too (retargeting). Seed changed
    /// instances with [`ArrivalEngine::invalidate`] and refresh levels.
    /// The incremental path needs no order, so an edit never pays a sort
    /// (the netlist dropped its order itself); the next full propagation
    /// sorts once.
    pub fn grow(&mut self, netlist: &Netlist) {
        self.arrival.resize(netlist.net_count(), Ps::ZERO);
        self.worst_driver.resize(netlist.net_count(), None);
        self.worst_pred.resize(netlist.net_count(), None);
        self.from_register.resize(netlist.net_count(), false);
        self.level.resize(netlist.instance_count(), 0);
        self.queued.resize(netlist.instance_count(), false);
        self.rebuild_topology(netlist);
    }

    /// Recomputes topological levels downstream of `seeds` after a
    /// structural mutation (buffer insertion, sink retargeting). Stale
    /// worklist keys are re-keyed lazily at pop time.
    pub fn refresh_levels(&mut self, netlist: &Netlist, seeds: &[InstId]) {
        let mut work: Vec<InstId> = seeds
            .iter()
            .copied()
            .filter(|&id| !netlist.instance(id).is_sequential())
            .collect();
        while let Some(id) = work.pop() {
            let new = self.level_of(netlist, id);
            if new != self.level[id.index()] {
                self.level[id.index()] = new;
                let out = netlist.instance(id).out();
                for s in netlist.net(out).sinks() {
                    if !netlist.instance(s.inst).is_sequential() {
                        work.push(s.inst);
                    }
                }
            }
        }
    }

    /// Drains the dirty worklist in level order, repropagating arrivals
    /// through the affected cone and pruning wherever a recomputed value
    /// is bitwise unchanged.
    pub fn flush(&mut self, netlist: &Netlist, model: &impl DelayModel) {
        let mut touched = 0usize;
        while self.dirty_len > 0 {
            while self.dirty[self.cursor].is_empty() {
                self.cursor += 1;
            }
            let id = self.dirty[self.cursor].pop().expect("non-empty bucket");
            let level = self.level[id.index()] as usize;
            if level != self.cursor {
                // Stale bucket from before a level refresh: re-key. The
                // cursor may move backward; re-evaluating a pin twice is
                // harmless (the fixed point is order-independent).
                if level >= self.dirty.len() {
                    self.dirty.resize_with(level + 1, Vec::new);
                }
                self.dirty[level].push(id);
                self.cursor = self.cursor.min(level);
                continue;
            }
            self.dirty_len -= 1;
            self.queued[id.index()] = false;
            touched += 1;
            let changed = if self.is_seq[id.index()] {
                self.eval_seq(netlist, model, id)
            } else {
                self.eval_comb(netlist, model, id)
            };
            if changed {
                let out = self.out_net[id.index()] as usize;
                let start = self.sink_start[out] as usize;
                let end = self.sink_start[out + 1] as usize;
                for k in start..end {
                    self.invalidate(InstId::from_index(self.sink_insts[k] as usize));
                }
            }
        }
        if touched > 0 {
            self.stats.incremental_updates += 1;
            self.stats.pins_touched += touched;
        }
    }

    /// Re-derives one combinational instance's output arrival. Returns
    /// `true` if anything downstream-visible changed.
    ///
    /// The worst-fanin scan keeps the *last* maximal input, matching
    /// `Iterator::max_by` over the same fanin order.
    fn eval_comb(&mut self, netlist: &Netlist, model: &impl DelayModel, id: InstId) -> bool {
        let i = id.index();
        let gate_delay = model.gate_delay(netlist, id);
        let start = self.fanin_start[i] as usize;
        let end = self.fanin_start[i + 1] as usize;
        debug_assert!(start < end, "combinational cells have inputs");
        let mut worst_in = self.fanin_nets[start] as usize;
        let mut in_arrival = self.arrival[worst_in];
        for k in start + 1..end {
            let n = self.fanin_nets[k] as usize;
            let a = self.arrival[n];
            if a >= in_arrival {
                in_arrival = a;
                worst_in = n;
            }
        }
        let out = self.out_net[i] as usize;
        let new_arrival = in_arrival + gate_delay;
        let new_from_reg = self.from_register[worst_in];
        let changed = new_arrival.value().to_bits() != self.arrival[out].value().to_bits()
            || new_from_reg != self.from_register[out];
        if self.recording {
            // Trials only ever read arrivals and launch flags; leave the
            // worst-path tables at their committed values so the rollback
            // has less to restore. An unchanged result needs no write (and
            // so no undo) at all.
            if changed {
                self.record_undo(out);
                self.arrival[out] = new_arrival;
                self.from_register[out] = new_from_reg;
            }
        } else {
            self.worst_driver[out] = Some(id);
            self.worst_pred[out] = Some(NetId::from_index(worst_in));
            self.arrival[out] = new_arrival;
            self.from_register[out] = new_from_reg;
        }
        changed
    }

    /// Re-derives one sequential instance's launch.
    fn eval_seq(&mut self, netlist: &Netlist, model: &impl DelayModel, id: InstId) -> bool {
        let out = self.out_net[id.index()] as usize;
        let new_arrival = model.launch(netlist, id);
        let changed = new_arrival.value().to_bits() != self.arrival[out].value().to_bits()
            || !self.from_register[out];
        if self.recording {
            if changed {
                self.record_undo(out);
                self.arrival[out] = new_arrival;
                self.from_register[out] = true;
            }
        } else {
            self.worst_driver[out] = Some(id);
            self.worst_pred[out] = None;
            self.arrival[out] = new_arrival;
            self.from_register[out] = true;
        }
        changed
    }

    fn record_undo(&mut self, net: usize) {
        self.undo.push(UndoEntry {
            net: net as u32,
            from_register: self.from_register[net],
            arrival: self.arrival[net],
        });
    }

    /// Level of a combinational instance from its fanin drivers' current
    /// levels.
    fn level_of(&self, netlist: &Netlist, id: InstId) -> u32 {
        netlist
            .instance(id)
            .fanin()
            .iter()
            .filter_map(|&n| match netlist.net(n).driver() {
                Some(NetDriver::Instance(src)) if !netlist.instance(src).is_sequential() => {
                    Some(self.level[src.index()] + 1)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// `netlist`'s combinational instances in its kept topological order.
fn ordered(netlist: &Netlist) -> &[InstId] {
    netlist
        .topo_order()
        .expect("timing requires an acyclic netlist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_netlist::NetlistBuilder;
    use asicgap_tech::Technology;

    #[test]
    fn stats_add_and_subtract_counter_wise() {
        let stats = |f, i, p| IncrementalStats {
            full_propagations: f,
            incremental_updates: i,
            pins_touched: p,
        };
        let (earlier, later) = (stats(1, 4, 900), stats(3, 4, 2500));
        assert_eq!(later - earlier, stats(2, 0, 1600));
        assert_eq!(earlier + (later - earlier), later);
        let mut acc = IncrementalStats::default();
        acc += earlier;
        acc += later;
        assert_eq!(acc, stats(4, 8, 3400));
    }

    #[test]
    #[should_panic(expected = "timer counters only grow")]
    fn stats_subtraction_is_checked() {
        let earlier = IncrementalStats {
            pins_touched: 5,
            ..IncrementalStats::default()
        };
        let _ = IncrementalStats::default() - earlier;
    }

    struct UnitModel;
    impl DelayModel for UnitModel {
        fn gate_delay(&self, _netlist: &Netlist, _id: InstId) -> Ps {
            Ps::new(10.0)
        }
        fn launch(&self, _netlist: &Netlist, _id: InstId) -> Ps {
            Ps::new(1.0)
        }
    }

    fn chain(len: usize) -> Netlist {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("chain", &lib);
        let mut n = b.input("a");
        for _ in 0..len {
            n = b.inv(n).expect("inv");
        }
        b.output("y", n);
        b.finish().expect("valid")
    }

    #[test]
    fn full_propagate_fills_every_arrival() {
        let n = chain(5);
        let mut e = ArrivalEngine::new(&n);
        e.full_propagate(&n, &UnitModel);
        let (_, y) = n.outputs()[0];
        assert_eq!(e.arrival(y), Ps::new(50.0));
        assert_eq!(e.stats().full_propagations, 1);
        assert_eq!(e.stats().pins_touched, 5);
    }

    #[test]
    fn incremental_converges_to_full_result() {
        let n = chain(8);
        let mut e = ArrivalEngine::new(&n);
        e.full_propagate(&n, &UnitModel);
        // Invalidate the middle of the chain; nothing changed, so the
        // flush must prune immediately.
        let mid = InstId::from_index(4);
        e.invalidate(mid);
        e.flush(&n, &UnitModel);
        let (_, y) = n.outputs()[0];
        assert_eq!(e.arrival(y), Ps::new(80.0));
        // One instance touched, pruned before reaching the output.
        assert_eq!(e.stats().pins_touched, 8 + 1);
    }

    #[test]
    fn levels_increase_along_a_chain() {
        let n = chain(4);
        let e = ArrivalEngine::new(&n);
        let mut sorted = n.topo_order().expect("acyclic").to_vec();
        sorted.sort_by_key(|id| e.level[id.index()]);
        // In a pure chain topological position and level agree.
        let levels: Vec<u32> = sorted.iter().map(|id| e.level[id.index()]).collect();
        assert_eq!(levels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sequential_outputs_launch_and_cut() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = NetlistBuilder::new("seq", &lib);
        let a = b.input("a");
        let q = b.dff(a).expect("dff");
        let x = b.inv(q).expect("inv");
        b.output("y", x);
        let n = b.finish().expect("valid");
        let mut e = ArrivalEngine::new(&n);
        e.full_propagate(&n, &UnitModel);
        let (_, y) = n.outputs()[0];
        assert_eq!(e.arrival(y), Ps::new(11.0));
        assert!(e.launch_flags()[y.index()]);
        let _ = CellFunction::Dff;
    }
}
