//! Continuous-size timing, updated one resize at a time.
//!
//! TILOS trials thousands of single-gate size bumps; re-evaluating the
//! whole netlist per trial made the inner loop O(gates) when each bump
//! only perturbs one fanout cone. [`IncrementalSizedTiming`] keeps the
//! arrival tables in an [`ArrivalEngine`] and treats
//! [`set_size`](IncrementalSizedTiming::set_size) as a mutation that
//! dirties exactly that cone: the gate itself (its drive changed) and its
//! fanin drivers (their loads changed through g·s). Queries flush lazily,
//! so a trial bump + query + revert costs two small cone repropagations
//! instead of two full passes — and, because gate delay depends only on
//! loads, converges to bitwise the same arrivals as a fresh full pass
//! (`continuous/full.rs`).

use asicgap_cells::Library;
use asicgap_netlist::{InstId, NetDriver, NetId, Netlist};
use asicgap_sta::{ArrivalEngine, DelayModel, IncrementalStats};
use asicgap_tech::Ps;

use crate::continuous::net_load_units;

/// The continuous logical-effort delay model over a size vector:
/// d = τ·(p + load/s), load = Σ g·s over sinks (+ PO allowance).
///
/// Delays are read from a per-instance cache maintained by
/// [`IncrementalSizedTiming::set_size`]: a resize only changes the delay
/// of the resized gate (its drive) and of its fanin drivers (their
/// loads), so only those entries are recomputed — with the exact same
/// expression, so the bits match a fresh evaluation.
struct SizeModel<'m> {
    lib: &'m Library,
    delays: &'m [Ps],
}

impl DelayModel for SizeModel<'_> {
    fn gate_delay(&self, _netlist: &Netlist, id: InstId) -> Ps {
        self.delays[id.index()]
    }

    fn launch(&self, netlist: &Netlist, id: InstId) -> Ps {
        self.lib
            .cell(netlist.instance(id).cell())
            .kind
            .seq_timing()
            .expect("sequential timing")
            .clk_to_q
    }
}

/// Cached continuous-size timing with an O(cone) size-mutation API.
#[derive(Debug)]
pub(crate) struct IncrementalSizedTiming<'a> {
    netlist: &'a Netlist,
    lib: &'a Library,
    sizes: Vec<f64>,
    /// Per-net load cache: `net_load_units` of every net at the current
    /// sizes. Only the fanin nets of a resized instance are recomputed.
    loads: Vec<f64>,
    /// Per-instance gate-delay cache: τ·(p + load/s). Only the resized
    /// instance and its fanin drivers are recomputed.
    delays: Vec<Ps>,
    out_index: Vec<u32>,
    parasitic: Vec<f64>,
    tau: Ps,
    engine: ArrivalEngine,
    /// Endpoint nets in the full pass's sweep order: register D
    /// pins (instance order), then primary outputs. Precomputed so a
    /// critical-delay query costs O(endpoints), not O(instances).
    endpoints: Vec<NetId>,
}

impl<'a> IncrementalSizedTiming<'a> {
    /// Builds the evaluator and runs one full propagation.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != netlist.instance_count()`, if any size is
    /// not strictly positive, or if the netlist is cyclic.
    pub fn new(
        netlist: &'a Netlist,
        lib: &'a Library,
        sizes: Vec<f64>,
    ) -> IncrementalSizedTiming<'a> {
        assert_eq!(sizes.len(), netlist.instance_count(), "size vector length");
        assert!(
            sizes.iter().all(|&s| s > 0.0),
            "sizes must be strictly positive"
        );
        let mut endpoints = Vec::new();
        for (_, inst) in netlist.iter_instances() {
            if inst.is_sequential() {
                endpoints.push(inst.fanin()[0]);
            }
        }
        for (_, net) in netlist.outputs() {
            endpoints.push(*net);
        }
        let loads = (0..netlist.net_count())
            .map(|i| net_load_units(netlist, NetId::from_index(i), &sizes))
            .collect();
        let mut out_index = Vec::with_capacity(netlist.instance_count());
        let mut parasitic = Vec::with_capacity(netlist.instance_count());
        for (_, inst) in netlist.iter_instances() {
            out_index.push(inst.out().index() as u32);
            parasitic.push(inst.function().parasitic());
        }
        let mut t = IncrementalSizedTiming {
            netlist,
            lib,
            sizes,
            loads,
            delays: Vec::new(),
            out_index,
            parasitic,
            tau: lib.tech.tau(),
            engine: ArrivalEngine::new(netlist),
            endpoints,
        };
        t.delays = (0..netlist.instance_count())
            .map(|i| t.delay_of(InstId::from_index(i)))
            .collect();
        let model = SizeModel {
            lib: t.lib,
            delays: &t.delays,
        };
        t.engine.full_propagate(t.netlist, &model);
        t
    }

    /// τ·(p + load/s) for one instance at the current sizes and cached
    /// loads — the single expression behind every `delays` entry.
    fn delay_of(&self, inst: InstId) -> Ps {
        let i = inst.index();
        let load = self.loads[self.out_index[i] as usize];
        self.tau * (self.parasitic[i] + load / self.sizes[i])
    }

    /// Current size of an instance.
    pub fn size(&self, inst: InstId) -> f64 {
        self.sizes[inst.index()]
    }

    /// Consumes the evaluator, returning the size vector.
    pub fn into_sizes(self) -> Vec<f64> {
        self.sizes
    }

    /// Propagation-effort counters accumulated so far.
    pub fn stats(&self) -> IncrementalStats {
        self.engine.stats()
    }

    /// Sets one instance's size, dirtying its fanout cone: the instance
    /// (drive changed) and its fanin drivers (their loads changed).
    /// Nothing is repropagated until the next query, so a trial-and-revert
    /// pair coalesces into one flush.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not strictly positive.
    pub fn set_size(&mut self, inst: InstId, size: f64) {
        assert!(size > 0.0, "sizes must be strictly positive");
        if self.sizes[inst.index()] == size {
            return;
        }
        self.sizes[inst.index()] = size;
        self.refresh_caches(inst);
        for pin in 0..self.netlist.instance(inst).fanin().len() {
            let net = self.netlist.instance(inst).fanin()[pin];
            if let Some(NetDriver::Instance(src)) = self.netlist.net(net).driver() {
                self.engine.invalidate(src);
            }
        }
        self.engine.invalidate(inst);
    }

    /// Recomputes every cache entry that depends on `inst`'s size: the
    /// loads of its fanin nets (through g·s), the delays of those nets'
    /// drivers (through their loads), and `inst`'s own delay (through its
    /// drive) — with the exact arithmetic a fresh evaluation would use.
    fn refresh_caches(&mut self, inst: InstId) {
        for pin in 0..self.netlist.instance(inst).fanin().len() {
            let net = self.netlist.instance(inst).fanin()[pin];
            self.loads[net.index()] = net_load_units(self.netlist, net, &self.sizes);
            if let Some(NetDriver::Instance(src)) = self.netlist.net(net).driver() {
                self.delays[src.index()] = self.delay_of(src);
            }
        }
        self.delays[inst.index()] = self.delay_of(inst);
    }

    /// Critical delay if `inst` had size `size`, leaving the committed
    /// state bitwise untouched. The trial cone is propagated once; the
    /// revert replays an undo log of the overwritten entries, with no
    /// repropagation — half the cost of a `set_size` / query /
    /// `set_size`-back sequence.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not strictly positive.
    pub fn trial_critical_delay(&mut self, inst: InstId, size: f64) -> Ps {
        self.flush();
        self.engine.begin_trial();
        let old = self.sizes[inst.index()];
        self.set_size(inst, size);
        let delay = self.critical_delay();
        self.engine.rollback_trial();
        self.sizes[inst.index()] = old;
        self.refresh_caches(inst);
        delay
    }

    /// Arrival of a net under the current sizes.
    #[cfg(test)]
    pub fn arrival(&mut self, net: NetId) -> Ps {
        self.flush();
        self.engine.arrival(net)
    }

    /// Worst endpoint arrival (the same quantity as the full pass's
    /// `critical_delay`).
    pub fn critical_delay(&mut self) -> Ps {
        self.critical().0
    }

    /// Instances on the critical path, source → endpoint.
    pub fn critical_path(&mut self) -> Vec<InstId> {
        let (_, critical_net) = self.critical();
        let Some(mut net) = critical_net else {
            return Vec::new();
        };
        let mut path = Vec::new();
        while let Some(drv) = self.engine.worst_driver(net) {
            path.push(drv);
            match self.engine.worst_pred(net) {
                Some(p) => net = p,
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// The endpoint sweep, replicating the full pass's order
    /// exactly: register D pins (in instance order), then primary
    /// outputs, strict `>` so the first worst wins.
    fn critical(&mut self) -> (Ps, Option<NetId>) {
        self.flush();
        let mut critical_delay = Ps::ZERO;
        let mut critical_net = None;
        for &net in &self.endpoints {
            let a = self.engine.arrival(net);
            if a > critical_delay {
                critical_delay = a;
                critical_net = Some(net);
            }
        }
        (critical_delay, critical_net)
    }

    fn flush(&mut self) {
        if self.engine.is_clean() {
            return;
        }
        let model = SizeModel {
            lib: self.lib,
            delays: &self.delays,
        };
        self.engine.flush(self.netlist, &model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{sizes_from_cells, SizedTiming};
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    fn setup() -> (Technology, Library) {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        (tech, lib)
    }

    #[test]
    fn matches_full_evaluator_at_cell_sizes() {
        let (_, lib) = setup();
        let n = generators::array_multiplier(&lib, 6).expect("mult6");
        let sizes = sizes_from_cells(&n, &lib);
        let full = SizedTiming::evaluate(&n, &lib, &sizes);
        let mut inc = IncrementalSizedTiming::new(&n, &lib, sizes);
        assert_eq!(inc.critical_delay(), full.critical_delay);
        assert_eq!(inc.critical_path(), full.critical_path());
        for (id, _) in n.iter_nets() {
            assert_eq!(inc.arrival(id), full.arrival[id.index()]);
        }
    }

    #[test]
    fn bump_and_revert_restores_every_arrival() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let sizes = sizes_from_cells(&n, &lib);
        let full = SizedTiming::evaluate(&n, &lib, &sizes);
        let mut inc = IncrementalSizedTiming::new(&n, &lib, sizes);
        let path = inc.critical_path();
        for &gate in &path {
            let old = inc.size(gate);
            inc.set_size(gate, old * 1.15);
            let _ = inc.critical_delay();
            inc.set_size(gate, old);
        }
        assert_eq!(inc.critical_delay(), full.critical_delay);
        for (id, _) in n.iter_nets() {
            assert_eq!(inc.arrival(id), full.arrival[id.index()]);
        }
    }

    #[test]
    fn trial_query_leaves_committed_state_untouched() {
        let (_, lib) = setup();
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let sizes = sizes_from_cells(&n, &lib);
        let full = SizedTiming::evaluate(&n, &lib, &sizes);
        let mut inc = IncrementalSizedTiming::new(&n, &lib, sizes.clone());
        for &gate in &full.critical_path() {
            let old = inc.size(gate);
            let trial = inc.trial_critical_delay(gate, old * 1.15);
            // The trial must equal a fresh evaluation at the bumped size…
            let mut bumped = sizes.clone();
            bumped[gate.index()] *= 1.15;
            let fresh = SizedTiming::evaluate(&n, &lib, &bumped);
            assert_eq!(trial, fresh.critical_delay);
            // …and leave the committed state exactly where it was.
            assert_eq!(inc.size(gate), old);
            assert_eq!(inc.critical_delay(), full.critical_delay);
        }
        for (id, _) in n.iter_nets() {
            assert_eq!(inc.arrival(id), full.arrival[id.index()]);
        }
    }

    #[test]
    fn committed_bump_matches_full_reevaluation() {
        let (_, lib) = setup();
        let n = generators::parity_tree(&lib, 16).expect("parity");
        let mut sizes = sizes_from_cells(&n, &lib);
        let mut inc = IncrementalSizedTiming::new(&n, &lib, sizes.clone());
        let path = inc.critical_path();
        let gate = *path.last().expect("non-empty");
        inc.set_size(gate, inc.size(gate) * 4.0);
        sizes[gate.index()] *= 4.0;
        let full = SizedTiming::evaluate(&n, &lib, &sizes);
        assert_eq!(inc.critical_delay(), full.critical_delay);
    }

    #[test]
    fn incremental_touches_fewer_pins_than_full() {
        let (_, lib) = setup();
        let n = generators::array_multiplier(&lib, 8).expect("mult8");
        let sizes = sizes_from_cells(&n, &lib);
        let mut inc = IncrementalSizedTiming::new(&n, &lib, sizes);
        let comb = n
            .iter_instances()
            .filter(|(_, i)| !i.is_sequential())
            .count();
        let base = inc.stats().pins_touched;
        let path = inc.critical_path();
        let gate = path[path.len() / 2];
        inc.set_size(gate, inc.size(gate) * 1.15);
        let _ = inc.critical_delay();
        let touched = inc.stats().pins_touched - base;
        assert!(
            touched < comb / 2,
            "one bump should touch a small cone: {touched} of {comb}"
        );
    }
}
