//! The full-pass evaluator: every arrival recomputed from scratch for
//! one size vector. Test-only: the sizers time through
//! [`IncrementalSizedTiming`](crate::incremental::IncrementalSizedTiming),
//! and this is the reference that evaluator and the TILOS loop in
//! `tilos/oracle.rs` are held to. It goes when the incremental evaluator
//! no longer needs a bitwise reference.

use asicgap_cells::Library;
use asicgap_netlist::{InstId, NetId, Netlist};
use asicgap_tech::Ps;

use super::net_load_units;

/// Timing of a netlist under a continuous size assignment.
#[derive(Debug, Clone)]
pub(crate) struct SizedTiming {
    /// Arrival per net, τ units are already folded into ps.
    pub arrival: Vec<Ps>,
    /// Worst driver per net (for path walking).
    pub worst_driver: Vec<Option<InstId>>,
    /// Worst predecessor net per net.
    pub worst_pred: Vec<Option<NetId>>,
    /// Worst endpoint arrival (min clock period proxy, excluding
    /// sequencing overheads — consistent before/after comparisons only).
    pub critical_delay: Ps,
    /// The endpoint net of the critical path.
    pub critical_net: Option<NetId>,
}

impl SizedTiming {
    /// Evaluates `netlist` with per-instance `sizes` (unit-inverter
    /// multiples, indexed like `netlist.instances()`).
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != netlist.instance_count()`, if any size is
    /// not strictly positive, or if the netlist is cyclic.
    pub fn evaluate(netlist: &Netlist, lib: &Library, sizes: &[f64]) -> SizedTiming {
        assert_eq!(sizes.len(), netlist.instance_count(), "size vector length");
        assert!(
            sizes.iter().all(|&s| s > 0.0),
            "sizes must be strictly positive"
        );
        let tau = lib.tech.tau();

        let mut arrival = vec![Ps::ZERO; netlist.net_count()];
        let mut worst_driver: Vec<Option<InstId>> = vec![None; netlist.net_count()];
        let mut worst_pred: Vec<Option<NetId>> = vec![None; netlist.net_count()];

        for (id, inst) in netlist.iter_instances() {
            if inst.is_sequential() {
                let t = lib
                    .cell(inst.cell())
                    .kind
                    .seq_timing()
                    .expect("sequential timing");
                arrival[inst.out().index()] = t.clk_to_q;
                worst_driver[inst.out().index()] = Some(id);
            }
        }

        for &id in netlist.topo_order().expect("acyclic netlist") {
            let inst = netlist.instance(id);
            let load = net_load_units(netlist, inst.out(), sizes);
            let s = sizes[id.index()];
            let p = inst.function().parasitic();
            let delay = tau * (p + load / s);
            let (worst_in, in_arr) = inst
                .fanin()
                .iter()
                .map(|&n| (n, arrival[n.index()]))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("combinational gates have inputs");
            arrival[inst.out().index()] = in_arr + delay;
            worst_driver[inst.out().index()] = Some(id);
            worst_pred[inst.out().index()] = Some(worst_in);
        }

        // Endpoints: register D pins and primary outputs.
        let mut critical_delay = Ps::ZERO;
        let mut critical_net = None;
        let mut consider = |net: NetId, a: Ps| {
            if a > critical_delay {
                critical_delay = a;
                critical_net = Some(net);
            }
        };
        for (_, inst) in netlist.iter_instances() {
            if inst.is_sequential() {
                consider(inst.fanin()[0], arrival[inst.fanin()[0].index()]);
            }
        }
        for (_, net) in netlist.outputs() {
            consider(*net, arrival[net.index()]);
        }
        SizedTiming {
            arrival,
            worst_driver,
            worst_pred,
            critical_delay,
            critical_net,
        }
    }

    /// Instances on the critical path, source → endpoint.
    pub fn critical_path(&self) -> Vec<InstId> {
        let Some(mut net) = self.critical_net else {
            return Vec::new();
        };
        let mut path = Vec::new();
        while let Some(drv) = self.worst_driver[net.index()] {
            path.push(drv);
            match self.worst_pred[net.index()] {
                Some(p) => net = p,
                None => break,
            }
        }
        path.reverse();
        path
    }
}
