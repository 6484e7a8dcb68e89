//! The four workloads, and what more than one of them reports.

pub mod cluster_resume;
pub mod flow_cold;
pub mod serve_warm;
pub mod soc_ingest;

use asicgap::{FlowStage, ScenarioOutcome};

use crate::probes::Layer;
use crate::run::{Measured, RunConfig};
use crate::spec::Workload;
use crate::trace::{self, Span};

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    match cfg.workload {
        Workload::FlowCold => flow_cold::run(cfg),
        Workload::SocIngest => soc_ingest::run(cfg),
        Workload::ServeWarm => serve_warm::run(cfg),
        Workload::ClusterResume => cluster_resume::run(cfg),
    }
}

/// Exact effort counters summed over the outcomes of the stream prefix
/// the digest covers; they must repeat bit for bit.
#[derive(Debug, Default)]
pub struct Counts {
    full_propagations: usize,
    incremental_updates: usize,
    pins_touched: usize,
    route_iterations: usize,
    route_overflow: u64,
    routed_um: f64,
    hpwl_um: f64,
    sat_cones: usize,
    conflicts: usize,
    closes: usize,
    closed: usize,
    moves: usize,
    proofs: usize,
}

impl Counts {
    pub fn add_outcome(&mut self, o: &ScenarioOutcome) {
        self.full_propagations += o.timing_effort.full_propagations;
        self.incremental_updates += o.timing_effort.incremental_updates;
        self.pins_touched += o.timing_effort.pins_touched;
        if let Some(r) = &o.route {
            self.route_iterations += r.iterations;
            self.route_overflow += r.overflow;
            self.routed_um += r.routed_um;
            self.hpwl_um += r.hpwl_um;
        }
        if let Some(e) = &o.verify_effort {
            self.sat_cones += e.sat_cones;
            self.conflicts += e.conflicts;
        }
    }

    pub fn add_closure(&mut self, moves: usize, proofs: usize, closed: bool) {
        self.closes += 1;
        self.closed += usize::from(closed);
        self.moves += moves;
        self.proofs += proofs;
    }

    pub fn report(&self, layer: &mut Layer) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        layer.insert("sta.full_propagations", self.full_propagations as f64);
        layer.insert("sta.incremental_updates", self.incremental_updates as f64);
        layer.insert("sta.pins_touched", self.pins_touched as f64);
        layer.insert("route.iterations", self.route_iterations as f64);
        layer.insert("route.overflow", self.route_overflow as f64);
        layer.insert("route.wire_ratio", ratio(self.routed_um, self.hpwl_um));
        layer.insert("equiv.sat_cones", self.sat_cones as f64);
        layer.insert("equiv.conflicts", self.conflicts as f64);
        layer.insert("autopilot.moves", self.moves as f64);
        layer.insert("autopilot.proofs", self.proofs as f64);
        layer.insert(
            "autopilot.closed_ratio",
            ratio(self.closed as f64, self.closes as f64),
        );
    }
}

/// Stage walls and the unattributed remainder per operation, from the
/// spans of a traced in-process run: `calls` names the flow-call spans
/// whose children are the stages.
pub fn stage_walls(layer: &mut Layer, spans: &[Span], calls: &[&str], ops: usize) {
    let per_op = |ms: f64| ms / ops.max(1) as f64;
    let mut staged = 0.0;
    for stage in FlowStage::ALL {
        let (span, metric) = trace::stage_names(stage);
        let ms = trace::total_ms(spans, span);
        staged += ms;
        layer.insert(metric, per_op(ms));
    }
    let called: f64 = calls.iter().map(|c| trace::total_ms(spans, c)).sum();
    layer.insert("core.unattributed_ms", per_op((called - staged).max(0.0)));
}
