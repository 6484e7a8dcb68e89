//! The benchmark's vocabulary: workload and metric names with their
//! units and direction. `BENCHMARK.json` at the repository root lists
//! the same names (a self-test keeps the two in step); the bounds live
//! only there, and `check` reads them from it.

use crate::gen::DEFAULT_SEED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlowCold,
    SocIngest,
    ServeWarm,
    ClusterResume,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::FlowCold,
    Workload::SocIngest,
    Workload::ServeWarm,
    Workload::ClusterResume,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowCold => "flow_cold",
            Workload::SocIngest => "soc_ingest",
            Workload::ServeWarm => "serve_warm",
            Workload::ClusterResume => "cluster_resume",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (`BENCHMARK.json` `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FlowCold => {
                "in-process stream of distinct small flows: place, route, sizing, autopilot and \
                 sta do all the work; serve, cluster and frontend do none"
            }
            Workload::SocIngest => {
                "121k-cell Yosys JSON to a timed design, staged cold then resumed: frontend, \
                 netlist, full sta and the checkpoint codec dominate; route and serve are idle"
            }
            Workload::ServeWarm => {
                "L1 hits through one served daemon: the connection layer, proto codec, scheduler \
                 and cache are the whole cost and the flow engines never run"
            }
            Workload::ClusterResume => {
                "router plus two persistent shards, cold/resume/hit/close rounds: router hop, \
                 ring placement, stage codec, and the segment store written beside read"
            }
        }
    }

    /// Replies the reply-stream digest covers. A fixed prefix, because
    /// the window is timed and the number of replies in it is not.
    pub fn digest_replies(self) -> usize {
        match self {
            Workload::FlowCold | Workload::ServeWarm => 64,
            Workload::SocIngest => 2,
            Workload::ClusterResume => 20,
        }
    }

    /// The digest of the first [`Workload::digest_replies`] replies at
    /// [`DEFAULT_SEED`], pinned: the flow is deterministic at any thread
    /// count and tier-1's goldens tie these bytes to the paper's numbers,
    /// so a change here is a change of results, not of speed.
    pub fn pinned_digest(self, seed: u64) -> Option<u64> {
        if seed != DEFAULT_SEED {
            return None;
        }
        Some(match self {
            Workload::FlowCold => 0x1ef2_fbac_1a9b_53aa,
            Workload::SocIngest => 0x135e_cb51_5ec2_89fc,
            Workload::ServeWarm => 0x50ad_59f3_4eee_2f36,
            Workload::ClusterResume => 0x19cf_ca93_a30e_f35e,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; every workload reports all of them,
/// measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("p50_ms", "ms"),
    lower("p90_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Single-layer metrics, reported by the traced run. A metric a
/// workload does not exercise reads 0; it never disappears.
pub const PER_LAYER: [MetricDef; 75] = [
    // Stage walls per operation, from the FlowObserver the harness passes.
    lower("core.stage.synth_ms", "ms"),
    lower("core.stage.pipeline_ms", "ms"),
    lower("core.stage.sizing_ms", "ms"),
    lower("core.stage.place_ms", "ms"),
    lower("core.stage.route_ms", "ms"),
    lower("core.stage.sta_ms", "ms"),
    lower("core.stage.equiv_ms", "ms"),
    lower("core.unattributed_ms", "ms"),
    lower("core.checkpoint_tax_ratio", "ratio"),
    lower("core.resume_ratio", "ratio"),
    // Exact counts from the outcomes of a fixed stream prefix.
    lower("sta.full_propagations", "count"),
    lower("sta.incremental_updates", "count"),
    lower("sta.pins_touched", "count"),
    lower("route.iterations", "count"),
    lower("route.overflow", "count"),
    lower("route.wire_ratio", "ratio"),
    lower("equiv.sat_cones", "count"),
    lower("equiv.conflicts", "count"),
    lower("autopilot.moves", "count"),
    higher("autopilot.proofs", "count"),
    higher("autopilot.closed_ratio", "ratio"),
    // Direct timed calls on the workload's own inputs.
    higher("netlist.generate_cells_per_s", "1/s"),
    higher("netlist.export_mb_per_s", "MB/s"),
    higher("frontend.parse_mb_per_s", "MB/s"),
    higher("frontend.lower_cells_per_s", "1/s"),
    higher("frontend.load_cells_per_s", "1/s"),
    lower("synth.rewrite_ms", "ms"),
    lower("sizing.tilos_ms", "ms"),
    lower("place.anneal_ms", "ms"),
    higher("place.anneal_cells_per_s", "1/s"),
    lower("route.route_ms", "ms"),
    higher("route.nets_per_s", "1/s"),
    higher("sta.analyze_cells_per_s", "1/s"),
    lower("sta.graph_build_ms", "ms"),
    lower("sta.eco_update_us", "us"),
    lower("sta.incremental_over_full", "ratio"),
    lower("equiv.check_ms", "ms"),
    lower("process.variation_ms", "ms"),
    lower("exec.map_overhead_us", "us"),
    lower("core.canonical_key_us", "us"),
    higher("core.content_hash_mb_per_s", "MB/s"),
    lower("core.outcome_encode_us", "us"),
    lower("core.outcome_parse_us", "us"),
    higher("core.artifact_encode_mb_per_s", "MB/s"),
    higher("core.artifact_parse_mb_per_s", "MB/s"),
    higher("cluster.store_put_mb_per_s", "MB/s"),
    lower("cluster.store_get_us", "us"),
    lower("cluster.store_open_ms", "ms"),
    lower("cluster.store_bytes", "B"),
    lower("cluster.ring_place_ns", "ns"),
    lower("serve.frame_encode_ns", "ns"),
    lower("serve.frame_parse_ns", "ns"),
    lower("serve.request_decode_us", "us"),
    lower("serve.cache_get_ns", "ns"),
    lower("serve.cache_insert_ns", "ns"),
    lower("serve.sched_hit_us", "us"),
    lower("serve.ping_rtt_us", "us"),
    lower("serve.hit_rtt_us", "us"),
    lower("serve.conn_overhead_us", "us"),
    lower("serve.router_hop_us", "us"),
    // From the STATS verb.
    higher("serve.l1_hit_rate", "ratio"),
    higher("serve.l2_hit_rate", "ratio"),
    higher("serve.stage_hit_rate", "ratio"),
    higher("serve.dedup_joins", "count"),
    lower("serve.busy_rejections", "count"),
    lower("serve.queue_depth_p50", "count"),
    // Per operation class of cluster_resume.
    lower("cluster.cold_p50_ms", "ms"),
    lower("cluster.resume_p50_ms", "ms"),
    lower("cluster.hit_p50_ms", "ms"),
    lower("cluster.close_p50_ms", "ms"),
    // The traced run about itself.
    higher("trace.ops_per_s", "1/s"),
    higher("trace.span_coverage_ratio", "ratio"),
    lower("trace.spans_per_op", "count"),
    // Latency by operation kind, where a workload mixes kinds.
    lower("flow.run_p50_ms", "ms"),
    lower("flow.close_p50_ms", "ms"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` and these tables must name the same things: the
    /// driver refuses a run whose output disagrees with the manifest.
    #[test]
    fn manifest_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(|v| v.as_str())
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let table = |defs: &[MetricDef], f: fn(&MetricDef) -> &'static str| -> Vec<String> {
            defs.iter().map(|m| f(m).to_string()).collect()
        };

        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("workloads", "why"),
            WORKLOADS.map(|w| w.why().to_string())
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(names(key, "name"), table(defs, |m| m.name), "{key} names");
            assert_eq!(names(key, "unit"), table(defs, |m| m.unit), "{key} units");
            assert_eq!(
                names(key, "better"),
                table(defs, |m| m.better.name()),
                "{key} directions"
            );
        }
        for m in doc.get("end_to_end").expect("end_to_end").items() {
            let bound = m.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name()))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "every name is used once");
        assert!(PER_LAYER.len() <= 128 && text.len() <= 64 << 10);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("flow"), None);
        assert_eq!(unit_of("p50_ms"), "ms");
        assert_eq!(unit_of("serve.hit_rtt_us"), "us");
    }
}
