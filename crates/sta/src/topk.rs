//! Top-k path reporting (`report_timing`-style).

use asicgap_cells::Library;
use asicgap_netlist::Netlist;
use asicgap_tech::Ps;

use crate::analyze::{endpoints, EndpointKind, TimingReport};
use crate::report::{PathStep, TimingPath};

/// One reported endpoint: its path and the period it demands.
#[derive(Debug, Clone)]
pub struct EndpointReport {
    /// The endpoint.
    pub endpoint: EndpointKind,
    /// Period required by this endpoint (arrival + capture overhead).
    pub required_period: Ps,
    /// The traced worst path into it.
    pub path: TimingPath,
}

/// Returns the `k` most critical endpoints of `report`, worst first —
/// what `report_timing -max_paths k` prints in a commercial tool.
///
/// Re-traces paths against `netlist`/`lib`, which must be the pair the
/// report was computed from.
pub fn report_timing(
    netlist: &Netlist,
    lib: &Library,
    report: &TimingReport,
    k: usize,
) -> Vec<EndpointReport> {
    let mut endpoints: Vec<(EndpointKind, Ps, asicgap_netlist::NetId)> =
        endpoints(netlist, lib, &report.clock)
            .map(|e| (e.kind, report.arrival(e.net) + e.setup + e.capture, e.net))
            .collect();
    // Worst first; equal-slack paths tie-break on endpoint identity so
    // the order is deterministic (endpoints are pushed register-sweep
    // first, and Vec::sort_by is stable only within one run's push order).
    let key = |e: &EndpointKind| match *e {
        EndpointKind::RegisterD(id) => (0u8, id.index()),
        EndpointKind::PrimaryOutput(n) => (1u8, n),
    };
    endpoints.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite")
            .then_with(|| key(&a.0).cmp(&key(&b.0)))
    });
    endpoints
        .into_iter()
        .take(k)
        .map(|(endpoint, required_period, net)| {
            let insts = report.instances_on_worst_path(net);
            let mut steps = Vec::with_capacity(insts.len());
            let mut prev = Ps::ZERO;
            for id in insts {
                let inst = netlist.instance(id);
                let total = report.arrival(inst.out());
                steps.push(PathStep {
                    instance: inst.name().to_string(),
                    cell: lib.cell(inst.cell()).name.clone(),
                    through_net: netlist.net(inst.out()).name().to_string(),
                    incr: total - prev,
                    total,
                });
                prev = total;
            }
            EndpointReport {
                endpoint,
                required_period,
                path: TimingPath {
                    delay: report.arrival(net),
                    endpoint_net: netlist.net(net).name().to_string(),
                    steps,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::clock::ClockSpec;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn paths_sorted_worst_first_and_consistent_with_min_period() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 16).expect("rca16");
        let report = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        let top = report_timing(&n, &lib, &report, 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].required_period >= w[1].required_period);
        }
        assert!(
            (top[0].required_period - report.min_period).abs().value() < 1e-9,
            "worst endpoint defines min period"
        );
        assert!(!top[0].path.steps.is_empty());
    }

    #[test]
    fn k_larger_than_endpoints_is_clamped() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 8).expect("parity");
        let report = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        let top = report_timing(&n, &lib, &report, 100);
        assert_eq!(top.len(), 1, "one primary output = one endpoint");
    }

    #[test]
    fn paths_are_connected_chains() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 8).expect("alu8");
        let report = analyze(&n, &lib, &ClockSpec::unconstrained(), None);
        for ep in report_timing(&n, &lib, &report, 8) {
            let names: Vec<&str> = ep.path.steps.iter().map(|s| s.instance.as_str()).collect();
            // Trace must be non-empty and cumulative arrivals monotone.
            assert!(!names.is_empty());
            for w in ep.path.steps.windows(2) {
                assert!(w[1].total >= w[0].total);
            }
        }
    }
}
