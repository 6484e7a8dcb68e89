//! Netlist summary statistics and arena memory accounting.

use std::fmt;
use std::mem::size_of;

use asicgap_cells::Library;

use crate::netlist::{NetDriver, Netlist, Sink, SinkSlot};

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Total instances.
    pub instances: usize,
    /// Sequential instances (flip-flops and latches).
    pub sequential: usize,
    /// Nets.
    pub nets: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Maximum logic depth in gate levels (unit-delay).
    pub logic_depth: usize,
    /// Largest net fanout.
    pub max_fanout: usize,
    /// Total cell area, µm².
    pub area_um2: f64,
}

impl NetlistStats {
    /// Computes statistics for `netlist` against its library.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle.
    pub fn of(netlist: &Netlist, lib: &Library) -> NetlistStats {
        let order = netlist
            .topo_order()
            .expect("statistics require an acyclic netlist");
        // Unit-delay level per net.
        let mut level = vec![0usize; netlist.net_count()];
        for &id in order {
            let inst = netlist.instance(id);
            let in_level = inst
                .fanin()
                .iter()
                .map(|n| level[n.index()])
                .max()
                .unwrap_or(0);
            level[inst.out().index()] = in_level + 1;
        }
        let logic_depth = level.iter().copied().max().unwrap_or(0);
        let max_fanout = netlist
            .iter_nets()
            .map(|(_, n)| n.sinks().len())
            .max()
            .unwrap_or(0);
        NetlistStats {
            instances: netlist.instance_count(),
            sequential: netlist
                .iter_instances()
                .filter(|(_, i)| i.is_sequential())
                .count(),
            nets: netlist.net_count(),
            inputs: netlist.inputs().len(),
            outputs: netlist.outputs().len(),
            logic_depth,
            max_fanout,
            area_um2: netlist.total_area_um2(lib),
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instances ({} seq), {} nets, {} in / {} out, depth {}, max fanout {}, {:.0} um^2",
            self.instances,
            self.sequential,
            self.nets,
            self.inputs,
            self.outputs,
            self.logic_depth,
            self.max_fanout,
            self.area_um2
        )
    }
}

/// Heap memory held by one netlist's arena, by component. Built by
/// [`MemoryFootprint::of`] and printed by `repro --stages`; the bench
/// suite uses [`MemoryFootprint::bytes_per_gate`] as the acceptance
/// metric for the compact IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Instance records (capacity × 32-byte record) plus the wide-cell
    /// fan-in overflow arena.
    pub instance_bytes: usize,
    /// Per-net columns: name symbol, packed driver, flags, sink slot.
    pub net_bytes: usize,
    /// The shared CSR sink pool (8-byte entries, at current capacity).
    pub sink_pool_bytes: usize,
    /// Interned name bytes plus the offset table.
    pub name_table_bytes: usize,
    /// Port lists (inputs/outputs keep `String` names — they are the
    /// external interface, not hot-path data).
    pub port_bytes: usize,
    /// High-water sink-pool length, in entries, before any compaction —
    /// the peak transient arena cost of the mutation history.
    pub peak_sink_pool_entries: usize,
    /// Instances in the netlist (denominator for per-gate views).
    pub instances: usize,
}

impl MemoryFootprint {
    /// Measures `netlist`'s current arena footprint.
    pub fn of(netlist: &Netlist) -> MemoryFootprint {
        let instance_bytes = netlist.insts.capacity() * size_of::<crate::netlist::InstRecord>()
            + netlist.inst_seq.capacity()
            + netlist.fanin_overflow.capacity() * size_of::<crate::NetId>();
        let net_bytes = netlist.net_name.capacity() * size_of::<crate::intern::Symbol>()
            + netlist.net_driver.capacity() * size_of::<u32>()
            + netlist.net_flags.capacity()
            + netlist.slots.capacity() * size_of::<SinkSlot>();
        let sink_pool_bytes = netlist.pool.capacity() * size_of::<Sink>();
        let name_table_bytes = netlist.names.heap_bytes();
        let port_bytes = netlist
            .inputs()
            .iter()
            .chain(netlist.outputs())
            .map(|(name, _)| size_of::<(String, crate::NetId)>() + name.capacity())
            .sum();
        MemoryFootprint {
            instance_bytes,
            net_bytes,
            sink_pool_bytes,
            name_table_bytes,
            port_bytes,
            peak_sink_pool_entries: netlist.peak_pool,
            instances: netlist.instance_count(),
        }
    }

    /// Total heap bytes across every component.
    pub fn total_bytes(&self) -> usize {
        self.instance_bytes
            + self.net_bytes
            + self.sink_pool_bytes
            + self.name_table_bytes
            + self.port_bytes
    }

    /// Total bytes divided by instance count (0 gates → 0).
    pub fn bytes_per_gate(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.instances as f64
        }
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B total ({:.1} B/gate): insts {} B, nets {} B, sinks {} B (peak {} entries), names {} B, ports {} B",
            self.total_bytes(),
            self.bytes_per_gate(),
            self.instance_bytes,
            self.net_bytes,
            self.sink_pool_bytes,
            self.peak_sink_pool_entries,
            self.name_table_bytes,
            self.port_bytes
        )
    }
}

/// Unit-delay arrival level of every net (0 for primary inputs and
/// register outputs' sources). Exposed for the pipeliner's stage cutting.
pub fn net_levels(netlist: &Netlist) -> Vec<usize> {
    let order = netlist
        .topo_order()
        .expect("levels require an acyclic netlist");
    let mut level = vec![0usize; netlist.net_count()];
    for &id in order {
        let inst = netlist.instance(id);
        let in_level = inst
            .fanin()
            .iter()
            .map(|n| level[n.index()])
            .max()
            .unwrap_or(0);
        level[inst.out().index()] = in_level + 1;
    }
    // Register outputs restart at level 0 by construction (they are not in
    // the combinational order, so their level stays 0); verify the
    // invariant for driven nets only.
    debug_assert!(netlist.iter_nets().all(|(id, n)| match n.driver() {
        Some(NetDriver::Instance(inst)) if netlist.instance(inst).is_sequential() =>
            level[id.index()] == 0,
        _ => true,
    }));
    level
}

/// Logic-depth histogram: `hist[l]` counts the nets whose unit-delay
/// combinational level is `l` (level 0 holds primary inputs, register
/// outputs, and undriven nets). The rewrite passes report their depth
/// deltas against this distribution and `repro --stages` prints it —
/// a long tail here is exactly the §4 microarchitecture factor made
/// visible per net instead of as one max.
pub fn depth_histogram(netlist: &Netlist) -> Vec<usize> {
    let levels = net_levels(netlist);
    let max = levels.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for &l in &levels {
        hist[l] += 1;
    }
    hist
}

/// Renders a depth histogram as a compact one-line summary:
/// `depth N: c0/c1/.../cN nets per level` with long histograms bucketed
/// into at most `buckets` groups.
pub fn format_depth_histogram(hist: &[usize], buckets: usize) -> String {
    use std::fmt::Write;
    let depth = hist.len().saturating_sub(1);
    let mut s = format!("depth {depth}: ");
    let buckets = buckets.max(1);
    let per = hist.len().div_ceil(buckets);
    let mut first = true;
    for chunk in hist.chunks(per) {
        if !first {
            s.push('/');
        }
        first = false;
        let sum: usize = chunk.iter().sum();
        write!(s, "{sum}").expect("write to String");
    }
    write!(s, " nets per {per}-level bucket").expect("write to String");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use asicgap_cells::LibrarySpec;
    use asicgap_tech::Technology;

    #[test]
    fn ripple_adder_depth_linear_in_width() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let s8 = NetlistStats::of(
            &generators::ripple_carry_adder(&lib, 8).expect("rca8"),
            &lib,
        );
        let s32 = NetlistStats::of(
            &generators::ripple_carry_adder(&lib, 32).expect("rca32"),
            &lib,
        );
        assert!(s32.logic_depth >= s8.logic_depth + 20);
    }

    #[test]
    fn kogge_stone_depth_logarithmic() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let ks = NetlistStats::of(
            &generators::kogge_stone_adder(&lib, 32).expect("ks32"),
            &lib,
        );
        let rca = NetlistStats::of(
            &generators::ripple_carry_adder(&lib, 32).expect("rca32"),
            &lib,
        );
        assert!(
            ks.logic_depth * 2 < rca.logic_depth,
            "KS depth {} vs RCA depth {}",
            ks.logic_depth,
            rca.logic_depth
        );
    }

    #[test]
    fn stats_fields_sane() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 8).expect("alu8");
        let s = NetlistStats::of(&n, &lib);
        assert_eq!(s.inputs, 8 + 8 + 3);
        assert_eq!(s.outputs, 9);
        assert_eq!(s.sequential, 0);
        assert!(s.area_um2 > 0.0);
        assert!(s.max_fanout >= 2);
    }

    #[test]
    fn depth_histogram_sums_to_net_count_and_matches_stats() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let hist = depth_histogram(&n);
        assert_eq!(hist.iter().sum::<usize>(), n.net_count());
        let stats = NetlistStats::of(&n, &lib);
        assert_eq!(hist.len() - 1, stats.logic_depth);
        // Level 0 holds at least the primary inputs.
        assert!(hist[0] >= n.inputs().len());
        let line = format_depth_histogram(&hist, 8);
        assert!(line.starts_with(&format!("depth {}", stats.logic_depth)));
    }

    #[test]
    fn footprint_accounts_every_arena() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::xlarge(&lib, &generators::XlargeSpec::small(3)).expect("xl small");
        let fp = MemoryFootprint::of(&n);
        assert!(fp.instance_bytes >= n.instance_count() * 32);
        assert!(fp.net_bytes > 0);
        assert!(fp.sink_pool_bytes > 0);
        assert!(fp.name_table_bytes > 0);
        assert_eq!(fp.instances, n.instance_count());
        assert!(fp.total_bytes() >= fp.instance_bytes + fp.net_bytes);
        // The whole point of the arena IR: a small, bounded per-gate
        // cost. The old pointer-heavy IR sat near ~300 B/gate.
        assert!(
            fp.bytes_per_gate() < 150.0,
            "bytes/gate regressed: {}",
            fp.bytes_per_gate()
        );
        assert!(fp.peak_sink_pool_entries > 0);
        let line = fp.to_string();
        assert!(line.contains("B/gate"));
    }
}
