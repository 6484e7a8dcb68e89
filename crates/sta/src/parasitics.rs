//! Per-net wire parasitics back-annotated from placement.

use asicgap_netlist::{NetId, Netlist};
use asicgap_tech::{Ff, Ps};

/// Wire capacitance and wire delay per net.
///
/// Pre-layout timing uses [`NetParasitics::ideal`] (zero everywhere);
/// placement (`asicgap-place`) produces estimates from net bounding boxes;
/// the repeater model (`asicgap-wire`) refines long-net delays.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParasitics {
    cap: Vec<Ff>,
    delay: Vec<Ps>,
}

impl NetParasitics {
    /// Zero parasitics for every net of `netlist`.
    pub fn ideal(netlist: &Netlist) -> NetParasitics {
        NetParasitics {
            cap: vec![Ff::ZERO; netlist.net_count()],
            delay: vec![Ps::ZERO; netlist.net_count()],
        }
    }

    /// Sets the parasitics of one net.
    pub fn set(&mut self, net: NetId, cap: Ff, delay: Ps) {
        self.cap[net.index()] = cap;
        self.delay[net.index()] = delay;
    }

    /// Wire capacitance of `net`.
    pub fn cap(&self, net: NetId) -> Ff {
        self.cap[net.index()]
    }

    /// Wire (RC flight) delay of `net`.
    pub fn delay(&self, net: NetId) -> Ps {
        self.delay[net.index()]
    }

    /// Extends the tables with ideal (zero) entries up to `n_nets` nets,
    /// so parasitics stay usable after buffer insertion appends nets.
    pub(crate) fn grow(&mut self, n_nets: usize) {
        if n_nets > self.cap.len() {
            self.cap.resize(n_nets, Ff::ZERO);
            self.delay.resize(n_nets, Ps::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::generators;
    use asicgap_tech::Technology;

    #[test]
    fn ideal_is_all_zero() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 8).expect("parity");
        let p = NetParasitics::ideal(&n);
        for (id, _) in n.iter_nets() {
            assert_eq!(p.cap(id), Ff::ZERO);
            assert_eq!(p.delay(id), Ps::ZERO);
        }
        assert_eq!(p.cap.iter().copied().sum::<Ff>(), Ff::ZERO);
    }

    #[test]
    fn set_and_read_back() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::parity_tree(&lib, 8).expect("parity");
        let mut p = NetParasitics::ideal(&n);
        let (net, _) = n.iter_nets().next().expect("has nets");
        p.set(net, Ff::new(12.0), Ps::new(30.0));
        assert_eq!(p.cap(net), Ff::new(12.0));
        assert_eq!(p.delay(net), Ps::new(30.0));
        assert_eq!(p.cap.iter().copied().sum::<Ff>(), Ff::new(12.0));
    }
}
