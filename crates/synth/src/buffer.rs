//! Buffer insertion on high-fanout nets.
//!
//! §6: "Additional buffers may be included to drive large capacitive loads
//! that would be charged and discharged too slowly otherwise."

use asicgap_cells::{CellFunction, Library};
use asicgap_netlist::{NetId, Netlist, Sink};

use crate::error::SynthError;

/// Splits every net with more than `max_fanout` sinks by inserting buffers
/// (a `buf` cell, or back-to-back inverters when the library has none),
/// each taking a chunk of the sinks. Repeats until no net exceeds the
/// limit. Returns the number of buffers inserted.
///
/// # Errors
///
/// Returns [`SynthError::LibraryTooPoor`] if the library lacks both a
/// buffer and an inverter.
///
/// # Panics
///
/// Panics if `max_fanout < 2`.
pub fn buffer_high_fanout(
    netlist: &mut Netlist,
    lib: &Library,
    max_fanout: usize,
) -> Result<usize, SynthError> {
    assert!(max_fanout >= 2, "max fanout must be at least 2");
    let buf = lib.smallest(CellFunction::Buf);
    let inv = lib.smallest(CellFunction::Inv);
    if buf.is_none() && inv.is_none() {
        return Err(SynthError::LibraryTooPoor {
            what: "buffer or inverter".to_string(),
        });
    }

    let mut inserted = 0usize;
    let mut round = 0;
    loop {
        round += 1;
        if round > 16 {
            break; // bounded: each round strictly reduces max fanout
        }
        let heavy: Vec<NetId> = netlist
            .iter_nets()
            .filter(|(_, n)| n.sinks().len() > max_fanout)
            .map(|(id, _)| id)
            .collect();
        if heavy.is_empty() {
            break;
        }
        for net in heavy {
            let sinks: Vec<Sink> = netlist.net(net).sinks().to_vec();
            if sinks.len() <= max_fanout {
                continue;
            }
            // Every chunk goes behind its own buffer, so the original net
            // ends up driving only ceil(s/max) buffers — strictly fewer
            // than `max_fanout` sinks once the tree converges.
            for (k, chunk) in sinks.chunks(max_fanout).enumerate() {
                let sub =
                    netlist.add_net(format!("{}_buf{}_{}", netlist.net(net).name(), inserted, k));
                match buf {
                    Some(bcell) => {
                        netlist.add_instance(
                            format!("fbuf{}_{}", inserted, k),
                            lib,
                            bcell,
                            &[net],
                            sub,
                        )?;
                        inserted += 1;
                    }
                    None => {
                        let icell = inv.expect("checked above");
                        let mid = netlist.add_net(format!("bufmid{}_{}", inserted, k));
                        netlist.add_instance(
                            format!("fbufa{}_{}", inserted, k),
                            lib,
                            icell,
                            &[net],
                            mid,
                        )?;
                        netlist.add_instance(
                            format!("fbufb{}_{}", inserted, k),
                            lib,
                            icell,
                            &[mid],
                            sub,
                        )?;
                        inserted += 2;
                    }
                }
                for s in chunk {
                    netlist.redirect_sink(s.inst, s.pin as usize, sub);
                }
            }
        }
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{NetlistBuilder, Simulator};
    use asicgap_tech::Technology;

    /// A net driving `n` inverters.
    fn fanout_case(lib: &Library, n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("fan", lib);
        let a = b.input("a");
        for i in 0..n {
            let y = b.inv(a).expect("inv");
            b.output(format!("y{i}"), y);
        }
        b.finish().expect("valid")
    }

    #[test]
    fn buffering_caps_fanout_and_preserves_function() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = fanout_case(&lib, 30);
        let inserted = buffer_high_fanout(&mut n, &lib, 6).expect("buffers");
        assert!(inserted > 0);
        for (_, net) in n.iter_nets() {
            assert!(
                net.sinks().len() <= 6,
                "net {} fanout {}",
                net.name(),
                net.sinks().len()
            );
        }
        let mut sim = Simulator::new(&n, &lib);
        let out = sim.run_comb(&[true]);
        assert!(out.iter().all(|&v| !v), "all inverters output false");
        let out = sim.run_comb(&[false]);
        assert!(out.iter().all(|&v| v));
    }

    #[test]
    fn poor_library_uses_inverter_pairs() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::poor().build(&tech);
        let mut n = fanout_case(&lib, 20);
        let before = n.instance_count();
        let inserted = buffer_high_fanout(&mut n, &lib, 5).expect("buffers");
        assert!(inserted >= 2);
        assert!(n.instance_count() > before);
        let mut sim = Simulator::new(&n, &lib);
        let out = sim.run_comb(&[true]);
        assert!(out.iter().all(|&v| !v));
    }

    #[test]
    fn low_fanout_nets_untouched() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut n = fanout_case(&lib, 3);
        let inserted = buffer_high_fanout(&mut n, &lib, 6).expect("buffers");
        assert_eq!(inserted, 0);
    }
}
