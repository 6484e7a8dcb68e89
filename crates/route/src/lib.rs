//! Congestion-aware global routing and RC extraction.
//!
//! The HPWL wire model (`asicgap-place`) prices every net at its
//! bounding-box half-perimeter — the right first-order estimate, but it
//! cannot see *congestion*: on a real die nets compete for a finite
//! number of routing tracks, and losers detour. This crate closes the
//! place → route → timing loop the paper's §5 wire discussion assumes:
//!
//! - [`RoutingGrid`] — a coarse g-cell grid derived from the floorplan,
//!   with per-edge track capacities;
//! - [`route`] — per-net A* maze routing under a PathFinder-style
//!   negotiated-congestion rip-up-and-reroute loop, run as deterministic
//!   Jacobi rounds on [`asicgap_exec::Pool`] (bitwise identical at any
//!   thread count);
//! - [`RoutingResult`] — per-net [`RoutedNet`]s plus the congestion map,
//!   with a single-net [`RoutingResult::reroute_net`] ECO entry point
//!   that pairs with the STA's incremental `set_net_parasitics`;
//! - [`annotate_routed`] — RC extraction mapping routed segment lengths
//!   and via counts onto the same Elmore arithmetic as the HPWL
//!   annotator, so model deltas are attributable to routing alone.
//!
//! Routed length is a true upper bound: the route is a connected
//! rectilinear tree through g-cell centres plus per-pin escape stubs, and
//! any connected structure spanning a pin set is at least as long as the
//! pins' half-perimeter. The property tests lean on that invariant.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_place::Placement;
//! use asicgap_route::{route, RouterOptions};
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let alu = generators::alu(&lib, 8)?;
//! let placement = Placement::initial(&alu, &lib, 0.7);
//! let routing = route(&alu, &placement, &RouterOptions::seeded(42));
//! assert_eq!(routing.overflow, 0); // negotiation converged
//! let summary = routing.summary(&alu, &placement);
//! assert!(summary.routed_um >= summary.hpwl_um);
//! # Ok::<(), asicgap_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod extract;
mod grid;
mod maze;
mod negotiate;

pub use extract::{annotate_routed, routed_parasitics};
pub use grid::RoutingGrid;
pub use negotiate::{route, route_on, RouteSummary, RoutedNet, RouterOptions, RoutingResult};
