//! The coarse routing grid a global router works on.
//!
//! Global routing does not draw individual wires; it assigns each net a
//! path through a grid of *g-cells*, where each boundary between two
//! adjacent g-cells has a finite track capacity. The grid here is derived
//! from the floorplan's placement: roughly one g-cell per placed cell
//! (clamped to a sane range), with per-edge capacities scaled from the
//! g-cell pitch and the routing-track density of a mid-1990s 5–6 layer
//! aluminium stack.

/// Routing tracks per micrometre of g-cell boundary, summed over the
/// layers available to the global router. A 0.25 µm process offers 5–6
/// metal layers at ≈1 µm pitch; with the lowest layers reserved for cell
/// internals and power, about four remain for signal routing in each
/// direction pair.
pub(crate) const TRACKS_PER_UM: f64 = 4.0;

/// A uniform rectangular routing grid.
///
/// Cells are indexed row-major (`y * nx + x`). Edges are indexed with all
/// horizontal edges first (`y * (nx-1) + x` between `(x,y)` and
/// `(x+1,y)`), then all vertical edges (`h_edge_count() + y * nx + x`
/// between `(x,y)` and `(x,y+1)`).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingGrid {
    /// Number of g-cells along x.
    pub nx: usize,
    /// Number of g-cells along y.
    pub ny: usize,
    /// Horizontal g-cell pitch, µm.
    pub pitch_x_um: f64,
    /// Vertical g-cell pitch, µm.
    pub pitch_y_um: f64,
    /// Track capacity of each horizontal edge (wires crossing a vertical
    /// g-cell boundary, limited by the boundary's height).
    pub h_capacity: u32,
    /// Track capacity of each vertical edge.
    pub v_capacity: u32,
}

impl RoutingGrid {
    /// Derives a grid from a die: roughly `√n` g-cells per side for an
    /// `n`-instance placement (clamped to 4..=40), capacities from
    /// `TRACKS_PER_UM`.
    pub fn from_placement(placement: &asicgap_place::Placement) -> RoutingGrid {
        let n = placement.cells.len().max(1);
        let side = ((n as f64).sqrt().ceil() as usize).clamp(4, 40);
        let pitch_x = (placement.width_um / side as f64).max(1e-6);
        let pitch_y = (placement.height_um / side as f64).max(1e-6);
        RoutingGrid {
            nx: side,
            ny: side,
            pitch_x_um: pitch_x,
            pitch_y_um: pitch_y,
            h_capacity: ((pitch_y * TRACKS_PER_UM).round() as u32).max(2),
            v_capacity: ((pitch_x * TRACKS_PER_UM).round() as u32).max(2),
        }
    }

    /// A grid with explicit dimensions and one shared capacity — the
    /// constructor congestion tests use to make track supply scarce.
    pub fn uniform(nx: usize, ny: usize, pitch_um: f64, capacity: u32) -> RoutingGrid {
        assert!(
            nx >= 1 && ny >= 1 && nx * ny >= 2,
            "a routing grid needs at least two cells"
        );
        RoutingGrid {
            nx,
            ny,
            pitch_x_um: pitch_um,
            pitch_y_um: pitch_um,
            h_capacity: capacity,
            v_capacity: capacity,
        }
    }

    /// Number of g-cells.
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of horizontal edges.
    pub fn h_edge_count(&self) -> usize {
        (self.nx - 1) * self.ny
    }

    /// Number of vertical edges.
    pub fn v_edge_count(&self) -> usize {
        self.nx * (self.ny - 1)
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.h_edge_count() + self.v_edge_count()
    }

    /// Grid coordinates of cell `c`.
    pub fn cell_xy(&self, c: usize) -> (usize, usize) {
        (c % self.nx, c / self.nx)
    }

    /// The g-cell containing the point `(x_um, y_um)`, clamped to the die.
    pub fn cell_at(&self, x_um: f64, y_um: f64) -> usize {
        let ix = ((x_um / self.pitch_x_um).floor() as isize).clamp(0, self.nx as isize - 1);
        let iy = ((y_um / self.pitch_y_um).floor() as isize).clamp(0, self.ny as isize - 1);
        iy as usize * self.nx + ix as usize
    }

    /// Centre of g-cell `c`, µm.
    pub fn cell_center(&self, c: usize) -> (f64, f64) {
        let (x, y) = self.cell_xy(c);
        (
            (x as f64 + 0.5) * self.pitch_x_um,
            (y as f64 + 0.5) * self.pitch_y_um,
        )
    }

    /// Wire length a route pays for using edge `e`: the centre-to-centre
    /// distance between the two g-cells it connects.
    pub fn edge_length_um(&self, e: usize) -> f64 {
        if e < self.h_edge_count() {
            self.pitch_x_um
        } else {
            self.pitch_y_um
        }
    }

    /// Track capacity of edge `e`.
    pub fn edge_capacity(&self, e: usize) -> u32 {
        if e < self.h_edge_count() {
            self.h_capacity
        } else {
            self.v_capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lookup_round_trips_and_clamps() {
        let g = RoutingGrid::uniform(4, 4, 25.0, 8);
        for c in 0..g.cell_count() {
            let (x, y) = g.cell_center(c);
            assert_eq!(g.cell_at(x, y), c);
        }
        // Points off the die clamp to the boundary cells.
        assert_eq!(g.cell_at(-5.0, -5.0), 0);
        assert_eq!(g.cell_at(1e6, 1e6), g.cell_count() - 1);
    }

    #[test]
    fn placement_grid_covers_die() {
        use asicgap_cells::LibrarySpec;
        use asicgap_netlist::generators;
        use asicgap_place::Placement;
        use asicgap_tech::Technology;

        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let p = Placement::initial(&n, &lib, 0.7);
        let g = RoutingGrid::from_placement(&p);
        assert!(g.nx >= 4 && g.nx <= 40);
        assert!(g.pitch_x_um * g.nx as f64 >= p.width_um - 1e-9);
        assert!(g.h_capacity >= 2 && g.v_capacity >= 2);
    }
}
