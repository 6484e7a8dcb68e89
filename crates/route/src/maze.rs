//! Deterministic A* maze search over the routing grid, and the per-net
//! tree growth built on it.
//!
//! One search connects a grown route tree (multi-source) to the next
//! terminal (single target). Costs come from the negotiation loop; the
//! only contract the search imposes is `cost(e) ≥ edge_length(e)`, which
//! keeps the Manhattan-distance heuristic admissible so A* returns a true
//! minimum-cost path. Everything here is sequential and pure, so results
//! are a function of the inputs alone — the parallel router calls it from
//! worker threads on per-net snapshots.
//!
//! # Cost of a search
//!
//! A search costs only the cells it visits. Its working memory — the
//! per-cell tentative cost and back pointer, the heap, the path and the
//! route tree — lives in a [`Scratch`] the caller keeps per thread, and a
//! new search does not clear it: each per-cell record carries the
//! *generation stamp* of the search that last wrote it. A cell is
//! *reached* in this search when its `reached` stamp is the current one
//! (its cost and back pointer are then this search's), and *done* when
//! its `done` stamp is; any other stamp reads as "cost +∞, not done",
//! which is exactly the state a freshly filled array would hold. Stamps
//! only grow, so every stamp left behind is below the current one; when
//! the counter would wrap, every stamp is zeroed first and counting
//! restarts at 1. A grid larger than any before grows the records with
//! stamp 0; a smaller one uses a prefix. Neighbours are expanded from the
//! popped cell's `(x, y)` — one division per settled cell, none per
//! neighbour.
//!
//! # Why the order is exact
//!
//! The heap pops the smallest `f = g + h`, then the largest `g`, then the
//! smallest cell index: a total order, so the pop sequence, and with it
//! every path, is a function of the inputs alone. The heap compares
//! `f64::to_bits` as integers (`!f`, `g`, `!cell` in a max-heap). That is
//! the numeric order because every `f` and `g` is finite and ≥ +0.0:
//! `g` starts at `+0.0` and adds non-negative costs, `h` is a sum of
//! non-negative products, and for non-negative IEEE doubles a larger
//! value has larger bits. Only `±0.0` compare equal with different bits,
//! and a `-0.0` cannot arise (`+0.0 + -0.0 = +0.0`). The arithmetic itself
//! — `h` as `|Δx|·pitch_x + |Δy|·pitch_y`, `g` as the settled cell's cost
//! plus the edge cost, the strict `g <` test — is the one a search over
//! freshly filled arrays does, term for term.

use std::collections::BinaryHeap;

use crate::grid::RoutingGrid;

/// One step of a path: `(cell reached, edge used to reach it)`.
type Step = (u32, u32);

/// Back pointer of a source cell; a grid must have fewer cells than this.
const NONE: u32 = u32::MAX;

/// Heap key `(!f.to_bits(), g.to_bits(), !cell)`: the max-heap pops the
/// smallest `f`, then the largest `g`, then the smallest cell.
type Key = (u64, u64, u32);

fn key(f: f64, g: f64, cell: u32) -> Key {
    debug_assert!(f.is_finite() && f.is_sign_positive() && g.is_finite() && g.is_sign_positive());
    (!f.to_bits(), g.to_bits(), !cell)
}

/// The next generation stamp. Marks hold stamps of earlier generations,
/// all below the new one; on wrap-around `zero` resets every mark first.
fn next_stamp(stamp: u32, zero: impl FnOnce()) -> u32 {
    stamp.checked_add(1).unwrap_or_else(|| {
        zero();
        1
    })
}

/// A set of indices emptied in O(1): an index is in the set while its
/// mark equals the current stamp.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    mark: Vec<u32>,
    stamp: u32,
}

impl Marks {
    /// Empties the set and makes room for indices below `len`.
    pub(crate) fn clear(&mut self, len: usize) {
        if self.mark.len() < len {
            self.mark.resize(len, 0);
        }
        self.stamp = next_stamp(self.stamp, || self.mark.fill(0));
    }

    /// Adds `i`; returns whether it was absent.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let fresh = self.mark[i] != self.stamp;
        self.mark[i] = self.stamp;
        fresh
    }

    /// Whether `i` is in the set.
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.mark[i] == self.stamp
    }

    /// Raises the stamp to at least `stamp` (see [`Scratch::raise_stamps`]).
    #[cfg(test)]
    pub(crate) fn raise(&mut self, stamp: u32) {
        self.stamp = self.stamp.max(stamp);
    }
}

/// One cell's record in a search.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Best cost found so far, valid while `reached` is current.
    dist: f64,
    /// Predecessor cell ([`NONE`] for a source) and the edge from it.
    from: u32,
    edge: u32,
    reached: u32,
    done: u32,
}

/// The A* search's reusable memory.
#[derive(Debug, Default)]
struct Search {
    slots: Vec<Slot>,
    stamp: u32,
    heap: BinaryHeap<Key>,
    path: Vec<Step>,
}

impl Search {
    /// Minimum-cost path from any cell of `sources` to `target`, in
    /// source→target order; the source cell itself is not included.
    /// `cost(e)` must be finite and at least
    /// [`RoutingGrid::edge_length_um`] for the heuristic to stay
    /// admissible.
    ///
    /// # Panics
    ///
    /// Panics if `target` is unreachable, which cannot happen on a grid
    /// with finite edge costs and a non-empty source set.
    fn shortest_path<C: Fn(usize) -> f64>(
        &mut self,
        grid: &RoutingGrid,
        cost: &C,
        sources: &[u32],
        target: u32,
    ) -> &[Step] {
        let n = grid.cell_count();
        assert!(n < NONE as usize, "grid too large for u32 cell indices");
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.stamp = next_stamp(self.stamp, || {
            self.slots.iter_mut().for_each(|s| {
                s.reached = 0;
                s.done = 0;
            })
        });
        let stamp = self.stamp;
        let slots = &mut self.slots[..n];
        let heap = &mut self.heap;
        heap.clear();

        let nx = grid.nx;
        let h0 = grid.h_edge_count();
        let (tx, ty) = grid.cell_xy(target as usize);
        let hx = |x: usize| x.abs_diff(tx) as f64 * grid.pitch_x_um;
        let hy = |y: usize| y.abs_diff(ty) as f64 * grid.pitch_y_um;

        for &s in sources {
            let slot = &mut slots[s as usize];
            slot.dist = 0.0;
            slot.from = NONE;
            slot.reached = stamp;
            let (x, y) = grid.cell_xy(s as usize);
            heap.push(key(hx(x) + hy(y), 0.0, s));
        }

        while let Some((_, _, cell)) = heap.pop() {
            let c = !cell as usize;
            if slots[c].done == stamp {
                continue;
            }
            slots[c].done = stamp;
            if c == target as usize {
                break;
            }
            let base = slots[c].dist;
            let (x, y) = (c % nx, c / nx);
            let mut relax = |nc: usize, edge: usize, (nx_, ny_): (usize, usize)| {
                let slot = &mut slots[nc];
                if slot.done == stamp {
                    return;
                }
                let g = base + cost(edge);
                let old = if slot.reached == stamp {
                    slot.dist
                } else {
                    f64::INFINITY
                };
                if g < old {
                    slot.dist = g;
                    slot.from = c as u32;
                    slot.edge = edge as u32;
                    slot.reached = stamp;
                    heap.push(key(g + (hx(nx_) + hy(ny_)), g, nc as u32));
                }
            };
            // West, east, south, north: the order and edge numbering of
            // the reference search in `oracle.rs`.
            if x > 0 {
                relax(c - 1, y * (nx - 1) + (x - 1), (x - 1, y));
            }
            if x + 1 < nx {
                relax(c + 1, y * (nx - 1) + x, (x + 1, y));
            }
            if y > 0 {
                relax(c - nx, h0 + (y - 1) * nx + x, (x, y - 1));
            }
            if y + 1 < grid.ny {
                relax(c + nx, h0 + y * nx + x, (x, y + 1));
            }
        }
        assert!(
            slots[target as usize].done == stamp,
            "grid is connected; target must be reachable"
        );

        let path = &mut self.path;
        path.clear();
        let mut c = target;
        while slots[c as usize].from != NONE {
            let slot = slots[c as usize];
            path.push((c, slot.edge));
            c = slot.from;
        }
        path.reverse();
        path
    }
}

/// One thread's routing memory: the search's records plus the growing
/// route tree. Routing a net through it allocates nothing grid-sized
/// once the scratch has seen a grid that large.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    search: Search,
    in_tree: Marks,
    tree: Vec<u32>,
}

impl Scratch {
    /// Routes one net as a tree: start at the first terminal, then connect
    /// each remaining terminal to the grown tree with an A* search.
    /// Returns the sorted, deduplicated edge set and the bend count.
    pub(crate) fn route_net<C: Fn(usize) -> f64>(
        &mut self,
        grid: &RoutingGrid,
        cost: &C,
        terminals: &[usize],
    ) -> (Vec<u32>, usize) {
        if terminals.len() < 2 {
            return (Vec::new(), 0);
        }
        let h0 = grid.h_edge_count();
        self.in_tree.clear(grid.cell_count());
        self.in_tree.insert(terminals[0]);
        self.tree.clear();
        self.tree.push(terminals[0] as u32);
        let mut edges: Vec<u32> = Vec::new();
        let mut bends = 0usize;
        for &t in &terminals[1..] {
            if self.in_tree.contains(t) {
                continue;
            }
            let path = self.search.shortest_path(grid, cost, &self.tree, t as u32);
            let mut prev_h: Option<bool> = None;
            for &(cell, edge) in path {
                let is_h = (edge as usize) < h0;
                if prev_h.is_some_and(|p| p != is_h) {
                    bends += 1;
                }
                prev_h = Some(is_h);
                edges.push(edge);
                if self.in_tree.insert(cell as usize) {
                    self.tree.push(cell);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        (edges, bends)
    }

    /// Raises every stamp to at least `stamp` (raising keeps each mark
    /// below its stamp) and returns the search stamp held before, so a
    /// test can drive the counters through their wrap-around.
    #[cfg(test)]
    pub(crate) fn raise_stamps(&mut self, stamp: u32) -> u32 {
        self.in_tree.raise(stamp);
        let before = self.search.stamp;
        self.search.stamp = before.max(stamp);
        before
    }

    /// [`Search::shortest_path`] on this scratch, copied out.
    #[cfg(test)]
    fn shortest_path<C: Fn(usize) -> f64>(
        &mut self,
        grid: &RoutingGrid,
        cost: &C,
        sources: &[u32],
        target: u32,
    ) -> Vec<Step> {
        self.search
            .shortest_path(grid, cost, sources, target)
            .to_vec()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn path(g: &RoutingGrid, cost: &impl Fn(usize) -> f64, src: &[u32], dst: u32) -> Vec<Step> {
        Scratch::default().shortest_path(g, cost, src, dst)
    }

    #[test]
    fn straight_line_on_uniform_costs() {
        let g = RoutingGrid::uniform(8, 8, 10.0, 4);
        let cost = |e: usize| g.edge_length_um(e);
        // (0,3) -> (7,3): seven horizontal steps, length 70.
        let src = 3 * 8;
        let dst = 3 * 8 + 7;
        let path = path(&g, &cost, &[src], dst);
        assert_eq!(path.len(), 7);
        let len: f64 = path
            .iter()
            .map(|&(_, e)| g.edge_length_um(e as usize))
            .sum();
        assert!((len - 70.0).abs() < 1e-9);
        assert_eq!(path.last().expect("non-empty").0, dst);
    }

    #[test]
    fn detours_around_expensive_edges() {
        let g = RoutingGrid::uniform(3, 3, 1.0, 4);
        // Make the direct middle-row edges prohibitively expensive; the
        // path from (0,1) to (2,1) must detour through another row.
        let blocked: Vec<usize> = (0..g.edge_count())
            .filter(|&e| e < g.h_edge_count() && e / (g.nx - 1) == 1)
            .collect();
        let cost = |e: usize| {
            if blocked.contains(&e) {
                1000.0
            } else {
                g.edge_length_um(e)
            }
        };
        let path = path(&g, &cost, &[3], 5);
        let len: f64 = path.iter().map(|&(_, e)| cost(e as usize)).sum();
        assert!((len - 4.0).abs() < 1e-9, "detour length {len}");
    }

    #[test]
    fn multi_source_starts_from_nearest() {
        let g = RoutingGrid::uniform(6, 1, 1.0, 4);
        let cost = |e: usize| g.edge_length_um(e);
        // Sources at 0 and 4; target 5 should attach to 4, one step.
        let path = path(&g, &cost, &[0, 4], 5);
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn marks_empty_in_constant_time_and_survive_wrap_around() {
        let mut m = Marks::default();
        m.clear(4);
        assert!(m.insert(2) && !m.insert(2) && m.contains(2));
        m.clear(8);
        assert!((0..8).all(|i| !m.contains(i)));
        // Index 2 still holds stamp 1, the one the wrap restarts at.
        m.stamp = u32::MAX;
        m.clear(8);
        assert_eq!(m.stamp, 1);
        assert!((0..8).all(|i| !m.contains(i)), "wrap must zero every mark");
    }
}
