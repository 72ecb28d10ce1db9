//! The placement engine: cluster-growth ordering and row packing
//! (every row left to right, odd rows right-aligned).
//!
//! Both run on the netlist's 32-bit handles: the BFS walks the
//! netlist's `u32` net → instance CSR ([`Netlist::net_pins_into`])
//! with a `u32` instance queue. A [`PlacedDesign`] shares the
//! netlist's names by handle (a cell's name is read at its instance
//! handle, and a generated netlist builds its names only then), and
//! records its flip-flops' cell indices as it packs them.
//!
//! [`place_into`] works in caller-held [`PlaceBuffers`] and refills a
//! caller-held design, so a flow that places design after design
//! reuses one set of buffers; [`place`] is its owning form.

use std::sync::Arc;

use netlist::{CellKind, CellLibrary, InstId, Names, NetId, NetPins, Netlist};
use units::Length;

use crate::floorplan::Floorplan;

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Row utilization target, in (0, 1].
    pub utilization: f64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self { utilization: 0.7 }
    }
}

/// One placed cell; its name is [`PlacedDesign::cell_name`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedCell {
    /// Instance handle in the source netlist.
    pub(crate) inst: InstId,
    /// Cell kind.
    pub kind: CellKind,
    /// Left edge.
    pub x: Length,
    /// Row bottom edge.
    pub y: Length,
    /// Row index.
    pub row: usize,
}

/// A placed design: floorplan plus cell coordinates, the index of
/// every flip-flop among the cells, and a handle to the source
/// netlist's names (indexed by instance handle).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacedDesign {
    design_name: String,
    floorplan: Floorplan,
    cells: Vec<PlacedCell>,
    /// `cells` indices of the flip-flops, ascending.
    flip_flops: Vec<usize>,
    names: Arc<Names>,
}

impl PlacedDesign {
    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.design_name
    }

    /// The floorplan.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// All placed cells.
    #[must_use]
    pub fn cells(&self) -> &[PlacedCell] {
        &self.cells
    }

    /// Instance name of `cells()[index]`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ cells().len()`.
    #[must_use]
    pub fn cell_name(&self, index: usize) -> &str {
        self.names.instance(self.cells[index].inst.index())
    }

    /// Every placed cell with its instance name.
    pub fn named_cells(&self) -> impl Iterator<Item = (&str, &PlacedCell)> {
        self.cells
            .iter()
            .map(|cell| (self.names.instance(cell.inst.index()), cell))
    }

    /// Indices in [`PlacedDesign::cells`] of the flip-flops, ascending
    /// (recorded by the placer; no scan of the cells). Cells are packed
    /// row by row, each row left to right, so the flip-flops come in
    /// `y`, then `x` order.
    #[must_use]
    pub fn flip_flop_indices(&self) -> &[usize] {
        &self.flip_flops
    }

    /// The placed flip-flops, in cell order.
    pub fn flip_flops(&self) -> impl Iterator<Item = &PlacedCell> {
        self.flip_flops.iter().map(|&i| &self.cells[i])
    }

    /// Half-perimeter wirelength against the source netlist, in metres
    /// — the placement's quality measure, exposed for quality tracking
    /// and the placement tests.
    #[must_use]
    pub fn hpwl(&self, netlist: &Netlist, library: &CellLibrary) -> f64 {
        let mut pos: Vec<Option<(f64, f64)>> = vec![None; netlist.instance_count()];
        for cell in &self.cells {
            let w = library.footprint(cell.kind).width.meters();
            pos[cell.inst.index()] = Some((cell.x.meters() + w / 2.0, cell.y.meters()));
        }
        let mut total = 0.0;
        for pins in netlist.net_pins().iter() {
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            let mut seen = false;
            for inst in pins {
                if let Some((x, y)) = pos[inst.index()] {
                    min_x = min_x.min(x);
                    max_x = max_x.max(x);
                    min_y = min_y.min(y);
                    max_y = max_y.max(y);
                    seen = true;
                }
            }
            if seen {
                total += (max_x - min_x) + (max_y - min_y);
            }
        }
        total
    }
}

/// The placer's working buffers: the net → instance table, the BFS
/// flags and the growth order. [`place_into`] refills them, so a
/// caller placing many designs keeps one set.
#[derive(Debug, Default)]
pub struct PlaceBuffers {
    pins: NetPins,
    visited: Vec<bool>,
    scanned: Vec<bool>,
    order: Vec<InstId>,
}

/// Places a netlist: plans the floorplan, orders cells by cluster
/// growth and packs them into rows in that order, each row left to
/// right with odd rows right-aligned. The die grows by whole rows
/// when packing needs more rows than planned (at utilization near 1,
/// end-of-row waste can need one or more extra rows).
#[must_use]
pub fn place(netlist: &Netlist, library: &CellLibrary, options: &PlacerOptions) -> PlacedDesign {
    let mut placed = PlacedDesign::default();
    place_into(
        netlist,
        library,
        options,
        &mut PlaceBuffers::default(),
        &mut placed,
    );
    placed
}

/// [`place`] into caller-held buffers: `out` is replaced by the
/// placement of `netlist`, reusing its cell and flip-flop vectors, and
/// `buffers` keep their capacity for the next design.
pub fn place_into(
    netlist: &Netlist,
    library: &CellLibrary,
    options: &PlacerOptions,
    buffers: &mut PlaceBuffers,
    out: &mut PlacedDesign,
) {
    let mut floorplan = Floorplan::plan(netlist, library, options.utilization);
    cluster_growth_order(netlist, buffers);
    pack_rows(netlist, library, &mut floorplan, &buffers.order, out);
    out.design_name.clear();
    out.design_name.push_str(netlist.name());
    out.floorplan = floorplan;
    out.names = Arc::clone(netlist.names());
}

/// Orders placeable instances by BFS over the net hypergraph so
/// connected cells are adjacent in the ordering (and therefore in the
/// packed rows), into `buffers.order`.
///
/// `order` doubles as the BFS queue (`head` is the next instance to
/// expand; it scans its input nets, then its output net; `tail` ends
/// the queue). Ports start visited, and each net's pin list is scanned
/// at most once: after its first scan every instance on it is visited
/// or a port, so a rescan would enqueue nothing. A pin is enqueued
/// without a branch: every instance is written at `tail`, which
/// advances only if it was unvisited (the visited test on a random
/// pin mispredicts too often to branch on); `order` has one spare slot
/// for the write past the last instance.
fn cluster_growth_order(netlist: &Netlist, buffers: &mut PlaceBuffers) {
    let PlaceBuffers {
        pins,
        visited,
        scanned,
        order,
    } = buffers;
    let instances = netlist.instances();
    visited.clear();
    visited.extend(instances.iter().map(|i| i.kind.is_port()));
    scanned.clear();
    scanned.resize(netlist.net_count(), false);
    netlist.net_pins_into(pins);
    order.clear();
    order.resize(instances.len() + 1, InstId(0));
    let (mut head, mut tail) = (0, 0);
    let mut scan = |net: NetId, visited: &mut [bool], order: &mut [InstId], tail: &mut usize| {
        if std::mem::replace(&mut scanned[net.index()], true) {
            return;
        }
        for &other in pins.net(net) {
            let seen = std::mem::replace(&mut visited[other.index()], true);
            order[*tail] = other;
            *tail += usize::from(!seen);
        }
    };

    for seed in 0..instances.len() {
        if std::mem::replace(&mut visited[seed], true) {
            continue;
        }
        order[tail] = InstId::from_index(seed);
        tail += 1;
        while head < tail {
            let inst = &instances[order[head].index()];
            head += 1;
            for &net in inst.inputs() {
                scan(net, visited, order, &mut tail);
            }
            if let Some(net) = inst.output {
                scan(net, visited, order, &mut tail);
            }
        }
    }
    order.truncate(tail);
}

/// Packs ordered cells into `out`'s rows, each left to right, growing
/// the floorplan's row count if the cells need more rows than it
/// planned, and records each flip-flop's cell index as it goes. A cell
/// is pushed with its row when it joins the open row; closing the row
/// sets its x and y in place.
fn pack_rows(
    netlist: &Netlist,
    library: &CellLibrary,
    floorplan: &mut Floorplan,
    order: &[InstId],
    out: &mut PlacedDesign,
) {
    let PlacedDesign {
        cells, flip_flops, ..
    } = out;
    cells.clear();
    cells.reserve(order.len());
    flip_flops.clear();
    let sites_per_row = floorplan.sites_per_row();
    let mut row = 0usize;
    let mut used_sites = 0usize;
    let mut row_start = 0;

    let mut close = |row: usize, used_sites: usize, row_cells: &mut [PlacedCell]| {
        floorplan.grow_rows(row + 1);
        // Every row is laid left to right in order. Even rows start at
        // the left edge; odd rows are right-aligned, so a short row's
        // end-of-row gap sits at its left end.
        let mut site = if row.is_multiple_of(2) {
            0usize
        } else {
            sites_per_row.saturating_sub(used_sites)
        };
        let y = floorplan.row_y(row);
        for cell in row_cells {
            cell.x = floorplan.site_width() * site as f64;
            cell.y = y;
            site += library.sites(cell.kind).max(1);
        }
    };

    for &inst in order {
        let kind = netlist.instance(inst).kind;
        let sites = library.sites(kind).max(1);
        if used_sites + sites > sites_per_row && cells.len() > row_start {
            close(row, used_sites, &mut cells[row_start..]);
            row += 1;
            used_sites = 0;
            row_start = cells.len();
        }
        if kind.is_flip_flop() {
            flip_flops.push(cells.len());
        }
        cells.push(PlacedCell {
            inst,
            kind,
            x: Length::ZERO,
            y: Length::ZERO,
            row,
        });
        used_sites += sites;
    }
    close(row, used_sites, &mut cells[row_start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::benchmarks;

    fn s344() -> Netlist {
        benchmarks::generate(benchmarks::by_name("s344").unwrap())
    }

    #[test]
    fn places_every_placeable_cell_once() {
        let n = s344();
        let placed = place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        assert_eq!(placed.cells().len(), n.placeable().len());
        let mut seen: Vec<usize> = placed.cells().iter().map(|c| c.inst.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), placed.cells().len());
        assert_eq!(placed.name(), "s344");
    }

    #[test]
    fn cells_stay_inside_the_die() {
        let n = s344();
        let lib = CellLibrary::n40();
        let placed = place(&n, &lib, &PlacerOptions::default());
        assert_legal(&placed, &lib);
    }

    /// Every cell inside the die and no two cells of a row overlapping.
    fn assert_legal(placed: &PlacedDesign, lib: &CellLibrary) {
        let fp = placed.floorplan();
        let die_w = fp.die_width().meters() + 1e-12;
        let die_h = fp.die_height().meters() + 1e-12;
        let mut by_row: std::collections::HashMap<usize, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for (name, cell) in placed.named_cells() {
            let w = lib.footprint(cell.kind).width.meters();
            assert!(cell.x.meters() >= -1e-12, "{name}");
            assert!(cell.x.meters() + w <= die_w, "{name}");
            assert!(cell.row < fp.rows(), "{name}");
            assert!(
                cell.y.meters() + fp.row_height().meters() <= die_h,
                "{name}"
            );
            by_row
                .entry(cell.row)
                .or_default()
                .push((cell.x.meters(), cell.x.meters() + w));
        }
        for (row, mut spans) in by_row {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            for pair in spans.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0 + 1e-12,
                    "overlap in row {row}: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn full_utilization_grows_the_die_by_whole_rows() {
        // At utilization 1 end-of-row waste needs more rows than the
        // floorplan planned; the die grows by those rows instead of
        // stacking cells on its last row (legality at 1.0 is checked by
        // `no_two_cells_overlap_in_a_row`).
        let n = s344();
        let lib = CellLibrary::n40();
        let planned = Floorplan::plan(&n, &lib, 1.0);
        let placed = place(&n, &lib, &PlacerOptions { utilization: 1.0 });
        assert!(placed.floorplan().rows() > planned.rows());
        assert_eq!(
            placed.floorplan().die_width(),
            planned.die_width(),
            "only the row count grows"
        );
    }

    #[test]
    fn no_two_cells_overlap_in_a_row() {
        let n = s344();
        let lib = CellLibrary::n40();
        for utilization in [0.5, 0.7, 0.9, 0.95, 1.0] {
            let placed = place(&n, &lib, &PlacerOptions { utilization });
            assert_legal(&placed, &lib);
        }
    }

    #[test]
    fn cluster_growth_beats_random_order_on_hpwl() {
        let n = benchmarks::generate(benchmarks::by_name("s838").unwrap());
        let lib = CellLibrary::n40();
        let mut fp = Floorplan::plan(&n, &lib, 0.7);
        let packed = |fp: &mut Floorplan, order: &[InstId]| {
            let mut design = PlacedDesign::default();
            pack_rows(&n, &lib, fp, order, &mut design);
            design
        };
        let mut buffers = PlaceBuffers::default();
        cluster_growth_order(&n, &mut buffers);
        let clustered = packed(&mut fp, &buffers.order);
        // Locality-destroying baseline: a coprime-stride permutation
        // separates previously adjacent instances.
        let ids = n.placeable();
        let stride = 101; // coprime to any realistic instance count here
        let random_order: Vec<InstId> = (0..ids.len())
            .map(|k| ids[(k * stride) % ids.len()])
            .collect();
        let shuffled = packed(&mut fp, &random_order);
        let hp_clustered = clustered.hpwl(&n, &lib);
        let hp_shuffled = shuffled.hpwl(&n, &lib);
        assert!(
            hp_clustered < hp_shuffled,
            "clustered {hp_clustered} vs reversed {hp_shuffled}"
        );
    }

    #[test]
    fn flip_flops_are_all_placed() {
        let n = s344();
        let placed = place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        assert_eq!(placed.flip_flops().count(), 15);
    }

    #[test]
    fn flip_flop_indices_are_the_flip_flop_cells_in_order() {
        let n = benchmarks::generate(benchmarks::by_name("s838").unwrap());
        let placed = place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let filtered: Vec<usize> = placed
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_flip_flop())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(placed.flip_flop_indices(), filtered);
        assert_eq!(placed.flip_flops().count(), 32);
    }

    #[test]
    fn reused_buffers_place_like_fresh_ones() {
        // Larger, smaller, then larger again: each refill must leave
        // nothing of the previous design behind.
        let lib = CellLibrary::n40();
        let options = PlacerOptions::default();
        let mut buffers = PlaceBuffers::default();
        let mut reused = PlacedDesign::default();
        for name in ["s5378", "s344", "s838", "s5378"] {
            let n = benchmarks::generate(benchmarks::by_name(name).unwrap());
            place_into(&n, &lib, &options, &mut buffers, &mut reused);
            assert_eq!(reused, place(&n, &lib, &options), "{name}");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let n = s344();
        let lib = CellLibrary::n40();
        let a = place(&n, &lib, &PlacerOptions::default());
        let b = place(&n, &lib, &PlacerOptions::default());
        assert_eq!(a, b);
    }
}
