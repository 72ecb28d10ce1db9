//! The placement engine: cluster-growth ordering and snake-order row
//! packing.
//!
//! Both run on the netlist's 32-bit handles: the BFS walks the
//! netlist's `u32` net → instance CSR ([`Netlist::net_pins`]) with a
//! `u32` instance queue. A [`PlacedDesign`] shares the netlist's
//! names: it holds one clone of the instance-name buffer, and a cell's
//! name is read at its instance handle.

use netlist::{CellKind, CellLibrary, InstId, NameBuf, Netlist};
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

/// A placed design: floorplan plus cell coordinates, with the source
/// netlist's instance names in one buffer (a clone of
/// [`Netlist::instance_names`], indexed by instance handle).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedDesign {
    design_name: String,
    floorplan: Floorplan,
    cells: Vec<PlacedCell>,
    names: NameBuf,
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
        self.names.get(self.cells[index].inst.index())
    }

    /// Every placed cell with its instance name.
    pub fn named_cells(&self) -> impl Iterator<Item = (&str, &PlacedCell)> {
        self.cells
            .iter()
            .map(|cell| (self.names.get(cell.inst.index()), cell))
    }

    /// The placed flip-flops.
    pub fn flip_flops(&self) -> impl Iterator<Item = &PlacedCell> {
        self.cells.iter().filter(|c| c.kind.is_flip_flop())
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

    /// Assembles a design, cloning `netlist`'s instance-name buffer
    /// whole (one copy, not one push per cell).
    pub(crate) fn from_parts(
        netlist: &Netlist,
        floorplan: Floorplan,
        cells: Vec<PlacedCell>,
    ) -> Self {
        Self {
            design_name: netlist.name().to_owned(),
            floorplan,
            cells,
            names: netlist.instance_names().clone(),
        }
    }
}

/// Places a netlist: plans the floorplan, orders cells by cluster
/// growth and packs rows in snake order. The die grows by whole rows
/// when packing needs more rows than planned (at utilization near 1,
/// end-of-row waste can need one or more extra rows).
#[must_use]
pub fn place(netlist: &Netlist, library: &CellLibrary, options: &PlacerOptions) -> PlacedDesign {
    let mut floorplan = Floorplan::plan(netlist, library, options.utilization);
    let order = cluster_growth_order(netlist);
    let cells = pack_rows(netlist, library, &mut floorplan, &order);
    PlacedDesign::from_parts(netlist, floorplan, cells)
}

/// Orders placeable instances by BFS over the net hypergraph so
/// connected cells are adjacent in the ordering (and therefore in the
/// packed rows).
///
/// `order` doubles as the BFS queue (`head` is the next instance to
/// expand). Ports start visited, and each net's pin list is scanned at
/// most once: after its first scan every instance on it is visited or
/// a port, so a rescan would enqueue nothing.
fn cluster_growth_order(netlist: &Netlist) -> Vec<InstId> {
    let pins = netlist.net_pins();
    let instances = netlist.instances();
    let mut visited: Vec<bool> = instances.iter().map(|i| i.kind.is_port()).collect();
    let mut scanned = vec![false; netlist.net_count()];
    let mut order = Vec::with_capacity(instances.len());
    let mut head = 0;

    for seed in 0..instances.len() {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        order.push(InstId::from_index(seed));
        while head < order.len() {
            let inst = order[head];
            head += 1;
            for net in instances[inst.index()].nets() {
                if std::mem::replace(&mut scanned[net.index()], true) {
                    continue;
                }
                for &other in pins.net(net) {
                    if !visited[other.index()] {
                        visited[other.index()] = true;
                        order.push(other);
                    }
                }
            }
        }
    }
    order
}

/// Packs ordered cells into rows boustrophedon-style, growing the
/// floorplan's row count if the cells need more rows than it planned.
fn pack_rows(
    netlist: &Netlist,
    library: &CellLibrary,
    floorplan: &mut Floorplan,
    order: &[InstId],
) -> Vec<PlacedCell> {
    let mut cells = Vec::with_capacity(order.len());
    let sites_per_row = floorplan.sites_per_row();
    let mut row = 0usize;
    let mut used_sites = 0usize;
    // The open row's cells: (inst, kind, sites).
    let mut row_cells: Vec<(InstId, CellKind, usize)> = Vec::new();

    let mut flush = |row: usize, used_sites: usize, row_cells: &mut Vec<_>| {
        floorplan.grow_rows(row + 1);
        // Even rows fill left→right, odd rows right→left (snake), which
        // keeps order-adjacent cells physically adjacent across row
        // boundaries.
        let mut site = if row.is_multiple_of(2) {
            0usize
        } else {
            sites_per_row.saturating_sub(used_sites)
        };
        let y = floorplan.row_y(row);
        for &(inst, kind, sites) in row_cells.iter() {
            cells.push(PlacedCell {
                inst,
                kind,
                x: floorplan.site_width() * site as f64,
                y,
                row,
            });
            site += sites;
        }
        row_cells.clear();
    };

    for &inst in order {
        let kind = netlist.instance(inst).kind;
        let sites = library.sites(kind).max(1);
        if used_sites + sites > sites_per_row && !row_cells.is_empty() {
            flush(row, used_sites, &mut row_cells);
            row += 1;
            used_sites = 0;
        }
        row_cells.push((inst, kind, sites));
        used_sites += sites;
    }
    flush(row, used_sites, &mut row_cells);
    cells
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
        let clustered = pack_rows(&n, &lib, &mut fp, &cluster_growth_order(&n));
        // Locality-destroying baseline: a coprime-stride permutation
        // separates previously adjacent instances.
        let ids = n.placeable();
        let stride = 101; // coprime to any realistic instance count here
        let random_order: Vec<InstId> = (0..ids.len())
            .map(|k| ids[(k * stride) % ids.len()])
            .collect();
        let shuffled = pack_rows(&n, &lib, &mut fp, &random_order);
        let as_design = |cells: Vec<PlacedCell>| PlacedDesign::from_parts(&n, fp.clone(), cells);
        let hp_clustered = as_design(clustered).hpwl(&n, &lib);
        let hp_shuffled = as_design(shuffled).hpwl(&n, &lib);
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
    fn placement_is_deterministic() {
        let n = s344();
        let lib = CellLibrary::n40();
        let a = place(&n, &lib, &PlacerOptions::default());
        let b = place(&n, &lib, &PlacerOptions::default());
        assert_eq!(a, b);
    }
}
