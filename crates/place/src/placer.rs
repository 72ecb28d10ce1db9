//! The placement engine: cluster-growth ordering, snake-order row
//! packing, and annealing refinement.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use netlist::{CellKind, CellLibrary, InstId, Netlist};
use units::Length;

use crate::floorplan::Floorplan;

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Row utilization target.
    pub utilization: f64,
    /// Simulated-annealing swap refinement passes (0 disables; large
    /// designs default to 0 automatically above
    /// [`PlacerOptions::refine_cell_limit`]).
    pub refine_passes: usize,
    /// Designs larger than this skip refinement.
    pub refine_cell_limit: usize,
    /// RNG seed for the annealer.
    pub seed: u64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self {
            utilization: 0.7,
            refine_passes: 2,
            refine_cell_limit: 20_000,
            seed: 1,
        }
    }
}

/// One placed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedCell {
    /// Instance handle in the source netlist.
    pub(crate) inst: InstId,
    /// Instance name.
    pub name: String,
    /// Cell kind.
    pub kind: CellKind,
    /// Left edge.
    pub x: Length,
    /// Row bottom edge.
    pub y: Length,
    /// Row index.
    pub row: usize,
}

impl PlacedCell {}

/// A placed design: floorplan plus cell coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedDesign {
    design_name: String,
    floorplan: Floorplan,
    cells: Vec<PlacedCell>,
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

    /// The placed flip-flops.
    pub fn flip_flops(&self) -> impl Iterator<Item = &PlacedCell> {
        self.cells.iter().filter(|c| c.kind.is_flip_flop())
    }

    /// Half-perimeter wirelength against the source netlist, in metres
    /// — the placer's optimization objective, exposed for quality
    /// tracking and the placement tests.
    #[must_use]
    pub fn hpwl(&self, netlist: &Netlist, library: &CellLibrary) -> f64 {
        let mut pos: Vec<Option<(f64, f64)>> = vec![None; netlist.instance_count()];
        for cell in &self.cells {
            let w = library.footprint(cell.kind).width.meters();
            pos[cell.inst.0] = Some((cell.x.meters() + w / 2.0, cell.y.meters()));
        }
        let mut total = 0.0;
        for pins in netlist.net_pins() {
            let mut min_x = f64::INFINITY;
            let mut max_x = f64::NEG_INFINITY;
            let mut min_y = f64::INFINITY;
            let mut max_y = f64::NEG_INFINITY;
            let mut seen = false;
            for inst in pins {
                if let Some((x, y)) = pos[inst.0] {
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

    pub(crate) fn from_parts(
        design_name: String,
        floorplan: Floorplan,
        cells: Vec<PlacedCell>,
    ) -> Self {
        Self {
            design_name,
            floorplan,
            cells,
        }
    }
}

/// Places a netlist: plans the floorplan, orders cells by cluster
/// growth, packs rows in snake order and optionally refines by
/// annealed swaps.
#[must_use]
pub fn place(netlist: &Netlist, library: &CellLibrary, options: &PlacerOptions) -> PlacedDesign {
    let floorplan = Floorplan::plan(netlist, library, options.utilization);
    let order = cluster_growth_order(netlist);
    let mut cells = pack_rows(netlist, library, &floorplan, &order);
    if options.refine_passes > 0 && cells.len() <= options.refine_cell_limit {
        refine(netlist, library, &mut cells, options);
    }
    PlacedDesign::from_parts(netlist.name().to_owned(), floorplan, cells)
}

/// Orders placeable instances by BFS over the net hypergraph so
/// connected cells are adjacent in the ordering (and therefore in the
/// packed rows).
fn cluster_growth_order(netlist: &Netlist) -> Vec<InstId> {
    let pins = netlist.net_pins();
    let n = netlist.instance_count();
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();

    for seed in 0..n {
        if visited[seed] || netlist.instance(InstId(seed)).kind.is_port() {
            continue;
        }
        visited[seed] = true;
        queue.push_back(InstId(seed));
        while let Some(inst) = queue.pop_front() {
            order.push(inst);
            let instance = netlist.instance(inst);
            for net in instance.inputs.iter().chain(instance.output.iter()) {
                for &other in &pins[net.0] {
                    if !visited[other.0] && !netlist.instance(other).kind.is_port() {
                        visited[other.0] = true;
                        queue.push_back(other);
                    }
                }
            }
        }
    }
    order
}

/// Packs ordered cells into rows boustrophedon-style.
fn pack_rows(
    netlist: &Netlist,
    library: &CellLibrary,
    floorplan: &Floorplan,
    order: &[InstId],
) -> Vec<PlacedCell> {
    let mut cells = Vec::with_capacity(order.len());
    let sites_per_row = floorplan.sites_per_row();
    let mut row = 0usize;
    let mut used_sites = 0usize;
    let mut row_cells: Vec<(InstId, usize)> = Vec::new(); // (inst, sites)

    let flush = |row: usize, row_cells: &mut Vec<(InstId, usize)>, cells: &mut Vec<PlacedCell>| {
        // Even rows fill left→right, odd rows right→left (snake), which
        // keeps order-adjacent cells physically adjacent across row
        // boundaries.
        let total: usize = row_cells.iter().map(|&(_, s)| s).sum();
        let mut site = if row.is_multiple_of(2) {
            0usize
        } else {
            sites_per_row.saturating_sub(total)
        };
        for &(inst, sites) in row_cells.iter() {
            let instance = netlist.instance(inst);
            cells.push(PlacedCell {
                inst,
                name: instance.name.clone(),
                kind: instance.kind,
                x: floorplan.site_width() * site as f64,
                y: floorplan.row_y(row.min(floorplan.rows() - 1)),
                row: row.min(floorplan.rows() - 1),
            });
            site += sites;
        }
        row_cells.clear();
    };

    for &inst in order {
        let sites = library.sites(netlist.instance(inst).kind).max(1);
        if used_sites + sites > sites_per_row && !row_cells.is_empty() {
            flush(row, &mut row_cells, &mut cells);
            row += 1;
            used_sites = 0;
        }
        row_cells.push((inst, sites));
        used_sites += sites;
    }
    flush(row, &mut row_cells, &mut cells);
    cells
}

/// Annealed pairwise swap refinement minimizing HPWL.
fn refine(
    netlist: &Netlist,
    library: &CellLibrary,
    cells: &mut [PlacedCell],
    options: &PlacerOptions,
) {
    if cells.len() < 2 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(options.seed);
    // Instance → cell slot lookup plus per-instance nets for incremental
    // cost evaluation.
    let pins = netlist.net_pins();
    let mut slot_of = vec![usize::MAX; netlist.instance_count()];
    for (slot, cell) in cells.iter().enumerate() {
        slot_of[cell.inst.0] = slot;
    }
    let sweeps = options.refine_passes * cells.len() * 4;
    for _ in 0..sweeps {
        let a = rng.random_range(0..cells.len());
        let b = rng.random_range(0..cells.len());
        if a == b || cells[a].kind != cells[b].kind {
            // Equal-footprint swaps keep the row packing legal.
            continue;
        }
        let (ia, ib) = (cells[a].inst, cells[b].inst);
        let before = local_cost(netlist, library, &pins, &slot_of, cells, ia)
            + local_cost(netlist, library, &pins, &slot_of, cells, ib);
        swap_positions(cells, a, b);
        slot_of.swap(ia.0, ib.0);
        let after = local_cost(netlist, library, &pins, &slot_of, cells, ia)
            + local_cost(netlist, library, &pins, &slot_of, cells, ib);
        // Greedy acceptance: the refinement never worsens the placement
        // (the cluster-growth start is already good; annealed uphill
        // moves were measured to hurt more than help at this scale).
        if after >= before {
            swap_positions(cells, a, b);
            slot_of.swap(ia.0, ib.0);
        }
    }
}

/// HPWL contribution of the nets touching `inst` (the incremental cost
/// the annealer evaluates around a swap).
fn local_cost(
    netlist: &Netlist,
    library: &CellLibrary,
    pins: &[Vec<InstId>],
    slot_of: &[usize],
    cells: &[PlacedCell],
    inst: InstId,
) -> f64 {
    let center = |other: InstId| -> (f64, f64) {
        let cell = &cells[slot_of[other.0]];
        let w = library.footprint(cell.kind).width.meters();
        (cell.x.meters() + w / 2.0, cell.y.meters())
    };
    let mut cost = 0.0;
    let instance = netlist.instance(inst);
    for net in instance.inputs.iter().chain(instance.output.iter()) {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut seen = false;
        for &other in &pins[net.0] {
            if slot_of[other.0] == usize::MAX {
                continue;
            }
            let (x, y) = center(other);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
            seen = true;
        }
        if seen {
            cost += (max_x - min_x) + (max_y - min_y);
        }
    }
    cost
}

fn swap_positions(cells: &mut [PlacedCell], a: usize, b: usize) {
    let (xa, ya, ra) = (cells[a].x, cells[a].y, cells[a].row);
    cells[a].x = cells[b].x;
    cells[a].y = cells[b].y;
    cells[a].row = cells[b].row;
    cells[b].x = xa;
    cells[b].y = ya;
    cells[b].row = ra;
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
        let mut seen: Vec<usize> = placed.cells().iter().map(|c| c.inst.0).collect();
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
        let die_w = placed.floorplan().die_width().meters() + 1e-12;
        for cell in placed.cells() {
            let w = lib.footprint(cell.kind).width.meters();
            assert!(cell.x.meters() >= -1e-12, "{}", cell.name);
            assert!(cell.x.meters() + w <= die_w, "{}", cell.name);
            assert!(cell.row < placed.floorplan().rows());
        }
    }

    #[test]
    fn no_two_cells_overlap_in_a_row() {
        let n = s344();
        let lib = CellLibrary::n40();
        let placed = place(&n, &lib, &PlacerOptions::default());
        let mut by_row: std::collections::HashMap<usize, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for cell in placed.cells() {
            let w = lib.footprint(cell.kind).width.meters();
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
    fn refinement_does_not_worsen_hpwl() {
        let n = s344();
        let lib = CellLibrary::n40();
        let raw = place(
            &n,
            &lib,
            &PlacerOptions {
                refine_passes: 0,
                ..PlacerOptions::default()
            },
        );
        let refined = place(&n, &lib, &PlacerOptions::default());
        let hp_raw = raw.hpwl(&n, &lib);
        let hp_refined = refined.hpwl(&n, &lib);
        // Annealing accepts some uphill moves, so allow a small margin.
        assert!(
            hp_refined <= hp_raw * 1.10,
            "raw {hp_raw}, refined {hp_refined}"
        );
    }

    #[test]
    fn cluster_growth_beats_random_order_on_hpwl() {
        let n = benchmarks::generate(benchmarks::by_name("s838").unwrap());
        let lib = CellLibrary::n40();
        let fp = Floorplan::plan(&n, &lib, 0.7);
        let clustered = pack_rows(&n, &lib, &fp, &cluster_growth_order(&n));
        // Locality-destroying baseline: a coprime-stride permutation
        // separates previously adjacent instances.
        let ids = n.placeable();
        let stride = 101; // coprime to any realistic instance count here
        let random_order: Vec<InstId> = (0..ids.len())
            .map(|k| ids[(k * stride) % ids.len()])
            .collect();
        let shuffled = pack_rows(&n, &lib, &fp, &random_order);
        let as_design =
            |cells: Vec<PlacedCell>| PlacedDesign::from_parts("x".into(), fp.clone(), cells);
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

    #[test]
    fn large_designs_skip_refinement_automatically() {
        let n = benchmarks::generate_scaled(benchmarks::by_name("s13207").unwrap(), 3000);
        let opts = PlacerOptions {
            refine_cell_limit: 100,
            ..PlacerOptions::default()
        };
        // Must finish fast even with refine_passes > 0.
        let placed = place(&n, &CellLibrary::n40(), &opts);
        assert_eq!(placed.flip_flops().count(), 627);
    }
}
