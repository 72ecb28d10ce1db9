//! Diffusion-sharing transistor chaining.
//!
//! Transistors placed side by side in a row can share a source/drain
//! diffusion when the abutting terminals are the same net — the classic
//! optimization of Uehara & van Cleemput. This module implements the
//! greedy variant: grow each chain left and right while an unplaced
//! device can abut (flipping devices as needed), then start a new chain.
//! Columns are counted as one per placed gate plus the configured break
//! penalty between chains, minus folded pairs of narrow devices that
//! vertically share a column.

use crate::rules::DesignRules;
use crate::spec::TransistorSpec;

/// One placed transistor inside a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlacedDevice {
    /// Index into the row's device slice.
    pub(crate) index: usize,
    /// Whether source/drain were swapped to make the abutment work.
    pub(crate) flipped: bool,
}

/// A maximal run of diffusion-sharing transistors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Devices in left-to-right placement order.
    pub(crate) devices: Vec<PlacedDevice>,
}

/// The chaining result for one row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPlan {
    /// The chains, in placement order.
    pub chains: Vec<Chain>,
    /// Total columns occupied (gates + breaks − folds).
    pub columns: usize,
    /// Number of narrow-device pairs folded into shared columns.
    pub(crate) folded_pairs: usize,
}

/// Terminal nets of a device respecting its flip state:
/// returns `(left, right)`.
fn terminals(dev: &TransistorSpec, flipped: bool) -> (&str, &str) {
    if flipped {
        (&dev.drain, &dev.source)
    } else {
        (&dev.source, &dev.drain)
    }
}

/// Chains one row of transistors under the given rules.
///
/// # Examples
///
/// A NAND2's series NMOS pair shares its internal diffusion:
///
/// ```
/// use layout::{DesignRules, TransistorSpec, Row, chain};
/// use units::Length;
///
/// let w = Length::from_nano_meters(400.0);
/// let row = vec![
///     TransistorSpec::new("MN1", Row::N, "a", "y", "x", w),
///     TransistorSpec::new("MN2", Row::N, "b", "x", "gnd", w),
/// ];
/// let plan = chain::chain_row(&row, &DesignRules::n40());
/// assert_eq!(plan.chains.len(), 1);
/// assert_eq!(plan.columns, 2);
/// ```
#[must_use]
pub fn chain_row(devices: &[TransistorSpec], rules: &DesignRules) -> RowPlan {
    let mut unplaced: Vec<bool> = vec![true; devices.len()];
    let mut chains: Vec<Chain> = Vec::new();

    while let Some(seed) = unplaced.iter().position(|&u| u) {
        unplaced[seed] = false;
        let mut chain = vec![PlacedDevice {
            index: seed,
            flipped: false,
        }];
        let (mut left_net, mut right_net) = {
            let (l, r) = terminals(&devices[seed], false);
            (l.to_owned(), r.to_owned())
        };

        // Extend to the right, then to the left, until stuck.
        loop {
            let mut extended = false;
            // Rightward: next device's left terminal must equal right_net.
            if let Some((idx, flipped)) = find_abutting(devices, &unplaced, &right_net) {
                unplaced[idx] = false;
                right_net = terminals(&devices[idx], flipped).1.to_owned();
                chain.push(PlacedDevice {
                    index: idx,
                    flipped,
                });
                extended = true;
            }
            // Leftward: previous device's right terminal must equal left_net.
            if let Some((idx, flipped)) = find_abutting_right(devices, &unplaced, &left_net) {
                unplaced[idx] = false;
                left_net = terminals(&devices[idx], flipped).0.to_owned();
                chain.insert(
                    0,
                    PlacedDevice {
                        index: idx,
                        flipped,
                    },
                );
                extended = true;
            }
            if !extended {
                break;
            }
        }
        chains.push(Chain { devices: chain });
    }

    // Fold narrow devices pairwise: two devices of width ≤ the fold limit
    // can vertically share one column (split-diffusion stacking).
    let narrow = devices
        .iter()
        .filter(|d| d.width <= rules.fold_width_limit)
        .count();
    let folded_pairs = narrow / 2;

    let gates = devices.len();
    let breaks = chains.len().saturating_sub(1) * rules.break_columns;
    let columns = (gates + breaks).saturating_sub(folded_pairs);

    RowPlan {
        chains,
        columns,
        folded_pairs,
    }
}

/// Finds an unplaced device whose (possibly flipped) *left* terminal is
/// `net` — a rightward extension.
fn find_abutting(
    devices: &[TransistorSpec],
    unplaced: &[bool],
    net: &str,
) -> Option<(usize, bool)> {
    for (i, dev) in devices.iter().enumerate() {
        if !unplaced[i] {
            continue;
        }
        if dev.source == net {
            return Some((i, false));
        }
        if dev.drain == net {
            return Some((i, true));
        }
    }
    None
}

/// Finds an unplaced device whose (possibly flipped) *right* terminal is
/// `net` — a leftward extension.
fn find_abutting_right(
    devices: &[TransistorSpec],
    unplaced: &[bool],
    net: &str,
) -> Option<(usize, bool)> {
    for (i, dev) in devices.iter().enumerate() {
        if !unplaced[i] {
            continue;
        }
        if dev.drain == net {
            return Some((i, false));
        }
        if dev.source == net {
            return Some((i, true));
        }
    }
    None
}

/// Checks that a chain's internal abutments are net-consistent — the
/// invariant the greedy construction must maintain. Used by tests and
/// debug assertions.
#[cfg(test)]
#[must_use]
pub(crate) fn chain_is_consistent(devices: &[TransistorSpec], chain: &Chain) -> bool {
    chain.devices.windows(2).all(|pair| {
        let left = &devices[pair[0].index];
        let right = &devices[pair[1].index];
        terminals(left, pair[0].flipped).1 == terminals(right, pair[1].flipped).0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Row;
    use units::Length;

    fn w(nm: f64) -> Length {
        Length::from_nano_meters(nm)
    }

    fn dev(name: &str, gate: &str, source: &str, drain: &str, width_nm: f64) -> TransistorSpec {
        TransistorSpec::new(name, Row::P, gate, source, drain, w(width_nm))
    }

    #[test]
    fn single_device_is_one_chain_one_column() {
        let row = vec![dev("M1", "a", "vdd", "y", 400.0)];
        let plan = chain_row(&row, &DesignRules::n40());
        assert_eq!(plan.chains.len(), 1);
        assert_eq!(plan.columns, 1);
        assert_eq!(plan.folded_pairs, 0);
    }

    #[test]
    fn series_stack_chains_fully() {
        // vdd -M1- x -M2- y -M3- gnd: one chain, three columns.
        let row = vec![
            dev("M1", "a", "vdd", "x", 400.0),
            dev("M2", "b", "x", "y", 400.0),
            dev("M3", "c", "y", "gnd", 400.0),
        ];
        let plan = chain_row(&row, &DesignRules::n40());
        assert_eq!(plan.chains.len(), 1);
        assert_eq!(plan.columns, 3);
        assert!(chain_is_consistent(&row, &plan.chains[0]));
    }

    #[test]
    fn parallel_devices_share_via_flipping() {
        // Two pull-ups vdd→y: chainable as y-M1-vdd-M2-y by flipping.
        let row = vec![
            dev("M1", "a", "vdd", "y", 400.0),
            dev("M2", "b", "vdd", "y", 400.0),
        ];
        let plan = chain_row(&row, &DesignRules::n40());
        assert_eq!(plan.chains.len(), 1);
        assert!(chain_is_consistent(&row, &plan.chains[0]));
    }

    #[test]
    fn disconnected_diffusions_break_chains() {
        let row = vec![
            dev("M1", "a", "n1", "n2", 400.0),
            dev("M2", "b", "n3", "n4", 400.0),
        ];
        let plan = chain_row(&row, &DesignRules::n40());
        assert_eq!(plan.chains.len(), 2);
        // break_columns = 0 on the n40 rules.
        assert_eq!(plan.columns, 2);

        let mut rules = DesignRules::n40();
        rules.break_columns = 1;
        let plan = chain_row(&row, &rules);
        assert_eq!(plan.columns, 3);
    }

    #[test]
    fn narrow_pairs_fold() {
        let row = vec![
            dev("M1", "a", "n1", "n2", 240.0),
            dev("M2", "b", "n3", "n4", 240.0),
            dev("M3", "c", "n5", "n6", 400.0),
        ];
        let plan = chain_row(&row, &DesignRules::n40());
        assert_eq!(plan.folded_pairs, 1);
        assert_eq!(plan.columns, 2); // 3 gates − 1 fold
    }

    #[test]
    fn empty_row_is_empty_plan() {
        let plan = chain_row(&[], &DesignRules::n40());
        assert!(plan.chains.is_empty());
        assert_eq!(plan.columns, 0);
    }

    #[test]
    fn all_devices_placed_exactly_once() {
        let row: Vec<TransistorSpec> = (0..10)
            .map(|i| {
                dev(
                    &format!("M{i}"),
                    &format!("g{i}"),
                    &format!("n{}", i % 3),
                    &format!("n{}", (i + 1) % 3),
                    400.0,
                )
            })
            .collect();
        let plan = chain_row(&row, &DesignRules::n40());
        let mut seen: Vec<usize> = plan
            .chains
            .iter()
            .flat_map(|c| c.devices.iter().map(|d| d.index))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for c in &plan.chains {
            assert!(chain_is_consistent(&row, c));
        }
    }
}
