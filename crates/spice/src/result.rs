//! Transient result storage, trace views and energy accounting.

use mtj::MtjState;
use units::{Energy, Time};

use crate::analysis::SolverStats;
use crate::circuit::Circuit;
use crate::device::Device;
use crate::error::SpiceError;
use crate::measure::{self, Edge};

/// A recorded MTJ magnetisation reversal.
#[derive(Debug, Clone, PartialEq)]
pub struct MtjEvent {
    /// Simulation time of the reversal.
    pub time: Time,
    /// Device instance name.
    pub device: String,
    /// The state the device reversed *to*.
    pub state: MtjState,
}

/// Sampled output of a transient analysis: every node voltage, every
/// voltage-source branch current, and the MTJ reversal events.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    node_names: Vec<String>,
    node_values: Vec<Vec<f64>>,
    branch_names: Vec<String>,
    branch_values: Vec<Vec<f64>>,
    /// `(source name, pos node table index, neg node table index)`;
    /// index 0 is ground.
    vsource_terminals: Vec<(String, usize, usize)>,
    events: Vec<MtjEvent>,
    stats: SolverStats,
}

/// Incremental builder used by the transient engine.
#[derive(Debug)]
pub(crate) struct TransientRecorder {
    result: TransientResult,
    n_nodes: usize,
}

impl TransientResult {
    pub(crate) fn recorder(ckt: &Circuit) -> TransientRecorder {
        let n_nodes = ckt.node_count() - 1;
        let node_names: Vec<String> = (1..ckt.node_count())
            .map(|i| ckt.node_name(crate::device::NodeId(i)).to_owned())
            .collect();
        let mut branch_names = Vec::new();
        let mut vsource_terminals = Vec::new();
        for dev in ckt.devices() {
            if let Device::VoltageSource { name, pos, neg, .. } = dev {
                branch_names.push(name.clone());
                vsource_terminals.push((name.clone(), pos.index(), neg.index()));
            }
        }
        let n_branches = branch_names.len();
        TransientRecorder {
            result: TransientResult {
                times: Vec::new(),
                node_names,
                node_values: vec![Vec::new(); n_nodes],
                branch_names,
                branch_values: vec![Vec::new(); n_branches],
                vsource_terminals,
                events: Vec::new(),
                stats: SolverStats::default(),
            },
            n_nodes,
        }
    }

    /// Sample times in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.times.len()
    }

    /// Names of all recorded node traces (ground is not recorded).
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        self.node_names.iter().map(String::as_str)
    }

    /// The MTJ reversal events observed during the run, in time order.
    #[must_use]
    pub fn mtj_events(&self) -> &[MtjEvent] {
        &self.events
    }

    /// Solver work spent producing this transient (zeroed for results
    /// from the [`reference`](crate::analysis::reference) engine).
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Names of all recorded voltage-source branch traces.
    pub fn branch_names(&self) -> impl Iterator<Item = &str> {
        self.branch_names.iter().map(String::as_str)
    }

    /// Total energy delivered by *all* voltage sources over `[from, to]`
    /// — the whole-circuit active energy of an operation (supply plus
    /// every control-signal driver), which is what Table II's energy
    /// columns account.
    ///
    /// # Panics
    ///
    /// Never panics: every recorded source is known by construction.
    #[must_use]
    pub fn total_source_energy(&self, from: Time, to: Time) -> Energy {
        self.branch_names
            .iter()
            .map(|name| {
                self.supply_energy(name, from, to)
                    .expect("recorded sources are always known")
            })
            .sum()
    }

    /// Voltage trace of the named node.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownTrace`] if the node does not exist (ground is
    /// not recorded — it is identically zero).
    pub fn node(&self, name: &str) -> Result<Trace<'_>, SpiceError> {
        let idx = self
            .node_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SpiceError::UnknownTrace { name: name.into() })?;
        Ok(Trace {
            times: &self.times,
            values: &self.node_values[idx],
        })
    }

    /// Branch-current trace of the named voltage source. Positive current
    /// flows from the positive terminal *into* the source, so a supply
    /// delivering power shows a negative branch current.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownTrace`] if no voltage source has that name.
    pub fn branch(&self, source: &str) -> Result<Trace<'_>, SpiceError> {
        let idx = self
            .branch_names
            .iter()
            .position(|n| n == source)
            .ok_or_else(|| SpiceError::UnknownTrace {
                name: source.into(),
            })?;
        Ok(Trace {
            times: &self.times,
            values: &self.branch_values[idx],
        })
    }

    /// Energy delivered *by* the named voltage source over `[from, to]`:
    /// `∫ v_src(t) · (−i_branch(t)) dt`.
    ///
    /// This is the quantity Table II's "read energy" columns report — the
    /// charge drawn from the supply (or a control signal's driver) during
    /// an operation, weighted by its voltage.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownTrace`] if no voltage source has that name.
    pub fn supply_energy(&self, source: &str, from: Time, to: Time) -> Result<Energy, SpiceError> {
        let (name_idx, &(_, pos, neg)) = self
            .vsource_terminals
            .iter()
            .enumerate()
            .find(|(_, (n, _, _))| n == source)
            .ok_or_else(|| SpiceError::UnknownTrace {
                name: source.into(),
            })?;
        let i_trace = &self.branch_values[name_idx];
        // Reconstruct the source voltage from the node traces; ground
        // contributes zero.
        let zeros;
        let v_pos: &[f64] = if pos == 0 {
            zeros = vec![0.0; self.times.len()];
            &zeros
        } else {
            &self.node_values[pos - 1]
        };
        let power: Vec<f64> = if neg == 0 {
            v_pos
                .iter()
                .zip(i_trace.iter())
                .map(|(v, i)| v * -i)
                .collect()
        } else {
            let v_neg = &self.node_values[neg - 1];
            v_pos
                .iter()
                .zip(v_neg.iter())
                .zip(i_trace.iter())
                .map(|((vp, vn), i)| (vp - vn) * -i)
                .collect()
        };
        let joules = measure::integrate(&self.times, &power, from.seconds(), to.seconds());
        Ok(Energy::from_joules(joules))
    }
}

impl TransientRecorder {
    pub(crate) fn push(&mut self, t: f64, x: &[f64], ckt: &Circuit) {
        self.result.times.push(t);
        for (i, values) in self.result.node_values.iter_mut().enumerate() {
            values.push(x[i]);
        }
        for (b, values) in self.result.branch_values.iter_mut().enumerate() {
            values.push(x[self.n_nodes + b]);
        }
        debug_assert_eq!(ckt.node_count() - 1, self.n_nodes);
    }

    pub(crate) fn finish(mut self, events: Vec<MtjEvent>, stats: SolverStats) -> TransientResult {
        self.result.events = events;
        self.result.stats = stats;
        self.result
    }
}

/// Borrowed view of one sampled waveform with measurement helpers.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    times: &'a [f64],
    values: &'a [f64],
}

impl<'a> Trace<'a> {
    /// Sample times, seconds.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn times(&self) -> &'a [f64] {
        self.times
    }

    /// Sample values (volts or amperes).
    #[must_use]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Linear interpolation at time `t` (seconds), clamped to the record.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        measure::interpolate(self.times, self.values, t)
    }

    /// The final sample.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn last_value(&self) -> f64 {
        *self.values.last().expect("empty trace")
    }

    /// Largest sample value.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest sample value.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// First crossing of `threshold` in direction `edge` at or after
    /// `after`, as a [`Time`], if any.
    #[must_use]
    pub fn first_crossing(&self, threshold: f64, edge: Edge, after: Time) -> Option<Time> {
        measure::first_crossing_after(self.times, self.values, threshold, edge, after.seconds())
            .map(Time::from_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use units::{Resistance, Voltage};

    fn simple_result() -> TransientResult {
        // 1 V source across 1 kΩ: branch current −1 mA throughout.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(1.0)),
        )
        .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        crate::analysis::transient(
            &mut ckt,
            Time::from_nano_seconds(1.0),
            Time::from_pico_seconds(100.0),
        )
        .expect("transient")
    }

    #[test]
    fn traces_resolve_by_name() {
        let res = simple_result();
        assert!(res.node("a").is_ok());
        assert!(res.branch("V1").is_ok());
        assert!(matches!(
            res.node("zzz"),
            Err(SpiceError::UnknownTrace { .. })
        ));
        assert!(matches!(
            res.branch("zzz"),
            Err(SpiceError::UnknownTrace { .. })
        ));
        assert_eq!(res.node_names().collect::<Vec<_>>(), vec!["a"]);
        assert!(res.sample_count() >= 10);
    }

    #[test]
    fn trace_measurements() {
        let res = simple_result();
        let a = res.node("a").expect("a");
        assert!((a.last_value() - 1.0).abs() < 1e-9);
        assert!((a.max() - 1.0).abs() < 1e-9);
        assert!(a.min() > 0.99);
        assert!((a.value_at(0.5e-9) - 1.0).abs() < 1e-9);
        assert_eq!(a.times().len(), a.values().len());
    }

    #[test]
    fn supply_energy_of_resistive_load() {
        let res = simple_result();
        // P = V²/R = 1 mW over 1 ns → 1 pJ.
        let e = res
            .supply_energy("V1", Time::ZERO, Time::from_nano_seconds(1.0))
            .expect("energy");
        assert!((e.pico_joules() - 1.0).abs() < 0.01, "E = {e}");
        assert!(res
            .supply_energy("zzz", Time::ZERO, Time::from_nano_seconds(1.0))
            .is_err());
    }

    #[test]
    fn branch_current_sign_convention() {
        let res = simple_result();
        let i = res.branch("V1").expect("V1");
        // Battery delivering 1 mA: branch current is −1 mA.
        assert!((i.last_value() + 1e-3).abs() < 1e-9);
    }
}
