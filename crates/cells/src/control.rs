//! Control-signal sequencing (the paper's Fig. 6 working sequences and
//! the Fig. 7 optimized pre-charge controller).
//!
//! Control signals are modelled as ideal voltage sources with trapezoidal
//! edges. Two restore-sequence generators are provided for the proposed
//! 2-bit latch:
//!
//! * `proposed_restore` — the explicit three-signal scheme of Fig. 6(b):
//!   independent `PC_VDD`, `PC_GND` and `SEL`-type signals;
//! * `proposed_restore_optimized` — the Fig. 7 scheme where a single
//!   `PC` signal plus `R_en` derive every internal control: `P4`/`N4`
//!   gates follow `PC̄`, VDD-pre-charge is active while `PC·R̄_en`, and
//!   GND-pre-charge while `P̄C·R̄_en`. Fewer independent transitions is
//!   where the read-energy saving of Table II comes from.
//!
//! Every generator panics on windows that collide; [`check_timing`]
//! rejects such a [`Timing`] up front.

use spice::SourceWaveform;
use units::{Time, Voltage};

use crate::config::Timing;

/// A control window `(start, end)`: the span a gate signal is active.
type Window = (Time, Time);

/// The PWL corners of a gate waveform: `idle` at t = 0, then per window
/// `(start, idle)`, `(start + edge, active)`, `(end, active)` and
/// `(end + edge, idle)`. A window opening at t = 0 replaces the leading
/// idle corner.
fn gate_corners(
    windows: &[Window],
    idle: Voltage,
    active: Voltage,
    edge: Time,
) -> impl Iterator<Item = (Time, Voltage)> + '_ {
    let opens_at_zero = windows.first().is_some_and(|w| w.0 == Time::ZERO);
    std::iter::once((Time::ZERO, idle))
        .filter(move |_| !opens_at_zero)
        .chain(windows.iter().flat_map(move |&(start, end)| {
            [
                (start, idle),
                (start + edge, active),
                (end, active),
                (end + edge, idle),
            ]
        }))
}

/// Whether `windows` can be sequenced with `edge` transitions: ordered,
/// each open past its own leading edge, and each opening after the
/// previous one's trailing edge, so every PWL corner time strictly
/// increases.
fn windows_fit(windows: &[Window], edge: Time) -> bool {
    let mut times = gate_corners(windows, Voltage::ZERO, Voltage::ZERO, edge).map(|c| c.0);
    let Some(mut last) = times.next() else {
        return true;
    };
    times.all(|t| {
        let rising = last < t;
        last = t;
        rising
    })
}

/// Builds a gate waveform that is `idle` outside the given windows and
/// `active` inside them, with trapezoidal `edge` transitions starting at
/// each window boundary.
///
/// # Panics
///
/// Panics if windows overlap or are unordered (construction bug).
#[must_use]
pub(crate) fn gate_waveform(
    windows: &[Window],
    idle: Voltage,
    active: Voltage,
    edge: Time,
) -> SourceWaveform {
    if windows.is_empty() {
        return SourceWaveform::Dc(idle.volts());
    }
    assert!(
        windows_fit(windows, edge),
        "control windows must be ordered and non-overlapping"
    );
    SourceWaveform::pwl(gate_corners(windows, idle, active, edge))
}

/// Checks that `timing` sequences every control waveform of every
/// restore (words up to `max_bits` bits and both proposed-latch
/// schemes) and of the store: the window lists below are exactly the
/// ones the generators hand to [`gate_waveform`], which panics on a
/// list that does not fit.
///
/// # Errors
///
/// Names the first sequence whose windows collide, with the timing.
pub(crate) fn check_timing(timing: &Timing, max_bits: usize) -> Result<(), String> {
    let (pc_windows, evals) = word_windows(timing, max_bits);
    let p = proposed_phases(timing);
    let (write, park) = store_windows(timing);
    let gnd_precharges = [p.gnd_precharge, p.tail];
    let proposed_evals = [p.eval0, p.eval1];
    let one = std::slice::from_ref;
    let sequences: [(&str, &[Window]); 7] = [
        ("word pre-charge", &pc_windows),
        ("proposed VDD pre-charge", one(&p.vdd_precharge)),
        ("proposed GND pre-charge", &gnd_precharges),
        ("proposed evaluation", &proposed_evals),
        ("proposed equalizer", one(&p.second_half)),
        ("store write pulse", one(&write)),
        ("store output park", one(&park)),
    ];
    let word_evals = evals.iter().map(|w| ("word evaluation", one(w)));
    let collision = sequences
        .into_iter()
        .chain(word_evals)
        .find(|(_, w)| !windows_fit(w, timing.edge));
    match collision {
        None => Ok(()),
        Some((name, _)) => Err(format!(
            "timing leaves no room for the {name} windows: edge {}, pre-charge {}, \
             evaluate {}, lead-in {}, write pulse {}",
            timing.edge, timing.precharge, timing.evaluate, timing.lead_in, timing.write_pulse
        )),
    }
}

/// Control waveforms and key instants for an n-bit banked word restore:
/// `bits` sequential pre-charge + evaluate phases sharing one pre-charge
/// signal, with one sense-enable pair per bit.
#[derive(Debug, Clone, PartialEq)]
pub struct WordRestoreControls {
    /// Shared pre-charge PMOS gate (active low), pulsed once per phase.
    pub(crate) pc_b: SourceWaveform,
    /// Per-bit sense enables (active high), one pulse each.
    pub(crate) sen: Vec<SourceWaveform>,
    /// Complements of `sen` (transmission-gate PMOS side).
    pub(crate) sen_b: Vec<SourceWaveform>,
    /// Per-bit evaluation windows `(start, end)` in read order.
    pub evals: Vec<(Time, Time)>,
    /// Total simulation window.
    pub total: Time,
}

/// The pre-charge windows and evaluation windows of a `bits`-bit word
/// restore: phase `i` pre-charges, then evaluates after one edge.
fn word_windows(timing: &Timing, bits: usize) -> (Vec<Window>, Vec<Window>) {
    let period = timing.precharge + timing.evaluate;
    (0..bits)
        .map(|i| {
            let t0 = timing.lead_in + period * i as f64;
            let t1 = t0 + timing.precharge;
            let t2 = t1 + timing.evaluate;
            ((t0, t1), (t1 + timing.edge, t2))
        })
        .unzip()
}

/// Generates the restore sequence for an n-bit banked word: phase `i`
/// pre-charges the shared sense outputs to VDD and then evaluates bit
/// `i`'s MTJ pair. With `bits == 1` this is the standard latch's
/// restore: one pre-charge, one evaluation.
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_restore(timing: &Timing, vdd: f64, bits: usize) -> WordRestoreControls {
    assert!(bits > 0, "a word restore needs at least one bit");
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let (pc_windows, evals) = word_windows(timing, bits);
    let total = evals.last().expect("bits > 0").1 + timing.lead_in;
    WordRestoreControls {
        pc_b: gate_waveform(&pc_windows, hi, lo, e),
        sen: evals
            .iter()
            .map(|&w| gate_waveform(&[w], lo, hi, e))
            .collect(),
        sen_b: evals
            .iter()
            .map(|&w| gate_waveform(&[w], hi, lo, e))
            .collect(),
        evals,
        total,
    }
}

/// Control waveforms and key instants for the proposed 2-bit restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedRestoreControls {
    /// VDD-pre-charge PMOS gates (active low).
    pub(crate) pcv_b: SourceWaveform,
    /// GND-pre-charge NMOS gates (active high).
    pub(crate) pcg: SourceWaveform,
    /// `R_en`: N3 footer and transmission-gate NMOS side (active high).
    pub(crate) ren: SourceWaveform,
    /// Complement of `ren` (transmission-gate PMOS side).
    pub(crate) ren_b: SourceWaveform,
    /// P3 header gate (active low; on during both evaluations).
    pub(crate) sel_b: SourceWaveform,
    /// P4 equalizer gate (active low; on while the lower pair is read).
    pub(crate) p4_b: SourceWaveform,
    /// N4 equalizer gate (active high; on while the upper pair is read).
    pub(crate) n4: SourceWaveform,
    /// Lower-pair evaluation start.
    pub eval0_start: Time,
    /// Lower-pair evaluation end.
    pub eval0_end: Time,
    /// Upper-pair evaluation start.
    pub eval1_start: Time,
    /// Upper-pair evaluation end.
    pub eval1_end: Time,
    /// Total simulation window.
    pub total: Time,
}

/// Windows shared by both proposed-restore generators: pre-charge to
/// VDD, sense the lower pair, pre-charge to GND, sense the upper pair.
struct ProposedPhases {
    vdd_precharge: Window,
    eval0: Window,
    gnd_precharge: Window,
    eval1: Window,
    /// From the GND pre-charge to the end: the second half (`PC̄`).
    second_half: Window,
    /// After the upper evaluation: the optimized scheme's GND park.
    tail: Window,
    total: Time,
}

fn proposed_phases(timing: &Timing) -> ProposedPhases {
    let e = timing.edge;
    let t0 = timing.lead_in;
    let t1 = t0 + timing.precharge; // VDD pre-charge done
    let t2 = t1 + timing.evaluate; // lower eval done
    let t3 = t2 + timing.precharge; // GND pre-charge done
    let t4 = t3 + timing.evaluate; // upper eval done
    let total = t4 + timing.lead_in;
    ProposedPhases {
        vdd_precharge: (t0, t1),
        eval0: (t1 + e, t2),
        gnd_precharge: (t2 + e, t3),
        eval1: (t3 + e, t4),
        second_half: (t2 + e, total),
        tail: (t4 + e, total),
        total,
    }
}

/// Generates the explicit (Fig. 6b) restore sequence for the proposed
/// 2-bit latch: pre-charge VDD → sense lower pair → pre-charge GND →
/// sense upper pair.
#[must_use]
pub(crate) fn proposed_restore(timing: &Timing, vdd: f64) -> ProposedRestoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let p = proposed_phases(timing);
    let (eval0, eval1) = (p.eval0, p.eval1);
    ProposedRestoreControls {
        pcv_b: gate_waveform(&[p.vdd_precharge], hi, lo, e),
        pcg: gate_waveform(&[p.gnd_precharge], lo, hi, e),
        ren: gate_waveform(&[eval0, eval1], lo, hi, e),
        ren_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        sel_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        p4_b: gate_waveform(&[eval0], hi, lo, e),
        n4: gate_waveform(&[eval1], lo, hi, e),
        eval0_start: eval0.0,
        eval0_end: eval0.1,
        eval1_start: eval1.0,
        eval1_end: eval1.1,
        total: p.total,
    }
}

/// Generates the Fig. 7 optimized restore sequence: the same phase
/// boundaries, but every internal control is derived from just `PC` and
/// `R_en` —
///
/// * `P4`/`N4` gates are both driven by `PC̄` (one shared net),
/// * VDD-pre-charge is active during `PC · R̄_en`,
/// * GND-pre-charge during `P̄C · R̄_en`.
///
/// The derived waveforms therefore transition strictly less often than
/// the explicit scheme's, which is measurable as lower control energy.
#[must_use]
pub(crate) fn proposed_restore_optimized(timing: &Timing, vdd: f64) -> ProposedRestoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let e = timing.edge;
    let p = proposed_phases(timing);
    let (eval0, eval1) = (p.eval0, p.eval1);
    // PC is high through the VDD-pre-charge + lower-eval half, low after.
    // P4 gate = N4 gate = PC̄: one signal, two transitions total.
    let pc_bar = gate_waveform(&[p.second_half], lo, hi, e);
    ProposedRestoreControls {
        // PC·R̄en: active from the start of the window until eval0 begins.
        pcv_b: gate_waveform(&[p.vdd_precharge], hi, lo, e),
        // P̄C·R̄en: between the halves, and again after eval1 (idle tail
        // parks the outputs at GND, the desired pre-write condition).
        pcg: gate_waveform(&[p.gnd_precharge, p.tail], lo, hi, e),
        ren: gate_waveform(&[eval0, eval1], lo, hi, e),
        ren_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        sel_b: gate_waveform(&[eval0, eval1], hi, lo, e),
        p4_b: pc_bar.clone(),
        n4: pc_bar,
        eval0_start: eval0.0,
        eval0_end: eval0.1,
        eval1_start: eval1.0,
        eval1_end: eval1.1,
        total: p.total,
    }
}

/// Control waveforms and key instants for a store (write) phase.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreControls {
    /// Write-driver enable (active high).
    pub(crate) wen: SourceWaveform,
    /// Complement of `wen`.
    pub(crate) wen_b: SourceWaveform,
    /// GND pre-charge: parks the sense outputs at ground *before* the
    /// write pulse, then releases them so no DC path can shunt the write
    /// current (see the reconstruction note in DESIGN.md).
    pub(crate) pcg: SourceWaveform,
    /// Instant the write pulse begins.
    pub write_start: Time,
    /// Instant the write pulse ends.
    pub write_end: Time,
    /// Total simulation window.
    pub total: Time,
}

/// The store's write-pulse window and the output-park window before it.
fn store_windows(timing: &Timing) -> (Window, Window) {
    let t0 = timing.lead_in;
    (
        (t0, t0 + timing.write_pulse),
        (timing.edge, t0 - timing.edge),
    )
}

/// Generates the store sequence: the outputs are first parked at GND
/// (the paper's stated pre-write condition), then a single write pulse
/// of `timing.write_pulse` drives both complementary MTJ pairs — the
/// write path is identical for either latch design, the paper's argument
/// for not sharing write components.
#[must_use]
pub(crate) fn store(timing: &Timing, vdd: f64) -> StoreControls {
    let hi = Voltage::from_volts(vdd);
    let lo = Voltage::ZERO;
    let (write, park) = store_windows(timing);
    StoreControls {
        wen: gate_waveform(&[write], lo, hi, timing.edge),
        wen_b: gate_waveform(&[write], hi, lo, timing.edge),
        pcg: gate_waveform(&[park], lo, hi, timing.edge),
        write_start: write.0,
        write_end: write.1,
        total: write.1 + timing.lead_in * 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::default()
    }

    #[test]
    fn gate_waveform_levels() {
        let w = gate_waveform(
            &[(
                Time::from_pico_seconds(100.0),
                Time::from_pico_seconds(200.0),
            )],
            Voltage::ZERO,
            Voltage::from_volts(1.1),
            Time::from_pico_seconds(10.0),
        );
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(150e-12), 1.1);
        assert_eq!(w.value_at(300e-12), 0.0);
    }

    #[test]
    fn gate_waveform_multi_window() {
        let w = gate_waveform(
            &[
                (
                    Time::from_pico_seconds(100.0),
                    Time::from_pico_seconds(200.0),
                ),
                (
                    Time::from_pico_seconds(400.0),
                    Time::from_pico_seconds(500.0),
                ),
            ],
            Voltage::from_volts(1.1),
            Voltage::ZERO,
            Time::from_pico_seconds(10.0),
        );
        assert_eq!(w.value_at(50e-12), 1.1);
        assert_eq!(w.value_at(150e-12), 0.0);
        assert_eq!(w.value_at(300e-12), 1.1);
        assert_eq!(w.value_at(450e-12), 0.0);
        assert_eq!(w.value_at(600e-12), 1.1);
    }

    #[test]
    fn empty_windows_give_dc_idle() {
        let w = gate_waveform(&[], Voltage::from_volts(1.1), Voltage::ZERO, Time::ZERO);
        assert_eq!(w, SourceWaveform::Dc(1.1));
    }

    #[test]
    #[should_panic(expected = "ordered and non-overlapping")]
    fn overlapping_windows_panic() {
        let _ = gate_waveform(
            &[
                (
                    Time::from_pico_seconds(100.0),
                    Time::from_pico_seconds(300.0),
                ),
                (
                    Time::from_pico_seconds(200.0),
                    Time::from_pico_seconds(400.0),
                ),
            ],
            Voltage::ZERO,
            Voltage::from_volts(1.1),
            Time::from_pico_seconds(10.0),
        );
    }

    #[test]
    fn standard_restore_phase_order() {
        // The standard latch's restore is the one-bit word restore.
        let c = word_restore(&timing(), 1.1, 1);
        let (eval_start, eval_end) = c.evals[0];
        assert!(eval_start > Time::ZERO);
        assert!(eval_end > eval_start);
        assert!(c.total > eval_end);
        // During pre-charge the PC̄ signal is low and SEN is low.
        let mid_pc = (timing().lead_in + timing().precharge * 0.5).seconds();
        assert_eq!(c.pc_b.value_at(mid_pc), 0.0);
        assert_eq!(c.sen[0].value_at(mid_pc), 0.0);
        // During evaluation SEN is high, PC̄ high.
        let mid_eval = ((eval_start + eval_end) * 0.5).seconds();
        assert_eq!(c.sen[0].value_at(mid_eval), 1.1);
        assert_eq!(c.pc_b.value_at(mid_eval), 1.1);
        assert_eq!(c.sen_b[0].value_at(mid_eval), 0.0);
    }

    #[test]
    fn proposed_restore_reads_sequentially() {
        let c = proposed_restore(&timing(), 1.1);
        assert!(c.eval0_start < c.eval0_end);
        assert!(c.eval0_end < c.eval1_start);
        assert!(c.eval1_start < c.eval1_end);
        let mid0 = ((c.eval0_start + c.eval0_end) * 0.5).seconds();
        let mid1 = ((c.eval1_start + c.eval1_end) * 0.5).seconds();
        // Lower eval: ren high, P4 on (gate low), N4 off, P3 on.
        assert_eq!(c.ren.value_at(mid0), 1.1);
        assert_eq!(c.p4_b.value_at(mid0), 0.0);
        assert_eq!(c.n4.value_at(mid0), 0.0);
        assert_eq!(c.sel_b.value_at(mid0), 0.0);
        // Upper eval: ren high, N4 on, P4 off.
        assert_eq!(c.ren.value_at(mid1), 1.1);
        assert_eq!(c.n4.value_at(mid1), 1.1);
        assert_eq!(c.p4_b.value_at(mid1), 1.1);
        // GND pre-charge between the halves.
        let between = ((c.eval0_end + c.eval1_start) * 0.5).seconds();
        assert_eq!(c.pcg.value_at(between), 1.1);
        assert_eq!(c.ren.value_at(between), 0.0);
    }

    #[test]
    fn optimized_scheme_merges_equalizer_controls() {
        let c = proposed_restore_optimized(&timing(), 1.1);
        // P4 and N4 gates share the PC̄ net.
        assert_eq!(c.p4_b, c.n4);
        // Same evaluation windows as the explicit scheme.
        let e = proposed_restore(&timing(), 1.1);
        assert_eq!(c.eval0_start, e.eval0_start);
        assert_eq!(c.eval1_end, e.eval1_end);
        // The tail parks the outputs at GND (write precondition).
        let tail = (c.total - timing().lead_in * 0.25).seconds();
        assert_eq!(c.pcg.value_at(tail), 1.1);
    }

    #[test]
    fn optimized_scheme_needs_fewer_control_nets() {
        // Fig. 7's simplification: the three pre-charge/stabilizer
        // dependencies collapse onto one PC-derived net — P4 and N4
        // share a waveform, so the distinct-control count drops.
        let t = timing();
        let explicit = proposed_restore(&t, 1.1);
        let optimized = proposed_restore_optimized(&t, 1.1);
        let distinct = |c: &ProposedRestoreControls| {
            let waves = [&c.pcv_b, &c.pcg, &c.p4_b, &c.n4];
            let mut unique: Vec<&SourceWaveform> = Vec::new();
            for w in waves {
                if !unique.contains(&w) {
                    unique.push(w);
                }
            }
            unique.len()
        };
        assert!(
            distinct(&optimized) < distinct(&explicit),
            "optimized {} vs explicit {}",
            distinct(&optimized),
            distinct(&explicit)
        );
    }

    #[test]
    fn store_pulse_window() {
        let c = store(&timing(), 1.1);
        assert_eq!(c.write_start, timing().lead_in);
        assert_eq!(c.write_end, timing().lead_in + timing().write_pulse);
        let mid = ((c.write_start + c.write_end) * 0.5).seconds();
        assert_eq!(c.wen.value_at(mid), 1.1);
        assert_eq!(c.wen_b.value_at(mid), 0.0);
        assert_eq!(c.wen.value_at(0.0), 0.0);
        assert!(c.total > c.write_end);
    }

    #[test]
    fn word_restore_phases_are_sequential_and_disjoint() {
        let t = timing();
        let c = word_restore(&t, 1.1, 4);
        assert_eq!(c.sen.len(), 4);
        assert_eq!(c.sen_b.len(), 4);
        assert_eq!(c.evals.len(), 4);
        for pair in c.evals.windows(2) {
            assert!(pair[0].1 < pair[1].0, "windows overlap: {pair:?}");
        }
        // Each bit's sense enable is active only inside its own window.
        for (i, &(start, end)) in c.evals.iter().enumerate() {
            let mid = ((start + end) * 0.5).seconds();
            for (j, sen) in c.sen.iter().enumerate() {
                let v = sen.value_at(mid);
                if i == j {
                    assert_eq!(v, 1.1, "bit {j} inactive in its own window");
                } else {
                    assert_eq!(v, 0.0, "bit {j} active in bit {i}'s window");
                }
            }
        }
        assert!(c.total > c.evals[3].1);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn word_restore_rejects_zero_bits() {
        let _ = word_restore(&timing(), 1.1, 0);
    }

    #[test]
    fn default_timing_sequences_every_word() {
        // `resolve_config` skips the check unless a timing key is
        // overridden, relying on this.
        let max_bits = crate::request::MAX_WORD_BITS;
        assert_eq!(check_timing(&timing(), max_bits), Ok(()));
    }

    #[test]
    fn colliding_windows_are_named() {
        // A 250 ps edge outlasts the 200 ps pre-charge.
        let t = Timing {
            edge: Time::from_pico_seconds(250.0),
            ..timing()
        };
        let err = check_timing(&t, 1).unwrap_err();
        assert!(err.contains("word pre-charge"), "{err}");
        // A 5 ps evaluation cannot fit its own 10 ps edge.
        let t = Timing {
            evaluate: Time::from_pico_seconds(5.0),
            ..timing()
        };
        let err = check_timing(&t, 3).unwrap_err();
        assert!(err.contains("word pre-charge"), "{err}");
        // The store parks the outputs between two edges of the lead-in.
        let t = Timing {
            lead_in: Time::from_pico_seconds(25.0),
            ..timing()
        };
        let err = check_timing(&t, 1).unwrap_err();
        assert!(err.contains("store output park"), "{err}");
    }
}
