//! Characterization requests: the service-level vocabulary for naming
//! a cell and a simulation setup.
//!
//! The characterization service (`crates/serve`) accepts JSON requests
//! naming a cell variant (`standard | proposed | nv_word_<n>`), a
//! process corner (`"SS/worst"`), and a whitelist of numeric parameter
//! overrides. This module owns the mapping from those strings onto the
//! crate's configuration types — [`CellVariant`] → [`WordParams`],
//! [`parse_corner`] → [`Corner`], [`apply_override`] → a mutated
//! [`LatchConfig`] — so the HTTP layer never touches simulation types
//! directly and the vocabulary is testable without a server.
//!
//! Parsing is strict: unknown variants, corners or override keys are
//! [`RequestError`]s, never silently ignored. Anything ignored would
//! leak into the service's content-addressed cache key and alias
//! distinct requests onto one cached result.

use core::fmt;

use mtj::MtjCorner;
use spice::CmosCorner;
use units::{Capacitance, Current, Resistance, Time};

use crate::config::{Corner, LatchConfig};
use crate::generator::{NvWord, WordParams};

/// Largest word the service will characterize on demand. Banked-word
/// simulation cost grows linearly in bits; the cap keeps one request
/// from monopolizing a worker.
pub(crate) const MAX_WORD_BITS: usize = 32;

/// Largest serial-MTJ chain accepted per branch.
pub(crate) const MAX_SERIES_MTJS: usize = 8;

/// A request was malformed: unknown variant, unknown corner, unknown
/// override key, or a value outside its physical range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    message: String,
}

impl RequestError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RequestError {}

/// A cell variant addressable by name in a characterization request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellVariant {
    /// The paper's standard 1-bit NV latch (Fig. 2b).
    Standard,
    /// The paper's proposed 2-bit shadow latch (Fig. 5).
    Proposed,
    /// A generator point: `nv_word_<bits>` or `nv_word_<bits>x<serial>`.
    NvWord(WordParams),
}

impl CellVariant {
    /// Parses a variant name: `standard`, `proposed`, `nv_word_<n>`, or
    /// `nv_word_<n>x<k>` for `k` serial MTJs per branch.
    ///
    /// # Errors
    ///
    /// Rejects unknown names, zero sizes, and words beyond
    /// `MAX_WORD_BITS` / `MAX_SERIES_MTJS`.
    pub fn parse(name: &str) -> Result<Self, RequestError> {
        match name {
            "standard" => return Ok(Self::Standard),
            "proposed" => return Ok(Self::Proposed),
            _ => {}
        }
        let Some(spec) = name.strip_prefix("nv_word_") else {
            return Err(RequestError::new(format!(
                "unknown variant {name:?}: expected standard, proposed, \
                 nv_word_<n> or nv_word_<n>x<k>"
            )));
        };
        let (bits_text, series_text) = match spec.split_once('x') {
            Some((b, s)) => (b, Some(s)),
            None => (spec, None),
        };
        let bits: usize = bits_text
            .parse()
            .map_err(|_| RequestError::new(format!("bad bit count in variant {name:?}")))?;
        if bits == 0 || bits > MAX_WORD_BITS {
            return Err(RequestError::new(format!(
                "variant {name:?}: bits must be in 1..={MAX_WORD_BITS}"
            )));
        }
        let series: usize = match series_text {
            Some(text) => text
                .parse()
                .map_err(|_| RequestError::new(format!("bad serial count in variant {name:?}")))?,
            None => 1,
        };
        if series == 0 || series > MAX_SERIES_MTJS {
            return Err(RequestError::new(format!(
                "variant {name:?}: serial MTJs must be in 1..={MAX_SERIES_MTJS}"
            )));
        }
        Ok(Self::NvWord(WordParams::new(bits).with_series_mtjs(series)))
    }

    /// The canonical spelling [`parse`](Self::parse) round-trips.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Standard => "standard".into(),
            Self::Proposed => "proposed".into(),
            Self::NvWord(p) if p.series_mtjs == 1 => format!("nv_word_{}", p.bits),
            Self::NvWord(p) => format!("nv_word_{}x{}", p.bits, p.series_mtjs),
        }
    }

    /// The generator point this variant maps onto. `standard` and
    /// `proposed` are the family's first two members, so every variant
    /// has one.
    #[must_use]
    pub fn word_params(&self) -> WordParams {
        match self {
            Self::Standard => WordParams::new(1),
            Self::Proposed => WordParams::new(2),
            Self::NvWord(p) => *p,
        }
    }

    /// Builds the simulation harness for this variant under `config`.
    #[must_use]
    pub fn instantiate(&self, config: LatchConfig) -> NvWord {
        NvWord::new(self.word_params(), config)
    }
}

/// Parses a combined corner label as [`Corner`] displays it —
/// `"<SS|TT|FF>/<worst|typical|best>"`, case-insensitive.
///
/// # Errors
///
/// Rejects anything else; there is no default half (a request omitting
/// the corner entirely is defaulted by the caller, not here).
pub fn parse_corner(label: &str) -> Result<Corner, RequestError> {
    let Some((cmos_text, mtj_text)) = label.split_once('/') else {
        return Err(RequestError::new(format!(
            "bad corner {label:?}: expected <SS|TT|FF>/<worst|typical|best>"
        )));
    };
    let cmos = match cmos_text.to_ascii_uppercase().as_str() {
        "SS" => CmosCorner::SlowSlow,
        "TT" => CmosCorner::TypicalTypical,
        "FF" => CmosCorner::FastFast,
        _ => {
            return Err(RequestError::new(format!(
                "unknown CMOS corner {cmos_text:?}: expected SS, TT or FF"
            )))
        }
    };
    let mtj = match mtj_text.to_ascii_lowercase().as_str() {
        "worst" => MtjCorner::WorstRead,
        "typical" => MtjCorner::Typical,
        "best" => MtjCorner::BestRead,
        _ => {
            return Err(RequestError::new(format!(
                "unknown MTJ corner {mtj_text:?}: expected worst, typical or best"
            )))
        }
    };
    Ok(Corner { cmos, mtj })
}

/// Every override key [`apply_override`] accepts, in canonical order.
/// The suffix names the unit the raw number is taken in.
pub(crate) const OVERRIDE_KEYS: &[&str] = &[
    "mtj.critical_current_ua",
    "mtj.nominal_write_current_ua",
    "mtj.resistance_parallel_kohm",
    "mtj.thermal_stability",
    "mtj.tmr_zero_bias",
    "sizing.output_load_ff",
    "sizing.output_load_mismatch",
    "time_step_ps",
    "timing.edge_ps",
    "timing.evaluate_ps",
    "timing.lead_in_ps",
    "timing.precharge_ps",
    "timing.write_pulse_ns",
    "tolerances.abstol",
    "tolerances.reltol",
];

/// Applies one whitelisted numeric override to `config`.
///
/// MTJ keys route through [`mtj::MtjParams::to_builder`] so the
/// device's physical validation runs on the combined (corner-shifted +
/// overridden) parameter set; a set the builder rejects is a
/// [`RequestError`], not a panic deep in a simulation.
///
/// # Errors
///
/// Rejects unknown keys, non-finite values, values outside a key's
/// physical range, and MTJ parameter sets that fail validation.
pub(crate) fn apply_override(
    config: &mut LatchConfig,
    key: &str,
    value: f64,
) -> Result<(), RequestError> {
    if !value.is_finite() {
        return Err(RequestError::new(format!(
            "override {key:?}: value must be finite"
        )));
    }
    let positive = |what: &str| -> Result<f64, RequestError> {
        if value > 0.0 {
            Ok(value)
        } else {
            Err(RequestError::new(format!(
                "override {what:?}: value must be positive, got {value}"
            )))
        }
    };
    let rebuild_mtj = |config: &mut LatchConfig,
                       apply: &dyn Fn(mtj::MtjParamsBuilder) -> mtj::MtjParamsBuilder|
     -> Result<(), RequestError> {
        config.mtj = apply(config.mtj.to_builder())
            .build()
            .map_err(|e| RequestError::new(format!("override {key:?}: {e}")))?;
        Ok(())
    };
    match key {
        "mtj.critical_current_ua" => {
            let i = Current::from_micro_amps(positive(key)?);
            rebuild_mtj(config, &|b| b.critical_current(i))
        }
        "mtj.nominal_write_current_ua" => {
            let i = Current::from_micro_amps(positive(key)?);
            rebuild_mtj(config, &|b| b.nominal_write_current(i))
        }
        "mtj.resistance_parallel_kohm" => {
            let r = Resistance::from_kilo_ohms(positive(key)?);
            rebuild_mtj(config, &|b| b.resistance_parallel(r))
        }
        "mtj.thermal_stability" => {
            let delta = positive(key)?;
            rebuild_mtj(config, &|b| b.thermal_stability(delta))
        }
        "mtj.tmr_zero_bias" => {
            let tmr = positive(key)?;
            rebuild_mtj(config, &|b| b.tmr_zero_bias(tmr))
        }
        "sizing.output_load_ff" => {
            config.sizing.output_load = Capacitance::from_femto_farads(positive(key)?);
            Ok(())
        }
        "sizing.output_load_mismatch" => {
            if value.abs() >= 1.0 {
                return Err(RequestError::new(format!(
                    "override {key:?}: fractional mismatch must satisfy |m| < 1, got {value}"
                )));
            }
            config.sizing.output_load_mismatch = value;
            Ok(())
        }
        "time_step_ps" => {
            config.time_step = Time::from_pico_seconds(positive(key)?);
            Ok(())
        }
        "timing.edge_ps" => {
            config.timing.edge = Time::from_pico_seconds(positive(key)?);
            Ok(())
        }
        "timing.evaluate_ps" => {
            config.timing.evaluate = Time::from_pico_seconds(positive(key)?);
            Ok(())
        }
        "timing.lead_in_ps" => {
            config.timing.lead_in = Time::from_pico_seconds(positive(key)?);
            Ok(())
        }
        "timing.precharge_ps" => {
            config.timing.precharge = Time::from_pico_seconds(positive(key)?);
            Ok(())
        }
        "timing.write_pulse_ns" => {
            config.timing.write_pulse = Time::from_nano_seconds(positive(key)?);
            Ok(())
        }
        "tolerances.abstol" => {
            config.tolerances.abstol = positive(key)?;
            Ok(())
        }
        "tolerances.reltol" => {
            config.tolerances.reltol = positive(key)?;
            Ok(())
        }
        _ => Err(RequestError::new(format!(
            "unknown override key {key:?} (known keys: {})",
            OVERRIDE_KEYS.join(", ")
        ))),
    }
}

/// Builds the full simulation configuration of a request: the default
/// [`LatchConfig`] shifted to `corner`, then each `(key, value)`
/// override applied in the order given.
///
/// Order matters only between duplicate keys (last write wins); the
/// service canonicalizes requests before keying its cache, so two
/// spellings of the same override set hash identically.
///
/// Each timing key is range-checked on its own; the combined timing
/// must also sequence every control waveform of every variant the
/// service accepts, or the control generators would panic mid-request.
///
/// # Errors
///
/// Propagates `RequestError` from `apply_override`, and rejects a
/// timing whose control windows collide.
pub fn resolve_config(
    corner: Corner,
    overrides: &[(String, f64)],
) -> Result<LatchConfig, RequestError> {
    let mut config = LatchConfig::default().at_corner(corner);
    for (key, value) in overrides {
        apply_override(&mut config, key, *value)?;
    }
    // Corners leave the timing alone and the default timing sequences
    // every word (`control`'s tests pin that), so only a timing override
    // can make the control windows collide.
    if overrides.iter().any(|(key, _)| key.starts_with("timing.")) {
        crate::control::check_timing(&config.timing, MAX_WORD_BITS).map_err(RequestError::new)?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_round_trip() {
        for name in ["standard", "proposed", "nv_word_4", "nv_word_8x2"] {
            let v = CellVariant::parse(name).expect(name);
            assert_eq!(v.label(), name);
        }
        assert_eq!(
            CellVariant::parse("standard").unwrap().word_params(),
            WordParams::new(1)
        );
        assert_eq!(
            CellVariant::parse("proposed").unwrap().word_params(),
            WordParams::new(2)
        );
        assert_eq!(
            CellVariant::parse("nv_word_4x3").unwrap().word_params(),
            WordParams::new(4).with_series_mtjs(3)
        );
        // nv_word_1 and standard are distinct spellings of the same
        // generator point; labels stay faithful to the request.
        assert_eq!(
            CellVariant::parse("nv_word_1").unwrap().label(),
            "nv_word_1"
        );
    }

    #[test]
    fn bad_variants_are_rejected() {
        for name in [
            "Standard",
            "nv_word_0",
            "nv_word_",
            "nv_word_x2",
            "nv_word_4x0",
            "nv_word_999",
            "nv_word_2x99",
            "word_2",
            "",
        ] {
            assert!(CellVariant::parse(name).is_err(), "{name:?} must fail");
        }
    }

    #[test]
    fn corners_parse_case_insensitively() {
        for corner in Corner::all() {
            assert_eq!(parse_corner(&corner.to_string()), Ok(corner));
        }
        assert_eq!(parse_corner("ss/WORST"), Ok(Corner::slow()));
        assert!(parse_corner("TT").is_err());
        assert!(parse_corner("XX/typical").is_err());
        assert!(parse_corner("TT/median").is_err());
    }

    #[test]
    fn overrides_land_on_the_config() {
        let mut config = LatchConfig::default();
        apply_override(&mut config, "timing.write_pulse_ns", 3.0).expect("write pulse");
        apply_override(&mut config, "sizing.output_load_ff", 12.0).expect("load");
        apply_override(&mut config, "mtj.tmr_zero_bias", 1.0).expect("tmr");
        apply_override(&mut config, "tolerances.reltol", 1e-4).expect("reltol");
        assert!((config.timing.write_pulse.nano_seconds() - 3.0).abs() < 1e-12);
        assert!((config.sizing.output_load.femto_farads() - 12.0).abs() < 1e-12);
        assert!((config.mtj.tmr_zero_bias() - 1.0).abs() < 1e-12);
        assert!((config.tolerances.reltol - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn mtj_overrides_survive_the_corner_shift() {
        let corner = Corner::slow();
        let shifted_only = LatchConfig::default().at_corner(corner);
        let config = resolve_config(corner, &[("mtj.nominal_write_current_ua".into(), 80.0)])
            .expect("resolve");
        assert!((config.mtj.nominal_write_current().micro_amps() - 80.0).abs() < 1e-9);
        // The corner's TMR degradation is still there.
        assert!(
            (config.mtj.tmr_zero_bias() - shifted_only.mtj.tmr_zero_bias()).abs() < 1e-12,
            "override must not reset the corner shift"
        );
    }

    #[test]
    fn bad_overrides_are_rejected_with_context() {
        let mut config = LatchConfig::default();
        let err = apply_override(&mut config, "nope.key", 1.0).unwrap_err();
        assert!(err.to_string().contains("unknown override key"));
        assert!(err.to_string().contains("timing.write_pulse_ns"));
        assert!(apply_override(&mut config, "time_step_ps", 0.0).is_err());
        assert!(apply_override(&mut config, "time_step_ps", f64::NAN).is_err());
        // ±∞ is refused as non-finite, before any range or timing check.
        for key in ["timing.write_pulse_ns", "mtj.thermal_stability"] {
            for value in [f64::INFINITY, -f64::INFINITY] {
                let err = resolve_config(Corner::typical(), &[(key.into(), value)]).unwrap_err();
                assert!(err.to_string().contains("finite"), "{key} = {value}: {err}");
            }
        }
        assert!(apply_override(&mut config, "sizing.output_load_mismatch", 1.5).is_err());
        // Physically inconsistent MTJ sets are caught by the builder.
        let err = apply_override(&mut config, "mtj.nominal_write_current_ua", 1.0).unwrap_err();
        assert!(err.to_string().contains("write current"), "{err}");
    }

    #[test]
    fn override_key_list_matches_the_implementation() {
        // Every advertised key applies cleanly with a safe value...
        for key in OVERRIDE_KEYS {
            let mut config = LatchConfig::default();
            let value = match *key {
                "tolerances.reltol" => 1e-3,
                "tolerances.abstol" => 1e-6,
                "sizing.output_load_mismatch" => 0.02,
                "mtj.nominal_write_current_ua" => 80.0,
                "mtj.critical_current_ua" => 30.0,
                _ => 1.0,
            };
            apply_override(&mut config, key, value).unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        // ...and the list is sorted, because it doubles as documentation.
        let mut sorted = OVERRIDE_KEYS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, OVERRIDE_KEYS);
    }

    fn overrides(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn colliding_timing_overrides_are_rejected() {
        // Every key is in range alone; together with the defaults the
        // control windows collide: a 250 ps edge outlasts the 200 ps
        // pre-charge, a 5 ps evaluation is shorter than its own edge,
        // and a 25 ps lead-in cannot park the outputs between two edges.
        for bad in [
            overrides(&[("timing.edge_ps", 250.0)]),
            overrides(&[("timing.evaluate_ps", 5.0)]),
            overrides(&[("timing.lead_in_ps", 25.0)]),
        ] {
            let err = resolve_config(Corner::typical(), &bad).unwrap_err();
            assert!(err.to_string().contains("timing leaves no room"), "{err}");
        }
        // The same edge passes once every window has room for it.
        let roomy = overrides(&[
            ("timing.edge_ps", 250.0),
            ("timing.evaluate_ps", 600.0),
            ("timing.lead_in_ps", 800.0),
            ("timing.precharge_ps", 600.0),
        ]);
        assert!(resolve_config(Corner::typical(), &roomy).is_ok());
    }

    proptest::proptest! {
        /// Whatever timing `resolve_config` accepts, every control
        /// generator sequences without panicking, for the largest word
        /// the service builds and both proposed-latch schemes.
        #[test]
        fn accepted_timings_always_sequence(
            edge in -0.5f64..2.5,
            evaluate in 1.5f64..5.0,
            lead_in in 1.5f64..5.0,
            precharge in 1.5f64..5.0,
            write_pulse in 0.5f64..3.0,
        ) {
            // A log-uniform edge, every other duration a few edges long:
            // the picks straddle each window's limit, so both colliding
            // and roomy sets occur.
            let edge_ps = 10f64.powf(edge);
            let picks = overrides(&[
                ("timing.edge_ps", edge_ps),
                ("timing.evaluate_ps", edge_ps * evaluate),
                ("timing.lead_in_ps", edge_ps * lead_in),
                ("timing.precharge_ps", edge_ps * precharge),
                ("timing.write_pulse_ns", edge_ps * write_pulse * 1e-3),
            ]);
            let Ok(config) = resolve_config(Corner::typical(), &picks) else {
                return Ok(());
            };
            let (timing, vdd) = (&config.timing, config.vdd());
            let word = crate::control::word_restore(timing, vdd, MAX_WORD_BITS);
            proptest::prop_assert_eq!(word.evals.len(), MAX_WORD_BITS);
            let _ = crate::control::proposed_restore(timing, vdd);
            let _ = crate::control::proposed_restore_optimized(timing, vdd);
            let _ = crate::control::store(timing, vdd);
        }
    }
}
