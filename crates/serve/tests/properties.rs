//! Property tests for the serve crate: Prometheus exposition helpers
//! (label-value escaping must round-trip, sanitized metric names must
//! land in the legal charset) and the characterize-request fingerprint
//! (spelling-invariant, perturbation-sensitive).
//!
//! The proptest stub only ships scalar strategies, so strings are grown
//! from a drawn `u64` seed through a local splitmix generator — same
//! seed, same data, reproducible from a failure log.

use proptest::prelude::*;
use serve::{escape_label_value, sanitize_metric_name, CharacterizeRequest};

/// Splitmix64: tiny, statistically fine for shaping test data.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A string biased toward the characters that matter: escapes,
    /// quotes, newlines, separators, plus ordinary ASCII and a few
    /// multi-byte code points.
    fn string(&mut self, len: usize) -> String {
        const POOL: &[char] = &[
            '\\', '"', '\n', '/', '.', '-', ':', '_', ' ', 'a', 'Z', '7', 'µ', '√',
        ];
        (0..len)
            .map(|_| POOL[(self.next() as usize) % POOL.len()])
            .collect()
    }
}

/// Inverse of `escape_label_value`, used to verify the round trip.
fn unescape(escaped: &str) -> Option<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                '"' => out.push('"'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// The abstract content of a characterize request, independent of any
/// particular JSON spelling.
#[derive(Debug, Clone, PartialEq)]
struct Spec {
    variant: &'static str,
    corner: &'static str,
    analysis: &'static str,
    overrides: Vec<(&'static str, f64)>,
}

const VARIANTS: &[&str] = &[
    "standard",
    "proposed",
    "nv_word_1",
    "nv_word_3",
    "nv_word_4x2",
];
const CORNERS: &[&str] = &[
    "SS/worst",
    "SS/typical",
    "SS/best",
    "TT/worst",
    "TT/typical",
    "TT/best",
    "FF/worst",
    "FF/typical",
    "FF/best",
];
const ANALYSES: &[&str] = &["full", "read", "write", "leakage"];

/// Override keys with a value range that stays valid under both the
/// per-key checks and a 1.5× perturbation — so every generated request
/// parses and the perturbed sibling does too. The edge range also keeps
/// the combined timing sequenceable: the store parks the outputs inside
/// the lead-in, which needs lead-in > 3 × edge (15 ps at most here
/// against a 50 ps floor).
const SAFE_OVERRIDES: &[(&str, f64, f64)] = &[
    ("time_step_ps", 0.5, 4.0),
    ("timing.edge_ps", 2.0, 10.0),
    ("timing.evaluate_ps", 100.0, 1000.0),
    ("timing.lead_in_ps", 50.0, 500.0),
    ("timing.precharge_ps", 100.0, 1000.0),
    ("timing.write_pulse_ns", 1.0, 8.0),
    ("tolerances.reltol", 1e-5, 1e-3),
    ("sizing.output_load_ff", 2.0, 40.0),
];

impl Spec {
    fn arbitrary(mix: &mut Mix) -> Self {
        let mut overrides: Vec<(&'static str, f64)> = Vec::new();
        for &(key, lo, hi) in SAFE_OVERRIDES {
            if mix.next().is_multiple_of(2) {
                let t = (mix.next() % 1000) as f64 / 999.0;
                overrides.push((key, lo + t * (hi - lo)));
            }
        }
        overrides.sort_by_key(|(key, _)| *key);
        Self {
            variant: VARIANTS[(mix.next() as usize) % VARIANTS.len()],
            corner: CORNERS[(mix.next() as usize) % CORNERS.len()],
            analysis: ANALYSES[(mix.next() as usize) % ANALYSES.len()],
            overrides,
        }
    }

    /// One JSON spelling of this spec: randomized top-level field
    /// order, override order, whitespace, number formatting, and corner
    /// letter case — everything canonicalization must erase.
    fn render(&self, mix: &mut Mix) -> String {
        let ws = |mix: &mut Mix| -> &'static str {
            ["", " ", "\n", "  ", "\t"][(mix.next() as usize) % 5]
        };
        let number = |mix: &mut Mix, value: f64| -> String {
            match mix.next() % 3 {
                0 => format!("{value}"),
                1 => format!("{value:e}"),
                // An integral value may drop or keep its fraction.
                _ if value.fract() == 0.0 => format!("{value:.1}"),
                _ => format!("{value}"),
            }
        };
        let corner = if mix.next().is_multiple_of(2) {
            self.corner.to_owned()
        } else {
            // parse_corner is case-insensitive per component.
            let (cmos, mtj) = self.corner.split_once('/').expect("corner shape");
            format!("{}/{}", cmos.to_lowercase(), mtj.to_uppercase())
        };
        let mut order: Vec<usize> = (0..self.overrides.len()).collect();
        shuffle(mix, &mut order);
        let entries: Vec<String> = order
            .iter()
            .map(|&i| {
                let (key, value) = &self.overrides[i];
                format!("\"{key}\":{}{}", ws(mix), number(mix, *value))
            })
            .collect();
        let mut fields = vec![
            format!("\"variant\":{}\"{}\"", ws(mix), self.variant),
            format!("\"corner\":{}\"{corner}\"", ws(mix)),
            format!("\"analysis\":{}\"{}\"", ws(mix), self.analysis),
            format!("\"overrides\":{}{{{}}}", ws(mix), entries.join(",")),
        ];
        // Sometimes leave defaulted fields out entirely.
        if self.corner == "TT/typical" && mix.next().is_multiple_of(2) {
            fields.remove(1);
        }
        if self.analysis == "full" && mix.next().is_multiple_of(2) {
            fields.retain(|f| !f.starts_with("\"analysis\""));
        }
        if self.overrides.is_empty() && mix.next().is_multiple_of(2) {
            fields.retain(|f| !f.starts_with("\"overrides\""));
        }
        let mut field_order: Vec<usize> = (0..fields.len()).collect();
        shuffle(mix, &mut field_order);
        let body: Vec<String> = field_order.iter().map(|&i| fields[i].clone()).collect();
        format!(
            "{}{{{}}}{}",
            ws(mix),
            body.join(&format!(",{}", ws(mix))),
            ws(mix)
        )
    }

    /// A minimally different spec: exactly one dimension changed.
    fn perturb(&self, mix: &mut Mix) -> Self {
        let mut other = self.clone();
        let moves = 3 + usize::from(!self.overrides.is_empty());
        match mix.next() as usize % moves {
            0 => {
                let current = other.variant;
                while other.variant == current {
                    other.variant = VARIANTS[(mix.next() as usize) % VARIANTS.len()];
                }
            }
            1 => {
                let current = other.corner;
                while other.corner == current {
                    other.corner = CORNERS[(mix.next() as usize) % CORNERS.len()];
                }
            }
            2 => {
                let current = other.analysis;
                while other.analysis == current {
                    other.analysis = ANALYSES[(mix.next() as usize) % ANALYSES.len()];
                }
            }
            _ => {
                let index = (mix.next() as usize) % other.overrides.len();
                other.overrides[index].1 *= 1.5;
            }
        }
        other
    }
}

/// Fisher–Yates from the seeded mixer.
fn shuffle(mix: &mut Mix, order: &mut [usize]) {
    for i in (1..order.len()).rev() {
        order.swap(i, (mix.next() as usize) % (i + 1));
    }
}

proptest! {
    /// Key order, whitespace, number spelling, corner case, and
    /// explicit-vs-omitted defaults never change the fingerprint: two
    /// arbitrary spellings of one request share a cache entry.
    #[test]
    fn equivalent_spellings_share_a_fingerprint(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let spec = Spec::arbitrary(&mut mix);
        let a = spec.render(&mut mix);
        let b = spec.render(&mut mix);
        let fp_a = CharacterizeRequest::parse(&a)
            .unwrap_or_else(|e| panic!("{a}: {e}"))
            .fingerprint();
        let fp_b = CharacterizeRequest::parse(&b)
            .unwrap_or_else(|e| panic!("{b}: {e}"))
            .fingerprint();
        prop_assert!(fp_a == fp_b, "{} vs {}", a, b);
    }

    /// Any single-dimension change — variant, corner, analysis kind, or
    /// one override value — lands on a different fingerprint, so near
    /// neighbors can never alias onto one cache entry.
    #[test]
    fn any_single_perturbation_changes_the_fingerprint(seed in any::<u64>()) {
        let mut mix = Mix(seed);
        let spec = Spec::arbitrary(&mut mix);
        let perturbed = spec.perturb(&mut mix);
        prop_assert!(spec != perturbed, "perturb must change the spec");
        let base = CharacterizeRequest::parse(&spec.render(&mut mix))
            .expect("base parses")
            .fingerprint();
        let changed = CharacterizeRequest::parse(&perturbed.render(&mut mix))
            .expect("perturbed parses")
            .fingerprint();
        prop_assert!(base != changed, "{:?} vs {:?}", spec, perturbed);
    }
}

proptest! {
    /// Escaping is invertible — no information is lost, so distinct
    /// span paths always scrape as distinct label values.
    #[test]
    fn escaping_round_trips(seed in any::<u64>(), len in 0usize..64) {
        let original = Mix(seed).string(len);
        let escaped = escape_label_value(&original);
        let unescaped = unescape(&escaped);
        prop_assert_eq!(unescaped.as_deref(), Some(original.as_str()));
    }

    /// The escaped text never contains a raw quote or newline, so it
    /// can be pasted between `"`s in the exposition without splitting
    /// the line or ending the label early.
    #[test]
    fn escaped_text_is_safe_inside_quotes(seed in any::<u64>(), len in 0usize..64) {
        let escaped = escape_label_value(&Mix(seed).string(len));
        prop_assert!(!escaped.contains('\n'));
        // Every quote must be preceded by an odd run of backslashes.
        let bytes = escaped.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                let backslashes = bytes[..i].iter().rev().take_while(|&&c| c == b'\\').count();
                prop_assert!(backslashes % 2 == 1, "unescaped quote in {escaped:?}");
            }
        }
    }

    /// Sanitized names always match `[a-zA-Z_:][a-zA-Z0-9_:]*` — the
    /// Prometheus metric-name grammar — regardless of input.
    #[test]
    fn sanitized_names_match_the_metric_grammar(seed in any::<u64>(), len in 0usize..40) {
        let name = sanitize_metric_name(&Mix(seed).string(len));
        prop_assert!(!name.is_empty());
        let mut chars = name.chars();
        let first = chars.next().expect("nonempty");
        prop_assert!(first.is_ascii_alphabetic() || first == '_' || first == ':', "{name:?}");
        for c in chars {
            prop_assert!(
                c.is_ascii_alphanumeric() || c == '_' || c == ':',
                "illegal {c:?} in {name:?}"
            );
        }
    }

    /// Sanitizing is idempotent: a legal name passes through unchanged.
    #[test]
    fn sanitizing_is_idempotent(seed in any::<u64>(), len in 0usize..40) {
        let once = sanitize_metric_name(&Mix(seed).string(len));
        prop_assert_eq!(sanitize_metric_name(&once), once);
    }
}
