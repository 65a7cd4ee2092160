//! Search configuration: guidance modes (§5.3), effect precision (§5.4),
//! size bounds and budgets.

use rbsyn_trace::TraceConfig;
use rbsyn_ty::EffectPrecision;
use std::time::Duration;

/// Which guidance is active — the four configurations of Fig. 7.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Guidance {
    /// Type-guidance: holes only accept terms of fitting types and
    /// ill-typed candidates are pruned (narrowing, §3.1). Disabled, any
    /// term fills any hole ("E Only" / "TE Disabled").
    pub types: bool,
    /// Effect-guidance: failing assertions insert effect holes constrained
    /// to the observed read effect. Disabled, the failure-driven wrap still
    /// happens but the hole accepts *any* impure method (`◇:*`), which is
    /// how a type-only synthesizer would have to search ("T Only" /
    /// "TE Disabled").
    pub effects: bool,
}

impl Guidance {
    /// Full RbSyn ("TE Enabled").
    pub fn both() -> Guidance {
        Guidance {
            types: true,
            effects: true,
        }
    }

    /// "T Only".
    pub fn types_only() -> Guidance {
        Guidance {
            types: true,
            effects: false,
        }
    }

    /// "E Only".
    pub fn effects_only() -> Guidance {
        Guidance {
            types: false,
            effects: true,
        }
    }

    /// "TE Disabled" — naive enumeration.
    pub fn neither() -> Guidance {
        Guidance {
            types: false,
            effects: false,
        }
    }

    /// The four modes in the order Fig. 7 lists them.
    pub fn all() -> [Guidance; 4] {
        [
            Guidance::both(),
            Guidance::types_only(),
            Guidance::effects_only(),
            Guidance::neither(),
        ]
    }

    /// Fig. 7 legend label.
    pub fn label(self) -> &'static str {
        match (self.types, self.effects) {
            (true, true) => "TE Enabled",
            (true, false) => "T Only",
            (false, true) => "E Only",
            (false, false) => "TE Disabled",
        }
    }
}

impl Default for Guidance {
    fn default() -> Guidance {
        Guidance::both()
    }
}

/// Synthesizer options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Guidance mode (§5.3 ablation).
    pub guidance: Guidance,
    /// Effect-annotation precision (§5.4 ablation).
    pub precision: EffectPrecision,
    /// `maxSize` of Algorithm 2: candidates above this AST node count are
    /// not enqueued.
    pub max_size: usize,
    /// Size bound for branch-condition synthesis (guards are small).
    pub max_guard_size: usize,
    /// Maximum number of keys in a synthesized hash literal.
    pub max_hash_keys: usize,
    /// Hard cap on work-list pops per `generate` call (search-space
    /// exhaustion backstop).
    pub max_expansions: u64,
    /// Wall-clock budget for the whole synthesis run (the paper uses 300 s
    /// in §5). `None` disables the deadline. A candidate still being
    /// evaluated at [`GRACE`](crate::synthesizer::GRACE) times the budget
    /// is hard-cancelled, and the run surfaces as the same
    /// [`SynthError::Timeout`](crate::SynthError::Timeout) a cooperative
    /// stop produces.
    pub timeout: Option<Duration>,
    /// Search-event tracing (`--trace`): `Some` activates the
    /// [`rbsyn_trace`] session threaded through every phase — phase
    /// spans, sampled candidate-lifecycle instants, counter samples.
    /// `None` (the default) is zero-cost: every instrumentation site is
    /// one `Option` check. Tracing never changes synthesized programs or
    /// effort counters — instrumentation only *reads* engine state — and
    /// the CI `trace` determinism leg byte-compares solve output with
    /// tracing on vs off. Callers that want
    /// the recorded events attach their own session via
    /// [`Synthesizer::with_tracer`](crate::Synthesizer::with_tracer);
    /// with only this field set the run traces into a private session
    /// that is discarded (useful for determinism tests).
    pub trace: Option<TraceConfig>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            guidance: Guidance::both(),
            precision: EffectPrecision::Precise,
            max_size: 32,
            max_guard_size: 14,
            max_hash_keys: 2,
            max_expansions: 2_000_000,
            timeout: Some(Duration::from_secs(300)),
            trace: None,
        }
    }
}

impl Options {
    /// Options with a specific guidance mode.
    pub fn with_guidance(g: Guidance) -> Options {
        Options {
            guidance: g,
            ..Options::default()
        }
    }

    /// Options with a specific effect precision.
    pub fn with_precision(p: EffectPrecision) -> Options {
        Options {
            precision: p,
            ..Options::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_fig7() {
        assert_eq!(Guidance::both().label(), "TE Enabled");
        assert_eq!(Guidance::types_only().label(), "T Only");
        assert_eq!(Guidance::effects_only().label(), "E Only");
        assert_eq!(Guidance::neither().label(), "TE Disabled");
        assert_eq!(Guidance::all().len(), 4);
    }

    #[test]
    fn defaults_are_full_rbsyn() {
        let o = Options::default();
        assert_eq!(o.guidance, Guidance::both());
        assert_eq!(o.precision, EffectPrecision::Precise);
        assert!(o.timeout.is_some());
        assert!(o.trace.is_none(), "tracing is opt-in (zero-cost off)");
    }
}
