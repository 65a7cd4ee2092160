//! Fault injection: named failpoints that can deterministically inject
//! panics and delays into the synthesis pipeline.
//!
//! A *failpoint* is a named site in production code — `interp::eval`,
//! `guards::cover`, `batch::claim` — at which a test
//! or a chaos harness can make the pipeline misbehave on purpose. The
//! chaos suite uses them to prove the robustness claims of the batch
//! driver: a panicking candidate evaluation must convert to a per-job
//! failure, and a stalled interpreter must still end in a timeout.
//!
//! The facility is **feature-gated** behind `failpoints` and compiles to
//! nothing when the feature is off: every helper is an empty inline
//! function, no statics are consulted, and the eval hot path carries zero
//! extra work (the CI effort-regression gate holds this). With the feature
//! on but no profile configured, each site costs one relaxed atomic load.
//!
//! # Profiles
//!
//! A profile is a `;`-separated list of `site=action` rules, taken from
//! the `RBSYN_FAILPOINTS` environment variable (read once, lazily) or
//! installed programmatically with [`configure`]:
//!
//! ```text
//! interp::eval=panic@3;guards::cover=delay(5)%2
//! ```
//!
//! Actions are `panic` and `delay(MILLIS)`. A rule fires on every hit by
//! default; the suffix `@N` restricts it to exactly the N-th hit of that
//! site (1-based) and `%N` to every N-th hit. An environment profile that
//! does not parse installs no rules and prints the parse error to stderr.
//! Triggers count *hits per site*, so a profile is deterministic for
//! a deterministic execution — the same run hits the same sites in the
//! same order, which is what lets the chaos suite assert byte-identical
//! results for unaffected jobs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "failpoints")]
use std::time::Duration;

/// Is the `failpoints` feature compiled in?
pub const fn enabled() -> bool {
    cfg!(feature = "failpoints")
}

/// What a matching rule does when it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Action {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given number of milliseconds.
    Delay(u64),
}

/// When a rule fires, relative to the per-site hit counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Trigger {
    /// Every hit.
    Always,
    /// Only the N-th hit (1-based).
    Nth(u64),
    /// Every N-th hit.
    Every(u64),
}

#[derive(Clone, Debug)]
// Only `fire` (feature-gated) reads the fields; the parser still builds
// them in uninstrumented builds to validate specs.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
struct Rule {
    site: String,
    action: Action,
    trigger: Trigger,
    hits: u64,
}

/// Fast path: false whenever no profile is installed, so un-faulted runs
/// pay one relaxed load per site.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Vec<Rule>> {
    static REGISTRY: OnceLock<Mutex<Vec<Rule>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let rules = match std::env::var("RBSYN_FAILPOINTS") {
            Ok(spec) => parse(&spec).unwrap_or_else(|e| {
                eprintln!("RBSYN_FAILPOINTS ignored: {e}");
                Vec::new()
            }),
            Err(_) => Vec::new(),
        };
        ACTIVE.store(!rules.is_empty(), Ordering::Relaxed);
        Mutex::new(rules)
    })
}

fn parse(spec: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, action) = part
            .split_once('=')
            .ok_or_else(|| format!("failpoint rule {part:?} is missing `=`"))?;
        let (action, trigger) = if let Some((a, n)) = action.split_once('@') {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad `@N` trigger in {part:?}"))?;
            (a, Trigger::Nth(n.max(1)))
        } else if let Some((a, n)) = action.split_once('%') {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad `%N` trigger in {part:?}"))?;
            (a, Trigger::Every(n.max(1)))
        } else {
            (action, Trigger::Always)
        };
        let action = match action {
            "panic" => Action::Panic,
            a => {
                let ms = a
                    .strip_prefix("delay(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .and_then(|ms| ms.parse::<u64>().ok())
                    .ok_or_else(|| format!("unknown failpoint action {a:?} in {part:?}"))?;
                Action::Delay(ms)
            }
        };
        rules.push(Rule {
            site: site.trim().to_owned(),
            action,
            trigger,
            hits: 0,
        });
    }
    Ok(rules)
}

/// Decides what (if anything) fires at `site`, advancing hit counters.
/// The registry lock is released before the caller acts, so an injected
/// panic can never poison the failpoint state itself.
#[cfg(feature = "failpoints")]
fn fire(site: &str) -> Option<Action> {
    if !ACTIVE.load(Ordering::Relaxed) {
        // Force the lazy env read exactly once even on the fast path, so
        // a profile installed via the environment is never missed.
        static INIT: OnceLock<()> = OnceLock::new();
        INIT.get_or_init(|| {
            let _ = registry();
        });
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
    }
    let mut rules = registry().lock().unwrap_or_else(|p| p.into_inner());
    let rule = rules.iter_mut().find(|r| r.site == site)?;
    rule.hits += 1;
    let firing = match rule.trigger {
        Trigger::Always => true,
        Trigger::Nth(n) => rule.hits == n,
        Trigger::Every(n) => rule.hits.is_multiple_of(n),
    };
    firing.then_some(rule.action)
}

/// Installs a fault profile, replacing any previous one (including one
/// taken from `RBSYN_FAILPOINTS`). An empty spec clears all rules.
///
/// # Errors
///
/// Returns the offending rule when the spec does not parse. With the
/// `failpoints` feature off the spec is validated but never installed.
pub fn configure(spec: &str) -> Result<(), String> {
    let rules = parse(spec)?;
    if enabled() {
        // Materialize the registry (and its one-time env read) *before*
        // flipping the fast-path flag, so lazy init cannot clobber it.
        let mut slot = registry().lock().unwrap_or_else(|p| p.into_inner());
        ACTIVE.store(!rules.is_empty(), Ordering::Relaxed);
        *slot = rules;
    }
    Ok(())
}

/// Removes every rule and resets all hit counters.
pub fn clear() {
    if enabled() {
        let mut slot = registry().lock().unwrap_or_else(|p| p.into_inner());
        ACTIVE.store(false, Ordering::Relaxed);
        slot.clear();
    }
}

/// A named failpoint. Panics or sleeps when a matching `panic` / `delay`
/// rule fires. A no-op without the `failpoints` feature.
///
/// # Panics
///
/// By design, when a matching `panic` rule fires.
#[inline(always)]
pub fn hit(site: &str) {
    #[cfg(feature = "failpoints")]
    {
        match fire(site) {
            Some(Action::Panic) => panic!("failpoint {site} injected panic"),
            Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            None => {}
        }
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests in this binary that touch the global registry.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn specs_parse_and_reject() {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        assert!(configure("a=panic;b=delay(5)%2;c=panic@3").is_ok());
        assert!(configure("a").is_err(), "missing `=`");
        assert!(configure("a=explode").is_err(), "unknown action");
        assert!(configure("a=panic@x").is_err(), "bad trigger");
        assert!(configure("").is_ok(), "empty spec clears");
        clear();
    }

    #[test]
    fn disabled_builds_are_inert() {
        if !enabled() {
            let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
            configure("x=panic").expect("valid spec");
            hit("x"); // must not panic
            clear();
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn rules_fire_by_site_and_trigger() {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        configure("t::boom=panic@2;t::always=panic").expect("valid spec");
        hit("t::boom"); // first hit: no fire
        let err = std::panic::catch_unwind(|| hit("t::boom")).expect_err("second hit fires");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t::boom"), "payload names the site: {msg:?}");
        hit("t::boom"); // third hit: @2 is exhausted
        assert!(std::panic::catch_unwind(|| hit("t::always")).is_err());
        hit("t::other"); // unknown site: no-op
        clear();
        hit("t::always"); // cleared: no-op
    }
}
