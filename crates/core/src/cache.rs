//! The template memo: the S-App / S-EffApp call-template lists, shared
//! across the specs, merge attempts and batch jobs of identical
//! libraries.
//!
//! Enumerating the method-call templates a hole admits (every library
//! method at every model class whose return type fits, or whose write
//! effect subsumes the goal) walks the whole class table. The list is a
//! pure function of the class table, the goal type or effect and the
//! receiver seeds, so a [`SearchCache`] computes it once per key and hands
//! out the shared result.
//!
//! Environments are identified *by content*: [`EnvToken`] wraps the
//! 128-bit [`ClassTable::fingerprint`] combined with the
//! expansion-relevant [`Options`] knobs, so two batch jobs built over
//! identical libraries share entries while a job that swaps constants or
//! effect precision can never observe another configuration's lists.
//!
//! Every memoized list is a deterministic pure function of its key, so
//! caching — shared or not, threaded or not — can never change what the
//! search finds, only how fast it builds its fill lists. `solve --all
//! --compare [--no-cache]` in `rbsyn-bench` checks exactly this end to
//! end.
//!
//! The table is sharded behind [`RwLock`]s and values are computed
//! optimistically (outside the lock; a racing duplicate insert resolves to
//! the first writer), so one cache can be shared across the job threads
//! of [`crate::batch::run_batch`].

use crate::options::Options;
use rbsyn_lang::contention;
use rbsyn_lang::{hash128, Expr, FxBuild, FxHasher};
use rbsyn_ty::ClassTable;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Number of independently locked shards. Sixteen keeps lock contention
/// negligible at batch-driver thread counts.
const SHARDS: usize = 16;

/// Content-derived identity of a search environment: the class-table
/// fingerprint (hierarchy, methods, constants `Σ`, effect precision)
/// combined with the [`Options`] knobs that shape candidate enumeration.
///
/// Template entries are keyed on this token, so reusing one
/// [`SearchCache`] across problems is always sound: a problem with
/// different constants or precision hashes to a different token and sees
/// none of the previous problem's entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EnvToken(u128);

impl EnvToken {
    /// Computes the token for a configured table under the given options.
    pub fn compute(table: &ClassTable, opts: &Options) -> EnvToken {
        EnvToken(hash128(
            "rbsyn.env",
            &(
                table.fingerprint(),
                opts.guidance.types,
                opts.guidance.effects,
                opts.max_hash_keys,
            ),
        ))
    }
}

/// A template key: the environment plus the enumeration key (goal or
/// effect rendering and receiver seeds).
type TemplateKey = (EnvToken, String);

/// One lock stripe of the template table.
type Shard = RwLock<HashMap<TemplateKey, Arc<Vec<Expr>>, FxBuild>>;

/// The shared template store of one or many synthesis runs.
///
/// Internally synchronized: wrap it in an [`Arc`] and hand clones to
/// concurrent batch jobs ([`crate::batch::run_batch`] does this
/// automatically). Most callers never touch this type directly —
/// [`crate::Synthesizer`] creates a private one per run, and the batch
/// driver shares one across jobs. The `--no-cache` escape hatch
/// ([`Options::cache`]) gives every `generate` call a throwaway store
/// instead.
pub struct SearchCache {
    shards: Vec<Shard>,
}

impl Default for SearchCache {
    fn default() -> SearchCache {
        SearchCache::new()
    }
}

impl SearchCache {
    /// An empty cache.
    pub fn new() -> SearchCache {
        SearchCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, k: &TemplateKey) -> &Shard {
        let mut h = FxHasher::default();
        k.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Number of memoized template lists (diagnostics/tests).
    pub fn template_entries(&self) -> usize {
        self.shards.iter().map(|s| contention::read(s).len()).sum()
    }
}

/// A [`SearchCache`] bound to one environment identity — the handle the
/// search threads around.
///
/// Binding pins the [`EnvToken`] once (fingerprinting the table is not
/// free), so the hot path only ever assembles keys from `Copy` values.
/// Cloning a handle is cheap and shares the underlying cache.
#[derive(Clone)]
pub struct CacheHandle {
    shared: Arc<SearchCache>,
    env: EnvToken,
}

impl CacheHandle {
    /// Binds a (possibly batch-shared) cache to a configured table +
    /// options.
    pub fn bind(shared: Arc<SearchCache>, table: &ClassTable, opts: &Options) -> CacheHandle {
        CacheHandle {
            env: EnvToken::compute(table, opts),
            shared,
        }
    }

    /// A fresh, unshared cache with a constant environment token. Used by
    /// the `--no-cache` path (one throwaway cache per search call) and by
    /// tests: a throwaway cache's entries can never be shared with another
    /// environment, so the token only needs internal consistency and the
    /// O(table) fingerprint of [`CacheHandle::bind`] is skipped.
    pub fn private() -> CacheHandle {
        CacheHandle {
            env: EnvToken(0),
            shared: Arc::new(SearchCache::new()),
        }
    }

    /// The underlying cache.
    pub fn shared_cache(&self) -> &Arc<SearchCache> {
        &self.shared
    }

    /// Memoized S-App / S-EffApp call-template list for an enumeration key
    /// (goal-or-effect rendering plus receiver seeds).
    pub fn templates(&self, key: String, compute: impl FnOnce() -> Vec<Expr>) -> Arc<Vec<Expr>> {
        let k = (self.env, key);
        let lock = self.shared.shard(&k);
        if let Some(v) = contention::read(lock).get(&k) {
            return Arc::clone(v);
        }
        let v = Arc::new(compute());
        Arc::clone(contention::write(lock).entry(k).or_insert(v))
    }
}

impl crate::expand::TemplateStore for CacheHandle {
    fn templates(&self, key: String, compute: &mut dyn FnMut() -> Vec<Expr>) -> Arc<Vec<Expr>> {
        CacheHandle::templates(self, key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;
    use rbsyn_ty::EffectPrecision;

    fn table() -> ClassTable {
        EnvBuilder::with_stdlib().finish().table
    }

    #[test]
    fn env_tokens_separate_configurations() {
        let t = table();
        let opts = Options::default();
        let base = EnvToken::compute(&t, &opts);
        assert_eq!(base, EnvToken::compute(&t, &opts), "deterministic");

        let mut with_const = t.clone();
        with_const.add_const(rbsyn_lang::Value::Int(42));
        assert_ne!(base, EnvToken::compute(&with_const, &opts));

        let mut coarse = t.clone();
        coarse.set_precision(EffectPrecision::Purity);
        assert_ne!(base, EnvToken::compute(&coarse, &opts));

        let untyped = Options::with_guidance(crate::Guidance::effects_only());
        assert_ne!(base, EnvToken::compute(&t, &untyped));
    }

    #[test]
    fn templates_are_memoized_per_environment() {
        let t = table();
        let opts = Options::default();
        let cache = Arc::new(SearchCache::new());
        let h1 = CacheHandle::bind(Arc::clone(&cache), &t, &opts);
        let first = h1.templates("ret|Int".into(), || vec![int(1)]);
        let again = h1.templates("ret|Int".into(), || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &again));
        // Different environment: entry invisible, recomputed.
        let mut t2 = t.clone();
        t2.add_const(rbsyn_lang::Value::Int(9));
        let h2 = CacheHandle::bind(Arc::clone(&cache), &t2, &opts);
        let other = h2.templates("ret|Int".into(), || vec![int(2)]);
        assert_eq!(*other, vec![int(2)], "env token must separate entries");
        assert_eq!(cache.template_entries(), 2);
    }
}
