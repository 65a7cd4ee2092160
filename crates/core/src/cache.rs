//! The memoized search cache: hash-consed candidates plus memo tables for
//! the three expensive operations of the work-list search.
//!
//! The enumerative search of Algorithm 2 re-derives an enormous amount of
//! identical work: the same candidate expression is expanded once per spec
//! (per-spec phases explore overlapping prefixes of the same space),
//! type-checked after every substitution, and — in the merge — re-tested
//! against the same oracle on every backtracking attempt. A [`SearchCache`]
//! makes each of these a pure, memoized function of compact keys:
//!
//! * **hash-consing** — every candidate is interned into a sharded
//!   [`ExprArena`], so structurally equal candidates share one [`ExprId`]
//!   and the work-list / seen-set operate on `Copy` integers;
//! * **expansion memo** — `Expander::expand_first` + `simplify` + the §3.1
//!   type-narrowing filter, keyed by `(environment, Γ, candidate)`;
//! * **type memo** — `infer_ty` verdicts, same key;
//! * **oracle memo** — [`crate::generate::OracleOutcome`]s, keyed by
//!   `(oracle, candidate)`;
//! * **template memo** — the S-App / S-EffApp method-call templates
//!   enumerated from the class table, keyed by `(environment, goal/effect,
//!   seeds)`.
//!
//! Environments are identified *by content*: [`EnvToken`] wraps the
//! 128-bit [`ClassTable::fingerprint`] combined with the
//! expansion-relevant [`Options`] knobs, so two batch jobs built over
//! identical libraries share entries while a job that swaps constants or
//! effect precision can never observe another configuration's results.
//! Oracles are identified *by instance* ([`OracleToken`], a process-unique
//! counter), because their verdicts depend on prepared spec state that has
//! no content fingerprint.
//!
//! Every memoized value is a deterministic pure function of its key, so
//! caching — shared or not, threaded or not — can never change what the
//! search finds, only how fast it finds it. `solve --all --compare
//! [--no-cache]` in `rbsyn-bench` checks exactly this end to end.
//!
//! All tables are sharded behind [`RwLock`]s and values are looked up
//! optimistically (computed outside the lock; a racing duplicate insert
//! resolves to the first writer), so a cache can be shared across the
//! worker threads of [`crate::batch::run_batch`].

use crate::generate::OracleOutcome;
use crate::options::Options;
use rbsyn_lang::contention;
use rbsyn_lang::{hash128, Expr, ExprArena, ExprId, FxBuild, FxHasher, Symbol, Ty};
use rbsyn_ty::ClassTable;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independently locked shards per table. Sixteen keeps lock
/// contention negligible at batch-driver thread counts while the id
/// encoding (`index % SHARDS`) stays cheap.
const SHARDS: usize = 16;

/// Content-derived identity of a search environment: the class-table
/// fingerprint (hierarchy, methods, constants `Σ`, effect precision)
/// combined with the [`Options`] knobs that shape candidate enumeration.
///
/// Expansion, type and template memo entries are keyed on this token, so
/// reusing one [`SearchCache`] across problems is always sound: a problem
/// with different constants or precision hashes to a different token and
/// sees none of the previous problem's entries.
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

/// Process-unique identity of one oracle instance.
///
/// Oracle verdicts are memoized per `(token, candidate)`; a token is minted
/// once per prepared oracle (spec oracle, guard oracle) and never reused,
/// so verdicts from different specs can never be confused. Callers must
/// query one token with a consistent method name and parameter list — the
/// token stands for "this oracle judging this candidate body".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OracleToken(u64);

impl OracleToken {
    /// Mints a fresh, process-unique token.
    pub fn fresh() -> OracleToken {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        OracleToken(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Fingerprint of a typing environment `Γ` (the search's root bindings),
/// used alongside [`EnvToken`] to key expansion and type memos.
pub fn gamma_fingerprint(bindings: &[(Symbol, Ty)]) -> u128 {
    hash128("rbsyn.gamma", &bindings)
}

/// A sharded, clone-out concurrent map. Values are computed outside the
/// lock; racing inserts keep the first writer's value (all values stored
/// here are deterministic functions of their key, so the race is benign).
struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V, FxBuild>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, k: &K) -> &RwLock<HashMap<K, V, FxBuild>> {
        let mut h = FxHasher::default();
        k.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn get(&self, k: &K) -> Option<V> {
        contention::read(self.shard(k)).get(k).cloned()
    }

    fn insert_if_absent(&self, k: K, v: V) -> V {
        contention::write(self.shard(&k))
            .entry(k)
            .or_insert(v)
            .clone()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| contention::read(s).len()).sum()
    }
}

/// One memoized expansion result: the candidate's id plus every property
/// the work-list consults, captured at intern time so the hot loop touches
/// no further locks per item.
#[derive(Clone)]
pub struct ExpandItem {
    /// Hash-consed candidate id (dedup/memo key).
    pub id: ExprId,
    /// The candidate itself (shared with the arena).
    pub expr: Arc<Expr>,
    /// Precomputed node count.
    pub size: u32,
    /// Precomputed hole-free flag.
    pub evaluable: bool,
}

#[derive(Clone)]
struct ExpandEntry {
    /// Raw expansion count before type filtering (restored into
    /// [`crate::generate::SearchStats::expanded`] on hits so counters are
    /// identical with and without caching).
    raw: u64,
    /// Simplified, well-typed expansions, in enumeration order.
    items: Arc<[ExpandItem]>,
}

/// The shared memo store of one or many synthesis runs.
///
/// A `SearchCache` owns the hash-consing arena plus the expansion, type,
/// oracle and template memos described in the [module docs](self). It is
/// internally synchronized: wrap it in an [`Arc`] and hand clones to
/// concurrent batch jobs ([`crate::batch::run_batch`] does this
/// automatically). Dropping the cache reclaims everything.
///
/// Most callers never touch this type directly — [`crate::Synthesizer`]
/// creates a private cache per run, and the batch driver shares one across
/// jobs. The `--no-cache` escape hatch ([`Options::cache`]) replaces the
/// shared cache with throwaway per-call caches, which reproduces the
/// uncached search exactly.
pub struct SearchCache {
    arena: Vec<RwLock<ExprArena>>,
    expand: ShardedMap<(EnvToken, u128, ExprId), ExpandEntry>,
    types: ShardedMap<(EnvToken, u128, ExprId), Option<Ty>>,
    oracle: ShardedMap<(OracleToken, ExprId), OracleOutcome>,
    templates: ShardedMap<(EnvToken, String), Arc<Vec<Expr>>>,
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
            arena: (0..SHARDS)
                .map(|i| RwLock::new(ExprArena::with_stride(i as u32, SHARDS as u32)))
                .collect(),
            expand: ShardedMap::new(),
            types: ShardedMap::new(),
            oracle: ShardedMap::new(),
            templates: ShardedMap::new(),
        }
    }

    /// Hash-conses a candidate: structurally equal expressions get one id.
    /// The structural hash is computed once and reused for shard choice,
    /// the optimistic read probe, and the insert.
    pub fn intern(&self, e: Expr) -> ExprId {
        let hash = ExprArena::hash_of(&e);
        let lock = &self.arena[(hash as usize) % SHARDS];
        if let Some(id) = contention::read(lock).lookup_hashed(hash, &e) {
            return id;
        }
        contention::write(lock).intern_hashed(hash, e)
    }

    /// [`SearchCache::intern`] plus the interned `Arc` and both precomputed
    /// properties, all under a single shard roundtrip.
    pub fn intern_full(&self, e: Expr) -> ExpandItem {
        let hash = ExprArena::hash_of(&e);
        let lock = &self.arena[(hash as usize) % SHARDS];
        {
            let shard = contention::read(lock);
            if let Some(id) = shard.lookup_hashed(hash, &e) {
                let (size, evaluable) = shard.meta(id);
                return ExpandItem {
                    id,
                    expr: Arc::clone(shard.get(id)),
                    size: size as u32,
                    evaluable,
                };
            }
        }
        let mut shard = contention::write(lock);
        let id = shard.intern_hashed(hash, e);
        let (size, evaluable) = shard.meta(id);
        ExpandItem {
            id,
            expr: Arc::clone(shard.get(id)),
            size: size as u32,
            evaluable,
        }
    }

    /// The interned expression behind an id (cheap `Arc` clone).
    pub fn expr(&self, id: ExprId) -> Arc<Expr> {
        let shard = (id.index() as usize) % SHARDS;
        Arc::clone(contention::read(&self.arena[shard]).get(id))
    }

    /// Precomputed node count of an interned expression.
    pub fn size(&self, id: ExprId) -> usize {
        let shard = (id.index() as usize) % SHARDS;
        contention::read(&self.arena[shard]).size(id)
    }

    /// Precomputed hole-free flag of an interned expression.
    pub fn evaluable(&self, id: ExprId) -> bool {
        let shard = (id.index() as usize) % SHARDS;
        contention::read(&self.arena[shard]).evaluable(id)
    }

    /// Precomputed `(node count, evaluable)` in one shard roundtrip.
    pub fn meta(&self, id: ExprId) -> (usize, bool) {
        let shard = (id.index() as usize) % SHARDS;
        contention::read(&self.arena[shard]).meta(id)
    }

    /// Number of distinct candidates interned so far (diagnostics/tests).
    pub fn interned_exprs(&self) -> usize {
        self.arena.iter().map(|a| contention::read(a).len()).sum()
    }

    /// Number of memoized expansion lists (diagnostics/tests).
    pub fn expand_entries(&self) -> usize {
        self.expand.len()
    }

    /// Number of memoized type verdicts (diagnostics/tests).
    pub fn type_entries(&self) -> usize {
        self.types.len()
    }

    /// Number of memoized oracle verdicts (diagnostics/tests).
    pub fn oracle_entries(&self) -> usize {
        self.oracle.len()
    }

    /// Number of memoized template lists (diagnostics/tests).
    pub fn template_entries(&self) -> usize {
        self.templates.len()
    }
}

/// A [`SearchCache`] bound to one environment identity — the handle the
/// search actually threads around.
///
/// A handle sees *two* caches with different lifetimes:
///
/// * `run` — the candidate-level store (arena, expansion, type and oracle
///   memos). Candidate spaces are huge (hundreds of thousands of entries
///   per hard benchmark), so this cache is scoped to one synthesis run and
///   reclaimed when the run ends; sharing it across a whole batch was
///   measured to balloon resident memory into the gigabytes for zero
///   cross-job hits (distinct problems fingerprint to distinct
///   environments).
/// * `shared` — the library-template store (S-App / S-EffApp enumeration
///   lists). Templates are small, expensive to enumerate, and a pure
///   function of the class table, so the batch driver shares them across
///   jobs: identical environments reuse each other's enumeration work.
///
/// Binding pins the [`EnvToken`] once (fingerprinting the table is not
/// free), so the hot path only ever assembles keys from `Copy` values.
/// Cloning a handle is cheap and shares both underlying caches.
#[derive(Clone)]
pub struct CacheHandle {
    run: Arc<SearchCache>,
    shared: Arc<SearchCache>,
    env: EnvToken,
}

impl CacheHandle {
    /// Binds a run-scoped cache plus a (possibly batch-shared) template
    /// cache to a configured table + options. Passing the same cache for
    /// both is fine — [`CacheHandle::private`] does exactly that.
    pub fn bind(
        run: Arc<SearchCache>,
        shared: Arc<SearchCache>,
        table: &ClassTable,
        opts: &Options,
    ) -> CacheHandle {
        CacheHandle {
            env: EnvToken::compute(table, opts),
            run,
            shared,
        }
    }

    /// A fresh, unshared cache with a constant environment token. Used by
    /// the `--no-cache` path (one throwaway cache per search call) and by
    /// tests: a throwaway cache's entries can never be shared with another
    /// environment, so the token only needs internal consistency and the
    /// O(table) fingerprint of [`CacheHandle::bind`] is skipped.
    pub fn private() -> CacheHandle {
        let cache = Arc::new(SearchCache::new());
        CacheHandle {
            env: EnvToken(0),
            run: Arc::clone(&cache),
            shared: cache,
        }
    }

    /// The run-scoped candidate cache.
    pub fn cache(&self) -> &Arc<SearchCache> {
        &self.run
    }

    /// The batch-shared template cache.
    pub fn shared_cache(&self) -> &Arc<SearchCache> {
        &self.shared
    }

    /// The bound environment token.
    pub fn env_token(&self) -> EnvToken {
        self.env
    }

    /// See [`SearchCache::intern`].
    pub fn intern(&self, e: Expr) -> ExprId {
        self.run.intern(e)
    }

    /// See [`SearchCache::intern_full`].
    pub fn intern_full(&self, e: Expr) -> ExpandItem {
        self.run.intern_full(e)
    }

    /// See [`SearchCache::expr`].
    pub fn expr(&self, id: ExprId) -> Arc<Expr> {
        self.run.expr(id)
    }

    /// See [`SearchCache::size`].
    pub fn size(&self, id: ExprId) -> usize {
        self.run.size(id)
    }

    /// See [`SearchCache::evaluable`].
    pub fn evaluable(&self, id: ExprId) -> bool {
        self.run.evaluable(id)
    }

    /// See [`SearchCache::meta`].
    pub fn meta(&self, id: ExprId) -> (usize, bool) {
        self.run.meta(id)
    }

    /// Memoized expansion of the leftmost hole of `id` under the root
    /// environment `gamma_fp`: returns the simplified, type-filtered
    /// expansions, computing them via `compute` on a miss. `compute`
    /// returns `(raw_count, items)`; the raw (pre-filter) count is folded
    /// into `stats.expanded` on hits and misses alike so effort counters
    /// do not depend on cache state.
    pub fn expansions(
        &self,
        gamma_fp: u128,
        id: ExprId,
        stats: &mut crate::generate::SearchStats,
        compute: impl FnOnce(&mut crate::generate::SearchStats) -> (u64, Vec<ExpandItem>),
    ) -> Arc<[ExpandItem]> {
        let key = (self.env, gamma_fp, id);
        if let Some(entry) = self.run.expand.get(&key) {
            stats.expand_hits += 1;
            stats.expanded += entry.raw;
            return entry.items;
        }
        let (raw, items) = compute(stats);
        stats.expanded += raw;
        self.run
            .expand
            .insert_if_absent(
                key,
                ExpandEntry {
                    raw,
                    items: items.into(),
                },
            )
            .items
    }

    /// Memoized `infer_ty` verdict for `id` under `gamma_fp`.
    pub fn infer(
        &self,
        gamma_fp: u128,
        id: ExprId,
        stats: &mut crate::generate::SearchStats,
        compute: impl FnOnce() -> Option<Ty>,
    ) -> Option<Ty> {
        let key = (self.env, gamma_fp, id);
        if let Some(v) = self.run.types.get(&key) {
            stats.type_hits += 1;
            return v;
        }
        self.run.types.insert_if_absent(key, compute())
    }

    /// Memoized oracle verdict for candidate `id` under oracle `token`.
    pub fn oracle_verdict(
        &self,
        token: OracleToken,
        id: ExprId,
        stats: &mut crate::generate::SearchStats,
        compute: impl FnOnce() -> OracleOutcome,
    ) -> OracleOutcome {
        let key = (token, id);
        if let Some(v) = self.run.oracle.get(&key) {
            stats.oracle_hits += 1;
            return v;
        }
        self.run.oracle.insert_if_absent(key, compute())
    }

    /// Memoized S-App / S-EffApp call-template list for an enumeration key
    /// (goal-or-effect rendering plus receiver seeds).
    pub fn templates(&self, key: String, compute: impl FnOnce() -> Vec<Expr>) -> Arc<Vec<Expr>> {
        let k = (self.env, key);
        if let Some(v) = self.shared.templates.get(&k) {
            return v;
        }
        let v = Arc::new(compute());
        self.shared.templates.insert_if_absent(k, v)
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
    use crate::generate::SearchStats;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;
    use rbsyn_ty::EffectPrecision;

    fn table() -> ClassTable {
        EnvBuilder::with_stdlib().finish().table
    }

    #[test]
    fn interning_is_shared_and_sized() {
        let cache = SearchCache::new();
        let a = cache.intern(call(var("x"), "m", [int(1)]));
        let b = cache.intern(call(var("x"), "m", [int(1)]));
        assert_eq!(a, b);
        assert_eq!(cache.interned_exprs(), 1);
        assert_eq!(cache.size(a), 3);
        assert!(cache.evaluable(a));
        assert_eq!(*cache.expr(a), call(var("x"), "m", [int(1)]));
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
    fn oracle_tokens_are_unique() {
        let a = OracleToken::fresh();
        let b = OracleToken::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn expansion_memo_hits_and_restores_raw_counts() {
        let h = CacheHandle::private();
        let id = h.intern(hole(rbsyn_lang::Ty::Int));
        let mut stats = SearchStats::default();
        let gfp = gamma_fingerprint(&[]);
        let first = h.expansions(gfp, id, &mut stats, |_| (7, vec![h.intern_full(int(1))]));
        assert_eq!(stats.expanded, 7);
        assert_eq!(stats.expand_hits, 0);
        let second = h.expansions(gfp, id, &mut stats, |_| panic!("must not recompute"));
        let ids = |items: &[ExpandItem]| items.iter().map(|i| i.id).collect::<Vec<_>>();
        assert_eq!(ids(&first), ids(&second));
        assert_eq!(stats.expanded, 14, "raw count restored on hit");
        assert_eq!(stats.expand_hits, 1);
    }

    #[test]
    fn memo_keys_respect_environment_and_gamma() {
        let t = table();
        let opts = Options::default();
        let cache = Arc::new(SearchCache::new());
        let h1 = CacheHandle::bind(Arc::clone(&cache), Arc::clone(&cache), &t, &opts);
        let mut t2 = t.clone();
        t2.add_const(rbsyn_lang::Value::Int(9));
        let h2 = CacheHandle::bind(Arc::clone(&cache), Arc::clone(&cache), &t2, &opts);

        let id = h1.intern(hole(rbsyn_lang::Ty::Int));
        let mut stats = SearchStats::default();
        let gfp = gamma_fingerprint(&[]);
        h1.expansions(gfp, id, &mut stats, |_| (1, vec![]));
        // Different environment: entry invisible, recomputed.
        let recomputed = std::cell::Cell::new(false);
        h2.expansions(gfp, id, &mut stats, |_| {
            recomputed.set(true);
            (1, vec![])
        });
        assert!(recomputed.get(), "env token must separate entries");
        // Different Γ: also recomputed.
        let gfp2 = gamma_fingerprint(&[(rbsyn_lang::Symbol::intern("x"), rbsyn_lang::Ty::Str)]);
        let recomputed = std::cell::Cell::new(false);
        h1.expansions(gfp2, id, &mut stats, |_| {
            recomputed.set(true);
            (1, vec![])
        });
        assert!(recomputed.get(), "gamma fingerprint must separate entries");
    }
}
