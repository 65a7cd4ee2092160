//! Interners: the global string interner and the hash-consing
//! expression arena.
//!
//! Identifiers (variables, method names, hash keys, effect regions, class
//! names) appear everywhere in the synthesizer's inner loop, so they are
//! interned once into a [`Symbol`] — a `Copy` integer handle with O(1)
//! equality and hashing. The interner is a process-wide [`SymbolTable`]:
//! inserts are striped over independently locked shards, and *resolution*
//! ([`Symbol::as_str`], which every observation hash and every symbol
//! comparison hits) is a lock-free indexed load from an append-only
//! segment arena. Interning the same string twice returns the same handle
//! for the lifetime of the process.
//!
//! Candidate *expressions* get the same treatment via [`ExprArena`]:
//! structurally equal [`Expr`]s are hash-consed to one [`ExprId`], so the
//! search can deduplicate its work-list, compare candidates, and key memo
//! tables on a `Copy` integer instead of re-rendering or re-walking ASTs.
//! Unlike the string interner, expression arenas are *instantiable* (one
//! per search cache), so their memory is reclaimed when the cache is
//! dropped.

use crate::ast::Expr;
use crate::contention;
use crate::metrics::node_count;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The rustc-style multiply-xor hasher (FxHash).
///
/// Candidate interning and memo lookups hash whole expression trees on the
/// search's hottest path; a keyed SipHash there costs more than the table
/// operations it guards. This hasher trades DoS resistance (irrelevant for
/// an in-process search cache) for ~5× faster tree hashing. Deterministic
/// within a process — do not persist its output.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(*b) << (8 * i);
        }
        self.add(tail ^ (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-backed maps.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A tagged 128-bit content digest: two independent 64-bit
/// [`std::collections::hash_map::DefaultHasher`] passes (fixed-seed, so
/// values are reproducible within a process) over `(tag, lane, content)`.
///
/// Used wherever a content fingerprint doubles as a cache key — class-table
/// identity, search-environment tokens, `Γ` fingerprints — where 64 bits
/// would leave accidental collisions within reach of a long-running
/// service. Do not persist the output: it is stable per process, not per
/// toolchain.
pub fn hash128(tag: &str, content: &impl std::hash::Hash) -> u128 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;
    let mut lo = DefaultHasher::new();
    (tag, "lo", content).hash(&mut lo);
    let mut hi = DefaultHasher::new();
    (tag, "hi", content).hash(&mut hi);
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

/// An interned string.
///
/// Construct with [`Symbol::intern`] (or the `From<&str>` impl) and convert
/// back with [`Symbol::as_str`]. Symbols are ordered by their *string*
/// contents so that search exploration order is independent of interning
/// order — and, since the table went sharded, independent of the shard
/// layout too.
///
/// # Example
///
/// ```
/// use rbsyn_lang::Symbol;
/// let a = Symbol::intern("title");
/// let b = Symbol::intern("title");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "title");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Log₂ of the first segment's capacity: segment `i` holds
/// `512 << i` slots, so a shard's capacity doubles with each segment and
/// 24 segments cover the whole `u32` slot space.
const SEG0_BITS: u32 = 9;

/// Segments per shard (enough that `segment_of` can never run off the
/// end for any encodable slot).
const SEGMENTS: usize = 24;

/// `(segment, offset)` of a slot under the doubling layout: segment `s`
/// spans slots `[512·(2^s − 1), 512·(2^{s+1} − 1))`.
fn segment_of(slot: u32) -> (usize, usize) {
    let k = (slot >> SEG0_BITS) + 1;
    let seg = (31 - k.leading_zeros()) as usize;
    let base = ((1u32 << seg) - 1) << SEG0_BITS;
    (seg, (slot - base) as usize)
}

/// One stripe of a [`SymbolTable`]: a locked insert map plus a lock-free,
/// append-only resolution arena.
///
/// The arena is a chain of exponentially growing segments, each slot a
/// [`OnceLock`]: readers resolve with two atomic loads (segment pointer,
/// slot) and never block, writers fill slots strictly once while holding
/// the shard's insert lock. Nothing is ever moved or freed, so a published
/// `&'static str` stays valid for the process lifetime.
struct Shard {
    /// String → encoded [`Symbol`] id. Taken shared for the lookup fast
    /// path, exclusively for inserts; never touched by resolution.
    map: RwLock<HashMap<&'static str, u32, FxBuild>>,
    /// Lazily allocated resolution segments (see [`segment_of`]).
    segments: [OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS],
    /// Published slot count (diagnostics; resolution trusts the slots).
    len: AtomicU32,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: RwLock::new(HashMap::default()),
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU32::new(0),
        }
    }

    /// Lock-free resolution of a local slot.
    fn resolve(&self, slot: u32) -> &'static str {
        let (seg, off) = segment_of(slot);
        self.segments[seg]
            .get()
            .and_then(|s| s[off].get())
            .expect("symbol slot resolved before publication")
    }
}

/// A sharded string interner with lock-free resolution.
///
/// Interning stripes strings over independently
/// locked insert maps (striped by content hash, so two threads interning
/// different identifiers almost never touch the same lock), while
/// *resolution* — the hot direction, hit on every [`Symbol::as_str`],
/// every content-based observation hash and every [`Symbol`] comparison —
/// is a plain indexed load from an append-only segment arena with **no
/// lock at all**.
///
/// Ids encode `slot << shard_bits | shard`, so `id & (shards − 1)`
/// recovers the owning stripe. The encoding (and therefore the raw
/// [`Symbol::index`] values) varies with the shard count, but nothing
/// observable does: symbols compare, order, print and observation-hash by
/// string content. The process-wide table reads `RBSYN_INTERN_SHARDS`
/// once (power of two, clamped to `1..=64`, default 16); the determinism
/// CI matrix pins shard counts 1/4/16 against each other to enforce the
/// "layout is unobservable" contract end to end.
///
/// The table is instantiable for tests; everything else goes through the
/// process-wide instance behind [`Symbol::intern`].
pub struct SymbolTable {
    shards: Box<[Shard]>,
    shard_bits: u32,
}

impl SymbolTable {
    /// A table with `shards` stripes, rounded up to a power of two and
    /// clamped to `1..=64`.
    pub fn with_shards(shards: usize) -> SymbolTable {
        let n = shards.clamp(1, 64).next_power_of_two();
        SymbolTable {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_bits: n.trailing_zeros(),
        }
    }

    /// The stripe count (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total symbols interned across all stripes (diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, s: &str) -> usize {
        let mut h = FxHasher::default();
        h.write(s.as_bytes());
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    /// Interns `s`, returning its encoded id. Idempotent: equal strings
    /// always map to one id for the table's lifetime.
    pub fn intern(&self, s: &str) -> u32 {
        let shard_idx = self.shard_of(s);
        let shard = &self.shards[shard_idx];
        if let Some(&id) = contention::read(&shard.map).get(s) {
            return id;
        }
        let mut map = contention::write(&shard.map);
        if let Some(&id) = map.get(s) {
            // A racing intern published this string between our probes.
            return id;
        }
        // Leaking is fine: the set of identifiers in a synthesis session is
        // small and bounded by the library surface plus spec text.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let slot = shard.len.load(Ordering::Relaxed);
        let (seg, off) = segment_of(slot);
        let segment = shard.segments[seg].get_or_init(|| {
            (0..(1usize << (SEG0_BITS as usize + seg)))
                .map(|_| OnceLock::new())
                .collect()
        });
        segment[off]
            .set(leaked)
            .expect("fresh slot filled twice (insert lock violated)");
        shard.len.store(slot + 1, Ordering::Release);
        let id = (slot << self.shard_bits) | (shard_idx as u32);
        map.insert(leaked, id);
        id
    }

    /// Lock-free resolution of an id produced by [`SymbolTable::intern`].
    ///
    /// # Panics
    ///
    /// Panics on an id this table never handed out.
    pub fn resolve(&self, id: u32) -> &'static str {
        let shard = (id as usize) & (self.shards.len() - 1);
        self.shards[shard].resolve(id >> self.shard_bits)
    }
}

/// The process-wide table behind [`Symbol`]. Shard count comes from
/// `RBSYN_INTERN_SHARDS`, read exactly once.
fn global() -> &'static SymbolTable {
    static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let shards = std::env::var("RBSYN_INTERN_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        SymbolTable::with_shards(shards)
    })
}

/// The effective stripe count of the process-wide symbol table (after the
/// `RBSYN_INTERN_SHARDS` clamp-and-round) — host metadata for benchmark
/// reports. Forces table initialization on first call.
pub fn global_shard_count() -> usize {
    global().shard_count()
}

impl Symbol {
    /// Interns `s`, returning its stable handle.
    pub fn intern(s: &str) -> Symbol {
        Symbol(global().intern(s))
    }

    /// Returns the interned string (a lock-free indexed load).
    pub fn as_str(self) -> &'static str {
        global().resolve(self.0)
    }

    /// Raw encoded handle (`slot << shard_bits | shard`). Stable for the
    /// process lifetime but **sparse and layout-dependent** — key maps on
    /// the `Symbol` itself, or order by contents, never index dense arrays
    /// with this.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A hash-consed expression handle.
///
/// Two candidates intern to the same id in a given [`ExprArena`] exactly
/// when they are structurally equal; ids from *different* arenas are
/// unrelated and must not be mixed. Ids are `Copy` and hash/compare in
/// O(1), which is what makes them suitable as work-list entries and memo
/// keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(u32);

impl ExprId {
    /// Raw handle; exposed for dense indexing and sharding.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A hash-consing arena for [`Expr`]s.
///
/// Interning stores one shared copy of each distinct expression and
/// precomputes the two properties the search asks about on every work-list
/// operation: [`node_count`] (the size heuristic) and `evaluable` (the
/// hole-free predicate of Fig. 12). Candidates are interned *whole*; the
/// arena does not decompose subtrees.
///
/// Several arenas can interleave their id spaces via
/// [`ExprArena::with_stride`], which is how a sharded, thread-safe cache
/// hands out globally unique ids from independently locked shards.
///
/// # Example
///
/// ```
/// use rbsyn_lang::builder::*;
/// use rbsyn_lang::intern::ExprArena;
///
/// let mut arena = ExprArena::new();
/// let a = arena.intern(call(var("x"), "first", []));
/// let b = arena.intern(call(var("x"), "first", []));
/// let c = arena.intern(var("x"));
/// assert_eq!(a, b, "structurally equal candidates share an id");
/// assert_ne!(a, c);
/// assert_eq!(arena.size(c), 1);
/// assert!(arena.evaluable(a));
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ExprArena {
    // Buckets keyed by the precomputed structural hash; values are entry
    // slots with that hash. One tree walk ([`ExprArena::hash_of`]) serves
    // shard selection, lookup and insertion alike — with 64-bit hashes the
    // chains are essentially always length one, and equality is confirmed
    // structurally on the rare collision.
    map: HashMap<u64, Bucket, FxBuild>,
    entries: Vec<ArenaEntry>,
    offset: u32,
    stride: u32,
}

/// A hash bucket that stays allocation-free in the overwhelmingly common
/// single-entry case (millions of buckets exist during a hard search).
#[derive(Debug)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn slots(&self) -> &[u32] {
        match self {
            Bucket::One(s) => std::slice::from_ref(s),
            Bucket::Many(v) => v,
        }
    }

    fn push(&mut self, slot: u32) {
        match self {
            Bucket::One(s) => *self = Bucket::Many(vec![*s, slot]),
            Bucket::Many(v) => v.push(slot),
        }
    }
}

#[derive(Debug)]
struct ArenaEntry {
    expr: Arc<Expr>,
    size: u32,
    evaluable: bool,
}

impl ExprArena {
    /// An empty arena with the dense id space `0, 1, 2, …`.
    pub fn new() -> ExprArena {
        ExprArena::with_stride(0, 1)
    }

    /// An empty arena handing out ids `offset, offset+stride, …`.
    ///
    /// Shard `i` of an `n`-way sharded cache uses `with_stride(i, n)`, so
    /// ids remain globally unique and `id.index() % n` recovers the shard.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero or `offset >= stride`.
    pub fn with_stride(offset: u32, stride: u32) -> ExprArena {
        assert!(stride > 0 && offset < stride, "invalid arena stride");
        ExprArena {
            map: HashMap::default(),
            entries: Vec::new(),
            offset,
            stride,
        }
    }

    /// The structural hash used by this arena's buckets (one tree walk).
    /// Compute it once and pass it to the `*_hashed` operations when both
    /// a pre-check and an insert may happen.
    pub fn hash_of(e: &Expr) -> u64 {
        let mut h = FxHasher::default();
        std::hash::Hash::hash(e, &mut h);
        h.finish()
    }

    /// Interns an expression, returning its stable handle.
    pub fn intern(&mut self, e: Expr) -> ExprId {
        let hash = Self::hash_of(&e);
        self.intern_hashed(hash, e)
    }

    /// [`ExprArena::intern`] with the [`ExprArena::hash_of`] value already
    /// in hand.
    pub fn intern_hashed(&mut self, hash: u64, e: Expr) -> ExprId {
        let slot = match self.map.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut occ) => {
                if let Some(&slot) = occ
                    .get()
                    .slots()
                    .iter()
                    .find(|&&slot| *self.entries[slot as usize].expr == e)
                {
                    return ExprId(self.offset + slot * self.stride);
                }
                let slot = self.entries.len() as u32;
                occ.get_mut().push(slot);
                slot
            }
            std::collections::hash_map::Entry::Vacant(vac) => {
                let slot = self.entries.len() as u32;
                vac.insert(Bucket::One(slot));
                slot
            }
        };
        let size = node_count(&e).min(u32::MAX as usize) as u32;
        let evaluable = e.evaluable();
        self.entries.push(ArenaEntry {
            expr: Arc::new(e),
            size,
            evaluable,
        });
        ExprId(self.offset + slot * self.stride)
    }

    /// Looks an expression up without interning it.
    pub fn lookup(&self, e: &Expr) -> Option<ExprId> {
        self.lookup_hashed(Self::hash_of(e), e)
    }

    /// [`ExprArena::lookup`] with the [`ExprArena::hash_of`] value already
    /// in hand.
    pub fn lookup_hashed(&self, hash: u64, e: &Expr) -> Option<ExprId> {
        self.map.get(&hash).and_then(|bucket| {
            bucket
                .slots()
                .iter()
                .find(|&&slot| *self.entries[slot as usize].expr == *e)
                .map(|&slot| ExprId(self.offset + slot * self.stride))
        })
    }

    fn slot(&self, id: ExprId) -> usize {
        debug_assert_eq!(id.0 % self.stride, self.offset, "foreign ExprId");
        ((id.0 - self.offset) / self.stride) as usize
    }

    /// The interned expression behind a handle (cheaply clonable `Arc`).
    ///
    /// # Panics
    ///
    /// Panics when `id` was produced by a different arena.
    pub fn get(&self, id: ExprId) -> &Arc<Expr> {
        &self.entries[self.slot(id)].expr
    }

    /// Precomputed [`node_count`] of the interned expression.
    pub fn size(&self, id: ExprId) -> usize {
        self.entries[self.slot(id)].size as usize
    }

    /// Precomputed `evaluable` (hole-free) flag of the interned expression.
    pub fn evaluable(&self, id: ExprId) -> bool {
        self.entries[self.slot(id)].evaluable
    }

    /// Both precomputed properties in one lookup: `(node count,
    /// evaluable)`. The work-list consults both per candidate, and behind
    /// a lock one roundtrip matters.
    pub fn meta(&self, id: ExprId) -> (usize, bool) {
        let e = &self.entries[self.slot(id)];
        (e.size as usize, e.evaluable)
    }

    /// Number of distinct expressions interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("foo"), Symbol::intern("bar"));
    }

    #[test]
    fn roundtrips_contents() {
        assert_eq!(Symbol::intern("Post.title").as_str(), "Post.title");
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order to make sure ordering ignores handles.
        let z = Symbol::intern("zzz_order");
        let a = Symbol::intern("aaa_order");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("slug");
        assert_eq!(s.to_string(), "slug");
        assert_eq!(format!("{s:?}"), "Symbol(\"slug\")");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "x".into();
        let b: Symbol = String::from("x").into();
        assert_eq!(a, b);
    }

    mod arena {
        use super::super::*;
        use crate::builder::*;
        use crate::types::Ty;

        #[test]
        fn equal_exprs_share_an_id() {
            let mut a = ExprArena::new();
            let e1 = a.intern(call(var("x"), "m", [int(1)]));
            let e2 = a.intern(call(var("x"), "m", [int(1)]));
            assert_eq!(e1, e2);
            assert_eq!(a.len(), 1, "one entry despite two interns");
        }

        #[test]
        fn distinct_exprs_get_distinct_ids() {
            let mut a = ExprArena::new();
            let ids = [
                a.intern(var("x")),
                a.intern(var("y")),
                a.intern(str_("x")),
                a.intern(hole(Ty::Str)),
                a.intern(call(var("x"), "m", [])),
            ];
            for (i, x) in ids.iter().enumerate() {
                for y in &ids[i + 1..] {
                    assert_ne!(x, y);
                }
            }
            assert_eq!(a.len(), 5);
        }

        #[test]
        fn get_roundtrips_and_metrics_are_precomputed() {
            let mut a = ExprArena::new();
            let e = seq([hole(Ty::Int), call(var("x"), "m", [int(2)])]);
            let id = a.intern(e.clone());
            assert_eq!(**a.get(id), e);
            assert_eq!(a.size(id), node_count(&e));
            assert!(!a.evaluable(id), "expression has a hole");
            let done = a.intern(var("x"));
            assert!(a.evaluable(done));
        }

        #[test]
        fn lookup_does_not_intern() {
            let mut a = ExprArena::new();
            assert!(a.is_empty());
            assert_eq!(a.lookup(&var("x")), None);
            let id = a.intern(var("x"));
            assert_eq!(a.lookup(&var("x")), Some(id));
            assert_eq!(a.len(), 1);
        }

        #[test]
        fn strided_arenas_interleave_id_spaces() {
            let mut shard0 = ExprArena::with_stride(0, 4);
            let mut shard3 = ExprArena::with_stride(3, 4);
            let a = shard0.intern(var("a"));
            let b = shard0.intern(var("b"));
            let c = shard3.intern(var("c"));
            assert_eq!(a.index() % 4, 0);
            assert_eq!(b.index() % 4, 0);
            assert_eq!(c.index() % 4, 3);
            assert_ne!(a, b);
            assert_eq!(**shard3.get(c), var("c"));
        }

        #[test]
        #[should_panic(expected = "invalid arena stride")]
        fn bad_stride_is_rejected() {
            let _ = ExprArena::with_stride(4, 4);
        }
    }
}
