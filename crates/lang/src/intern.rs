//! The global string interner and the hasher behind the synthesizer's
//! hash tables.
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

use crate::contention;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// The rustc-style multiply-xor hasher (FxHash).
///
/// Node interning and memo lookups sit on the search's hottest path; a
/// keyed SipHash there costs more than the table operations it guards.
/// This hasher trades DoS resistance (irrelevant for in-process search
/// tables) for ~5× faster hashing. Its multiply carries input bits only
/// upwards: feed it one small id per word, not two packed into one, if
/// the low bits of the hash must tell them apart. Deterministic within a
/// process — do not persist its output.
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
/// identity, search-environment tokens — where 64 bits
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
/// string content. The process-wide table uses 16 stripes;
/// `intern_stress.rs` pins the "layout is unobservable" contract across
/// every layout from 1 to 16 stripes.
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

/// Stripe count of the process-wide symbol table.
const GLOBAL_SHARDS: usize = 16;

/// The process-wide table behind [`Symbol`].
fn global() -> &'static SymbolTable {
    static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
    GLOBAL.get_or_init(|| SymbolTable::with_shards(GLOBAL_SHARDS))
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
}
