//! Lock-contention telemetry: per-site wait/hold counters for every named
//! lock in the synthesis pipeline.
//!
//! The parallel drivers share a handful of synchronized structures — the
//! global [symbol table](crate::intern), the search cache's arena and memo
//! stripes, the speculation pool. When threads grind
//! on one of them, wall time *rises* with thread count while CPU time
//! explodes, and nothing in the solve stats says why. This module gives
//! every such lock a name ([`LockSite`]) and counts, per site:
//!
//! * **acquisitions** — lock round-trips;
//! * **contended** — acquisitions that could not take the lock immediately
//!   (a `try_lock` probe failed first);
//! * **wait_nanos** — wall-clock time spent blocked on contended
//!   acquisitions;
//! * **hold_nanos** — wall-clock time the lock was held (write/exclusive
//!   acquisitions through the [`Held`] guard only; reads are counted but
//!   not timed — shared holds overlap, so their sum is not wall time).
//!
//! The instrumentation is **feature-gated** behind `contention` and
//! zero-cost when the feature is off: every helper collapses to a plain
//! `lock()/read()/write()` call and the counters are never touched. The
//! reporting surface ([`snapshot`], [`enabled`]) is always compiled, so
//! harness code can embed a `contention` section unconditionally — it
//! reads all-zeros with `"enabled": false` in an uninstrumented build.
//!
//! Telemetry never participates in search decisions, so enabling the
//! feature cannot change synthesized programs or effort counters — only
//! the timing columns of the report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The named locks of the pipeline, in lock-hierarchy order (see
/// `CONCURRENCY.md`): a thread may acquire a site only while holding locks
/// of strictly *earlier* sites, which is what makes the set deadlock-free.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum LockSite {
    /// Batch-driver result slots (one mutex per job; leaf).
    BatchSlot = 0,
    /// A speculation pool's window state.
    SpeculationPool,
    /// Search-cache expansion-memo stripes.
    CacheExpand,
    /// Search-cache type-memo stripes.
    CacheTypes,
    /// Search-cache oracle-memo stripes.
    CacheOracle,
    /// Batch-shared template-memo stripes.
    CacheTemplates,
    /// Search-cache expression-arena shards.
    CacheArena,
    /// Global symbol-table shard insert maps (resolution is lock-free and
    /// never appears here).
    InternShard,
}

/// Number of [`LockSite`]s (the registry is a fixed array).
pub const SITE_COUNT: usize = 8;

/// Display names, indexed by `LockSite as usize`.
const SITE_NAMES: [&str; SITE_COUNT] = [
    "batch_slot",
    "speculation_pool",
    "cache_expand",
    "cache_types",
    "cache_oracle",
    "cache_templates",
    "cache_arena",
    "intern_shard",
];

struct Counters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_nanos: AtomicU64,
    hold_nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Counters = Counters {
    acquisitions: AtomicU64::new(0),
    contended: AtomicU64::new(0),
    wait_nanos: AtomicU64::new(0),
    hold_nanos: AtomicU64::new(0),
};

static REGISTRY: [Counters; SITE_COUNT] = [ZERO; SITE_COUNT];

/// Is the `contention` feature compiled in?
pub const fn enabled() -> bool {
    cfg!(feature = "contention")
}

/// One site's accumulated counters (see the [module docs](self) for the
/// field semantics). Snapshots are process-lifetime totals; callers that
/// want per-phase numbers diff two snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteReport {
    /// Stable site name (`snake_case`, used as the JSON key).
    pub name: &'static str,
    /// Total lock round-trips.
    pub acquisitions: u64,
    /// Acquisitions that found the lock taken.
    pub contended: u64,
    /// Nanoseconds spent blocked acquiring.
    pub wait_nanos: u64,
    /// Nanoseconds exclusive guards were held.
    pub hold_nanos: u64,
}

impl SiteReport {
    /// Counter-wise difference vs an earlier snapshot of the same site
    /// (saturating, for safety against snapshot skew).
    pub fn since(&self, earlier: &SiteReport) -> SiteReport {
        SiteReport {
            name: self.name,
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            contended: self.contended.saturating_sub(earlier.contended),
            wait_nanos: self.wait_nanos.saturating_sub(earlier.wait_nanos),
            hold_nanos: self.hold_nanos.saturating_sub(earlier.hold_nanos),
        }
    }
}

/// A snapshot of every site's counters, in [`LockSite`] order. All-zero
/// when the `contention` feature is off.
pub fn snapshot() -> Vec<SiteReport> {
    REGISTRY
        .iter()
        .zip(SITE_NAMES)
        .map(|(c, name)| SiteReport {
            name,
            acquisitions: c.acquisitions.load(Ordering::Relaxed),
            contended: c.contended.load(Ordering::Relaxed),
            wait_nanos: c.wait_nanos.load(Ordering::Relaxed),
            hold_nanos: c.hold_nanos.load(Ordering::Relaxed),
        })
        .collect()
}

/// Site-wise [`SiteReport::since`] over two [`snapshot`]s.
pub fn snapshot_since(earlier: &[SiteReport]) -> Vec<SiteReport> {
    snapshot()
        .iter()
        .zip(earlier)
        .map(|(now, then)| now.since(then))
        .collect()
}

#[cfg(feature = "contention")]
fn bump(site: LockSite, contended: bool, wait_nanos: u64) {
    let c = &REGISTRY[site as usize];
    c.acquisitions.fetch_add(1, Ordering::Relaxed);
    if contended {
        c.contended.fetch_add(1, Ordering::Relaxed);
        c.wait_nanos.fetch_add(wait_nanos, Ordering::Relaxed);
    }
}

/// An exclusive guard that records its hold time on drop (instrumented
/// builds only; a transparent newtype otherwise).
pub struct Held<G> {
    guard: G,
    #[cfg(feature = "contention")]
    site: LockSite,
    #[cfg(feature = "contention")]
    taken: std::time::Instant,
}

impl<G: std::ops::Deref> std::ops::Deref for Held<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

#[cfg(feature = "contention")]
impl<G> Drop for Held<G> {
    fn drop(&mut self) {
        REGISTRY[self.site as usize]
            .hold_nanos
            .fetch_add(self.taken.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(feature = "contention")]
fn held<G>(site: LockSite, guard: G) -> Held<G> {
    Held {
        guard,
        site,
        taken: std::time::Instant::now(),
    }
}

/// Shared (read) acquisition of an instrumented [`RwLock`].
///
/// Poisoned locks are recovered, not propagated: every structure behind
/// these sites is valid at rest (inserts either complete or don't), so a
/// panic elsewhere at worst loses one in-flight memo entry — always safe
/// to recompute. See CONCURRENCY.md's lock-poisoning policy.
#[inline(always)]
pub fn read<T>(site: LockSite, lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    #[cfg(feature = "contention")]
    {
        match lock.try_read() {
            Ok(g) => {
                bump(site, false, 0);
                return g;
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                bump(site, false, 0);
                return p.into_inner();
            }
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let t0 = std::time::Instant::now();
        let g = lock.read().unwrap_or_else(|p| p.into_inner());
        bump(site, true, t0.elapsed().as_nanos() as u64);
        g
    }
    #[cfg(not(feature = "contention"))]
    {
        let _ = site;
        lock.read().unwrap_or_else(|p| p.into_inner())
    }
}

/// Exclusive (write) acquisition of an instrumented [`RwLock`]; the
/// returned [`Held`] guard also records hold time. Poisoned locks are
/// recovered (see [`read`]).
#[inline(always)]
pub fn write<T>(site: LockSite, lock: &RwLock<T>) -> Held<RwLockWriteGuard<'_, T>> {
    #[cfg(feature = "contention")]
    {
        match lock.try_write() {
            Ok(g) => {
                bump(site, false, 0);
                return held(site, g);
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                bump(site, false, 0);
                return held(site, p.into_inner());
            }
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let t0 = std::time::Instant::now();
        let g = lock.write().unwrap_or_else(|p| p.into_inner());
        bump(site, true, t0.elapsed().as_nanos() as u64);
        held(site, g)
    }
    #[cfg(not(feature = "contention"))]
    {
        let _ = site;
        Held {
            guard: lock.write().unwrap_or_else(|p| p.into_inner()),
        }
    }
}

/// Acquisition of an instrumented [`Mutex`], returning the *plain* guard —
/// for sites whose guard must feed a [`std::sync::Condvar`] (hold time is
/// not recorded there; waiting on the condvar releases the lock, so a
/// wrapper would misreport idle parking as holding). Poisoned locks are
/// recovered (see [`read`]).
#[inline(always)]
pub fn lock<T>(site: LockSite, mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(feature = "contention")]
    {
        match mutex.try_lock() {
            Ok(g) => {
                bump(site, false, 0);
                return g;
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                bump(site, false, 0);
                return p.into_inner();
            }
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let t0 = std::time::Instant::now();
        let g = mutex.lock().unwrap_or_else(|p| p.into_inner());
        bump(site, true, t0.elapsed().as_nanos() as u64);
        g
    }
    #[cfg(not(feature = "contention"))]
    {
        let _ = site;
        mutex.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_site_in_order() {
        let s = snapshot();
        assert_eq!(s.len(), SITE_COUNT);
        assert_eq!(s[LockSite::InternShard as usize].name, "intern_shard");
        assert_eq!(s[LockSite::BatchSlot as usize].name, "batch_slot");
        assert_eq!(s[LockSite::CacheArena as usize].name, "cache_arena");
    }

    #[test]
    fn helpers_return_working_guards() {
        let rw = RwLock::new(1);
        assert_eq!(*read(LockSite::CacheTypes, &rw), 1);
        *write(LockSite::CacheTypes, &rw) = 2;
        assert_eq!(*read(LockSite::CacheTypes, &rw), 2);
        let m = Mutex::new(3);
        assert_eq!(*lock(LockSite::BatchSlot, &m), 3);
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(7));
        let rw = Arc::new(RwLock::new(8));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let _ = std::thread::spawn(move || {
            let _mg = m2.lock().expect("not yet poisoned");
            let _wg = rw2.write().expect("not yet poisoned");
            panic!("poison both on purpose");
        })
        .join();
        assert!(m.is_poisoned() && rw.is_poisoned());
        assert_eq!(*lock(LockSite::BatchSlot, &m), 7);
        assert_eq!(*read(LockSite::CacheTypes, &rw), 8);
        *write(LockSite::CacheTypes, &rw) = 9;
        assert_eq!(*read(LockSite::CacheTypes, &rw), 9);
    }

    #[test]
    fn uninstrumented_builds_report_zeros() {
        if !enabled() {
            let rw = RwLock::new(());
            drop(write(LockSite::CacheOracle, &rw));
            let s = snapshot();
            assert!(s.iter().all(|r| r.acquisitions == 0 && r.hold_nanos == 0));
        }
    }

    #[cfg(feature = "contention")]
    #[test]
    fn instrumented_builds_count_acquisitions_and_holds() {
        let before = snapshot();
        let rw = RwLock::new(());
        drop(read(LockSite::CacheOracle, &rw));
        drop(write(LockSite::CacheOracle, &rw));
        let delta = snapshot_since(&before);
        let site = &delta[LockSite::CacheOracle as usize];
        assert!(site.acquisitions >= 2);
        assert_eq!(site.contended, 0, "uncontended in a single thread");
    }

    #[test]
    fn since_is_saturating_and_named() {
        let a = SiteReport {
            name: "x",
            acquisitions: 1,
            contended: 0,
            wait_nanos: 5,
            hold_nanos: 0,
        };
        let b = SiteReport {
            name: "x",
            acquisitions: 3,
            contended: 1,
            wait_nanos: 2,
            hold_nanos: 9,
        };
        let d = b.since(&a);
        assert_eq!(d.acquisitions, 2);
        assert_eq!(d.wait_nanos, 0, "saturates instead of underflowing");
        assert_eq!(d.hold_nanos, 9);
    }
}
