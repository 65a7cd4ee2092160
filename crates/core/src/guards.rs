//! Branch-condition synthesis (§3.3) and the guard pool.
//!
//! A guard for spec set `Ψ₁` against `Ψ₂` is a boolean expression that
//! evaluates truthy under every setup in `Ψ₁` and falsy under every setup
//! in `Ψ₂` (`def m(x) = b ⊢ Sᵢ; assert x_r ⇓ v` and the negated check).
//!
//! Per the §4 optimizations, cheap candidates are tried before falling back
//! to a fresh type-guided search: the constants `true`/`false`, previously
//! synthesized conditionals, and their negations ("the condition in one
//! spec often turns out to be the negation of the condition in another").
//!
//! **The guard pool.** A merge issues *many* strengthening requests
//! (every Rule-3 pair needs two, across every `⊕` order), and every
//! request used to launch its own work-list search over what is — because
//! guard oracles never report effects, so S-Eff can never reorder the
//! frontier — always the *same* boolean candidate stream. [`GuardPool`]
//! exploits that: it enumerates the stream **once per problem** (lazily,
//! as far as the deepest request needs) and records, per evaluable
//! candidate, a pass/fail **bitvector** over the problem's specs — bit
//! `i` answers "does this candidate run without error under spec `i`'s
//! setup, and is `x_r` truthy?". One interpreter run fills both the
//! truthy and the ok bit for a spec; bits are filled lazily per
//! (candidate, spec) — exactly the specs a request touches — so
//! re-requests, reversed pairs and backtracking re-checks are pure bit
//! arithmetic ([`SearchStats::vector_hits`]).
//!
//! **One bit store.** A candidate's bits are three planes — `ok`,
//! `truthy` and `evald` (the bit is known) — of `⌈|specs| / 64⌉` words
//! each. The stream's candidates keep theirs in one flat `Vec<u64>` on the
//! pool, in stream order; ad-hoc expressions (the merge's quick candidates
//! and negation guesses) keep theirs in a map keyed by the expression.
//!
//! **Checks from the run's oracles.** Spec `i`'s check is `assert x_r`
//! over the setup snapshot of the run's own prepared oracle for spec `i`
//! ([`SpecOracle`]), so the pool runs no setup a second time; a setup that
//! raises has already stopped the run when its oracle was prepared.
//!
//! The enumeration runs in a pool-local node arena (`arena.rs`, the
//! representation phase-1 `generate` enumerates in too), so the stream
//! shares no state with other searches and never takes a lock. As in
//! `generate`, a partial candidate waits in the frontier as a
//! `(parent, sub)` entry and is interned, type-narrowed and deduplicated
//! only when it is popped; an evaluable one is interned, narrowed and
//! deduplicated when it is produced and joins the stream at once. Guard
//! oracles never report effects, so the stream never wraps a candidate in
//! S-Eff: all its holes sit under the method's parameters.
//!
//! **Covering is set inclusion.** A candidate covers a request exactly
//! when `Ψ₁ ⊆ truthy-ok(c)` and `Ψ₂ ⊆ falsy-ok(c)`, so the verdict reads
//! straight off the candidate's bits — no second representation of the
//! spec sets is needed. The same bits decide the *mirror* request
//! `(Ψ₂, Ψ₁)`, and a candidate `c` that covers the mirror answers the
//! request with `!c` (§4: one spec's condition is often the negation of
//! another's). One walk over the bits of `Ψ₁`, then `Ψ₂`, decides both
//! and stops as soon as both fail.
//!
//! **The size rule.** A mirrored guard `!c` is ranked at `c`'s size: it
//! waits until the request's scan reaches a candidate produced by a pop
//! of larger rank (or the scan ends). Every pop's children are at least
//! as large as the popped node, so by then every native guard of `c`'s
//! size has been judged and placed first. On release `!c` joins the list
//! like a native guard found there: deduplicated, and counted toward the
//! cap, the first-guard stamp and the 300-pop tail (`EXTRA_GUARD_BUDGET`).
//! Released at once instead, mirrored guards displace native ones of the
//! same size and change which guard the merge picks first.
//!
//! **Twins.** The interpreter is deterministic, so two specs whose setup
//! steps are structurally equal get the same bits from every candidate
//! (a `Native` step equals nothing: its closure cannot be compared). A
//! request with a spec in `Ψ₁` and its twin in `Ψ₂` has no guard; it is
//! answered empty without a scan.
//!
//! A request collects *several* covering guards because the smallest one
//! can be semantically wrong for the final program (only running the
//! merged program against all specs decides, §3.4), so the merge
//! backtracks over alternatives. [`GuardPool::covering_guards`] returns
//! them in stream order under the request's stopping rule; the tests check
//! that order against a brute-force walk of a whole-tree stream.

use crate::arena::{typing, Entry, NodeArena, NodeId, NodeSet, CHECKED};
use crate::engine::{Frontier, Scheduler, SearchStats};
use crate::error::SynthError;
use crate::expand::Expander;
use crate::generate::SpecOracle;
use crate::infer::Gamma;
use crate::options::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::{Expr, FxBuild, Program, Symbol, Ty, Value};
use rbsyn_trace::Mark;
use std::collections::HashMap;
use std::time::Instant;

/// How many covering guards a strengthening request keeps: the merge
/// backtracks over at most this many pool guards per request.
pub const GUARDS_PER_REQUEST: usize = 5;

/// Extra work-list pops to spend hunting alternative guards after the
/// first covering one. Each pop can test hundreds of candidates, so this
/// stays small; the odometer only needs a handful of alternatives.
const EXTRA_GUARD_BUDGET: u64 = 300;

/// Everything a [`GuardPool`] needs from the enclosing synthesis run,
/// passed by reference on every call so the pool itself stays a plain
/// owned value inside the merge context.
pub struct GuardQuery<'a> {
    /// Interpreter environment.
    pub env: &'a InterpEnv,
    /// Method name (guard programs are built under it), pre-interned so
    /// per-candidate program construction never touches the symbol table.
    pub name: Symbol,
    /// Method parameters.
    pub params: &'a [(Symbol, Ty)],
    /// All specs of the problem — bit `i` of every vector refers to
    /// `specs[i]`. The twin rule compares their setup steps.
    pub specs: &'a [Spec],
    /// The run's prepared per-spec oracles, index-aligned with `specs`:
    /// spec `i`'s check runs from `oracles[i]`'s setup snapshot.
    pub oracles: &'a [SpecOracle],
    /// Search options (guard size bound, pop budget).
    pub opts: &'a Options,
    /// Deadline and tracing session.
    pub sched: &'a Scheduler,
}

/// One enumerated evaluable boolean candidate: its node, the work-list
/// pop that produced it (for per-request stopping budgets) and that pop's
/// rank (the popped node's size, for ranking mirrored guards), and its
/// expression tree once something needed it. Its bits live in
/// [`GuardPool`]'s flat store.
struct GuardCand {
    node: NodeId,
    pop: u64,
    rank: u32,
    expr: Option<Expr>,
}

/// A strengthening request's lazy scan state: how far into the shared
/// candidate stream it has looked, the covering guards found so far, the
/// candidates covering the mirror that wait to be released, and whether
/// its (per-request) stopping rule has latched.
#[derive(Default)]
struct ReqState {
    found: Vec<Expr>,
    /// `(size, candidate)` of every candidate that covers the mirror
    /// request and whose negation is not released yet, sorted by size and
    /// then stream order.
    mirrored: Vec<(u32, usize)>,
    next_cand: usize,
    first: Option<u64>,
    done: bool,
}

impl ReqState {
    /// Adds a covering guard unless `found` already holds it: it counts
    /// toward the first-guard stamp (`pop`) and the cap
    /// [`GUARDS_PER_REQUEST`].
    fn push_guard(&mut self, guard: Expr, pop: u64) {
        if self.found.contains(&guard) {
            return;
        }
        self.found.push(guard);
        self.first.get_or_insert(pop);
        if self.found.len() >= GUARDS_PER_REQUEST {
            self.done = true;
        }
    }
}

/// What one walk over a candidate's bits decided about a request
/// `(pos, neg)` and its mirror `(neg, pos)`.
struct Walk {
    /// The candidate covers the request.
    covers: bool,
    /// The candidate covers the mirror, so its negation covers the request.
    mirrored: bool,
    /// Some bit was newly determined: the tested/vector-hit accounting key.
    filled: bool,
}

/// A strengthening request: spec indices that must be truthy / falsy.
type ReqKey = (Vec<usize>, Vec<usize>);

/// The per-problem guard-covering pool (see the [module docs](self)).
///
/// The pool is deterministic by construction: the candidate stream is
/// one oracle-independent enumeration (the expander's fill order, the
/// frontier order, dedup), and every request walks it in order under the
/// same stopping rule, so [`GuardPool::covering_guards`] returns the
/// same guards in the same order however requests interleave. It never
/// re-enumerates or re-judges anything, and it is **lazy twice over**:
/// the stream extends only as far as the deepest request needs, and a
/// request only scans far enough to hold the number of guards the merge
/// actually asks for, so alternatives #2–#5 and the
/// `EXTRA_GUARD_BUDGET` tail are paid for only when a failed validation
/// asks for them.
pub struct GuardPool {
    ready: bool,
    /// Per spec, `assert x_r` over its oracle's setup snapshot.
    checks: Vec<PreparedSpec>,
    /// Per spec, the first spec whose setup steps equal its own: twins get
    /// the same bits from every candidate.
    twin_of: Vec<usize>,
    /// Words per bit plane: `⌈|specs| / 64⌉`.
    nwords: usize,
    /// The enumeration's work-list (empty until the pool is ready).
    frontier: Frontier<Entry>,
    /// Candidates already popped or streamed (the dedup filter).
    seen: NodeSet,
    pops: u64,
    exhausted: bool,
    cands: Vec<GuardCand>,
    /// The bits of `cands`, `3 × nwords` words each in `cands` order: the
    /// `ok`, `truthy` and `evald` planes (see [`GuardPool::walk`]).
    bits: Vec<u64>,
    /// Per-request lazy scan state.
    reqs: HashMap<ReqKey, ReqState, FxBuild>,
    /// Bits of ad-hoc expressions (the merge's quick candidates and
    /// rule-6/7 negation guesses), keyed structurally, laid out as one
    /// stream candidate's.
    extra_bits: HashMap<Expr, Vec<u64>, FxBuild>,
    /// Pool-private hash-consing arena: the enumeration shares no state
    /// with other searches and takes no lock.
    arena: NodeArena,
}

impl Default for GuardPool {
    fn default() -> GuardPool {
        GuardPool::new()
    }
}

impl GuardPool {
    /// An empty pool; all state (per-spec checks, the enumeration
    /// frontier) is created lazily on the first request, so
    /// merges that never need a guard pay nothing.
    pub fn new() -> GuardPool {
        GuardPool {
            ready: false,
            checks: Vec::new(),
            twin_of: Vec::new(),
            nwords: 1,
            frontier: Frontier::new(),
            seen: NodeSet::default(),
            pops: 0,
            exhausted: false,
            cands: Vec::new(),
            bits: Vec::new(),
            reqs: HashMap::default(),
            extra_bits: HashMap::default(),
            arena: NodeArena::default(),
        }
    }

    fn ensure_ready(&mut self, q: &GuardQuery<'_>) {
        if self.ready {
            return;
        }
        self.ready = true;
        self.checks = q
            .oracles
            .iter()
            .map(|o| {
                let p = o.prepared();
                p.with_asserts(vec![Expr::Var(p.result_var())])
            })
            .collect();
        // The interpreter is deterministic, so specs with equal setups
        // (a `Native` step equals nothing) get equal bits from every
        // candidate, and no guard separates them.
        self.twin_of = (0..q.specs.len())
            .map(|i| {
                (0..i)
                    .find(|&j| q.specs[j].steps == q.specs[i].steps)
                    .unwrap_or(i)
            })
            .collect();
        self.nwords = q.specs.len().div_ceil(64).max(1);
        let g = self.arena.gamma(Gamma::from_params(q.params));
        let typing = q.opts.guidance.types.then_some(&q.env.table);
        let root = self.arena.hole(&Ty::Bool, g, typing);
        self.frontier.push(0, 1, (CHECKED, root));
    }

    /// Advances the shared enumeration by one work-list pop, recording
    /// evaluable candidates (unjudged) and re-enqueueing partial ones —
    /// `generate`'s loop body minus the oracle and S-Eff, run entirely
    /// against pool-local state: expansion, type narrowing and
    /// hash-consing never take a lock.
    fn extend_one_pop(
        &mut self,
        q: &GuardQuery<'_>,
        stats: &mut SearchStats,
    ) -> Result<(), SynthError> {
        let expander = Expander::new(&q.env.table, q.opts);
        let typing = typing(&expander);
        // Entries that narrowing or dedup drop here are not pops.
        let (pri, node) = loop {
            let Some((pri, entry)) = self.frontier.pop_ranked() else {
                self.exhausted = true;
                return Ok(());
            };
            if let Some(node) = self
                .arena
                .admit(entry, typing, &mut self.seen, &mut stats.deduped)
            {
                break (pri, node);
            }
        };
        self.pops += 1;
        stats.popped += 1;
        let rank = self.arena.size(node) as u32;
        if self.pops.is_multiple_of(64) && q.sched.should_stop() {
            // Roll the un-expanded node (and the pop count) back to the
            // front of its rank so a hypothetical post-deadline
            // continuation resumes exactly here; the caller decides
            // whether the timeout is fatal.
            self.pops -= 1;
            stats.popped -= 1;
            self.frontier.requeue(pri, (CHECKED, node));
            return Err(SynthError::Timeout);
        }
        let children = self.arena.children(node, &expander);
        stats.expanded += children.subs.len() as u64;
        for &sub in children.subs.iter() {
            let size = children.size(&self.arena, sub);
            if children.has_hole(&self.arena, sub) {
                if size <= q.opts.max_guard_size {
                    self.frontier.push(0, size, (node, sub));
                }
                continue;
            }
            if let Some(id) =
                self.arena
                    .admit((node, sub), typing, &mut self.seen, &mut stats.deduped)
            {
                self.cands.push(GuardCand {
                    node: id,
                    pop: self.pops,
                    rank,
                    expr: None,
                });
                self.bits.resize(self.bits.len() + 3 * self.nwords, 0);
            }
        }
        Ok(())
    }

    /// Candidate `i`'s expression, built on first use.
    fn cand_expr(&mut self, i: usize) -> &Expr {
        let GuardCand { node, expr, .. } = &mut self.cands[i];
        expr.get_or_insert_with(|| self.arena.to_expr(*node))
    }

    /// One walk over the footprint bits of `bits`, `pos` first and then
    /// `neg`, that decides both the request `(pos, neg)` and its mirror
    /// `(neg, pos)`: it fills a missing bit by an interpreter run and stops
    /// as soon as both verdicts fail. `bits` is one candidate's three
    /// planes, `ok`, `truthy` and `evald`, of equal length. `expr` yields
    /// the candidate's body, and is called only when an interpreter run is
    /// needed.
    fn walk(
        checks: &[PreparedSpec],
        bits: &mut [u64],
        mut expr: impl FnMut() -> Expr,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> Walk {
        let nwords = bits.len() / 3;
        let mut program: Option<Program> = None;
        let mut walk = Walk {
            covers: true,
            mirrored: true,
            filled: false,
        };
        for (specs, want_truthy) in [(pos, true), (neg, false)] {
            for &s in specs {
                // Spec `s`'s word in each plane, and its bit there.
                let (ok, m) = (s / 64, 1u64 << (s % 64));
                let (truthy, evald) = (ok + nwords, ok + 2 * nwords);
                if bits[evald] & m == 0 {
                    let p = program.get_or_insert_with(|| {
                        Program::from_parts(
                            q.name,
                            q.params.iter().map(|(n, _)| *n).collect(),
                            expr(),
                        )
                    });
                    let started = Instant::now();
                    let outcome = checks[s].run(q.env, p);
                    stats.eval_nanos = stats
                        .eval_nanos
                        .saturating_add(started.elapsed().as_nanos() as u64);
                    bits[evald] |= m;
                    match outcome {
                        SpecOutcome::Passed { .. } => {
                            bits[ok] |= m;
                            bits[truthy] |= m;
                        }
                        SpecOutcome::Failed { .. } => bits[ok] |= m,
                        SpecOutcome::SetupError(_) => {}
                    }
                    walk.filled = true;
                }
                let (ok, truthy) = (bits[ok] & m != 0, bits[truthy] & m != 0);
                walk.covers &= ok && truthy == want_truthy;
                walk.mirrored &= ok && truthy != want_truthy;
                if !walk.covers && !walk.mirrored {
                    return walk;
                }
            }
        }
        walk
    }

    /// Walks candidate `i`'s bits for the request and its mirror, and
    /// maintains the tested/vector-hit counters.
    fn cand_walk(
        &mut self,
        i: usize,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> Walk {
        let GuardCand { node, expr, .. } = &mut self.cands[i];
        let len = 3 * self.nwords;
        let bits = &mut self.bits[i * len..(i + 1) * len];
        let fresh = bits[2 * self.nwords..].iter().all(|&w| w == 0);
        let arena = &self.arena;
        let body = || expr.get_or_insert_with(|| arena.to_expr(*node)).clone();
        let walk = Self::walk(&self.checks, bits, body, q, pos, neg, stats);
        if fresh && walk.filled {
            stats.tested += 1;
        } else if !walk.filled {
            stats.vector_hits += 1;
        }
        walk
    }

    /// Moves the waiting mirrored guards of size below `rank` into the
    /// request's list, smallest first: `negate` of each, deduplicated and
    /// stamped `pop` like a native guard found there.
    fn release_mirrored(&mut self, state: &mut ReqState, rank: u32, pop: u64) {
        let n = state.mirrored.partition_point(|&(size, _)| size < rank);
        for j in 0..n {
            if state.done {
                break;
            }
            let guard = negate(self.cand_expr(state.mirrored[j].1));
            state.push_guard(guard, pop);
        }
        state.mirrored.drain(..n);
    }

    /// Advances one request's lazy scan over the shared stream until it
    /// has found `need` guards, hit its per-request stopping rule
    /// ([`GUARDS_PER_REQUEST`] guards, or [`EXTRA_GUARD_BUDGET`] pops past
    /// the first one, or the pop budget, or stream exhaustion), or timed
    /// out. The stopping rule latches — once a request is done, its guard
    /// list is final.
    ///
    /// A candidate that covers the mirror request `(neg, pos)` answers the
    /// request with its negation, ranked at its own size: the negation
    /// waits until the scan reaches a candidate produced by a pop of
    /// larger rank (or the scan ends), so every native guard of its size
    /// comes first.
    fn advance_request(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        state: &mut ReqState,
        need: usize,
        stats: &mut SearchStats,
    ) -> Result<(), SynthError> {
        while state.found.len() < need && !state.done {
            let bound = state.first.map_or(q.opts.max_expansions, |f| {
                (f + EXTRA_GUARD_BUDGET).min(q.opts.max_expansions)
            });
            if state.next_cand == self.cands.len() {
                if self.exhausted || self.pops >= bound {
                    self.release_mirrored(state, u32::MAX, self.pops);
                    state.done = true;
                    break;
                }
                match self.extend_one_pop(q, stats) {
                    Ok(()) => continue,
                    Err(SynthError::Timeout)
                        if !state.found.is_empty() || !state.mirrored.is_empty() =>
                    {
                        // A timeout after the first guard finalizes the
                        // partial list.
                        self.release_mirrored(state, u32::MAX, self.pops);
                        state.done = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let i = state.next_cand;
            let (pop, rank) = (self.cands[i].pop, self.cands[i].rank);
            if pop > bound {
                self.release_mirrored(state, u32::MAX, pop);
                state.done = true;
                break;
            }
            self.release_mirrored(state, rank, pop);
            if state.found.len() >= need || state.done {
                break;
            }
            let walk = self.cand_walk(i, q, pos, neg, stats);
            if walk.covers {
                let guard = self.cand_expr(i).clone();
                state.push_guard(guard, pop);
            } else if walk.mirrored {
                let size = self.arena.size(self.cands[i].node) as u32;
                let at = state.mirrored.partition_point(|&(s, _)| s <= size);
                state.mirrored.insert(at, (size, i));
            }
            state.next_cand += 1;
        }
        Ok(())
    }

    /// The covering guards of a strengthening request (`pos` truthy, `neg`
    /// falsy), in order: the stream's covering candidates, with the
    /// negations of the mirror's placed by the size rule (see the
    /// [module docs](self)). The request's scan advances until it holds
    /// `need` guards or its stopping rule has latched
    /// ([`GUARDS_PER_REQUEST`] guards, none found more than
    /// `EXTRA_GUARD_BUDGET` (300) pops after the first), and the call
    /// returns every guard found so far. Scans lazily: a merge that
    /// validates on the first guard never pays for the alternatives.
    pub fn covering_guards(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        need: usize,
        stats: &mut SearchStats,
    ) -> Result<&[Expr], SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        rbsyn_lang::failpoint::hit("guards::cover");
        self.ensure_ready(q);
        let key: ReqKey = (pos.to_vec(), neg.to_vec());
        // The state is checked out of the pool while it scans, so the scan
        // may extend the shared stream through `&mut self`.
        let mut state = self.reqs.remove(&key).unwrap_or_else(|| ReqState {
            // A request that splits twin specs has no guard: it is done
            // before it scans anything.
            done: pos
                .iter()
                .any(|&s| neg.iter().any(|&t| self.twin_of[s] == self.twin_of[t])),
            ..ReqState::default()
        });
        let scanned = self.advance_request(q, pos, neg, &mut state, need, stats);
        let state = self.reqs.entry(key).or_insert(state);
        scanned.map(|()| state.found.as_slice())
    }

    /// Checks an ad-hoc expression (quick candidate, negation guess)
    /// against a request, through lazily filled bits kept like a stream
    /// candidate's.
    pub fn check_expr(
        &mut self,
        q: &GuardQuery<'_>,
        e: &Expr,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> bool {
        self.ensure_ready(q);
        // The same walk as a stream candidate's; only its forward verdict
        // matters here. A stored entry is walked in place, so a pure
        // word-op hit (the merge's hottest re-check loop) neither clones
        // nor re-hashes the expression.
        let walk = match self.extra_bits.get_mut(e) {
            Some(bits) => Self::walk(&self.checks, bits, || e.clone(), q, pos, neg, stats),
            None => {
                let mut bits = vec![0; 3 * self.nwords];
                let walk = Self::walk(&self.checks, &mut bits, || e.clone(), q, pos, neg, stats);
                if walk.filled {
                    self.extra_bits.insert(e.clone(), bits);
                }
                walk
            }
        };
        if !walk.filled {
            stats.vector_hits += 1;
        }
        walk.covers
    }
}

/// `!b`, collapsing double negation.
pub fn negate(b: &Expr) -> Expr {
    match b {
        Expr::Not(inner) => (**inner).clone(),
        Expr::Lit(Value::Bool(x)) => Expr::Lit(Value::Bool(!x)),
        other => Expr::Not(Box::new(other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::simplify;
    use crate::infer::infer_ty;
    use crate::options::Guidance;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::metrics::node_count;
    use rbsyn_stdlib::EnvBuilder;
    use std::collections::HashSet;

    fn env_with_post() -> (InterpEnv, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("author", Ty::Str), ("slug", Ty::Str)]);
        b.add_const(Value::Class(post));
        (b.finish(), post)
    }

    fn call_spec(name: &str, steps: Vec<SetupStep>) -> Spec {
        let mut steps = steps;
        steps.push(SetupStep::CallTarget {
            bind: "xr".into(),
            args: vec![],
        });
        Spec::new(name, steps, vec![])
    }

    #[test]
    fn negate_collapses() {
        assert_eq!(negate(&not(var("b"))).compact(), "b");
        assert_eq!(negate(&var("b")).compact(), "!b");
        assert_eq!(negate(&true_()).compact(), "false");
    }

    /// The run's prepared oracles for `specs`, as the synthesizer builds
    /// them before the merge.
    fn oracles(env: &InterpEnv, specs: &[Spec]) -> Vec<SpecOracle> {
        specs.iter().map(|s| SpecOracle::new(env, s)).collect()
    }

    /// Two specs a guard must separate: seeded world vs empty world.
    fn pool_fixture() -> (InterpEnv, Vec<Spec>) {
        let (env, post) = env_with_post();
        let seeded = call_spec(
            "seeded",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        (env, vec![seeded, empty])
    }

    #[test]
    fn pool_covering_matches_the_per_request_search() {
        let (env, specs) = pool_fixture();
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let reference = reference_covering(&q, &[0], &[1]);
        assert!(reference.len() > 1, "the request has alternatives");
        // Pool: same guards, same order — whole and one at a time agree.
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        assert_eq!(
            compact(pool.covering_guards(&q, &[0], &[1], usize::MAX, &mut stats)),
            reference,
            "pool covering must reproduce the brute-force request"
        );
        assert_eq!(one_at_a_time(&q, &[0], &[1]), reference);
    }

    /// A request's guards as compact text.
    fn compact(guards: Result<&[Expr], SynthError>) -> Vec<String> {
        guards.unwrap().iter().map(|g| g.compact()).collect()
    }

    /// A fresh pool's list for a request, fetched one guard at a time as
    /// the merge does: ask for `n + 1` guards until the list stops
    /// growing.
    fn one_at_a_time(q: &GuardQuery<'_>, pos: &[usize], neg: &[usize]) -> Vec<String> {
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let mut out = Vec::new();
        while let Some(g) = pool
            .covering_guards(q, pos, neg, out.len() + 1, &mut stats)
            .unwrap()
            .get(out.len())
        {
            out.push(g.compact());
        }
        out
    }

    /// A request whose mirror has a one-node guard, `arg0`, while the
    /// request's own guards are larger: `!arg0` ranks at size 1, so it
    /// leads the list.
    #[test]
    fn mirrored_guard_ranks_at_its_own_size() {
        let env = EnvBuilder::with_stdlib().finish();
        let called_with = |name, arg| {
            Spec::new(
                name,
                vec![SetupStep::CallTarget {
                    bind: "xr".into(),
                    args: vec![arg],
                }],
                vec![],
            )
        };
        let specs = [called_with("yes", true_()), called_with("no", false_())];
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[(Symbol::intern("arg0"), Ty::Bool)],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let reference = reference_covering(&q, &[1], &[0]);
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = compact(pool.covering_guards(&q, &[1], &[0], usize::MAX, &mut stats));
        assert_eq!(pooled, reference, "the pool must follow the size rule");
        assert_eq!(
            pooled,
            [
                "!arg0",
                "arg0.!",
                "!arg0.!.!",
                "!arg0 & arg0",
                "!arg0 | arg0"
            ]
        );
    }

    /// Two specs with equal setups get the same bits from every candidate,
    /// so a request that splits them is answered empty without a scan. A
    /// `Native` step equals nothing, so such specs are never twins.
    #[test]
    fn twin_specs_latch_without_a_scan() {
        let (env, _) = env_with_post();
        let opts = Options {
            max_expansions: 200,
            ..Options::default()
        };
        let sched = Scheduler::sequential();
        let query = |specs, oracles| GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs,
            oracles,
            opts: &opts,
            sched: &sched,
        };
        let twins = [call_spec("a", vec![]), call_spec("b", vec![])];
        let twin_oracles = oracles(&env, &twins);
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let q = query(&twins, &twin_oracles);
        let g = pool.covering_guards(&q, &[0], &[1], 1, &mut stats);
        assert!(g.unwrap().is_empty());
        assert_eq!(stats.popped, 0, "a twin split scans nothing");
        let all = pool.covering_guards(&q, &[1], &[0], usize::MAX, &mut stats);
        assert!(all.unwrap().is_empty());
        assert_eq!(stats.popped, 0);

        let noop: rbsyn_interp::spec::NativeSetup = std::sync::Arc::new(|_, _| Ok(()));
        let native = |name| call_spec(name, vec![SetupStep::Native(noop.clone())]);
        let natives = [native("a"), native("b")];
        let native_oracles = oracles(&env, &natives);
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let q = query(&natives, &native_oracles);
        let g = pool.covering_guards(&q, &[0], &[1], 1, &mut stats);
        assert!(g.unwrap().is_empty(), "equal worlds have no guard");
        assert!(stats.popped > 0, "native setups are compared by a scan");
    }

    #[test]
    fn pool_reverse_request_reuses_bitvectors() {
        let (env, specs) = pool_fixture();
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let fwd = pool.covering_guards(&q, &[0], &[1], 1, &mut stats).unwrap()[0].clone();
        let tested_after_fwd = stats.tested;
        // The reverse request re-walks already-judged candidates: any
        // candidate whose bits are fully known answers from the vector.
        let rev = pool.covering_guards(&q, &[1], &[0], 1, &mut stats).unwrap()[0].clone();
        assert_ne!(fwd.compact(), rev.compact());
        assert!(stats.tested >= tested_after_fwd);
        // Ad-hoc checks ride the same bitvectors: the found guards really
        // cover their requests, and their negations cover the reverse.
        assert!(pool.check_expr(&q, &fwd, &[0], &[1], &mut stats));
        assert!(pool.check_expr(&q, &negate(&fwd), &[1], &[0], &mut stats));
        assert!(!pool.check_expr(&q, &fwd, &[1], &[0], &mut stats));
        // Repeating an ad-hoc check is a pure vector hit.
        let hits = stats.vector_hits;
        assert!(pool.check_expr(&q, &fwd, &[0], &[1], &mut stats));
        assert_eq!(stats.vector_hits, hits + 1);
    }

    /// A 65-spec problem — one spec past a one-word bit plane — whose
    /// first 32 specs seed a `Post` and whose rest are empty. Its planes
    /// are two words wide.
    fn oversized_fixture() -> (InterpEnv, Vec<Spec>) {
        let (env, post) = env_with_post();
        let mut specs = Vec::with_capacity(65);
        for i in 0..65 {
            if i < 32 {
                specs.push(call_spec(
                    "seeded",
                    vec![SetupStep::Exec(call(
                        cls(post),
                        "create",
                        [hash([("author", str_("alice"))])],
                    ))],
                ));
            } else {
                specs.push(call_spec("empty", vec![]));
            }
        }
        (env, specs)
    }

    #[test]
    fn oversized_pool_matches_the_per_request_search() {
        let (env, specs) = oversized_fixture();
        assert!(specs.len() > 64, "fixture must overflow one bitvector word");
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let reference = reference_covering(&q, &[0], &[64]);
        assert!(!reference.is_empty(), "a separating guard exists");

        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        assert_eq!(
            compact(pool.covering_guards(&q, &[0], &[64], usize::MAX, &mut stats)),
            reference,
            "two-word bit planes must reproduce the brute-force request"
        );
        // The request latches: asking again answers from the stored scan
        // without extending the stream.
        let popped = stats.popped;
        for need in 1..=reference.len() + 1 {
            let guards = pool.covering_guards(&q, &[0], &[64], need, &mut stats);
            assert_eq!(compact(guards), reference);
        }
        assert_eq!(
            stats.popped, popped,
            "request state is reused, not re-searched"
        );
        assert_eq!(one_at_a_time(&q, &[0], &[64]), reference);
    }

    #[test]
    fn oversized_check_expr_agrees_with_oracle() {
        let (env, specs) = oversized_fixture();
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let post = env.table.hierarchy.find("Post").unwrap();
        let exists = call(cls(post), "exists?", []);
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        // Bits span the whole 65-spec index range, including spec 64.
        assert!(pool.check_expr(&q, &exists, &[0, 31], &[32, 64], &mut stats));
        assert!(!pool.check_expr(&q, &exists, &[64], &[0], &mut stats));
        assert!(pool.check_expr(&q, &negate(&exists), &[64], &[0], &mut stats));
        assert!(pool.check_expr(&q, &true_(), &[0, 64], &[], &mut stats));
        assert!(!pool.check_expr(&q, &false_(), &[0, 64], &[], &mut stats));
    }

    #[test]
    fn pool_guard_holds_semantics() {
        let (env, specs) = pool_fixture();
        let oracles = oracles(&env, &specs);
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            oracles: &oracles,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        // `true` holds under every setup; `false` under none (pos-only
        // requests are the rule-6/7 `guard_holds` checks).
        assert!(pool.check_expr(&q, &true_(), &[0, 1], &[], &mut stats));
        assert!(!pool.check_expr(&q, &false_(), &[0, 1], &[], &mut stats));
    }

    /// What an enumeration produced: each evaluable candidate's compact
    /// text, pop stamp and that pop's rank, in order, and the effort
    /// counters.
    #[derive(Debug, Default, PartialEq)]
    struct Stream {
        cands: Vec<(String, u64, u32)>,
        popped: u64,
        expanded: u64,
        deduped: u64,
    }

    /// A whole-tree enumeration and what it saw on the way.
    struct Reference {
        stream: Stream,
        /// The evaluable candidates, in `stream.cands` order.
        exprs: Vec<Expr>,
        /// Among every candidate expansion produced, in order: how many
        /// repeated a well-typed one, and the first that did.
        dups: u64,
        first_dup: Option<String>,
        /// Every candidate type narrowing rejected, in order.
        rejected: Vec<String>,
    }

    /// Does `e` pass type narrowing and the dedup filter? A duplicate is
    /// counted in `deduped`.
    fn admit(
        q: &GuardQuery<'_>,
        gamma: &mut Gamma,
        seen: &mut HashSet<Expr>,
        e: &Expr,
        deduped: &mut u64,
    ) -> bool {
        if q.opts.guidance.types && infer_ty(&q.env.table, gamma, e).is_none() {
            return false;
        }
        if !seen.insert(e.clone()) {
            *deduped += 1;
            return false;
        }
        true
    }

    /// The whole-tree pipeline the node arena replaced, kept as the
    /// reference it must reproduce: expand the tree, simplify it, type it
    /// whole, dedup it structurally. A partial candidate is pushed
    /// unchecked and narrowed and deduplicated when popped; one dropped
    /// there is not a pop. An evaluable one is checked when produced.
    fn reference_stream(q: &GuardQuery<'_>, max_pops: u64) -> Reference {
        let expander = Expander::new(&q.env.table, q.opts);
        let mut gamma = Gamma::from_params(q.params);
        let mut seen = HashSet::new();
        // Every well-typed candidate expansion produces.
        let mut produced = HashSet::new();
        // Entries are `(checked, candidate)`.
        let mut frontier = Frontier::new();
        frontier.push(0, 1, (true, Expr::Hole(Ty::Bool)));
        let mut out = Reference {
            stream: Stream::default(),
            exprs: Vec::new(),
            dups: 0,
            first_dup: None,
            rejected: Vec::new(),
        };
        let s = &mut out.stream;
        while s.popped < max_pops {
            let Some((checked, e)) = frontier.pop() else {
                break;
            };
            if !checked && !admit(q, &mut gamma, &mut seen, &e, &mut s.deduped) {
                continue;
            }
            s.popped += 1;
            let rank = node_count(&e) as u32;
            let subs = expander
                .expand_first(&e, &mut gamma)
                .expect("a popped candidate has a hole");
            s.expanded += subs.len() as u64;
            for sub in subs {
                let sub = simplify(sub);
                if q.opts.guidance.types && infer_ty(&q.env.table, &mut gamma, &sub).is_none() {
                    out.rejected.push(sub.compact());
                } else if !produced.insert(sub.clone()) {
                    out.dups += 1;
                    out.first_dup.get_or_insert_with(|| sub.compact());
                }
                let size = node_count(&sub);
                if !sub.evaluable() {
                    if size <= q.opts.max_guard_size {
                        frontier.push(0, size, (false, sub));
                    }
                } else if admit(q, &mut gamma, &mut seen, &sub, &mut s.deduped) {
                    s.cands.push((sub.compact(), s.popped, rank));
                    out.exprs.push(sub);
                }
            }
        }
        out
    }

    /// A request answered by brute force over the whole-tree stream: judge
    /// each candidate in order with fresh `assert x_r` checks for `pos`
    /// and `assert !x_r` checks for `neg`, and with the flipped checks for
    /// the mirror request. A candidate `c` covering the mirror contributes
    /// `!c` after the last candidate produced by a pop of rank up to `c`'s
    /// size. Duplicates are skipped; keep at most [`GUARDS_PER_REQUEST`]
    /// guards, and stop [`EXTRA_GUARD_BUDGET`] pops after the first.
    fn reference_covering(q: &GuardQuery<'_>, pos: &[usize], neg: &[usize]) -> Vec<String> {
        const POPS: u64 = 5_000;
        let checks = |truthy: bool| -> Vec<PreparedSpec> {
            pos.iter()
                .map(|&s| (s, truthy))
                .chain(neg.iter().map(|&s| (s, !truthy)))
                .map(|(s, truthy)| {
                    let p = PreparedSpec::prepare(q.env, &q.specs[s]).expect("fixture setups run");
                    let xr = Expr::Var(p.result_var());
                    p.with_asserts(vec![if truthy { xr } else { Expr::Not(Box::new(xr)) }])
                })
                .collect()
        };
        let (request, mirror) = (checks(true), checks(false));
        let params: Vec<Symbol> = q.params.iter().map(|(n, _)| *n).collect();
        let reference = reference_stream(q, POPS);
        let mut found: Vec<String> = Vec::new();
        let mut first = None;
        // `(size, !c)` of the mirror's guards not yet placed, by size.
        let mut waiting: Vec<(usize, String)> = Vec::new();
        let push = |found: &mut Vec<String>, first: &mut Option<u64>, g: String, pop| {
            if !found.contains(&g) {
                found.push(g);
                first.get_or_insert(pop);
            }
            found.len() == GUARDS_PER_REQUEST
        };
        for (e, &(ref text, pop, rank)) in reference.exprs.iter().zip(&reference.stream.cands) {
            let end = first.is_some_and(|f| pop > f + EXTRA_GUARD_BUDGET);
            while waiting
                .first()
                .is_some_and(|(size, _)| end || *size < rank as usize)
            {
                let (_, g) = waiting.remove(0);
                if push(&mut found, &mut first, g, pop) {
                    return found;
                }
            }
            if end {
                return found;
            }
            let program = Program::from_parts(q.name, params.clone(), e.clone());
            if request.iter().all(|c| c.run(q.env, &program).passed()) {
                if push(&mut found, &mut first, text.clone(), pop) {
                    return found;
                }
            } else if mirror.iter().all(|c| c.run(q.env, &program).passed()) {
                let size = node_count(e);
                let at = waiting.partition_point(|(s, _)| *s <= size);
                waiting.insert(at, (size, negate(e).compact()));
            }
        }
        assert!(
            reference.stream.popped < POPS,
            "the reference stream ended before the request's stopping rule"
        );
        for (_, g) in waiting {
            if push(&mut found, &mut first, g, 0) {
                break;
            }
        }
        found
    }

    /// The pool's own stream over the same number of pops.
    fn pool_stream(q: &GuardQuery<'_>, max_pops: u64) -> Stream {
        let mut pool = GuardPool::new();
        pool.ensure_ready(q);
        let mut stats = SearchStats::default();
        while stats.popped < max_pops && !pool.exhausted {
            pool.extend_one_pop(q, &mut stats).expect("no deadline");
        }
        let cands = pool
            .cands
            .iter()
            .map(|c| (pool.arena.to_expr(c.node).compact(), c.pop, c.rank))
            .collect();
        Stream {
            cands,
            popped: stats.popped,
            expanded: stats.expanded,
            deduped: stats.deduped,
        }
    }

    /// An A3-shaped library: a `User` model (so `where`/`find_by` build
    /// hash literals), `nil` and `User` among the constants, and a `Str`
    /// parameter for S-Var.
    fn a3_env() -> InterpEnv {
        let mut b = EnvBuilder::with_stdlib();
        let user = b.define_model(
            "User",
            &[
                ("username", Ty::Str),
                ("staged", Ty::Bool),
                ("admin", Ty::Bool),
            ],
        );
        b.add_const(Value::Nil);
        b.add_const(Value::Class(user));
        b.finish()
    }

    #[test]
    fn pool_interns_only_what_it_pops() {
        let a3 = a3_env();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &a3,
            name: Symbol::intern("m"),
            params: &[(Symbol::intern("arg0"), Ty::Str)],
            specs: &[],
            oracles: &[],
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        pool.ensure_ready(&q);
        let mut stats = SearchStats::default();
        while stats.popped < 2_000 {
            assert!(!pool.exhausted, "the a3 stream outlasts 2,000 pops");
            pool.extend_one_pop(&q, &mut stats).expect("no deadline");
        }
        // Interned at push, every waiting entry would be a node of its own.
        let (nodes, waiting) = (pool.arena.node_count(), pool.frontier.len());
        assert!(
            nodes < waiting,
            "{nodes} nodes interned for {waiting} waiting entries"
        );
    }

    #[test]
    fn pool_stream_matches_the_tree_pipeline() {
        const POPS: u64 = 20_000;
        let a3 = a3_env();
        let (post_env, post_specs) = pool_fixture();
        let (wide_env, wide_specs) = oversized_fixture();
        let (post_oracles, wide_oracles) = (
            oracles(&post_env, &post_specs),
            oracles(&wide_env, &wide_specs),
        );
        let str_param = [(Symbol::intern("arg0"), Ty::Str)];
        let untyped = Options::with_guidance(Guidance::effects_only());
        let paper = Options::default();
        let sched = Scheduler::sequential();
        let query = |env, params, specs, oracles, opts| GuardQuery {
            env,
            name: Symbol::intern("m"),
            params,
            specs,
            oracles,
            opts,
            sched: &sched,
        };
        let fixtures = [
            ("a3", query(&a3, &str_param, &[], &[], &paper)),
            (
                "post",
                query(&post_env, &[], &post_specs, &post_oracles, &paper),
            ),
            (
                "65 specs",
                query(&wide_env, &[], &wide_specs, &wide_oracles, &paper),
            ),
            ("effects only", query(&a3, &str_param, &[], &[], &untyped)),
        ];
        let (mut deduped, mut rejected) = (0, 0);
        for (name, q) in fixtures {
            let Reference {
                stream: reference,
                dups,
                first_dup,
                rejected: rejections,
                ..
            } = reference_stream(&q, POPS);
            let pool = pool_stream(&q, POPS);
            assert!(!reference.cands.is_empty(), "{name}: empty stream");
            assert_eq!(
                pool.cands.len(),
                reference.cands.len(),
                "{name}: candidate count"
            );
            for (i, (p, r)) in pool.cands.iter().zip(&reference.cands).enumerate() {
                assert_eq!(p, r, "{name}: candidate {i} differs");
            }
            assert_eq!(pool, reference, "{name}: counters differ");
            if name == "a3" {
                // The stream's first duplicate and first narrowing
                // rejection, as on the A3 benchmark itself.
                assert_eq!(first_dup.as_deref(), Some("nil.nil?"));
                assert_eq!(rejections.first().map(String::as_str), Some("User.nil?"));
            }
            deduped += dups;
            rejected += rejections.len();
        }
        assert!(deduped > 0, "no fixture exercises the dedup filter");
        assert!(rejected > 0, "no fixture exercises type narrowing");
    }
}
