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
//! arithmetic ([`SearchStats::vector_hits`]). Vectors hold one `u64`
//! word inline for ≤64-spec problems and spill to boxed words beyond
//! that.
//!
//! The enumeration runs in a pool-local node arena (`arena.rs`, the
//! representation phase-1 `generate` enumerates in too), so the stream
//! shares no state with other searches and never takes a lock. Guard
//! oracles never report effects, so the stream never wraps a candidate in
//! S-Eff: all its holes sit under the method's parameters.
//!
//! **Covering is set inclusion.** A candidate covers a request exactly
//! when `Ψ₁ ⊆ truthy-ok(c)` and `Ψ₂ ⊆ falsy-ok(c)`, so the verdict reads
//! straight off the candidate's bits — no second representation of the
//! spec sets is needed.
//!
//! A request collects *several* covering guards because the smallest one
//! can be semantically wrong for the final program (only running the
//! merged program against all specs decides, §3.4), so the merge
//! backtracks over alternatives. [`GuardPool::covering_guards`] returns
//! them in stream order under the request's stopping rule; the tests check
//! that order against a brute-force walk of a whole-tree stream.

use crate::arena::{NodeArena, NodeId, NodeSet};
use crate::engine::{Frontier, Scheduler, SearchStats};
use crate::error::SynthError;
use crate::expand::Expander;
use crate::infer::Gamma;
use crate::options::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::{Expr, FxBuild, Program, Symbol, Ty, Value};
use rbsyn_trace::Mark;
use std::collections::HashMap;
use std::time::Instant;

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
    /// `specs[i]`.
    pub specs: &'a [Spec],
    /// Search options (guard size bound, pop budget).
    pub opts: &'a Options,
    /// Deadline, kill flag and tracing session.
    pub sched: &'a Scheduler,
}

/// Per-spec prepared check, or why it cannot be evaluated.
enum CheckSlot {
    /// `assert x_r` over the spec's prepared setup.
    Ready(Box<PreparedSpec>),
    /// The spec's own setup failed (a suite bug): the message raised when
    /// a covering request actually touches this spec, as
    /// [`crate::generate::SpecOracle::new`] does for a phase-1 search.
    Failed(String),
}

/// Lazily filled pass/fail bitvector of one guard candidate over the
/// problem's specs: `evald` marks which bits are known, `ok` whether the
/// candidate ran to the assert without error, `truthy` whether `x_r` was
/// truthy. One interpreter run per bit, ever; everything else is word
/// arithmetic. One inline word covers ≤64 specs (every Table-1 problem);
/// larger problems spill to boxed words — same engine, no fallback.
#[derive(Clone, Debug)]
enum Bits {
    One { ok: u64, truthy: u64, evald: u64 },
    Wide(Box<WideBits>),
}

/// The spilled representation: parallel word planes.
#[derive(Clone, Debug)]
struct WideBits {
    ok: Vec<u64>,
    truthy: Vec<u64>,
    evald: Vec<u64>,
}

impl Bits {
    fn new(nwords: usize) -> Bits {
        if nwords <= 1 {
            Bits::One {
                ok: 0,
                truthy: 0,
                evald: 0,
            }
        } else {
            Bits::Wide(Box::new(WideBits {
                ok: vec![0; nwords],
                truthy: vec![0; nwords],
                evald: vec![0; nwords],
            }))
        }
    }

    fn evald(&self, s: usize) -> bool {
        match self {
            Bits::One { evald, .. } => evald & (1u64 << s) != 0,
            Bits::Wide(w) => w.evald[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn ok(&self, s: usize) -> bool {
        match self {
            Bits::One { ok, .. } => ok & (1u64 << s) != 0,
            Bits::Wide(w) => w.ok[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn truthy(&self, s: usize) -> bool {
        match self {
            Bits::One { truthy, .. } => truthy & (1u64 << s) != 0,
            Bits::Wide(w) => w.truthy[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn any_evald(&self) -> bool {
        match self {
            Bits::One { evald, .. } => *evald != 0,
            Bits::Wide(w) => w.evald.iter().any(|&x| x != 0),
        }
    }

    /// Records one spec's outcome (and marks the bit evaluated).
    fn record(&mut self, s: usize, ok_bit: bool, truthy_bit: bool) {
        match self {
            Bits::One { ok, truthy, evald } => {
                let m = 1u64 << s;
                *evald |= m;
                if ok_bit {
                    *ok |= m;
                }
                if truthy_bit {
                    *truthy |= m;
                }
            }
            Bits::Wide(w) => {
                let (i, m) = (s / 64, 1u64 << (s % 64));
                w.evald[i] |= m;
                if ok_bit {
                    w.ok[i] |= m;
                }
                if truthy_bit {
                    w.truthy[i] |= m;
                }
            }
        }
    }
}

/// One enumerated evaluable boolean candidate: its node, the work-list
/// pop that produced it (for per-request stopping budgets), its lazily
/// filled bitvector, and its expression tree once something needed it.
struct GuardCand {
    node: NodeId,
    pop: u64,
    bits: Bits,
    expr: Option<Expr>,
}

/// A strengthening request's lazy scan state: how far into the shared
/// candidate stream it has looked, the covering guards found so far, and
/// whether its (per-request) stopping rule has latched.
#[derive(Default)]
struct ReqState {
    found: Vec<Expr>,
    next_cand: usize,
    first: Option<u64>,
    done: bool,
}

/// A strengthening request: spec indices that must be truthy / falsy.
type ReqKey = (Vec<usize>, Vec<usize>);

/// The per-problem guard-covering pool (see the [module docs](self)).
///
/// The pool is deterministic by construction: the candidate stream is
/// one oracle-independent enumeration (the expander's fill order, the
/// frontier order, dedup), and every request walks it in order under the
/// same stopping rule, so [`GuardPool::nth_covering_guard`] returns the
/// same guards in the same order however requests interleave. It never
/// re-enumerates or re-judges anything, and it is **lazy twice over**:
/// the stream extends only as far as the deepest request needs, and a
/// request only scans far enough to answer the guard index the merge
/// actually consumes, so alternatives #2–#5 and the
/// `EXTRA_GUARD_BUDGET` tail are paid for only when a failed validation
/// asks for them.
pub struct GuardPool {
    ready: bool,
    checks: Vec<CheckSlot>,
    /// Words per bitvector plane: `⌈|specs| / 64⌉`.
    nwords: usize,
    frontier: Option<Frontier<NodeId>>,
    /// Candidates already enumerated (the dedup filter).
    seen: NodeSet,
    pops: u64,
    exhausted: bool,
    cands: Vec<GuardCand>,
    /// Per-request lazy scan state.
    reqs: HashMap<ReqKey, ReqState, FxBuild>,
    /// Bitvectors for ad-hoc expressions (the merge's quick candidates and
    /// rule-6/7 negation guesses), keyed structurally.
    extra_bits: HashMap<Expr, Bits, FxBuild>,
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
    /// An empty pool; all state (prepared checks, the enumeration
    /// frontier) is created lazily on the first request, so
    /// merges that never need a guard pay nothing.
    pub fn new() -> GuardPool {
        GuardPool {
            ready: false,
            checks: Vec::new(),
            nwords: 1,
            frontier: None,
            seen: NodeSet::default(),
            pops: 0,
            exhausted: false,
            cands: Vec::new(),
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
            .specs
            .iter()
            .map(|s| match PreparedSpec::prepare(q.env, s) {
                Ok(p) => {
                    let xr = p.result_var();
                    CheckSlot::Ready(Box::new(p.with_asserts(vec![Expr::Var(xr)])))
                }
                Err(e) => CheckSlot::Failed(format!("spec {:?} setup failed: {e}", s.name)),
            })
            .collect();
        self.nwords = q.specs.len().div_ceil(64).max(1);
        let g = self.arena.gamma(Gamma::from_params(q.params));
        let typing = q.opts.guidance.types.then_some(&q.env.table);
        let root = self.arena.hole(&Ty::Bool, g, typing);
        let mut frontier = Frontier::new();
        frontier.push(0, 1, root);
        self.frontier = Some(frontier);
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
        let Some((pri, seq, node)) = self.frontier.as_mut().and_then(|f| f.pop_ranked()) else {
            self.exhausted = true;
            return Ok(());
        };
        self.pops += 1;
        stats.popped += 1;
        if self.pops.is_multiple_of(64) && q.sched.should_stop() {
            // Roll the un-expanded item (and the pop count) back so a
            // hypothetical post-deadline continuation resumes exactly
            // here; the caller decides whether the timeout is fatal.
            self.pops -= 1;
            stats.popped -= 1;
            self.frontier
                .as_mut()
                .expect("pool is ready")
                .requeue(pri, seq, node);
            return Err(SynthError::Timeout);
        }
        let expander = Expander::new(&q.env.table, q.opts);
        let children = self.arena.expand(node, &expander);
        stats.expanded += children.len() as u64;
        let frontier = self.frontier.as_mut().expect("pool is ready");
        for &id in children.iter() {
            // Type narrowing, read off the node's stored type.
            if q.opts.guidance.types && self.arena.ty(id).is_none() {
                continue;
            }
            if !self.seen.insert(id) {
                stats.deduped += 1;
                continue;
            }
            let size = self.arena.size(id);
            if !self.arena.has_hole(id) {
                self.cands.push(GuardCand {
                    node: id,
                    pop: self.pops,
                    bits: Bits::new(self.nwords),
                    expr: None,
                });
            } else if size <= q.opts.max_guard_size {
                frontier.push(0, size, id);
            }
        }
        Ok(())
    }

    /// Candidate `i`'s expression, built on first use.
    fn cand_expr(&mut self, i: usize) -> &Expr {
        let GuardCand { node, expr, .. } = &mut self.cands[i];
        expr.get_or_insert_with(|| self.arena.to_expr(*node))
    }

    /// Fills any missing footprint bits of `bits` by interpreter runs and
    /// checks the request bit by bit, short-circuiting on the first
    /// violated spec. Returns `(covers, filled)`: `filled` reports whether
    /// any bit was newly determined — the tested/vector-hit accounting
    /// key. `expr` yields the candidate's body, and is called only when
    /// an interpreter run is needed.
    fn fill_and_check(
        checks: &[CheckSlot],
        bits: &mut Bits,
        mut expr: impl FnMut() -> Expr,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> (bool, bool) {
        let mut program: Option<Program> = None;
        let mut filled = false;
        for (specs, want_truthy) in [(pos, true), (neg, false)] {
            for &s in specs {
                if !bits.evald(s) {
                    let check = match &checks[s] {
                        CheckSlot::Ready(p) => p,
                        CheckSlot::Failed(_) => return (false, filled),
                    };
                    let p = program.get_or_insert_with(|| {
                        Program::from_parts(
                            q.name,
                            q.params.iter().map(|(n, _)| *n).collect(),
                            expr(),
                        )
                    });
                    let started = Instant::now();
                    let outcome = check.run(q.env, p);
                    stats.eval_nanos = stats
                        .eval_nanos
                        .saturating_add(started.elapsed().as_nanos() as u64);
                    match outcome {
                        SpecOutcome::Passed { .. } => bits.record(s, true, true),
                        SpecOutcome::Failed { .. } => bits.record(s, true, false),
                        SpecOutcome::SetupError(_) => bits.record(s, false, false),
                    }
                    filled = true;
                }
                if !(bits.ok(s) && bits.truthy(s) == want_truthy) {
                    return (false, filled);
                }
            }
        }
        (true, filled)
    }

    /// Does candidate `i` cover the request? Fills missing bits and
    /// maintains the tested/vector-hit counters.
    fn cand_passes(
        &mut self,
        i: usize,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> bool {
        let GuardCand {
            node, bits, expr, ..
        } = &mut self.cands[i];
        let fresh = !bits.any_evald();
        let arena = &self.arena;
        let body = || expr.get_or_insert_with(|| arena.to_expr(*node)).clone();
        let (pass, filled) = Self::fill_and_check(&self.checks, bits, body, q, pos, neg, stats);
        if fresh && filled {
            stats.tested += 1;
        } else if !filled {
            stats.vector_hits += 1;
        }
        pass
    }

    /// Advances one request's lazy scan over the shared stream until it
    /// has found `need` guards, hit its per-request stopping rule (`k`
    /// guards, or [`EXTRA_GUARD_BUDGET`] pops past the first one, or the
    /// pop budget, or stream exhaustion), or timed out. The stopping rule
    /// latches — once a request is done, its guard list is final.
    #[allow(clippy::too_many_arguments)]
    fn advance_request(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        state: &mut ReqState,
        need: usize,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<(), SynthError> {
        while state.found.len() < need && !state.done {
            let bound = state.first.map_or(q.opts.max_expansions, |f| {
                (f + EXTRA_GUARD_BUDGET).min(q.opts.max_expansions)
            });
            if state.next_cand == self.cands.len() {
                if self.exhausted || self.pops >= bound {
                    state.done = true;
                    break;
                }
                match self.extend_one_pop(q, stats) {
                    Ok(()) => continue,
                    Err(SynthError::Timeout) if !state.found.is_empty() => {
                        // A timeout after the first guard finalizes the
                        // partial list.
                        state.done = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let i = state.next_cand;
            if self.cands[i].pop > bound {
                state.done = true;
                break;
            }
            if self.cand_passes(i, q, pos, neg, stats) {
                let guard = self.cand_expr(i).clone();
                state.found.push(guard);
                if state.found.len() >= k {
                    state.done = true;
                }
                if state.first.is_none() {
                    state.first = Some(self.cands[i].pop);
                }
            }
            state.next_cand += 1;
        }
        Ok(())
    }

    /// Runs `f` with the request's scan state temporarily checked out of
    /// the pool (so `f` may extend the shared stream through `&mut self`).
    fn with_request<T>(
        &mut self,
        pos: &[usize],
        neg: &[usize],
        f: impl FnOnce(&mut Self, &mut ReqState) -> Result<T, SynthError>,
    ) -> Result<T, SynthError> {
        let key: ReqKey = (pos.to_vec(), neg.to_vec());
        let mut state = self.reqs.remove(&key).unwrap_or_default();
        let out = f(self, &mut state);
        self.reqs.insert(key, state);
        out
    }

    /// The `n`-th (0-based) covering guard for a strengthening request
    /// (`pos` truthy, `neg` falsy) under the request cap `k` — index `n`
    /// of [`GuardPool::covering_guards`]' list. Scans lazily: a merge that
    /// validates on the first guard never pays for the alternatives.
    ///
    /// # Panics
    ///
    /// Panics when a requested spec's own setup raises — that is a suite
    /// bug, not a candidate failure (same contract as
    /// [`crate::generate::SpecOracle::new`]).
    pub fn nth_covering_guard(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        n: usize,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Option<Expr>, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, n + 1, k, stats)?;
            Ok(state.found.get(n).cloned())
        })
    }

    /// The final number of covering guards a request yields under cap `k`
    /// (materializes the request's full list — the merge only calls this
    /// from the backtracking odometer, after a failed validation).
    pub fn covering_count(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<usize, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, k, k, stats)?;
            Ok(state.found.len())
        })
    }

    /// Shared request entry: the `guards::cover` failpoint, readiness and
    /// the suite-bug panic contract.
    fn prepare_request(&mut self, q: &GuardQuery<'_>, pos: &[usize], neg: &[usize]) {
        rbsyn_lang::failpoint::hit("guards::cover");
        self.ensure_ready(q);
        for &s in pos.iter().chain(neg) {
            if let CheckSlot::Failed(msg) = &self.checks[s] {
                panic!("{msg}");
            }
        }
    }

    /// Eagerly materializes the ordered covering guards of a request:
    /// the stream's covering candidates in order, at most `k` of them,
    /// none found more than `EXTRA_GUARD_BUDGET` (300) pops after the
    /// first.
    /// Tests use this; the merge goes through the lazy
    /// [`GuardPool::nth_covering_guard`].
    pub fn covering_guards(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Expr>, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, k, k, stats)?;
            Ok(state.found.clone())
        })
    }

    /// Checks an ad-hoc expression (quick candidate, negation guess)
    /// against a request, through the same lazily filled bitvectors.
    /// Unpreparable specs answer `false` (the lenient contract
    /// `guard_holds` always had).
    pub fn check_expr(
        &mut self,
        q: &GuardQuery<'_>,
        e: &Expr,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> bool {
        self.ensure_ready(q);
        // Unpreparable specs answer `false` without touching (or
        // counting) any bit — the lenient `guard_holds` contract.
        if pos
            .iter()
            .chain(neg)
            .any(|&s| matches!(self.checks[s], CheckSlot::Failed(_)))
        {
            return false;
        }
        let mut bits = self
            .extra_bits
            .get(e)
            .cloned()
            .unwrap_or_else(|| Bits::new(self.nwords));
        let (pass, filled) =
            Self::fill_and_check(&self.checks, &mut bits, || e.clone(), q, pos, neg, stats);
        if !filled {
            // Pure word-op hit: nothing new to store — skip the AST clone
            // and re-hash (this is the merge's hottest re-check loop).
            stats.vector_hits += 1;
        } else {
            self.extra_bits.insert(e.clone(), bits);
        }
        pass
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

    #[test]
    fn wide_bits_round_trip() {
        let mut b = Bits::new(2);
        assert!(!b.any_evald());
        b.record(0, true, true);
        b.record(64, true, false);
        b.record(100, false, false);
        assert!(b.any_evald());
        assert!(b.evald(0) && b.ok(0) && b.truthy(0));
        assert!(b.evald(64) && b.ok(64) && !b.truthy(64));
        assert!(b.evald(100) && !b.ok(100) && !b.truthy(100));
        assert!(!b.evald(63) && !b.evald(101));
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
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let reference = reference_covering(&q, &[0], &[1], 4);
        assert!(reference.len() > 1, "the request has alternatives");
        // Pool: same guards, same order — eager and lazy agree.
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = pool.covering_guards(&q, &[0], &[1], 4, &mut stats).unwrap();
        assert_eq!(
            pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            reference,
            "pool covering must reproduce the brute-force request"
        );
        for (n, g) in pooled.iter().enumerate() {
            let nth = pool
                .nth_covering_guard(&q, &[0], &[1], n, 4, &mut stats)
                .unwrap();
            assert_eq!(nth.as_ref().map(|e| e.compact()), Some(g.compact()));
        }
        assert_eq!(
            pool.covering_count(&q, &[0], &[1], 4, &mut stats).unwrap(),
            pooled.len()
        );
    }

    #[test]
    fn pool_reverse_request_reuses_bitvectors() {
        let (env, specs) = pool_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let fwd = pool
            .nth_covering_guard(&q, &[0], &[1], 0, 1, &mut stats)
            .unwrap()
            .expect("a separating guard exists");
        let tested_after_fwd = stats.tested;
        // The reverse request re-walks already-judged candidates: any
        // candidate whose bits are fully known answers from the vector.
        let rev = pool
            .nth_covering_guard(&q, &[1], &[0], 0, 1, &mut stats)
            .unwrap()
            .expect("the reverse guard exists");
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

    /// A 65-spec problem — one spec past the inline bitvector word — whose
    /// first 32 specs seed a `Post` and whose rest are empty. The same
    /// pool engine (spilled words) must answer it.
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
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let reference = reference_covering(&q, &[0], &[64], 4);
        assert!(!reference.is_empty(), "a separating guard exists");

        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = pool
            .covering_guards(&q, &[0], &[64], 4, &mut stats)
            .unwrap();
        assert_eq!(
            pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            reference,
            "the spilled bitvectors must reproduce the brute-force request"
        );
        // The request latches: nth/count answer from the stored scan
        // without extending the stream.
        let popped = stats.popped;
        for (n, g) in pooled.iter().enumerate() {
            let nth = pool
                .nth_covering_guard(&q, &[0], &[64], n, 4, &mut stats)
                .unwrap();
            assert_eq!(nth.as_ref().map(|e| e.compact()), Some(g.compact()));
        }
        assert_eq!(
            pool.covering_count(&q, &[0], &[64], 4, &mut stats).unwrap(),
            pooled.len()
        );
        assert_eq!(
            stats.popped, popped,
            "request state is reused, not re-searched"
        );
    }

    #[test]
    fn oversized_check_expr_agrees_with_oracle() {
        let (env, specs) = oversized_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
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
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
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
    /// text and pop stamp, in order, and the effort counters.
    #[derive(Debug, Default, PartialEq)]
    struct Stream {
        cands: Vec<(String, u64)>,
        popped: u64,
        expanded: u64,
        deduped: u64,
    }

    /// A whole-tree enumeration and what it saw on the way.
    struct Reference {
        stream: Stream,
        /// The evaluable candidates, in `stream.cands` order.
        exprs: Vec<Expr>,
        /// The first candidate the dedup filter dropped.
        first_dup: Option<String>,
        /// Every candidate type narrowing rejected, in order.
        rejected: Vec<String>,
    }

    /// The whole-tree pipeline the node arena replaced, kept as the
    /// reference it must reproduce: expand the tree, simplify it, type it
    /// whole, dedup it structurally.
    fn reference_stream(q: &GuardQuery<'_>, max_pops: u64) -> Reference {
        let expander = Expander::new(&q.env.table, q.opts);
        let mut gamma = Gamma::from_params(q.params);
        let mut seen = HashSet::new();
        let mut frontier = Frontier::new();
        frontier.push(0, 1, Expr::Hole(Ty::Bool));
        let mut out = Reference {
            stream: Stream::default(),
            exprs: Vec::new(),
            first_dup: None,
            rejected: Vec::new(),
        };
        let s = &mut out.stream;
        while s.popped < max_pops {
            let Some(e) = frontier.pop() else { break };
            s.popped += 1;
            let subs = expander
                .expand_first(&e, &mut gamma)
                .expect("a popped candidate has a hole");
            s.expanded += subs.len() as u64;
            for sub in subs {
                let sub = simplify(sub);
                if q.opts.guidance.types && infer_ty(&q.env.table, &mut gamma, &sub).is_none() {
                    out.rejected.push(sub.compact());
                    continue;
                }
                if !seen.insert(sub.clone()) {
                    s.deduped += 1;
                    out.first_dup.get_or_insert_with(|| sub.compact());
                    continue;
                }
                let size = node_count(&sub);
                if sub.evaluable() {
                    s.cands.push((sub.compact(), s.popped));
                    out.exprs.push(sub);
                } else if size <= q.opts.max_guard_size {
                    frontier.push(0, size, sub);
                }
            }
        }
        out
    }

    /// A request answered by brute force over the whole-tree stream: judge
    /// each candidate in order with fresh `assert x_r` checks for `pos`
    /// and `assert !x_r` checks for `neg`, keep at most `k` covering
    /// guards, and stop [`EXTRA_GUARD_BUDGET`] pops after the first.
    fn reference_covering(
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        k: usize,
    ) -> Vec<String> {
        const POPS: u64 = 5_000;
        let checks: Vec<PreparedSpec> = pos
            .iter()
            .map(|&s| (s, true))
            .chain(neg.iter().map(|&s| (s, false)))
            .map(|(s, truthy)| {
                let p = PreparedSpec::prepare(q.env, &q.specs[s]).expect("fixture setups run");
                let xr = Expr::Var(p.result_var());
                p.with_asserts(vec![if truthy { xr } else { Expr::Not(Box::new(xr)) }])
            })
            .collect();
        let params: Vec<Symbol> = q.params.iter().map(|(n, _)| *n).collect();
        let reference = reference_stream(q, POPS);
        let mut found = Vec::new();
        let mut first = None;
        for (e, &(ref text, pop)) in reference.exprs.iter().zip(&reference.stream.cands) {
            if first.is_some_and(|f| pop > f + EXTRA_GUARD_BUDGET) {
                return found;
            }
            let program = Program::from_parts(q.name, params.clone(), e.clone());
            if checks.iter().all(|c| c.run(q.env, &program).passed()) {
                found.push(text.clone());
                first.get_or_insert(pop);
                if found.len() == k {
                    return found;
                }
            }
        }
        assert!(
            reference.stream.popped < POPS,
            "the reference stream ended before the request's stopping rule"
        );
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
            .map(|c| (pool.arena.to_expr(c.node).compact(), c.pop))
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
    fn pool_stream_matches_the_tree_pipeline() {
        const POPS: u64 = 20_000;
        let a3 = a3_env();
        let (post_env, post_specs) = pool_fixture();
        let (wide_env, wide_specs) = oversized_fixture();
        let str_param = [(Symbol::intern("arg0"), Ty::Str)];
        let untyped = Options::with_guidance(Guidance::effects_only());
        let paper = Options::default();
        let sched = Scheduler::sequential();
        let query = |env, params, specs, opts| GuardQuery {
            env,
            name: Symbol::intern("m"),
            params,
            specs,
            opts,
            sched: &sched,
        };
        let fixtures = [
            ("a3", query(&a3, &str_param, &[], &paper)),
            ("post", query(&post_env, &[], &post_specs, &paper)),
            ("65 specs", query(&wide_env, &[], &wide_specs, &paper)),
            ("effects only", query(&a3, &str_param, &[], &untyped)),
        ];
        let (mut deduped, mut rejected) = (0, 0);
        for (name, q) in fixtures {
            let Reference {
                stream: reference,
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
            deduped += reference.deduped;
            rejected += rejections.len();
        }
        assert!(deduped > 0, "no fixture exercises the dedup filter");
        assert!(rejected > 0, "no fixture exercises type narrowing");
    }
}
