//! Merging per-spec solutions into one branching program (§3.3,
//! Algorithm 1, rewrite rules (1)–(3) of Fig. 6 and pruning rules (4)–(7)
//! of Fig. 13).
//!
//! A merge works over tuples `⟨e, b, Ψ⟩` — hypothesis "`if b then e`
//! satisfies specs Ψ". Chains of tuples (one per `⊕`) are rewritten to
//! fixpoint; implications between branch conditions are decided on the
//! conditions' boolean skeletons, exactly the heuristic encoding the paper
//! describes, by checking every assignment of their atoms ([`implies`]).
//!
//! Because guard synthesis is an *oracle* search ("truthy under Ψ₁'s
//! setups, falsy under Ψ₂'s"), the smallest oracle-passing condition can be
//! semantically wrong for the final program (the paper's correctness story
//! is precisely that such candidates are caught when the merged program is
//! run against every spec, §3.4). The merge therefore keeps a small *set*
//! of oracle-passing guards per strengthening request and backtracks over
//! the choices (an odometer over the guard picks) until a merged program
//! validates.
//!
//! **Guard covering is pooled.** Every strengthening request — both halves
//! of every Rule-3 pair, across every `⊕` order — is answered by the
//! problem's shared [`GuardPool`]: one lazily extended enumeration of the
//! boolean candidate stream, one pass/fail bitvector per candidate, and a
//! request is `AND`/`NOT` over `u64` words instead of a fresh work-list
//! search re-running the interpreter (see [`crate::guards`]). Quick
//! candidates and the rule-6/7 negation guesses go through the same
//! bitvectors.

use crate::engine::{Scheduler, SearchStats};
use crate::error::SynthError;
use crate::generate::{Oracle, SpecOracle};
use crate::guards::{negate, GuardPool, GuardQuery};
use crate::options::Options;
use rbsyn_interp::{InterpEnv, Spec};
use rbsyn_lang::{Expr, Program, Symbol, Ty, Value};
use rbsyn_trace::Phase;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A merge tuple `⟨e, b, Ψ⟩` (specs by index into the problem).
#[derive(Clone, Debug)]
pub struct Tuple {
    /// Solution expression.
    pub expr: Expr,
    /// Branch condition.
    pub cond: Expr,
    /// Indices of the specs this tuple satisfies.
    pub specs: Vec<usize>,
}

/// `b₁ ⇒ b₂` on the conditions' boolean skeletons (§3.3 "Checking
/// Implication"): each distinct atomic condition (keyed by its compact
/// text) is a variable, `true`/`false` are constants and `!`/`∨` are the
/// connectives. The implication holds when `b₂` is true under every
/// assignment of the atoms that makes `b₁` true; the check stops at the
/// first counterexample. No query the paper suite or either corpus makes
/// has more than two atoms, so the 2^k assignments are at most four
/// evaluations.
pub fn implies(b1: &Expr, b2: &Expr) -> bool {
    let mut atoms = Vec::new();
    collect_atoms(b1, &mut atoms);
    collect_atoms(b2, &mut atoms);
    let mut values = Vec::with_capacity(atoms.len());
    every_assignment(atoms.len(), &mut values, &|v| {
        !skeleton_holds(b1, &atoms, v) || skeleton_holds(b2, &atoms, v)
    })
}

/// `b₁ ⇔ b₂`.
fn equiv(b1: &Expr, b2: &Expr) -> bool {
    implies(b1, b2) && implies(b2, b1)
}

/// Appends the compact text of each atom of `e` not yet in `atoms`.
fn collect_atoms(e: &Expr, atoms: &mut Vec<String>) {
    match e {
        Expr::Lit(Value::Bool(_)) => {}
        Expr::Not(b) => collect_atoms(b, atoms),
        Expr::Or(a, b) => {
            collect_atoms(a, atoms);
            collect_atoms(b, atoms);
        }
        atom => {
            let key = atom.compact();
            if !atoms.contains(&key) {
                atoms.push(key);
            }
        }
    }
}

/// The value of `e`'s skeleton when `atoms[i]` is `values[i]`.
fn skeleton_holds(e: &Expr, atoms: &[String], values: &[bool]) -> bool {
    match e {
        Expr::Lit(Value::Bool(b)) => *b,
        Expr::Not(b) => !skeleton_holds(b, atoms, values),
        Expr::Or(a, b) => skeleton_holds(a, atoms, values) || skeleton_holds(b, atoms, values),
        atom => {
            let key = atom.compact();
            let i = atoms.iter().position(|a| *a == key);
            values[i.expect("every atom was collected")]
        }
    }
}

/// Does `check` hold for every extension of `values` to `n` booleans?
/// Recurses one variable at a time (no `1 << n` bit mask to overflow) and
/// stops at the first assignment that fails.
fn every_assignment(n: usize, values: &mut Vec<bool>, check: &dyn Fn(&[bool]) -> bool) -> bool {
    if values.len() == n {
        return check(values);
    }
    [false, true].into_iter().all(|v| {
        values.push(v);
        let ok = every_assignment(n, values, check);
        values.pop();
        ok
    })
}

/// A strengthening request: guard truthy on `pos` specs, falsy on `neg`.
type GuardKey = (Vec<usize>, Vec<usize>);

/// Everything the merge needs from the synthesis run.
pub struct MergeCtx<'a> {
    /// Interpreter environment.
    pub env: &'a InterpEnv,
    /// Method name, pre-interned once per problem.
    pub name: Symbol,
    /// Method parameters.
    pub params: &'a [(Symbol, Ty)],
    /// All specs of the problem.
    pub specs: &'a [Spec],
    /// The prepared per-spec oracles (index-aligned with `specs`), shared
    /// with phase 1.
    pub spec_oracles: &'a [SpecOracle],
    /// Options (guard bounds).
    pub opts: &'a Options,
    /// Deadline and tracing session for every guard search.
    pub sched: &'a Scheduler,
    /// Shared search counters.
    pub stats: &'a mut SearchStats,
    /// Wall-clock spent inside guard covering — the merge half of the
    /// per-phase timing report.
    pub guard_time: Duration,
    /// Conditionals synthesized so far (negation-reuse pool, §4).
    pub known_conds: Vec<Expr>,
    /// The problem-wide guard-covering pool (shared enumeration +
    /// bitvectors; see [`crate::guards::GuardPool`]).
    pub guards: GuardPool,
}

/// How many guard-choice combinations to try per `⊕` order.
const ATTEMPTS_PER_ORDER: usize = 64;

impl<'a> MergeCtx<'a> {
    fn program(&self, body: Expr) -> Program {
        Program::from_parts(
            self.name,
            self.params.iter().map(|(n, _)| *n).collect(),
            body,
        )
    }

    /// The pool query for this merge — a bundle of the context's borrowed
    /// fields with the *context's* lifetime (not `&self`'s), so pool calls
    /// can borrow `self.guards` and `self.stats` disjointly.
    fn guard_query(&self) -> GuardQuery<'a> {
        GuardQuery {
            env: self.env,
            name: self.name,
            params: self.params,
            specs: self.specs,
            oracles: self.spec_oracles,
            opts: self.opts,
            sched: self.sched,
        }
    }

    /// Does `body` pass every spec of the problem?
    fn passes_all_specs(&mut self, body: &Expr) -> bool {
        let p = self.program(body.clone());
        let started = Instant::now();
        let valid = self
            .spec_oracles
            .iter()
            .all(|o| o.test(self.env, &p).success);
        self.stats.eval_nanos = self
            .stats
            .eval_nanos
            .saturating_add(started.elapsed().as_nanos() as u64);
        valid
    }

    /// The quick guard candidates for a request that actually pass it:
    /// constants, `extra` (typically the negation of the partner guard,
    /// §4), and known conditionals with their negations — each decided by
    /// the pool's bitvectors, so backtracking re-checks are word ops.
    fn quick_passers(&mut self, key: &GuardKey, extra: &[Expr]) -> Vec<Expr> {
        let mut out: Vec<Expr> = Vec::new();
        let mut quick: Vec<Expr> =
            vec![Expr::Lit(Value::Bool(true)), Expr::Lit(Value::Bool(false))];
        quick.extend(extra.iter().cloned());
        for k in &self.known_conds {
            quick.push(k.clone());
            quick.push(negate(k));
        }
        let q = self.guard_query();
        for cand in quick {
            if out.contains(&cand) {
                continue;
            }
            if self
                .guards
                .check_expr(&q, &cand, &key.0, &key.1, self.stats)
            {
                out.push(cand);
            }
        }
        out
    }

    /// A request's candidate list, up to `need` entries: the quick
    /// passers, then the pool's covering guards not among them, fetched
    /// one at a time (`need = n + 1`) so the pool scans no further than
    /// the list needs. The one place guard covering is traced and timed.
    fn candidates(
        &mut self,
        key: &GuardKey,
        extra: &[Expr],
        need: usize,
    ) -> Result<Vec<Expr>, SynthError> {
        let started = Instant::now();
        let span = self.sched.trace().map(|t| t.span(Phase::Guard));
        let mut out = self.quick_passers(key, extra);
        let q = self.guard_query();
        let mut scanned = Ok(());
        let mut n = 0;
        while out.len() < need {
            let guards = match self
                .guards
                .covering_guards(&q, &key.0, &key.1, n + 1, self.stats)
            {
                Ok(guards) => guards,
                Err(e) => {
                    scanned = Err(e);
                    break;
                }
            };
            let Some(g) = guards.get(n) else {
                break;
            };
            // The pool's guards are distinct, so this skips quick ones.
            if !out.contains(g) {
                out.push(g.clone());
            }
            n += 1;
        }
        drop(span);
        self.guard_time += started.elapsed();
        scanned.map(|()| out)
    }

    /// The `idx`-th candidate for a request, clamped to the last one;
    /// `None` when the request has none. A merge that validates with
    /// candidate 0 never pays for the alternatives.
    fn guard_pick(
        &mut self,
        key: &GuardKey,
        extra: &[Expr],
        idx: usize,
    ) -> Result<Option<Expr>, SynthError> {
        let mut candidates = self.candidates(key, extra, idx + 1)?;
        candidates.truncate(idx + 1);
        Ok(candidates.pop())
    }

    /// Advances the guard-choice odometer: increments the *first* used key
    /// (the structurally dominant pick), carrying rightward; returns
    /// `Ok(false)` when all combinations are exhausted. A digit's base is
    /// its request's whole candidate list, so only a failed validation
    /// pays for materializing the alternatives.
    fn bump_selector(
        &mut self,
        selector: &mut HashMap<GuardKey, usize>,
        used: &GuardUses,
    ) -> Result<bool, SynthError> {
        bump_digits(selector, used, |key, extra| {
            Ok(self.candidates(key, extra, usize::MAX)?.len())
        })
    }
}

/// The pure odometer step over lazily sized digits: `len_of` supplies each
/// used key's candidate-list length only when that digit is actually
/// inspected.
fn bump_digits(
    selector: &mut HashMap<GuardKey, usize>,
    used: &GuardUses,
    mut len_of: impl FnMut(&GuardKey, &[Expr]) -> Result<usize, SynthError>,
) -> Result<bool, SynthError> {
    for (key, extra) in used.iter() {
        let len = len_of(key, extra)?;
        let slot = selector.entry(key.clone()).or_insert(0);
        if *slot + 1 < len {
            *slot += 1;
            return Ok(true);
        }
        *slot = 0; // carry
    }
    Ok(false)
}

/// Algorithm 1: try every `⊕` order (and, per order, a bounded number of
/// guard choices), rewrite to fixpoint, keep the smallest merged program
/// that passes all specs.
pub fn merge_program(ctx: &mut MergeCtx<'_>, tuples: Vec<Tuple>) -> Result<Program, SynthError> {
    if tuples.is_empty() {
        return Err(SynthError::MergeFailed);
    }
    let orders = permutations(tuples.len(), 720);
    let mut best: Option<Expr> = None;
    for order in orders {
        let mut selector: HashMap<GuardKey, usize> = HashMap::new();
        'attempts: for _attempt in 0..ATTEMPTS_PER_ORDER {
            if ctx.sched.should_stop() {
                return Err(SynthError::Timeout);
            }
            let chain: Vec<Tuple> = order.iter().map(|&i| tuples[i].clone()).collect();
            let (chain, used) = rewrite_chain(ctx, chain, &selector)?;
            let body = build_body(&chain);
            let valid = ctx.passes_all_specs(&body);
            if valid {
                // §4: remember the validated branch conditions. Later `⊕`
                // orders try them (and their negations) as quick
                // candidates, answered by the pool's bitvectors — which
                // turns the reversed request of an already-solved pair
                // from a deep stream scan into a word op.
                for t in &chain {
                    if matches!(t.cond, Expr::Lit(Value::Bool(_))) {
                        continue;
                    }
                    if !ctx.known_conds.contains(&t.cond) {
                        ctx.known_conds.push(t.cond.clone());
                    }
                }
                let sz = rbsyn_lang::metrics::node_count(&body);
                match &best {
                    Some(b) if rbsyn_lang::metrics::node_count(b) <= sz => {}
                    _ => best = Some(body),
                }
                break 'attempts;
            }
            // Odometer over the guard choices this attempt consumed.
            if !ctx.bump_selector(&mut selector, &used)? {
                break 'attempts;
            }
        }
    }
    match best {
        Some(body) => Ok(ctx.program(body)),
        None => Err(SynthError::MergeFailed),
    }
}

/// Guard requests a rewrite consumed, with the `extra` quick candidates in
/// effect at each request — enough to re-derive the odometer digit bases
/// lazily when (and only when) a validation fails.
type GuardUses = Vec<(GuardKey, Vec<Expr>)>;

/// Applies rules (1)–(7) until no rewrite fires (bounded for safety).
/// Returns the rewritten chain plus the guard requests it consumed for
/// the odometer.
fn rewrite_chain(
    ctx: &mut MergeCtx<'_>,
    mut chain: Vec<Tuple>,
    selector: &HashMap<GuardKey, usize>,
) -> Result<(Vec<Tuple>, GuardUses), SynthError> {
    let mut used: GuardUses = Vec::new();
    let pick = |ctx: &mut MergeCtx<'_>,
                key: GuardKey,
                extra: &[Expr],
                used: &mut GuardUses|
     -> Result<Option<Expr>, SynthError> {
        let idx = selector.get(&key).copied().unwrap_or(0);
        let g = ctx.guard_pick(&key, extra, idx)?;
        if !used.iter().any(|(k, _)| *k == key) {
            used.push((key.clone(), extra.to_vec()));
        }
        Ok(g)
    };

    for _round in 0..24 {
        let mut changed = false;
        let mut i = 0;
        while i + 1 < chain.len() {
            let (a, b) = (chain[i].clone(), chain[i + 1].clone());
            let merged_specs = || {
                let mut s = a.specs.clone();
                s.extend(b.specs.iter().copied());
                s
            };
            if a.expr == b.expr {
                let t = if implies(&a.cond, &b.cond) {
                    // Rule 1.
                    Tuple {
                        expr: a.expr.clone(),
                        cond: a.cond.clone(),
                        specs: merged_specs(),
                    }
                } else {
                    // Rule 2.
                    Tuple {
                        expr: a.expr.clone(),
                        cond: Expr::Or(Box::new(a.cond.clone()), Box::new(b.cond.clone())),
                        specs: merged_specs(),
                    }
                };
                chain.splice(i..=i + 1, [t]);
                changed = true;
                continue;
            }
            // Rules 4/5: boolean-program collapse when b1 ≡ !b2.
            let bool_pair = matches!(
                (&a.expr, &b.expr),
                (Expr::Lit(Value::Bool(true)), Expr::Lit(Value::Bool(false)))
                    | (Expr::Lit(Value::Bool(false)), Expr::Lit(Value::Bool(true)))
            );
            if bool_pair && equiv(&a.cond, &negate(&b.cond)) {
                let expr = if matches!(a.expr, Expr::Lit(Value::Bool(true))) {
                    a.cond.clone() // Rule 4
                } else {
                    b.cond.clone() // Rule 5
                };
                let t = Tuple {
                    expr,
                    cond: Expr::Or(Box::new(a.cond.clone()), Box::new(b.cond.clone())),
                    specs: merged_specs(),
                };
                chain.splice(i..=i + 1, [t]);
                changed = true;
                continue;
            }
            // Rule 3: conditions do not distinguish differing solutions —
            // strengthen both via guard covering. Both halves of the pair
            // (and every backtracking re-request) are answered from the
            // problem's shared guard pool.
            if implies(&a.cond, &b.cond) {
                let k1: GuardKey = (a.specs.clone(), b.specs.clone());
                let k2: GuardKey = (b.specs.clone(), a.specs.clone());
                let Some(b1) = pick(ctx, k1, &[], &mut used)? else {
                    // Timeout propagated above; no forward guard means the
                    // reverse request is never needed.
                    i += 1;
                    continue;
                };
                // Try the negation first for the reverse guard (§4).
                let extra = [negate(&b1)];
                let Some(b2) = pick(ctx, k2, &extra, &mut used)? else {
                    i += 1;
                    continue;
                };
                if chain[i].cond == b1 && chain[i + 1].cond == b2 {
                    i += 1; // already strengthened; avoid a rewrite loop
                    continue;
                }
                chain[i].cond = b1;
                chain[i + 1].cond = b2;
                changed = true;
                continue;
            }
            // Rules 6/7: guess the negation of the neighbour's condition
            // for a tuple whose own condition is still the trivial `true`
            // (enables the if/else collapse). Restricted to unstrengthened
            // tuples so Rule-3 picks are never clobbered.
            if matches!(b.cond, Expr::Lit(Value::Bool(true)))
                && !matches!(a.cond, Expr::Lit(Value::Bool(true)))
            {
                let bg = negate(&a.cond);
                if guard_holds(ctx, &bg, &b.specs) {
                    chain[i + 1].cond = bg;
                    changed = true;
                    continue;
                }
            }
            i += 1;
        }
        if !changed {
            break;
        }
    }
    Ok((chain, used))
}

/// Does `bg` evaluate truthy under every setup of the given specs?
/// Answered from the guard pool's bitvectors (a pos-only request).
fn guard_holds(ctx: &mut MergeCtx<'_>, bg: &Expr, specs: &[usize]) -> bool {
    let q = ctx.guard_query();
    ctx.guards.check_expr(&q, bg, specs, &[], ctx.stats)
}

/// Builds `if b₁ then e₁ else if b₂ then e₂ … else nil`, with the
/// Appendix A.4 simplifications: a tautological guard drops its
/// conditional (and every branch after it, which can never run), and a
/// final branch guarded by the negation of the previous condition becomes
/// a plain `else`.
fn build_body(chain: &[Tuple]) -> Expr {
    // A tuple guarded by a tautology (e.g. the `b ∨ !b` rules 4/5 produce)
    // needs no conditional at all.
    fn is_taut(e: &Expr) -> bool {
        matches!(e, Expr::Lit(Value::Bool(true))) || implies(&Expr::Lit(Value::Bool(true)), e)
    }
    fn go(chain: &[Tuple]) -> Expr {
        match chain {
            [] => Expr::Lit(Value::Nil),
            [t, ..] if is_taut(&t.cond) => t.expr.clone(),
            [t, rest @ ..] => {
                // `if b then e else if !b then e2 else nil` → else e2.
                if let [next] = rest {
                    if next.cond == negate(&t.cond) || negate(&next.cond) == t.cond {
                        return Expr::If {
                            cond: Box::new(t.cond.clone()),
                            then: Box::new(t.expr.clone()),
                            els: Box::new(next.expr.clone()),
                        };
                    }
                }
                Expr::If {
                    cond: Box::new(t.cond.clone()),
                    then: Box::new(t.expr.clone()),
                    els: Box::new(go(rest)),
                }
            }
        }
    }
    go(chain)
}

/// Deterministic permutations of `0..n`, capped.
fn permutations(n: usize, cap: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    fn go(
        n: usize,
        cap: usize,
        cur: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                go(n, cap, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    go(n, cap, &mut cur, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_lang::builder::*;

    #[test]
    fn implication_treats_atoms_as_variables() {
        let b = call(var("Post"), "exists?", []);
        assert!(implies(&b, &b));
        assert!(implies(&b, &or(b.clone(), var("other"))));
        assert!(!implies(&b, &var("other")));
        assert!(equiv(&not(not(b.clone())), &b));
        assert!(implies(&false_(), &b));
        assert!(implies(&b, &true_()));
        // A tautology whose one atom repeats.
        assert!(implies(&true_(), &or(b.clone(), not(b.clone()))));
        assert!(!implies(&true_(), &or(b.clone(), not(var("other")))));
        // Two separately built but equal atoms are one variable.
        let again = call(var("Post"), "exists?", []);
        assert!(equiv(&b, &again));
        assert!(implies(&true_(), &or(b.clone(), not(again))));
    }

    #[test]
    fn permutations_are_capped_and_deterministic() {
        assert_eq!(permutations(3, 720).len(), 6);
        assert_eq!(permutations(1, 720), vec![vec![0]]);
        assert_eq!(permutations(7, 720).len(), 720);
        assert_eq!(permutations(3, 720)[0], vec![0, 1, 2]);
    }

    #[test]
    fn build_body_shapes() {
        let t1 = Tuple {
            expr: int(1),
            cond: true_(),
            specs: vec![0],
        };
        assert_eq!(build_body(std::slice::from_ref(&t1)).compact(), "1");
        // A leading always-true branch always runs: the rest is dead.
        let t0 = Tuple {
            expr: int(2),
            cond: var("c"),
            specs: vec![1],
        };
        assert_eq!(build_body(&[t1.clone(), t0]).compact(), "1");
        let b = var("b");
        let t2 = Tuple {
            expr: int(1),
            cond: b.clone(),
            specs: vec![0],
        };
        let t3 = Tuple {
            expr: int(2),
            cond: not(b.clone()),
            specs: vec![1],
        };
        // Negated pair collapses to if/else.
        assert_eq!(
            build_body(&[t2.clone(), t3]).compact(),
            "if b then 1 else 2 end"
        );
        // Non-negated tail keeps the else-if chain with nil default.
        let t4 = Tuple {
            expr: int(2),
            cond: var("c"),
            specs: vec![1],
        };
        assert_eq!(
            build_body(&[t2, t4]).compact(),
            "if b then 1 else if c then 2 else nil end end"
        );
    }

    #[test]
    fn tautological_guards_drop_the_conditional() {
        let t = Tuple {
            expr: var("e"),
            cond: or(var("b"), not(var("b"))),
            specs: vec![0, 1],
        };
        assert_eq!(build_body(&[t]).compact(), "e");
    }

    #[test]
    fn odometer_carries_and_terminates() {
        let k1: GuardKey = (vec![0], vec![1]);
        let k2: GuardKey = (vec![1], vec![0]);
        let used: GuardUses = vec![(k1.clone(), vec![]), (k2.clone(), vec![])];
        let mut sel = HashMap::new();
        let mut queried = 0usize;
        let mut bump = |sel: &mut HashMap<GuardKey, usize>| {
            bump_digits(sel, &used, |_, _| {
                queried += 1;
                Ok(2)
            })
            .unwrap()
        };
        // 2×2 grid: 3 bumps then exhaustion; the first key varies fastest.
        assert!(bump(&mut sel));
        assert_eq!(sel[&k1], 1);
        assert!(bump(&mut sel));
        assert_eq!((sel[&k1], sel[&k2]), (0, 1));
        assert!(bump(&mut sel));
        assert_eq!((sel[&k1], sel[&k2]), (1, 1));
        assert!(!bump(&mut sel));
        assert!(queried >= 4, "digit bases are supplied lazily per bump");
    }

    #[test]
    fn known_negations_answer_guard_requests_without_search() {
        use crate::engine::Scheduler;
        use rbsyn_interp::SetupStep;
        use rbsyn_stdlib::EnvBuilder;

        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("author", Ty::Str)]);
        b.add_const(Value::Class(post));
        let env = b.finish();
        let returns = |n: i64| vec![call(var("xr"), "==", [int(n)])];
        let target = SetupStep::CallTarget {
            bind: "xr".into(),
            args: vec![],
        };
        let seeded = Spec::new(
            "seeded",
            vec![
                SetupStep::Exec(call(cls(post), "create", [hash([])])),
                target.clone(),
            ],
            returns(1),
        );
        let empty = Spec::new("empty", vec![target], returns(0));
        let specs = [seeded, empty];
        let spec_oracles: Vec<SpecOracle> =
            specs.iter().map(|s| SpecOracle::new(&env, s)).collect();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let mut stats = SearchStats::default();
        let exists = call(cls(post), "exists?", []);
        let mut ctx = MergeCtx {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            spec_oracles: &spec_oracles,
            opts: &opts,
            sched: &sched,
            stats: &mut stats,
            guard_time: Duration::ZERO,
            known_conds: vec![exists.clone()],
            guards: GuardPool::new(),
        };
        let tuples = vec![
            Tuple {
                expr: int(1),
                cond: true_(),
                specs: vec![0],
            },
            Tuple {
                expr: int(0),
                cond: true_(),
                specs: vec![1],
            },
        ];
        let program = merge_program(&mut ctx, tuples).unwrap();
        // Both Rule-3 requests are answered by the known conditional or
        // its negation (§4), so the guard stream is never enumerated.
        let Expr::If { cond, .. } = &program.body else {
            panic!("expected a branch, got {}", program.body.compact());
        };
        assert!(
            **cond == exists || **cond == negate(&exists),
            "{}",
            cond.compact()
        );
        assert_eq!(stats.popped, 0, "no search was needed");
    }
}
