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
//! that; the old `>64-spec` fallback to eager per-request searches is
//! gone.
//!
//! The enumeration pipeline is **pool-local and lock-free**: candidates
//! live in a private node arena whose nodes refer to their children by
//! id, so the stream never touches the shared search cache — it is
//! byte-identical with and without `--no-cache`, and it pays none of the
//! shared cache's lock overhead on the merge's hottest path. Expanding a
//! candidate re-interns only the path from its root to the filled hole,
//! types each new node once from its children's stored types, and builds
//! an [`Expr`] tree only for candidates the interpreter actually runs.
//!
//! **Covering is set inclusion.** A candidate covers a request exactly
//! when `Ψ₁ ⊆ truthy-ok(c)` and `Ψ₂ ⊆ falsy-ok(c)`, so the verdict reads
//! straight off the candidate's bits — no second representation of the
//! spec sets is needed.
//!
//! [`search_guards`] (the per-request search the pool replaced on the
//! merge path) remains as the test reference for the pool: it collects
//! *several* oracle-passing guards because the smallest one can be
//! semantically wrong for the final program (only running the merged
//! program against all specs decides, §3.4), so the merge backtracks over
//! alternatives — the pool's [`GuardPool::covering_guards`] reproduces
//! exactly that candidate order and stopping rule.

use crate::engine::{Frontier, Scheduler, SearchStats};
use crate::error::SynthError;
use crate::expand::{Expander, TemplateStore};
use crate::generate::{generate_many, GuardOracle, Oracle};
use crate::infer::{app_ty, hash_ty, hole_ty, ty_of_value, var_ty, Gamma};
use crate::options::Options;
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::{Expr, FxBuild, FxHasher, Program, Symbol, Ty, Value};
use rbsyn_trace::Mark;
use rbsyn_ty::ClassTable;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Extra work-list pops to spend hunting alternative guards after the
/// first oracle-passing one. Each pop can test hundreds of candidates, so
/// this stays small; the odometer only needs a handful of alternatives.
const EXTRA_GUARD_BUDGET: u64 = 300;

/// Searches for up to `k` guards satisfying `oracle`, by ascending size.
/// `sched` carries the deadline, kill flag and memoization handle, as in
/// [`crate::generate::generate`].
#[allow(clippy::too_many_arguments)]
pub fn search_guards(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    oracle: &GuardOracle,
    k: usize,
    opts: &Options,
    sched: &Scheduler,
    stats: &mut SearchStats,
) -> Result<Vec<Expr>, SynthError> {
    match generate_many(
        env,
        method_name,
        params,
        &Ty::Bool,
        oracle,
        opts,
        opts.max_guard_size,
        sched,
        stats,
        k,
        EXTRA_GUARD_BUDGET,
    ) {
        Ok(gs) => Ok(gs),
        Err(SynthError::Timeout) => Err(SynthError::Timeout),
        Err(_) => Ok(Vec::new()),
    }
}

/// Synthesizes a single guard that is truthy under `pos` setups and falsy
/// under `neg` setups. `known` are previously synthesized conditionals to
/// try (with their negations) before searching.
#[allow(clippy::too_many_arguments)]
pub fn synth_guard(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    pos: &[&Spec],
    neg: &[&Spec],
    known: &[Expr],
    opts: &Options,
    sched: &Scheduler,
    stats: &mut SearchStats,
) -> Result<Expr, SynthError> {
    let oracle = GuardOracle::new(env, pos, neg);
    let name_sym = Symbol::intern(method_name);
    let param_syms: Vec<Symbol> = params.iter().map(|(n, _)| *n).collect();

    // Fast path: constants, known conditionals, and negations thereof.
    let mut quick: Vec<Expr> = vec![Expr::Lit(Value::Bool(true)), Expr::Lit(Value::Bool(false))];
    for k in known {
        quick.push(k.clone());
        quick.push(negate(k));
    }
    for cand in quick {
        stats.tested += 1;
        let p = Program::from_parts(name_sym, param_syms.clone(), cand.clone());
        if oracle.test(env, &p).success {
            return Ok(cand);
        }
    }

    // Fall back to type-guided search at type Bool (effect guidance is
    // never used for guards; GuardOracle reports no effects, so S-Eff
    // cannot fire).
    let mut found = search_guards(env, method_name, params, &oracle, 1, opts, sched, stats)?;
    found.pop().ok_or(SynthError::GuardNotFound)
}

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
    /// Deadline, kill flag and the run's memoization handle.
    pub sched: &'a Scheduler,
}

/// Per-spec prepared check, or why it cannot be evaluated.
enum CheckSlot {
    /// `assert x_r` over the spec's prepared setup.
    Ready(Box<PreparedSpec>),
    /// The spec's own setup failed (a suite bug): the message raised when
    /// a covering request actually touches this spec, mirroring the panic
    /// `GuardOracle::new` used to raise at request time.
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

/// Id of a node in the pool's [`NodeArena`].
type NodeId = u32;

/// "Absent" in a node's index fields: no type derivation, end of a hash
/// chain.
const NONE: u32 = u32::MAX;

/// [`Node::hole`] of a node with no hole below it.
const NO_HOLE: u16 = u16::MAX;

/// What a guard-stream node is, apart from its children. Each payload is a
/// [`Symbol`] or an index into one of the arena's side tables, so a kind
/// hashes and compares as a single word.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// A literal (index into [`NodeArena::values`]).
    Lit(u32),
    /// A variable.
    Var(Symbol),
    /// A typed hole (index into [`NodeArena::tys`]).
    Hole(u32),
    /// A call; the children are the receiver, then the arguments.
    Call(Symbol),
    /// A hash literal (index into [`NodeArena::keys`]); the children are
    /// the values, in key order.
    Hash(u32),
}

impl Kind {
    /// The kind as two words, for the type memo's keys.
    fn words(self) -> [u32; 2] {
        match self {
            Kind::Lit(v) => [0, v],
            Kind::Var(x) => [1, x.index()],
            Kind::Hole(t) => [2, t],
            Kind::Call(meth) => [3, meth.index()],
            Kind::Hash(keys) => [4, keys],
        }
    }
}

/// One hash-consed node and the facts the enumeration asks about it,
/// computed once when the node is created.
struct Node {
    kind: Kind,
    /// Start of the children in [`NodeArena::kids`].
    kids: u32,
    /// Number of children.
    arity: u16,
    /// Index of the leftmost child that contains a hole, or [`NO_HOLE`].
    hole: u16,
    /// AST node count of the subtree (the frontier's size heuristic).
    size: u32,
    /// The subtree's type (index into [`NodeArena::tys`]), or [`NONE`]
    /// when it has no derivation or type guidance is off.
    ty: u32,
    /// Next node whose `(kind, children)` hash is equal, or [`NONE`].
    next: u32,
}

/// Dense ids for the few distinct values, types and key lists a stream
/// uses.
struct Table<T> {
    items: Vec<T>,
    ids: HashMap<T, u32, FxBuild>,
}

impl<T> Default for Table<T> {
    fn default() -> Table<T> {
        Table {
            items: Vec::new(),
            ids: HashMap::default(),
        }
    }
}

impl<T: Clone + Eq + Hash> Table<T> {
    fn id(&mut self, t: T) -> u32 {
        if let Some(&i) = self.ids.get(&t) {
            return i;
        }
        let i = u32::try_from(self.items.len()).expect("fewer than 2^32 entries");
        self.items.push(t.clone());
        self.ids.insert(t, i);
        i
    }

    fn get(&self, i: u32) -> &T {
        &self.items[i as usize]
    }
}

/// The typing context of a typed stream: the class table and the pool's
/// fixed `Γ`. `None` when type guidance is off (no node is typed, and no
/// candidate is narrowed away).
type Typing<'a> = Option<(&'a ClassTable, &'a Gamma)>;

/// The request's typing context under the pool's `Γ`.
fn typing<'a>(q: &GuardQuery<'a>, gamma: &'a Gamma) -> Typing<'a> {
    q.opts.guidance.types.then_some((&q.env.table, gamma))
}

/// The guard pool's hash-consing arena.
///
/// Nodes are interned by `(kind, child ids)`, so interning a node costs
/// one hash of a few words, whatever the depth of the tree below it. The
/// stream only ever contains literals, variables, holes, calls and hash
/// literals: typed-hole fills are never sequences, effect holes or
/// binders. That is also why each node can be typed once, from its
/// children's stored types: with no binder in the stream, `Γ` is the
/// pool's fixed parameter environment for the node's whole life, so the
/// type `infer_ty` would give the subtree never changes.
#[derive(Default)]
struct NodeArena {
    nodes: Vec<Node>,
    kids: Vec<NodeId>,
    /// First node per `(kind, children)` hash; collisions chain through
    /// [`Node::next`].
    heads: HashMap<u64, NodeId, FxBuild>,
    values: Table<Value>,
    tys: Table<Ty>,
    keys: Table<Vec<Symbol>>,
    /// Node types (ids into `tys`), keyed by a node's kind and its
    /// children's types (see [`NodeArena::type_of`]).
    ty_memo: HashMap<Vec<u32>, u32, FxBuild>,
    /// Scratch child list for [`NodeArena::with_kid`].
    buf: Vec<NodeId>,
    /// Scratch key for `ty_memo`.
    key: Vec<u32>,
}

impl NodeArena {
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    fn kids_of(&self, n: &Node) -> &[NodeId] {
        kids_in(&self.kids, n)
    }

    fn has_hole(&self, id: NodeId) -> bool {
        let n = self.node(id);
        n.hole != NO_HOLE || matches!(n.kind, Kind::Hole(_))
    }

    fn ty(&self, id: NodeId) -> Option<&Ty> {
        let t = self.node(id).ty;
        (t != NONE).then(|| self.tys.get(t))
    }

    /// The node `(kind, kids)`, created (and typed under `typing`) on
    /// first sight.
    fn intern(&mut self, kind: Kind, kids: &[NodeId], typing: Typing<'_>) -> NodeId {
        let mut h = FxHasher::default();
        kind.hash(&mut h);
        kids.hash(&mut h);
        let id = NodeId::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        let next = match self.heads.entry(h.finish()) {
            Entry::Occupied(mut head) => {
                let mut at = *head.get();
                while at != NONE {
                    let n = &self.nodes[at as usize];
                    if n.kind == kind && kids_in(&self.kids, n) == kids {
                        return at;
                    }
                    at = n.next;
                }
                std::mem::replace(head.get_mut(), id)
            }
            Entry::Vacant(head) => {
                head.insert(id);
                NONE
            }
        };
        let arity = u16::try_from(kids.len()).expect("a node has fewer than 2^16 children");
        let hole = kids
            .iter()
            .position(|&k| self.has_hole(k))
            .map_or(NO_HOLE, |i| i as u16);
        let size = 1 + kids.iter().map(|&k| self.node(k).size).sum::<u32>();
        let ty = match typing {
            Some((table, gamma)) => self.type_of(kind, kids, table, gamma),
            None => NONE,
        };
        self.nodes.push(Node {
            kind,
            kids: u32::try_from(self.kids.len()).expect("fewer than 2^32 child slots"),
            arity,
            hole,
            size,
            ty,
            next,
        });
        self.kids.extend_from_slice(kids);
        id
    }

    /// Types a new node from its children's stored types, by the same
    /// rules [`crate::infer::infer_ty`] applies recursively. A node's type
    /// depends only on its kind and its children's types, and few such
    /// combinations occur, so the rules run once per combination.
    fn type_of(&mut self, kind: Kind, kids: &[NodeId], table: &ClassTable, gamma: &Gamma) -> u32 {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(kind.words());
        key.extend(kids.iter().map(|&k| self.node(k).ty));
        let t = match self.ty_memo.get(key.as_slice()) {
            Some(&t) => t,
            None => {
                let ty = match kind {
                    Kind::Lit(v) => Some(ty_of_value(table, self.values.get(v))),
                    Kind::Var(x) => var_ty(gamma, x),
                    Kind::Hole(t) => Some(hole_ty(self.tys.get(t))),
                    Kind::Call(meth) => self.ty(kids[0]).and_then(|recv| {
                        app_ty(table, recv, meth, kids[1..].iter().map(|&k| self.ty(k)))
                    }),
                    Kind::Hash(keys) => hash_ty(
                        self.keys
                            .get(keys)
                            .iter()
                            .zip(kids)
                            .map(|(&key, &k)| (key, self.ty(k))),
                    ),
                };
                let t = ty.map_or(NONE, |t| self.tys.id(t));
                self.ty_memo.insert(key.clone(), t);
                t
            }
        };
        self.key = key;
        t
    }

    /// Interns a typed-hole fill.
    ///
    /// # Panics
    ///
    /// On a sequence, conditional, binder, boolean connective or effect
    /// hole: typed-hole fills are literals, variables, holes, calls and
    /// hash literals, and the arena's per-node typing relies on it.
    fn node_of(&mut self, e: &Expr, typing: Typing<'_>) -> NodeId {
        match e {
            Expr::Lit(v) => {
                let v = self.values.id(v.clone());
                self.intern(Kind::Lit(v), &[], typing)
            }
            Expr::Var(x) => self.intern(Kind::Var(*x), &[], typing),
            Expr::Hole(t) => {
                let t = self.tys.id(t.clone());
                self.intern(Kind::Hole(t), &[], typing)
            }
            Expr::Call { recv, meth, args } => {
                let kids: Vec<NodeId> = std::iter::once(&**recv)
                    .chain(args)
                    .map(|a| self.node_of(a, typing))
                    .collect();
                self.intern(Kind::Call(*meth), &kids, typing)
            }
            Expr::HashLit(entries) => {
                let keys = self.keys.id(entries.iter().map(|(k, _)| *k).collect());
                let kids: Vec<NodeId> = entries
                    .iter()
                    .map(|(_, v)| self.node_of(v, typing))
                    .collect();
                self.intern(Kind::Hash(keys), &kids, typing)
            }
            other => panic!(
                "guard-stream invariant violated: typed-hole fills are literals, variables, \
                 holes, calls and hash literals, got `{}`",
                other.compact()
            ),
        }
    }

    /// `parent` with its child `slot` replaced by `child`.
    fn with_kid(&mut self, parent: NodeId, slot: u16, child: NodeId, typing: Typing<'_>) -> NodeId {
        let mut buf = std::mem::take(&mut self.buf);
        let n = self.node(parent);
        let kind = n.kind;
        buf.clear();
        buf.extend_from_slice(self.kids_of(n));
        buf[slot as usize] = child;
        let id = self.intern(kind, &buf, typing);
        self.buf = buf;
        id
    }

    /// The node as an expression tree.
    fn to_expr(&self, id: NodeId) -> Expr {
        let n = self.node(id);
        let kids = self.kids_of(n);
        match n.kind {
            Kind::Lit(v) => Expr::Lit(self.values.get(v).clone()),
            Kind::Var(x) => Expr::Var(x),
            Kind::Hole(t) => Expr::Hole(self.tys.get(t).clone()),
            Kind::Call(meth) => Expr::Call {
                recv: Box::new(self.to_expr(kids[0])),
                meth,
                args: kids[1..].iter().map(|&k| self.to_expr(k)).collect(),
            },
            Kind::Hash(keys) => Expr::HashLit(
                self.keys
                    .get(keys)
                    .iter()
                    .zip(kids)
                    .map(|(&key, &k)| (key, self.to_expr(k)))
                    .collect(),
            ),
        }
    }
}

/// The children of `n` in the arena's child list.
fn kids_in<'a>(kids: &'a [NodeId], n: &Node) -> &'a [NodeId] {
    &kids[n.kids as usize..n.kids as usize + n.arity as usize]
}

/// A set of node ids, one bit each.
#[derive(Default)]
struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Adds `id`; `false` when it was already present.
    fn insert(&mut self, id: NodeId) -> bool {
        let (w, m) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let fresh = self.0[w] & m == 0;
        self.0[w] |= m;
        fresh
    }
}

/// The call-template source for the pool's fill lists. Each goal's list
/// is built once and kept as nodes, so there is nothing to memoize.
struct Unmemoized;

impl TemplateStore for Unmemoized {
    fn templates(&self, _key: String, compute: &mut dyn FnMut() -> Vec<Expr>) -> Arc<Vec<Expr>> {
        Arc::new(compute())
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
/// The pool is deterministic by construction: the candidate stream is the
/// same oracle-independent enumeration every per-request search performed
/// (same expander, same template lists, same frontier order, same
/// dedup), so [`GuardPool::nth_covering_guard`] returns byte-identical
/// guards in byte-identical order — it just never re-enumerates or
/// re-judges anything, and it is **lazy twice over**: the stream extends
/// only as far as the deepest request needs, and a request only scans far
/// enough to answer the guard index the merge actually consumes. The old
/// eager per-request search burned its worst time hunting alternatives
/// #2–#5 plus a 300-pop tail for an odometer that rarely turns; here that
/// work is deferred until a failed validation actually asks for it.
pub struct GuardPool {
    ready: bool,
    checks: Vec<CheckSlot>,
    /// Words per bitvector plane: `⌈|specs| / 64⌉`.
    nwords: usize,
    frontier: Option<Frontier<NodeId>>,
    /// Candidates already enumerated (the dedup filter).
    seen: NodeSet,
    gamma: Option<Gamma>,
    pops: u64,
    exhausted: bool,
    cands: Vec<GuardCand>,
    /// Per-request lazy scan state.
    reqs: HashMap<ReqKey, ReqState, FxBuild>,
    /// Bitvectors for ad-hoc expressions (the merge's quick candidates and
    /// rule-6/7 negation guesses), keyed structurally.
    extra_bits: HashMap<Expr, Bits, FxBuild>,
    /// Pool-private hash-consing arena: the enumeration pipeline never
    /// touches the shared cache, so the stream is identical with and
    /// without it — and lock-free either way.
    arena: NodeArena,
    /// Expansion lists of holes and interior nodes (see
    /// [`GuardPool::expansions`]). Sound because the guard stream contains
    /// no binders: the pool's `Γ` is fixed for its whole lifetime, so a
    /// node's expansions never change.
    expansions: HashMap<NodeId, Arc<[NodeId]>, FxBuild>,
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
            gamma: None,
            pops: 0,
            exhausted: false,
            cands: Vec::new(),
            reqs: HashMap::default(),
            extra_bits: HashMap::default(),
            arena: NodeArena::default(),
            expansions: HashMap::default(),
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
        let gamma = self.gamma.insert(Gamma::from_params(q.params));
        let root = self.arena.node_of(&Expr::Hole(Ty::Bool), typing(q, gamma));
        let mut frontier = Frontier::new();
        frontier.push(0, 1, root);
        self.frontier = Some(frontier);
    }

    /// Advances the shared enumeration by one work-list pop, recording
    /// evaluable candidates (unjudged) and re-enqueueing partial ones —
    /// the exact loop body of the per-request search, minus S-Eff (guard
    /// oracles never report effects, so it could never fire), run
    /// entirely against pool-local state: expansion, type narrowing and
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
        // A popped candidate is never popped again, so its own list is not
        // memoized; the lists of its subtrees are.
        let children = self.expand(node, q);
        stats.expanded += children.len() as u64;
        let frontier = self.frontier.as_mut().expect("pool is ready");
        for &id in children.iter() {
            // Type narrowing, as in `expand_compute` — same filter, same
            // order, read off the node's stored type.
            if q.opts.guidance.types && self.arena.ty(id).is_none() {
                continue;
            }
            if !self.seen.insert(id) {
                stats.deduped += 1;
                continue;
            }
            let size = self.arena.node(id).size as usize;
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

    /// `node` with its leftmost hole filled in every way the expander
    /// offers, in the expander's order — what `Expander::expand_first`
    /// returns for the node's tree. A hole's list is the expander's fill
    /// list for `□:τ` under the pool's `Γ`; any other node's list is its
    /// leftmost-hole child's list with each entry put back in place, one
    /// intern per entry.
    fn expand(&mut self, node: NodeId, q: &GuardQuery<'_>) -> Arc<[NodeId]> {
        let n = self.arena.node(node);
        let (kind, slot) = (n.kind, n.hole);
        if let Kind::Hole(goal) = kind {
            let hole = Expr::Hole(self.arena.tys.get(goal).clone());
            let gamma = self.gamma.as_mut().expect("pool is ready");
            let fills = Expander::new(&q.env.table, q.opts, &Unmemoized)
                .expand_first(&hole, gamma)
                .expect("a hole always expands");
            let typing = typing(q, gamma);
            return fills
                .iter()
                .map(|e| self.arena.node_of(e, typing))
                .collect();
        }
        let child = self.arena.kids_of(n)[slot as usize];
        let subs = self.expansions(child, q);
        let typing = typing(q, self.gamma.as_ref().expect("pool is ready"));
        subs.iter()
            .map(|&sub| self.arena.with_kid(node, slot, sub, typing))
            .collect()
    }

    /// [`GuardPool::expand`], memoized: the subtrees below the popped
    /// candidates recur across many of them.
    fn expansions(&mut self, node: NodeId, q: &GuardQuery<'_>) -> Arc<[NodeId]> {
        if let Some(list) = self.expansions.get(&node) {
            return Arc::clone(list);
        }
        let list = self.expand(node, q);
        self.expansions.insert(node, Arc::clone(&list));
        list
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
    /// latches — once a request is done, its guard list is final, exactly
    /// like the one-shot search it replaces.
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
                        // partial list (the eager search returned it).
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
    /// (`pos` truthy, `neg` falsy) under the request cap `k` — the same
    /// guard, in the same position, that the eager per-request search
    /// would have put at index `n` of its result list. Scans lazily: a
    /// merge that validates on the first guard never pays for the
    /// alternatives.
    ///
    /// # Panics
    ///
    /// Panics when a requested spec's own setup raises — that is a suite
    /// bug, not a candidate failure (same contract as `GuardOracle::new`).
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

    /// Eagerly materializes the ordered covering guards of a request, up
    /// to `k` — [`search_guards`] semantics served from the pool. Tests
    /// and one-shot callers use this; the merge goes through the lazy
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
    use crate::cache::CacheHandle;
    use crate::expand::simplify;
    use crate::infer::infer_ty;
    use crate::options::Guidance;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::ExprArena;
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
    fn trivial_guard_is_true() {
        let (env, _) = env_with_post();
        let s = call_spec("s", vec![]);
        let mut stats = SearchStats::default();
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&s],
            &[],
            &[],
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(g.compact(), "true");
    }

    #[test]
    fn known_negations_are_tried_first() {
        let (env, post) = env_with_post();
        let seeded = call_spec(
            "seeded",
            vec![SetupStep::Exec(call(cls(post), "create", [hash([])]))],
        );
        let empty = call_spec("empty", vec![]);
        let known = vec![call(cls(post), "exists?", [])];
        let mut stats = SearchStats::default();
        // Guard for `empty` against `seeded`: !Post.exists? — found via the
        // negation fast path without search.
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&empty],
            &[&seeded],
            &known,
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(g.compact(), "!Post.exists?");
        assert!(stats.popped == 0, "no search was needed");
    }

    #[test]
    fn searches_when_quick_candidates_fail() {
        let (env, post) = env_with_post();
        let alice = call_spec(
            "alice",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        let mut stats = SearchStats::default();
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&alice],
            &[&empty],
            &[],
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        // Any Post-emptiness test works (`Post.count.positive?`,
        // `Post.exists?(…)`); verify semantically.
        assert!(g.compact().contains("Post."), "got {}", g.compact());
        let oracle = GuardOracle::new(&env, &[&alice], &[&empty]);
        let p = Program::new("m", [], g);
        assert!(oracle.test(&env, &p).success);
    }

    #[test]
    fn search_guards_returns_alternatives() {
        let (env, post) = env_with_post();
        let alice = call_spec(
            "alice",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        let oracle = GuardOracle::new(&env, &[&alice], &[&empty]);
        let mut stats = SearchStats::default();
        let gs = search_guards(
            &env,
            "m",
            &[],
            &oracle,
            4,
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert!(gs.len() >= 2, "expected several guards, got {gs:?}");
        // All of them pass the oracle.
        for g in &gs {
            let p = Program::new("m", [], g.clone());
            assert!(oracle.test(&env, &p).success, "bad guard {}", g.compact());
        }
        // And they are distinct.
        let mut keys: Vec<String> = gs.iter().map(|g| g.compact()).collect();
        keys.dedup();
        assert_eq!(keys.len(), gs.len());
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
        // Reference: the eager per-request search.
        let oracle = GuardOracle::new(&env, &[&specs[0]], &[&specs[1]]);
        let mut ref_stats = SearchStats::default();
        let reference = search_guards(
            &env,
            "m",
            &[],
            &oracle,
            4,
            &opts,
            &Scheduler::sequential(),
            &mut ref_stats,
        )
        .unwrap();
        // Pool: same guards, same order — eager and lazy agree.
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = pool.covering_guards(&q, &[0], &[1], 4, &mut stats).unwrap();
        assert_eq!(
            pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            reference.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            "pool covering must reproduce the per-request search"
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
    /// pool engine (spilled words) must answer it; the eager per-request
    /// search is kept only as the reference.
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
        // Reference: the eager per-request search on the same request.
        let oracle = GuardOracle::new(&env, &[&specs[0]], &[&specs[64]]);
        let mut ref_stats = SearchStats::default();
        let reference = search_guards(
            &env,
            "m",
            &[],
            &oracle,
            4,
            &opts,
            &Scheduler::sequential(),
            &mut ref_stats,
        )
        .unwrap();
        assert!(!reference.is_empty(), "a separating guard exists");

        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = pool
            .covering_guards(&q, &[0], &[64], 4, &mut stats)
            .unwrap();
        assert_eq!(
            pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            reference.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            "the unified engine must reproduce the per-request search"
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

    /// The whole-tree pipeline the node arena replaced, kept as the
    /// reference it must reproduce: expand the tree, simplify it, type it
    /// whole, hash-cons it whole. Also returns the first duplicate and
    /// every narrowing rejection, in order.
    fn reference_stream(
        q: &GuardQuery<'_>,
        max_pops: u64,
    ) -> (Stream, Option<String>, Vec<String>) {
        let store = CacheHandle::private();
        let expander = Expander::new(&q.env.table, q.opts, &store);
        let mut gamma = Gamma::from_params(q.params);
        let mut arena = ExprArena::new();
        let mut seen = HashSet::new();
        let mut frontier = Frontier::new();
        frontier.push(0, 1, arena.intern(Expr::Hole(Ty::Bool)));
        let (mut out, mut first_dup, mut rejected) = (Stream::default(), None, Vec::new());
        while out.popped < max_pops {
            let Some(id) = frontier.pop() else { break };
            out.popped += 1;
            let e = Arc::clone(arena.get(id));
            let subs = expander
                .expand_first(&e, &mut gamma)
                .expect("a popped candidate has a hole");
            out.expanded += subs.len() as u64;
            for sub in subs {
                let sub = simplify(sub);
                if q.opts.guidance.types && infer_ty(&q.env.table, &mut gamma, &sub).is_none() {
                    rejected.push(sub.compact());
                    continue;
                }
                let id = arena.intern(sub);
                if !seen.insert(id) {
                    out.deduped += 1;
                    first_dup.get_or_insert_with(|| arena.get(id).compact());
                    continue;
                }
                let (size, evaluable) = arena.meta(id);
                if evaluable {
                    out.cands.push((arena.get(id).compact(), out.popped));
                } else if size <= q.opts.max_guard_size {
                    frontier.push(0, size, id);
                }
            }
        }
        (out, first_dup, rejected)
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
            let (reference, first_dup, rejections) = reference_stream(&q, POPS);
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

    #[test]
    #[should_panic(expected = "guard-stream invariant")]
    fn fills_outside_the_stream_grammar_are_a_bug() {
        NodeArena::default().node_of(&seq([int(1), int(2)]), None);
    }
}
