//! The node arena: the one candidate representation both searches
//! enumerate in.
//!
//! Phase-1 `generate` (method bodies) and the guard pool (branch
//! conditions) run the same type-guided enumeration of Algorithm 2. Both
//! keep their candidates here: a candidate is a hash-consed node, a
//! [`Kind`] plus the ids of its children, so interning a node costs one
//! hash of a few words whatever the depth of the tree below it. A child
//! candidate shares all of its parent but the path from its root to the
//! filled hole, so building it interns only that path; each new node is
//! typed once from its children's stored types, and an [`Expr`] tree is
//! built only when something (the interpreter, a returned solution)
//! needs one.
//!
//! **Scopes.** A hole's fill list depends on the typing environment `Γ`
//! it sits in: `Γ` supplies the S-Var candidates and the receiver seeds of
//! the call templates. `Γ` is the method's parameters plus any S-Eff
//! `let` binder in scope, so the arena hash-conses environments into a
//! table and every hole kind carries its `Γ`-id. A variable's kind carries
//! its type, so one shared node never has two types. Both are fixed when
//! the node is made, which is what lets a node's type and its expansion
//! list be computed once.
//!
//! **Normal form.** Sequences are only ever built by [`NodeArena::seq`],
//! which applies [`crate::expand::simplify`]'s rules to the new child
//! list, so every node is already simplified and the whole-tree
//! `simplify` pass has nothing left to do.
//!
//! **Interned when popped.** A search pops far fewer candidates than it
//! pushes, so expanding a popped call, hash literal or `let` interns
//! nothing new at the top: [`NodeArena::children`] returns the memoized
//! fill list of its leftmost-hole child, and a child is pushed as the
//! 8-byte [`Entry`] `(parent, sub)`, sized and hole-checked exactly
//! without a node. [`NodeArena::admit`] interns, type-narrows and
//! deduplicates a partial child when it is popped, and an evaluable one
//! when it is produced. Children of a hole or a sequence are interned at
//! expansion, since sequence normalization can change their size.

use crate::expand::Expander;
use crate::infer::{app_ty, hash_ty, ty_of_value, var_ty, Gamma};
use rbsyn_lang::{EffectSet, Expr, FxBuild, FxHasher, Symbol, Ty, Value};
use rbsyn_ty::ClassTable;
use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Id of a node in a [`NodeArena`].
pub(crate) type NodeId = u32;

/// "Absent" in a node's index fields: no type derivation, end of a hash
/// chain.
const NONE: u32 = u32::MAX;

/// [`Node::hole`] of a node with no hole below it.
const NO_HOLE: u16 = u16::MAX;

/// A frontier entry `(parent, sub)`: the child `sub` makes of `parent`
/// (see [`NodeArena::child`]), not yet interned, narrowed or deduplicated;
/// or, with the parent [`CHECKED`], the node `sub` itself.
pub(crate) type Entry = (NodeId, NodeId);

/// The parent of an [`Entry`] whose `sub` is a node already admitted to
/// the search: the root, an S-Eff wrap, or a pop the deadline rolled
/// back.
pub(crate) const CHECKED: NodeId = NONE;

/// What a node is, apart from its children. Each payload is a [`Symbol`]
/// or an index into one of the arena's side tables, so a kind hashes and
/// compares as a few words.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// A literal (index into [`NodeArena::values`]).
    Lit(u32),
    /// A variable and its type (index into [`NodeArena::tys`]), or
    /// [`NONE`] when it is unbound or the arena is untyped.
    Var(Symbol, u32),
    /// A typed hole: its type and its `Γ` (indices into
    /// [`NodeArena::tys`] and [`NodeArena::gammas`]).
    Hole(u32, u32),
    /// An effect hole: its effect and its `Γ` (indices into
    /// [`NodeArena::effects`] and [`NodeArena::gammas`]).
    EffHole(u32, u32),
    /// A call; the children are the receiver, then the arguments.
    Call(Symbol),
    /// A hash literal (index into [`NodeArena::keys`]); the children are
    /// the values, in key order.
    Hash(u32),
    /// A statement sequence of at least two children, none of them a
    /// sequence and none but the last `nil`.
    Seq,
    /// `let var = kids[0] in kids[1]`.
    Let(Symbol),
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
    /// when it has no derivation or the arena is untyped.
    ty: u32,
    /// Next node whose `(kind, children)` hash is equal, or [`NONE`].
    next: u32,
}

/// Dense ids for the few distinct values, types, key lists, effects and
/// environments a search uses.
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

/// The class table new nodes are typed against, or `None` when type
/// guidance is off (no node is typed, and no candidate is narrowed away).
pub(crate) type Typing<'a> = Option<&'a ClassTable>;

/// The typing an expander's options ask for.
pub(crate) fn typing<'a>(ex: &Expander<'a>) -> Typing<'a> {
    ex.opts.guidance.types.then_some(ex.table)
}

/// A search's hash-consing arena (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct NodeArena {
    nodes: Vec<Node>,
    kids: Vec<NodeId>,
    /// First node per `(kind, children)` hash; collisions chain through
    /// [`Node::next`].
    heads: HashMap<u64, NodeId, FxBuild>,
    values: Table<Value>,
    tys: Table<Ty>,
    keys: Table<Vec<Symbol>>,
    effects: Table<EffectSet>,
    gammas: Table<Gamma>,
    /// Call and hash-literal types (ids into `tys`), keyed by the kind and
    /// the children's types (see [`NodeArena::type_of`]).
    ty_memo: HashMap<Vec<u32>, u32, FxBuild>,
    /// Expansion lists of every node expanded as a subtree (see
    /// [`NodeArena::expand`]).
    expansions: HashMap<NodeId, Arc<[NodeId]>, FxBuild>,
    /// Scratch child list for [`NodeArena::with_kid`].
    buf: Vec<NodeId>,
    /// Scratch child list for [`NodeArena::seq`].
    flat: Vec<NodeId>,
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

    /// Does the subtree contain a typed or an effect hole?
    pub(crate) fn has_hole(&self, id: NodeId) -> bool {
        let n = self.node(id);
        n.hole != NO_HOLE || matches!(n.kind, Kind::Hole(..) | Kind::EffHole(..))
    }

    /// AST node count of the subtree.
    pub(crate) fn size(&self, id: NodeId) -> usize {
        self.node(id).size as usize
    }

    /// The subtree's type, or `None` when it has no derivation or the
    /// arena is untyped.
    pub(crate) fn ty(&self, id: NodeId) -> Option<&Ty> {
        let t = self.node(id).ty;
        (t != NONE).then(|| self.tys.get(t))
    }

    /// Nodes interned so far.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The id of environment `gamma`, interned on first sight.
    pub(crate) fn gamma(&mut self, gamma: Gamma) -> u32 {
        self.gammas.id(gamma)
    }

    /// The node `(kind, kids)`, created (and typed) on first sight.
    fn intern(&mut self, kind: Kind, kids: &[NodeId], typing: Typing<'_>) -> NodeId {
        let mut h = FxHasher::default();
        kind.hash(&mut h);
        // One word per child. Hashed as a byte slice, two ids share a
        // word, and FxHash carries a word's high half only into the hash's
        // high bits, which the table does not index by: the `let` wraps of
        // one failing candidate, which differ only in their body, then all
        // probed the same few slots.
        for &k in kids {
            h.write_u32(k);
        }
        let id = NodeId::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        let next = match self.heads.entry(h.finish()) {
            Slot::Occupied(mut head) => {
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
            Slot::Vacant(head) => {
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
            Some(table) => self.type_of(kind, kids, table),
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

    /// Types a new node from its children's stored types, by the rules
    /// [`crate::infer::infer_ty`] applies recursively: a sequence has its
    /// last child's type, a `let` its body's, an effect hole `Obj`. Call
    /// and hash-literal types depend only on the kind and the children's
    /// types, and few such combinations occur, so those rules run once per
    /// combination.
    fn type_of(&mut self, kind: Kind, kids: &[NodeId], table: &ClassTable) -> u32 {
        let ty = |k: NodeId| self.node(k).ty;
        let tag = match kind {
            // T-Var and T-Hole: the type the kind carries.
            Kind::Var(_, t) | Kind::Hole(t, _) => return t,
            Kind::Seq if kids.iter().all(|&k| ty(k) != NONE) => return ty(kids[kids.len() - 1]),
            Kind::Let(_) if ty(kids[0]) != NONE => return ty(kids[1]),
            Kind::Seq | Kind::Let(_) => return NONE,
            Kind::Lit(v) => {
                let t = ty_of_value(table, self.values.get(v));
                return self.tys.id(t);
            }
            Kind::EffHole(..) => return self.tys.id(Ty::Obj),
            Kind::Call(meth) => [0, meth.index()],
            Kind::Hash(keys) => [1, keys],
        };
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(tag);
        key.extend(kids.iter().map(|&k| self.node(k).ty));
        let t = match self.ty_memo.get(key.as_slice()) {
            Some(&t) => t,
            None => {
                let derived = match kind {
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
                    _ => unreachable!("only calls and hash literals reach the memo"),
                };
                let t = derived.map_or(NONE, |t| self.tys.id(t));
                self.ty_memo.insert(key.clone(), t);
                t
            }
        };
        self.key = key;
        t
    }

    /// The typed hole `□:τ` in scope `g`.
    pub(crate) fn hole(&mut self, t: &Ty, g: u32, typing: Typing<'_>) -> NodeId {
        let t = self.tys.id(t.clone());
        self.intern(Kind::Hole(t, g), &[], typing)
    }

    /// The effect hole `◇:ε` in scope `g`.
    pub(crate) fn eff_hole(&mut self, eps: &EffectSet, g: u32, typing: Typing<'_>) -> NodeId {
        let e = self.effects.id(eps.clone());
        self.intern(Kind::EffHole(e, g), &[], typing)
    }

    /// `let var = val in body`.
    pub(crate) fn let_(
        &mut self,
        var: Symbol,
        val: NodeId,
        body: NodeId,
        typing: Typing<'_>,
    ) -> NodeId {
        self.intern(Kind::Let(var), &[val, body], typing)
    }

    /// The sequence of `items`, in [`crate::expand::simplify`]'s normal
    /// form: child sequences are spliced in, non-final `nil`s dropped, a
    /// single survivor stands for itself and no survivor is `nil`. The
    /// result need not be a sequence node.
    pub(crate) fn seq(&mut self, items: &[NodeId], typing: Typing<'_>) -> NodeId {
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        for &k in items {
            let n = self.node(k);
            if n.kind == Kind::Seq {
                flat.extend_from_slice(self.kids_of(n));
            } else {
                flat.push(k);
            }
        }
        let last = flat.len().saturating_sub(1);
        let mut i = 0;
        flat.retain(|&k| {
            let keep = i == last || !self.is_nil(k);
            i += 1;
            keep
        });
        let id = match flat.as_slice() {
            [] => {
                let v = self.values.id(Value::Nil);
                self.intern(Kind::Lit(v), &[], typing)
            }
            [one] => *one,
            many => {
                let many = many.to_vec();
                self.intern(Kind::Seq, &many, typing)
            }
        };
        self.flat = flat;
        id
    }

    fn is_nil(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, Kind::Lit(v) if *self.values.get(v) == Value::Nil)
    }

    /// Interns a hole fill whose holes all sit in scope `g`.
    ///
    /// # Panics
    ///
    /// On a conditional, binder or boolean connective: hole fills are
    /// literals, variables, holes, calls, hash literals and sequences, and
    /// the arena's per-node scopes rely on it.
    pub(crate) fn node_of(&mut self, e: &Expr, g: u32, typing: Typing<'_>) -> NodeId {
        match e {
            Expr::Lit(v) => {
                let v = self.values.id(v.clone());
                self.intern(Kind::Lit(v), &[], typing)
            }
            Expr::Var(x) => {
                let t = match typing {
                    Some(_) => var_ty(self.gammas.get(g), *x).map_or(NONE, |t| self.tys.id(t)),
                    None => NONE,
                };
                self.intern(Kind::Var(*x, t), &[], typing)
            }
            Expr::Hole(t) => self.hole(t, g, typing),
            Expr::EffHole(eps) => self.eff_hole(eps, g, typing),
            Expr::Call { recv, meth, args } => {
                let kids: Vec<NodeId> = std::iter::once(&**recv)
                    .chain(args)
                    .map(|a| self.node_of(a, g, typing))
                    .collect();
                self.intern(Kind::Call(*meth), &kids, typing)
            }
            Expr::HashLit(entries) => {
                let keys = self.keys.id(entries.iter().map(|(k, _)| *k).collect());
                let kids: Vec<NodeId> = entries
                    .iter()
                    .map(|(_, v)| self.node_of(v, g, typing))
                    .collect();
                self.intern(Kind::Hash(keys), &kids, typing)
            }
            Expr::Seq(es) => {
                let kids: Vec<NodeId> = es.iter().map(|e| self.node_of(e, g, typing)).collect();
                self.seq(&kids, typing)
            }
            other => panic!(
                "hole-fill invariant violated: fills are literals, variables, holes, calls, \
                 hash literals and sequences, got `{}`",
                other.compact()
            ),
        }
    }

    /// `parent` with its child `slot` replaced by `child`. A sequence is
    /// rebuilt through [`NodeArena::seq`], so the result may be a node of
    /// another kind.
    fn with_kid(&mut self, parent: NodeId, slot: u16, child: NodeId, typing: Typing<'_>) -> NodeId {
        let mut buf = std::mem::take(&mut self.buf);
        let n = self.node(parent);
        let kind = n.kind;
        buf.clear();
        buf.extend_from_slice(self.kids_of(n));
        buf[slot as usize] = child;
        let id = if kind == Kind::Seq {
            self.seq(&buf, typing)
        } else {
            self.intern(kind, &buf, typing)
        };
        self.buf = buf;
        id
    }

    /// The node as an expression tree.
    pub(crate) fn to_expr(&self, id: NodeId) -> Expr {
        let n = self.node(id);
        let kids = self.kids_of(n);
        match n.kind {
            Kind::Lit(v) => Expr::Lit(self.values.get(v).clone()),
            Kind::Var(x, _) => Expr::Var(x),
            Kind::Hole(t, _) => Expr::Hole(self.tys.get(t).clone()),
            Kind::EffHole(e, _) => Expr::EffHole(self.effects.get(e).clone()),
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
            Kind::Seq => Expr::Seq(kids.iter().map(|&k| self.to_expr(k)).collect()),
            Kind::Let(var) => Expr::Let {
                var,
                val: Box::new(self.to_expr(kids[0])),
                body: Box::new(self.to_expr(kids[1])),
            },
        }
    }

    /// The children of the popped candidate `node`, in the expander's
    /// order — what `Expander::expand_first` returns for the node's tree,
    /// simplified — as [`Entry`] subs of `node`. For a call, hash literal
    /// or `let`, the subs are the memoized fill list of its leftmost-hole
    /// child and no child is interned; for a hole or a sequence, they are
    /// the interned children.
    ///
    /// The candidate is never popped again, so its own list is not kept;
    /// the lists of its subtrees, which recur across many candidates, are.
    pub(crate) fn children(&mut self, node: NodeId, ex: &Expander<'_>) -> Children {
        let n = self.node(node);
        if !matches!(n.kind, Kind::Call(_) | Kind::Hash(_) | Kind::Let(_)) {
            let subs = self.expand(node, ex);
            return Children {
                subs,
                base: 0,
                rest_hole: false,
            };
        }
        debug_assert_ne!(n.hole, NO_HOLE, "only a node with a hole expands");
        let kids = self.kids_of(n);
        let slot = n.hole as usize;
        let child = kids[slot];
        let rest_hole = kids[slot + 1..].iter().any(|&k| self.has_hole(k));
        let base = n.size - self.node(child).size;
        Children {
            subs: self.expansions(child, ex),
            base,
            rest_hole,
        }
    }

    /// The child the [`Entry`] `(parent, sub)` stands for, interned now:
    /// `parent` with its leftmost-hole child replaced by `sub` for a call,
    /// hash literal or `let`, else `sub` itself.
    fn child(&mut self, parent: NodeId, sub: NodeId, typing: Typing<'_>) -> NodeId {
        let n = self.node(parent);
        match n.kind {
            Kind::Call(_) | Kind::Hash(_) | Kind::Let(_) => {
                self.with_kid(parent, n.hole, sub, typing)
            }
            _ => sub,
        }
    }

    /// Admits `entry` to the search: the node it stands for, interned, or
    /// `None` when type narrowing rejects it (only when `typing` is set)
    /// or `seen` already holds it (counted in `deduped`). A [`CHECKED`]
    /// entry's node is admitted as is.
    pub(crate) fn admit(
        &mut self,
        (parent, sub): Entry,
        typing: Typing<'_>,
        seen: &mut NodeSet,
        deduped: &mut u64,
    ) -> Option<NodeId> {
        if parent == CHECKED {
            return Some(sub);
        }
        let id = self.child(parent, sub, typing);
        if typing.is_some() && self.ty(id).is_none() {
            return None;
        }
        if !seen.insert(id) {
            *deduped += 1;
            return None;
        }
        Some(id)
    }

    /// `node` with its leftmost hole filled in every way the expander
    /// offers, in the expander's order. A hole's list is the expander's
    /// fill list for the hole under its own `Γ`; any other node's list is
    /// its leftmost-hole child's list with each entry put back in place,
    /// one intern per entry.
    fn expand(&mut self, node: NodeId, ex: &Expander<'_>) -> Arc<[NodeId]> {
        let typing = typing(ex);
        let n = self.node(node);
        let (kind, slot) = (n.kind, n.hole);
        let (hole, g) = match kind {
            Kind::Hole(t, g) => (Expr::Hole(self.tys.get(t).clone()), g),
            Kind::EffHole(e, g) => (Expr::EffHole(self.effects.get(e).clone()), g),
            _ => {
                debug_assert_ne!(slot, NO_HOLE, "only a node with a hole expands");
                let child = self.kids_of(n)[slot as usize];
                let subs = self.expansions(child, ex);
                return subs
                    .iter()
                    .map(|&sub| self.with_kid(node, slot, sub, typing))
                    .collect();
            }
        };
        let mut gamma = self.gammas.get(g).clone();
        let fills = ex
            .expand_first(&hole, &mut gamma)
            .expect("a hole always expands");
        fills.iter().map(|e| self.node_of(e, g, typing)).collect()
    }

    /// [`NodeArena::expand`], memoized.
    fn expansions(&mut self, node: NodeId, ex: &Expander<'_>) -> Arc<[NodeId]> {
        if let Some(list) = self.expansions.get(&node) {
            return Arc::clone(list);
        }
        let list = self.expand(node, ex);
        self.expansions.insert(node, Arc::clone(&list));
        list
    }
}

/// A popped candidate's children before any is interned (see
/// [`NodeArena::children`]).
pub(crate) struct Children {
    /// The [`Entry`] subs, in the expander's order.
    pub(crate) subs: Arc<[NodeId]>,
    /// The parent's size less its leftmost-hole child's, or 0 when the
    /// subs are the children themselves.
    base: u32,
    /// Has the parent a hole right of its leftmost-hole child?
    rest_hole: bool,
}

impl Children {
    /// AST node count of the child `sub` makes.
    pub(crate) fn size(&self, arena: &NodeArena, sub: NodeId) -> usize {
        (self.base + arena.node(sub).size) as usize
    }

    /// Does the child `sub` makes contain a hole?
    pub(crate) fn has_hole(&self, arena: &NodeArena, sub: NodeId) -> bool {
        self.rest_hole || arena.has_hole(sub)
    }
}

/// The children of `n` in the arena's child list.
fn kids_in<'a>(kids: &'a [NodeId], n: &Node) -> &'a [NodeId] {
    &kids[n.kids as usize..n.kids as usize + n.arity as usize]
}

/// A set of node ids, one bit each.
#[derive(Default)]
pub(crate) struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Adds `id`; `false` when it was already present.
    pub(crate) fn insert(&mut self, id: NodeId) -> bool {
        let (w, m) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let fresh = self.0[w] & m == 0;
        self.0[w] |= m;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::simplify;
    use crate::infer::infer_ty;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;

    #[test]
    fn sequences_are_built_in_normal_form() {
        let mut arena = NodeArena::default();
        let g = arena.gamma(Gamma::new());
        let e = Expr::Seq(vec![nil(), Expr::Seq(vec![int(1), nil()]), int(2)]);
        let id = arena.node_of(&e, g, None);
        assert_eq!(arena.to_expr(id), simplify(e));
        let single = arena.node_of(&Expr::Seq(vec![nil(), int(3)]), g, None);
        assert_eq!(arena.to_expr(single).compact(), "3");
        let all_nil = arena.node_of(&Expr::Seq(vec![nil(), nil()]), g, None);
        assert_eq!(arena.to_expr(all_nil).compact(), "nil");
    }

    #[test]
    fn nodes_are_typed_as_their_trees() {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("title", Ty::Str)]);
        let table = b.finish().table;
        let mut arena = NodeArena::default();
        let g = arena.gamma(Gamma::from_params(&[(Symbol::intern("arg0"), Ty::Str)]));
        let first = call(cls(post), "first", []);
        let val = arena.node_of(&first, g, Some(&table));
        let mut inner = Gamma::from_params(&[(Symbol::intern("arg0"), Ty::Str)]);
        inner.bind(Symbol::intern("t0"), Ty::Instance(post));
        let g1 = arena.gamma(inner);
        let body = arena.node_of(
            &seq([effhole(EffectSet::star()), call(var("t0"), "title", [])]),
            g1,
            Some(&table),
        );
        let wrapped = arena.let_(Symbol::intern("t0"), val, body, Some(&table));
        let e = arena.to_expr(wrapped);
        let mut gamma = Gamma::from_params(&[(Symbol::intern("arg0"), Ty::Str)]);
        assert_eq!(arena.ty(wrapped), infer_ty(&table, &mut gamma, &e).as_ref());
        assert_eq!(arena.ty(wrapped), Some(&Ty::Str));
        assert_eq!(arena.size(wrapped), rbsyn_lang::metrics::node_count(&e));
        assert!(arena.has_hole(wrapped));
    }

    #[test]
    #[should_panic(expected = "hole-fill invariant")]
    fn fills_outside_the_fill_grammar_are_a_bug() {
        let mut arena = NodeArena::default();
        let g = arena.gamma(Gamma::new());
        arena.node_of(&if_(true_(), int(1), int(2)), g, None);
    }
}
