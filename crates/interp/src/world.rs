//! Worlds: the immutable interpretation environment and the mutable
//! per-run state.

use crate::error::RuntimeError;
use rbsyn_db::{Database, RowId, TableId};
use rbsyn_lang::{unordered_obs_fold, ClassId, ObjRef, ObsHasher, Symbol, Value};
use rbsyn_ty::{ClassTable, MethodKind};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Implementation of a native (library) method.
///
/// Natives are leaf operations — database queries, string/integer
/// primitives, accessor reads/writes — so they receive the environment and
/// raw state rather than a full evaluator.
pub type NativeImpl = Arc<
    dyn Fn(&InterpEnv, &mut WorldState, &Value, &[Value]) -> Result<Value, RuntimeError>
        + Send
        + Sync,
>;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct NativeKey(ClassId, MethodKind, Symbol);

/// The immutable interpretation environment: type-and-effect annotations
/// (the class table `CT`), native method bodies, model↔table bindings, and
/// the pristine database every run starts from.
#[derive(Clone)]
pub struct InterpEnv {
    /// Class table with annotations; also owns the class hierarchy.
    pub table: ClassTable,
    natives: HashMap<NativeKey, NativeImpl>,
    models: HashMap<ClassId, TableId>,
    /// Database template cloned into every fresh [`WorldState`].
    pub db_template: Database,
    /// Hard deadline: once it passes, evaluators over this environment
    /// abort with [`RuntimeError::Interrupted`] at their next stride
    /// check (see [`crate::eval::Evaluator`]). `None` (the default) costs
    /// nothing on the eval path beyond the stride branch.
    hard_deadline: Option<Instant>,
}

impl InterpEnv {
    /// Builds an environment over a class table and a database template.
    pub fn new(table: ClassTable, db_template: Database) -> InterpEnv {
        InterpEnv {
            table,
            natives: HashMap::new(),
            models: HashMap::new(),
            db_template,
            hard_deadline: None,
        }
    }

    /// Sets a hard deadline: evaluation under this environment aborts
    /// with [`RuntimeError::Interrupted`] soon after it passes, even
    /// mid-candidate. The synthesizer sets the run's hard deadline here
    /// before it builds the spec oracles.
    pub fn set_hard_deadline(&mut self, deadline: Instant) {
        self.hard_deadline = Some(deadline);
    }

    /// The hard deadline, if any.
    pub fn hard_deadline(&self) -> Option<Instant> {
        self.hard_deadline
    }

    /// Registers the body of a method; the annotation must be registered
    /// separately in the class table (they are looked up independently so
    /// annotation precision never changes behaviour, §5.4).
    pub fn register_native(
        &mut self,
        owner: ClassId,
        kind: MethodKind,
        name: &str,
        body: NativeImpl,
    ) {
        self.natives
            .insert(NativeKey(owner, kind, Symbol::intern(name)), body);
    }

    /// Finds the body for `name` on `class`, walking the superclass chain.
    pub fn find_native(
        &self,
        class: ClassId,
        kind: MethodKind,
        name: Symbol,
    ) -> Option<&NativeImpl> {
        for c in self.table.hierarchy.ancestry(class) {
            if let Some(n) = self.natives.get(&NativeKey(c, kind, name)) {
                return Some(n);
            }
        }
        None
    }

    /// Binds a model class to its backing table.
    pub fn register_model(&mut self, class: ClassId, table: TableId) {
        self.models.insert(class, table);
    }

    /// Backing table of a model class, walking the superclass chain (STI-
    /// style lookup; in practice each model has its own table).
    pub fn model_table(&self, class: ClassId) -> Option<TableId> {
        for c in self.table.hierarchy.ancestry(class) {
            if let Some(t) = self.models.get(&c) {
                return Some(*t);
            }
        }
        None
    }

    /// The runtime class of a value (`Class` values dispatch as singletons
    /// and have no instance class here).
    pub fn value_class(&self, state: &WorldState, v: &Value) -> Option<ClassId> {
        let h = &self.table.hierarchy;
        Some(match v {
            Value::Nil => h.nil_class(),
            Value::Bool(_) => h.boolean(),
            Value::Int(_) => h.integer(),
            Value::Str(_) => h.string(),
            Value::Sym(_) => h.symbol(),
            Value::Hash(_) => h.hash(),
            Value::Array(_) => h.array(),
            Value::Obj(r) => state.obj(*r).class,
            Value::Class(_) => return None,
        })
    }
}

/// A heap object `[A]`: its class, instance variables, and — for model
/// instances — the database row it fronts.
#[derive(Clone, Debug)]
pub struct ObjData {
    /// Class of the object.
    pub class: ClassId,
    /// Instance variables (non-model state).
    pub ivars: HashMap<Symbol, Value>,
    /// Model binding: reads/writes of column accessors go through this row.
    pub row: Option<(TableId, RowId)>,
}

/// A copy-on-write object heap.
///
/// A prepared spec's snapshot heap is *frozen* into the shared `base`; a
/// candidate run clones the heap (one `Arc` bump), allocates new objects
/// into `extra`, and mutations of base objects land in the `dirty` overlay
/// — so forking the heap for a run never copies the snapshot's objects,
/// and a run's footprint is exactly what it touched.
#[derive(Clone, Default)]
struct Heap {
    /// Frozen snapshot slots, shared between all forks.
    base: Arc<Vec<ObjData>>,
    /// Slots allocated after the freeze (`base.len()..`).
    extra: Vec<ObjData>,
    /// Copy-on-write overlay for mutated base slots.
    dirty: HashMap<u32, ObjData>,
}

impl Heap {
    fn len(&self) -> usize {
        self.base.len() + self.extra.len()
    }

    fn get(&self, i: usize) -> &ObjData {
        if i < self.base.len() {
            self.dirty.get(&(i as u32)).unwrap_or_else(|| &self.base[i])
        } else {
            &self.extra[i - self.base.len()]
        }
    }

    fn get_mut(&mut self, i: usize) -> &mut ObjData {
        if i < self.base.len() {
            let base = &self.base;
            self.dirty
                .entry(i as u32)
                .or_insert_with(|| base[i].clone())
        } else {
            let off = self.base.len();
            &mut self.extra[i - off]
        }
    }

    fn push(&mut self, data: ObjData) -> usize {
        self.extra.push(data);
        self.len() - 1
    }

    /// Collapses overlay and extras into a fresh shared base, so clones of
    /// this heap fork in O(1).
    fn freeze(&mut self) {
        if self.dirty.is_empty() && self.extra.is_empty() {
            return;
        }
        let mut flat: Vec<ObjData> = Vec::with_capacity(self.len());
        for i in 0..self.base.len() {
            flat.push(self.get(i).clone());
        }
        flat.append(&mut self.extra);
        self.dirty.clear();
        self.base = Arc::new(flat);
    }
}

/// The mutable per-run state: a database snapshot, a heap, and globals.
///
/// Built fresh from the environment before each candidate run. Both the
/// database and the heap are copy-on-write, so cloning a prepared
/// snapshot — the per-candidate fork on the oracle hot path — costs a few
/// refcount bumps plus the (usually empty) globals map.
#[derive(Clone)]
pub struct WorldState {
    /// The run's private database.
    pub db: Database,
    heap: Heap,
    /// Global key-value state (simulates app-level singletons like
    /// Discourse's site settings).
    pub globals: HashMap<Symbol, Value>,
}

impl WorldState {
    /// A fresh state from the environment's database template.
    pub fn fresh(env: &InterpEnv) -> WorldState {
        WorldState {
            db: env.db_template.clone(),
            heap: Heap::default(),
            globals: HashMap::new(),
        }
    }

    /// Allocates a heap object.
    pub fn alloc(&mut self, data: ObjData) -> ObjRef {
        ObjRef(self.heap.push(data) as u32)
    }

    /// Allocates a model instance fronting `row` of `table`.
    pub fn alloc_model(&mut self, class: ClassId, table: TableId, row: RowId) -> Value {
        let r = self.alloc(ObjData {
            class,
            ivars: HashMap::new(),
            row: Some((table, row)),
        });
        Value::Obj(r)
    }

    /// Shared access to a heap object.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a reference into this heap.
    pub fn obj(&self, r: ObjRef) -> &ObjData {
        self.heap.get(r.index())
    }

    /// Mutable access to a heap object (the heap's copy-on-write point).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a reference into this heap.
    pub fn obj_mut(&mut self, r: ObjRef) -> &mut ObjData {
        self.heap.get_mut(r.index())
    }

    /// The database row a model value fronts, if any.
    pub fn model_row(&self, v: &Value) -> Option<(TableId, RowId)> {
        match v {
            Value::Obj(r) => self.obj(*r).row,
            _ => None,
        }
    }

    /// Heap size (for tests).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Collapses copy-on-write layers so future clones of this state fork
    /// in O(1). Called once per prepared spec, after setup ran.
    pub fn freeze(&mut self) {
        self.heap.freeze();
    }

    /// Deterministic digest of this state's *divergence* from `base` (the
    /// snapshot it was forked from) — the state component of an evaluation
    /// vector.
    ///
    /// Copy-on-write makes this cheap *and* comparable: database tables
    /// and the heap base still shared with the snapshot digest as constant
    /// markers; only written tables, dirty heap slots, run-allocated
    /// objects and globals are content-hashed (identifiers by string, see
    /// [`ObsHasher`]). Two runs forked from the **same** snapshot get
    /// equal digests iff they left the world in the same observable state
    /// (modulo the false-*negative* of a run rewriting a table to its
    /// original contents, which can only make two equal behaviors compare
    /// unequal, never the reverse).
    pub fn obs_fingerprint(&self, base: &WorldState) -> u128 {
        let mut h = ObsHasher::new();
        h.put_u64(self.db.table_count() as u64);
        for i in 0..self.db.table_count() {
            let id = TableId(i as u32);
            if self.db.shares_table(&base.db, id) {
                h.put_u64(0);
            } else {
                h.put_u64(1);
                self.db.table(id).obs_hash(&mut h);
            }
        }
        if Arc::ptr_eq(&self.heap.base, &base.heap.base) {
            h.put_u64(0);
        } else {
            // Forked from a different snapshot: digest the full base. Runs
            // against the same prepared spec never take this branch.
            h.put_u64(1);
            h.put_u64(self.heap.base.len() as u64);
            for o in self.heap.base.iter() {
                obs_hash_obj(&mut h, o);
            }
        }
        let mut dirty: Vec<u32> = self.heap.dirty.keys().copied().collect();
        dirty.sort_unstable();
        h.put_u64(dirty.len() as u64);
        for i in dirty {
            h.put_u64(u64::from(i));
            obs_hash_obj(&mut h, &self.heap.dirty[&i]);
        }
        h.put_u64(self.heap.extra.len() as u64);
        for o in &self.heap.extra {
            obs_hash_obj(&mut h, o);
        }
        h.put_u128(unordered_obs_fold(self.globals.iter(), |h, (k, v)| {
            h.put_symbol(*k);
            h.put_value(v);
        }));
        h.finish128()
    }
}

/// Folds one heap object into an observation digest (ivar maps are
/// unordered, so they get the order-independent combine).
fn obs_hash_obj(h: &mut ObsHasher, o: &ObjData) {
    h.put_class(o.class);
    match o.row {
        Some((t, r)) => {
            h.put_u64(1);
            h.put_u64(u64::from(t.0));
            h.put_i64(r.0);
        }
        None => h.put_u64(0),
    }
    h.put_u128(unordered_obs_fold(o.ivars.iter(), |h, (k, v)| {
        h.put_symbol(*k);
        h.put_value(v);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_db::TableSchema;
    use rbsyn_ty::ClassHierarchy;

    fn env_with_post() -> (InterpEnv, ClassId, TableId) {
        let mut h = ClassHierarchy::new();
        let base = h.define("ActiveRecord::Base", None);
        let post = h.define("Post", Some(base));
        let table = ClassTable::new(h);
        let mut db = Database::new();
        let posts = db.create_table(TableSchema::new("posts", ["title"]));
        let mut env = InterpEnv::new(table, db);
        env.register_model(post, posts);
        (env, post, posts)
    }

    #[test]
    fn fresh_state_clones_template() {
        let (mut env, _, posts) = env_with_post();
        env.db_template
            .table_mut(posts)
            .insert(vec![(Symbol::intern("title"), Value::str("seeded"))]);
        let s1 = WorldState::fresh(&env);
        let mut s2 = WorldState::fresh(&env);
        s2.db.table_mut(posts).insert(vec![]);
        assert_eq!(s1.db.table(posts).len(), 1);
        assert_eq!(s2.db.table(posts).len(), 2);
        assert_eq!(WorldState::fresh(&env).db.table(posts).len(), 1);
    }

    #[test]
    fn model_alloc_binds_rows() {
        let (env, post, posts) = env_with_post();
        let mut state = WorldState::fresh(&env);
        let row = state.db.table_mut(posts).insert(vec![]);
        let v = state.alloc_model(post, posts, row);
        assert_eq!(state.model_row(&v), Some((posts, row)));
        assert_eq!(env.value_class(&state, &v), Some(post));
    }

    #[test]
    fn value_classes() {
        let (env, _, _) = env_with_post();
        let state = WorldState::fresh(&env);
        let h = &env.table.hierarchy;
        assert_eq!(env.value_class(&state, &Value::Nil), Some(h.nil_class()));
        assert_eq!(env.value_class(&state, &Value::Int(3)), Some(h.integer()));
        assert_eq!(env.value_class(&state, &Value::Class(h.hash())), None);
    }

    #[test]
    fn native_lookup_walks_ancestry() {
        let (mut env, post, _) = env_with_post();
        let base = env.table.hierarchy.find("ActiveRecord::Base").unwrap();
        env.register_native(
            base,
            MethodKind::Singleton,
            "exists?",
            Arc::new(|_, _, _, _| Ok(Value::Bool(true))),
        );
        assert!(env
            .find_native(post, MethodKind::Singleton, Symbol::intern("exists?"))
            .is_some());
        assert!(env
            .find_native(post, MethodKind::Instance, Symbol::intern("exists?"))
            .is_none());
    }

    #[test]
    fn model_table_walks_ancestry() {
        let (env, post, posts) = env_with_post();
        assert_eq!(env.model_table(post), Some(posts));
        let h = &env.table.hierarchy;
        assert_eq!(env.model_table(h.integer()), None);
    }

    #[test]
    fn frozen_heap_forks_are_isolated() {
        let (env, post, posts) = env_with_post();
        let mut snap = WorldState::fresh(&env);
        let row = snap.db.table_mut(posts).insert(vec![]);
        let v = snap.alloc_model(post, posts, row);
        snap.freeze();
        let Value::Obj(r) = v else { unreachable!() };
        // Two forks: one mutates the snapshot object, one allocates more.
        let mut a = snap.clone();
        a.obj_mut(r)
            .ivars
            .insert(Symbol::intern("x"), Value::Int(1));
        let mut b = snap.clone();
        let extra = b.alloc(ObjData {
            class: post,
            ivars: HashMap::new(),
            row: None,
        });
        assert_eq!(
            a.obj(r).ivars.get(&Symbol::intern("x")),
            Some(&Value::Int(1))
        );
        assert!(snap.obj(r).ivars.is_empty(), "the snapshot is untouched");
        assert!(b.obj(r).ivars.is_empty());
        assert_eq!(b.heap_len(), 2);
        assert_eq!(extra.index(), 1);
        assert_eq!(a.heap_len(), 1);
    }

    #[test]
    fn obs_fingerprint_separates_observable_outcomes() {
        let (env, post, posts) = env_with_post();
        let mut snap = WorldState::fresh(&env);
        let row = snap.db.table_mut(posts).insert(vec![]);
        snap.alloc_model(post, posts, row);
        snap.freeze();

        // An untouched fork digests like another untouched fork.
        let a = snap.clone();
        let b = snap.clone();
        assert_eq!(a.obs_fingerprint(&snap), b.obs_fingerprint(&snap));

        // Same mutation → same digest; different mutation → different.
        let title = Symbol::intern("title");
        let mut c = snap.clone();
        c.db.table_mut(posts).set(row, title, Value::str("X"));
        let mut d = snap.clone();
        d.db.table_mut(posts).set(row, title, Value::str("X"));
        let mut e = snap.clone();
        e.db.table_mut(posts).set(row, title, Value::str("Y"));
        assert_eq!(c.obs_fingerprint(&snap), d.obs_fingerprint(&snap));
        assert_ne!(c.obs_fingerprint(&snap), e.obs_fingerprint(&snap));
        assert_ne!(a.obs_fingerprint(&snap), c.obs_fingerprint(&snap));

        // Globals and fresh allocations are observable too.
        let mut g = snap.clone();
        g.globals.insert(Symbol::intern("flag"), Value::Bool(true));
        assert_ne!(a.obs_fingerprint(&snap), g.obs_fingerprint(&snap));
        let mut al = snap.clone();
        al.alloc(ObjData {
            class: post,
            ivars: HashMap::new(),
            row: None,
        });
        assert_ne!(a.obs_fingerprint(&snap), al.obs_fingerprint(&snap));
    }
}
