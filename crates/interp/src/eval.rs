//! Expression evaluation (the standard rules the paper omits, plus
//! E-MethCall effect collection from Fig. 10).

use crate::error::RuntimeError;
use crate::world::{InterpEnv, WorldState};
use rbsyn_lang::{EffectPair, Expr, Program, Symbol, Value};
use rbsyn_ty::MethodKind;
use std::time::Instant;

/// Lexically scoped local variables (a shadowing stack; lookups scan from
/// the innermost binding outward).
#[derive(Clone, Debug, Default)]
pub struct Locals {
    vars: Vec<(Symbol, Value)>,
}

impl Locals {
    /// Empty scope.
    pub fn new() -> Locals {
        Locals::default()
    }

    /// Binds a variable (shadows any outer binding of the same name).
    pub fn bind(&mut self, name: Symbol, v: Value) {
        self.vars.push((name, v));
    }

    /// Innermost binding of `name`.
    pub fn get(&self, name: Symbol) -> Option<&Value> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Current stack depth, for scope save/restore around `let` bodies.
    pub fn mark(&self) -> usize {
        self.vars.len()
    }

    /// Pops bindings down to a previous mark.
    pub fn release(&mut self, mark: usize) {
        self.vars.truncate(mark);
    }
}

/// Default per-run evaluation step budget. Candidates are tiny; this only
/// guards against pathological interactions.
const DEFAULT_FUEL: u64 = 1_000_000;

/// How many evaluation steps pass between hard-deadline checks. A power
/// of two so the check is a mask, not a division; small enough that a
/// hard-cancelled evaluation dies within microseconds of its deadline,
/// large enough that each step pays one branch and each stride one clock
/// read.
pub const INTERRUPT_CHECK_STRIDE: u64 = 1024;

/// A single-run evaluator over a [`WorldState`].
pub struct Evaluator<'a> {
    /// Environment (annotations + natives).
    pub env: &'a InterpEnv,
    /// The run's mutable state.
    pub state: &'a mut WorldState,
    /// While `Some`, every method call unions its annotation into the pair
    /// (E-MethCall); enabled during postcondition asserts.
    pub tracker: Option<EffectPair>,
    fuel: u64,
}

impl<'a> Evaluator<'a> {
    /// Builds an evaluator with the default fuel budget.
    pub fn new(env: &'a InterpEnv, state: &'a mut WorldState) -> Evaluator<'a> {
        Evaluator::with_fuel(env, state, DEFAULT_FUEL)
    }

    /// Builds an evaluator with an explicit fuel budget — used by callers
    /// that split one logical run across several evaluators (the traced
    /// spec runner pauses between phases to fingerprint the state) and
    /// must keep the run's total budget identical to a single-evaluator
    /// run.
    pub fn with_fuel(env: &'a InterpEnv, state: &'a mut WorldState, fuel: u64) -> Evaluator<'a> {
        Evaluator {
            env,
            state,
            tracker: None,
            fuel,
        }
    }

    /// Fuel remaining in this evaluator's budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    fn burn(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::FuelExhausted);
        }
        self.fuel -= 1;
        // Hard-deadline check on the eval hot path: a run whose hard
        // deadline passed is aborted mid-candidate, not just between
        // candidates.
        if self.fuel & (INTERRUPT_CHECK_STRIDE - 1) == 0 {
            if let Some(deadline) = self.env.hard_deadline() {
                if Instant::now() >= deadline {
                    return Err(RuntimeError::Interrupted);
                }
            }
        }
        Ok(())
    }

    /// Evaluates an expression under the given locals.
    ///
    /// # Errors
    ///
    /// Any Ruby-level failure (missing method, unbound variable, hole) is
    /// reported as a [`RuntimeError`]; the search treats erroring candidates
    /// as rejected.
    pub fn eval(&mut self, locals: &mut Locals, e: &Expr) -> Result<Value, RuntimeError> {
        rbsyn_lang::failpoint::hit("interp::eval");
        self.burn()?;
        match e {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(x) => locals.get(*x).cloned().ok_or(RuntimeError::UnboundVar(*x)),
            Expr::Seq(es) => {
                let mut last = Value::Nil;
                for e in es {
                    last = self.eval(locals, e)?;
                }
                Ok(last)
            }
            Expr::Call { recv, meth, args } => {
                let recv_v = self.eval(locals, recv)?;
                let mut arg_vs = Vec::with_capacity(args.len());
                for a in args {
                    arg_vs.push(self.eval(locals, a)?);
                }
                self.call_method(&recv_v, *meth, &arg_vs)
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(locals, cond)?;
                if c.truthy() {
                    self.eval(locals, then)
                } else {
                    self.eval(locals, els)
                }
            }
            Expr::Let { var, val, body } => {
                let v = self.eval(locals, val)?;
                let mark = locals.mark();
                locals.bind(*var, v);
                let out = self.eval(locals, body);
                locals.release(mark);
                out
            }
            Expr::HashLit(entries) => {
                let mut h = Vec::with_capacity(entries.len());
                for (k, ve) in entries {
                    let v = self.eval(locals, ve)?;
                    h.push((Value::Sym(*k), v));
                }
                Ok(Value::Hash(h))
            }
            Expr::Not(b) => {
                let v = self.eval(locals, b)?;
                Ok(Value::Bool(!v.truthy()))
            }
            Expr::Or(a, b) => {
                let va = self.eval(locals, a)?;
                if va.truthy() {
                    Ok(va)
                } else {
                    self.eval(locals, b)
                }
            }
            Expr::Hole(_) | Expr::EffHole(_) => Err(RuntimeError::HoleEvaluated),
        }
    }

    /// Dispatches a method call: singleton dispatch for `Class` receivers,
    /// instance dispatch (walking the superclass chain) otherwise. Unions
    /// the callee's effect annotation into the tracker when tracking.
    pub fn call_method(
        &mut self,
        recv: &Value,
        name: Symbol,
        args: &[Value],
    ) -> Result<Value, RuntimeError> {
        self.burn()?;
        let (class, kind) = match recv {
            Value::Class(c) => (*c, MethodKind::Singleton),
            other => {
                let c = self
                    .env
                    .value_class(self.state, other)
                    .expect("non-class values always have a class");
                (c, MethodKind::Instance)
            }
        };
        let native = self.env.find_native(class, kind, name).cloned();
        let Some(native) = native else {
            let class_name = self.env.table.hierarchy.name(class).as_str().to_owned();
            let class_name = match kind {
                MethodKind::Singleton => format!("{class_name} (class)"),
                MethodKind::Instance => class_name,
            };
            return Err(RuntimeError::NoMethod { class_name, name });
        };
        // E-MethCall: union the annotation (resolved at the dispatch class,
        // at the configured precision) into the collected effects.
        if self.tracker.is_some() {
            if let Some((mref, _)) = self.env.table.lookup(class, kind, name) {
                let eff = self.env.table.effect_of(mref, class);
                if let Some(t) = &mut self.tracker {
                    t.union_in_place(&eff);
                }
            }
        }
        native(self.env, self.state, recv, args)
    }

    /// Calls a synthesized program with argument values (the `x_r = P(e)`
    /// form in spec setups).
    pub fn call_program(&mut self, p: &Program, args: Vec<Value>) -> Result<Value, RuntimeError> {
        if p.params.len() != args.len() {
            return Err(RuntimeError::ArgCount {
                name: p.name,
                expected: p.params.len(),
                got: args.len(),
            });
        }
        let mut locals = Locals::new();
        for (param, v) in p.params.iter().zip(args) {
            locals.bind(*param, v);
        }
        self.eval(&mut locals, &p.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::InterpEnv;
    use rbsyn_db::Database;
    use rbsyn_lang::builder::*;
    use rbsyn_lang::Ty;
    use rbsyn_lang::{Effect, EffectSet};
    use rbsyn_ty::{ClassHierarchy, ClassTable, EnumerateAt, MethodSig, RetSpec};
    use std::sync::Arc;

    fn plain_env() -> InterpEnv {
        let h = ClassHierarchy::new();
        InterpEnv::new(ClassTable::new(h), Database::new())
    }

    #[test]
    fn literals_vars_and_seq() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        locals.bind(Symbol::intern("x"), Value::Int(7));
        assert_eq!(ev.eval(&mut locals, &int(3)).unwrap(), Value::Int(3));
        assert_eq!(ev.eval(&mut locals, &var("x")).unwrap(), Value::Int(7));
        assert_eq!(
            ev.eval(&mut locals, &seq([int(1), int(2)])).unwrap(),
            Value::Int(2)
        );
        assert!(matches!(
            ev.eval(&mut locals, &var("missing")),
            Err(RuntimeError::UnboundVar(_))
        ));
    }

    #[test]
    fn hard_deadline_aborts_a_running_eval() {
        use std::time::Duration;
        // A long sequence guarantees the evaluator crosses at least one
        // stride boundary before finishing.
        let steps: Vec<_> = (0..2 * INTERRUPT_CHECK_STRIDE).map(|_| int(1)).collect();
        let e = seq(steps);
        let mut env = plain_env();
        env.set_hard_deadline(Instant::now() - Duration::from_secs(1));
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        assert_eq!(
            ev.eval(&mut Locals::new(), &e),
            Err(RuntimeError::Interrupted),
            "a passed deadline kills the eval at a stride check"
        );
        // A future deadline: the same program completes with fuel to spare.
        env.set_hard_deadline(Instant::now() + Duration::from_secs(600));
        let mut ev = Evaluator::new(&env, &mut state);
        assert_eq!(ev.eval(&mut Locals::new(), &e).unwrap(), Value::Int(1));
    }

    #[test]
    fn conditionals_use_truthiness() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        assert_eq!(
            ev.eval(&mut locals, &if_(nil(), int(1), int(2))).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            ev.eval(&mut locals, &if_(int(0), int(1), int(2))).unwrap(),
            Value::Int(1),
            "0 is truthy"
        );
    }

    #[test]
    fn let_scoping_shadows_and_restores() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        locals.bind(Symbol::intern("x"), Value::Int(1));
        let e = let_("x", int(2), var("x"));
        assert_eq!(ev.eval(&mut locals, &e).unwrap(), Value::Int(2));
        assert_eq!(locals.get(Symbol::intern("x")), Some(&Value::Int(1)));
    }

    #[test]
    fn guards_and_hashes() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        assert_eq!(
            ev.eval(&mut locals, &not(nil())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ev.eval(&mut locals, &or(false_(), int(5))).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            ev.eval(&mut locals, &or(int(1), var("boom"))).unwrap(),
            Value::Int(1),
            "|| short-circuits"
        );
        let h = ev.eval(&mut locals, &hash([("a", int(1))])).unwrap();
        assert_eq!(h.hash_get(&Value::sym("a")), Some(&Value::Int(1)));
    }

    #[test]
    fn holes_refuse_to_evaluate() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        assert!(matches!(
            ev.eval(&mut locals, &hole(Ty::Int)),
            Err(RuntimeError::HoleEvaluated)
        ));
    }

    #[test]
    fn missing_methods_error() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let mut locals = Locals::new();
        let e = call(nil(), "title", []);
        match ev.eval(&mut locals, &e) {
            Err(RuntimeError::NoMethod { class_name, .. }) => {
                assert_eq!(class_name, "NilClass")
            }
            other => panic!("expected NoMethod, got {other:?}"),
        }
    }

    #[test]
    fn program_calls_bind_params() {
        let env = plain_env();
        let mut state = WorldState::fresh(&env);
        let mut ev = Evaluator::new(&env, &mut state);
        let p = Program::new("m", ["a", "b"], var("b"));
        assert_eq!(
            ev.call_program(&p, vec![Value::Int(1), Value::Int(2)])
                .unwrap(),
            Value::Int(2)
        );
        assert!(matches!(
            ev.call_program(&p, vec![Value::Int(1)]),
            Err(RuntimeError::ArgCount { .. })
        ));
    }

    #[test]
    fn tracking_unions_call_annotations() {
        let mut h = ClassHierarchy::new();
        let post = h.define("Post", None);
        let mut table = ClassTable::new(h);
        let region = EffectSet::single(Effect::Region(post, Symbol::intern("title")));
        table.define_method(
            post,
            MethodSig {
                name: Symbol::intern("title"),
                kind: rbsyn_ty::MethodKind::Instance,
                ret: RetSpec::Static {
                    params: vec![],
                    ret: Ty::Str,
                },
                effect: EffectPair::new(region.clone(), EffectSet::pure_()),
            },
            EnumerateAt::OwnerOnly,
        );
        let mut env = InterpEnv::new(table, Database::new());
        env.register_native(
            post,
            rbsyn_ty::MethodKind::Instance,
            "title",
            Arc::new(|_, _, _, _| Ok(Value::str("t"))),
        );
        let mut state = WorldState::fresh(&env);
        let obj = state.alloc(crate::world::ObjData {
            class: post,
            ivars: Default::default(),
            row: None,
        });
        let mut ev = Evaluator::new(&env, &mut state);
        ev.tracker = Some(EffectPair::pure_());
        let mut locals = Locals::new();
        locals.bind(Symbol::intern("p"), Value::Obj(obj));
        ev.eval(&mut locals, &call(var("p"), "title", [])).unwrap();
        assert_eq!(ev.tracker.as_ref().unwrap().read, region);
        // Without tracking, nothing is collected.
        ev.tracker = None;
        ev.eval(&mut locals, &call(var("p"), "title", [])).unwrap();
        assert!(ev.tracker.is_none());
    }
}
