//! The deadline watchdog: hard cancellation for runs stuck past their
//! budget.
//!
//! [`Options::timeout`](crate::Options) is a *cooperative* deadline — the
//! work-list loop polls [`Scheduler::should_stop`](super::Scheduler) every
//! few pops. That poll never runs while the interpreter is inside one
//! long candidate evaluation (a pathological native, an injected delay),
//! so a stuck eval could overrun the budget indefinitely. The
//! [`Watchdog`] closes that gap: a detached thread sleeps until the
//! budget times a grace factor ([`GRACE`] for every synthesis run) has
//! elapsed, then sets a kill flag that is checked in two places —
//!
//! * [`Scheduler::should_stop`](super::Scheduler::should_stop), so the
//!   search loop stops at its next poll;
//! * the evaluator's fuel counter (every
//!   [`rbsyn_interp::eval::INTERRUPT_CHECK_STRIDE`] steps), so even a
//!   run *inside* one evaluation aborts with
//!   [`rbsyn_interp::RuntimeError::Interrupted`].
//!
//! Either way the run surfaces as [`SynthError::Timeout`]
//! (exit code 4): the watchdog only ever fires *after* the cooperative
//! deadline, so it converts "stuck past the budget" into the same
//! observable outcome as "stopped at the budget" — it can never change
//! the result of a run that respects its deadline, which is what keeps
//! the determinism gates indifferent to its existence.
//!
//! [`SynthError::Timeout`]: crate::SynthError::Timeout
//!
//! The watchdog thread takes no pipeline locks — it owns a private
//! mutex/condvar pair for its own disarm signal and otherwise touches
//! only atomics — so it sits outside the lock hierarchy entirely (see
//! CONCURRENCY.md).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The grace factor every synthesis run arms its watchdog with: a run
/// still going at four times its budget is hard-cancelled.
pub const GRACE: f64 = 4.0;

/// A one-shot hard-cancellation timer for a synthesis run. Dropping the
/// watchdog disarms it (the run finished in time) and joins its thread.
pub struct Watchdog {
    fired: Arc<AtomicBool>,
    disarm: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog that sets its kill flag once `budget × grace` has
    /// elapsed. `grace` is clamped to at least 1.0 so the hard deadline
    /// can never precede the cooperative one. A product past
    /// [`Duration::MAX`] saturates, and a deadline [`Instant`] cannot
    /// represent never fires.
    pub fn arm(budget: Duration, grace: f64) -> Watchdog {
        let hard = Duration::try_from_secs_f64(budget.as_secs_f64() * grace.max(1.0))
            .unwrap_or(Duration::MAX);
        let fired = Arc::new(AtomicBool::new(false));
        let disarm = Arc::new((Mutex::new(false), Condvar::new()));
        let (t_fired, t_disarm) = (Arc::clone(&fired), Arc::clone(&disarm));
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*t_disarm;
            let deadline = Instant::now().checked_add(hard);
            let mut disarmed = lock.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if *disarmed {
                    return;
                }
                let Some(deadline) = deadline else {
                    disarmed = cvar.wait(disarmed).unwrap_or_else(|p| p.into_inner());
                    continue;
                };
                let now = Instant::now();
                if now >= deadline {
                    t_fired.store(true, Ordering::Relaxed);
                    return;
                }
                let (g, _timeout) = cvar
                    .wait_timeout(disarmed, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                disarmed = g;
            }
        });
        Watchdog {
            fired,
            disarm,
            handle: Some(handle),
        }
    }

    /// The kill flag, shared with the scheduler and the interpreter
    /// environment.
    pub fn kill_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fired)
    }

    /// Has the hard deadline passed?
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.disarm;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            // The thread exits promptly after the disarm signal; a panic
            // inside it (it has nothing that panics) would be harmless.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_the_grace_deadline() {
        let dog = Watchdog::arm(Duration::from_millis(10), 2.0);
        let flag = dog.kill_flag();
        assert!(!dog.fired(), "freshly armed");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(dog.fired());
    }

    #[test]
    fn disarm_on_drop_is_prompt_and_silent() {
        let dog = Watchdog::arm(Duration::from_secs(3600), 4.0);
        let flag = dog.kill_flag();
        drop(dog); // must not wait out the hour
        assert!(!flag.load(Ordering::Relaxed), "disarmed, never fired");
    }

    #[test]
    fn unrepresentable_deadlines_never_fire() {
        let dog = Watchdog::arm(Duration::MAX, 4.0);
        let flag = dog.kill_flag();
        std::thread::sleep(Duration::from_millis(5));
        drop(dog);
        assert!(!flag.load(Ordering::Relaxed), "disarmed, never fired");
    }

    #[test]
    fn grace_below_one_is_clamped() {
        // With grace 0 the hard deadline equals the budget itself.
        let dog = Watchdog::arm(Duration::from_millis(5), 0.0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(dog.fired());
    }
}
