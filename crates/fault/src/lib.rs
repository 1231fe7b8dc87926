//! Deterministic fault injection for the training engine and the
//! serving front end.
//!
//! The fault-tolerance layer (durable checkpoints, divergence rollback,
//! panic containment, overload shedding) is only trustworthy if its
//! recovery paths run in CI on every change. This crate turns "what if
//! a task panics mid round" from a thought experiment into a
//! reproducible test input: a [`FaultPlan`] is a set of *armed* faults,
//! each naming a [`FaultKind`] and a [`Schedule`] over the driver's
//! monotone tick counter (the training-round counter for the engine,
//! the request id for the serving path). The engine, trainer and server
//! query the plan at well-defined injection sites; each armed fault
//! fires **at most once per tick** (an atomic claim), so a retried
//! round replays clean and recovery is observable as a deterministic
//! before/after.
//!
//! Three schedule shapes cover the soak benches:
//!
//! * [`Schedule::Once`] — fire exactly once, at one tick (the original
//!   fire-exactly-once arms of the training soak);
//! * [`Schedule::EveryN`] — recurring: fire at `start`, `start + n`,
//!   `start + 2n`, … (sustained-pressure soaks);
//! * [`Schedule::Chance`] — seeded-probabilistic: at tick `t`, fire iff
//!   a SplitMix64 hash of `(seed, t)` lands under the per-mille
//!   threshold. The firing *set* is a pure function of the seed, so a
//!   soak under probabilistic faults is still bit-reproducible.
//!
//! Threading is free: a plan is shared as `Arc<FaultPlan>` through
//! `TrainConfig`/`ServeConfig` and probed lock-free. When no plan is
//! configured the injection sites cost a single `Option` branch — zero
//! allocation, zero atomics — so production runs pay nothing.
//!
//! The fault classes mirror the failure modes the recovery designs must
//! contain:
//!
//! * [`FaultKind::TaskPanic`] — a scheduler task (or a serving
//!   request's compute) panics mid-flight (exercises panic containment
//!   + round poisoning / response poisoning),
//! * [`FaultKind::LeaseFail`] — a pooled buffer lease blows up
//!   (exercises RAII lease custody under unwinding),
//! * [`FaultKind::NanPoke`] — a non-finite value enters a gradient
//!   (exercises the health sentinels + checkpoint rollback),
//! * [`FaultKind::Crash`] — the process "dies" between rounds
//!   (exercises durable checkpoints + resume),
//! * [`FaultKind::SlowTask`] — a task stalls (exercises deadline
//!   expiry and that a slow request never blocks the batch behind it),
//! * [`FaultKind::RejectLease`] — a pooled lease is *refused* on the
//!   request path (exercises graceful typed rejection instead of a
//!   panic: the server must shed the request, not die).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::sync::atomic::{AtomicU64, Ordering};

/// The classes of fault the harness can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside a scheduler task (a forward task of the engine) or
    /// inside a serving request's compute.
    TaskPanic,
    /// Panic at a pooled-buffer lease site.
    LeaseFail,
    /// Overwrite one gradient value with NaN (no panic; the health
    /// sentinels must catch it downstream).
    NanPoke,
    /// Simulated process death between rounds: the trainer stops its
    /// loop without any orderly shutdown of the round state, as a
    /// `kill -9` would. Recovery is a fresh engine + `resume()`.
    Crash,
    /// A stalled task: the injection site sleeps before proceeding.
    /// The serving path uses this to force deadline expiry mid-volume
    /// deterministically.
    SlowTask,
    /// A refused pooled lease on the request path — unlike
    /// [`FaultKind::LeaseFail`] this must *not* unwind: the server
    /// sheds the affected request with a typed rejection and keeps
    /// serving.
    RejectLease,
}

impl FaultKind {
    /// Stable lowercase name, used in diagnostics and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::TaskPanic => "task_panic",
            FaultKind::LeaseFail => "lease_fail",
            FaultKind::NanPoke => "nan_poke",
            FaultKind::Crash => "crash",
            FaultKind::SlowTask => "slow_task",
            FaultKind::RejectLease => "reject_lease",
        }
    }
}

/// When an armed fault fires, over the driver's monotone tick counter
/// (training rounds for the engine, request ids for the server).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Fire exactly once, at this tick.
    Once(u64),
    /// Fire at `start`, `start + n`, `start + 2n`, …
    EveryN {
        /// First tick that fires.
        start: u64,
        /// Period between firings (≥ 1).
        n: u64,
    },
    /// At tick `t`, fire iff `hash(seed, t) % 1000 < permille`. The
    /// firing set is deterministic per `(seed, permille)`.
    Chance {
        /// Firing probability in thousandths (0–1000).
        permille: u16,
        /// Seed the per-tick hash is derived from.
        seed: u64,
    },
}

impl Schedule {
    /// Whether this schedule matches tick `tick` (ignoring claims).
    fn matches(&self, tick: u64) -> bool {
        match *self {
            Schedule::Once(at) => tick == at,
            Schedule::EveryN { start, n } => {
                tick >= start && (tick - start).is_multiple_of(n.max(1))
            }
            Schedule::Chance { permille, seed } => {
                splitmix(seed ^ tick.wrapping_mul(0xA24B_AED4_963E_E407)) % 1000
                    < u64::from(permille)
            }
        }
    }
}

/// One armed fault: a kind, its schedule, and the claim state.
///
/// `claimed` holds the last tick this arm fired at (`0` = never; ticks
/// are 1-based everywhere in the workspace). A recurring arm fires at
/// most once per matching tick — concurrent takers race on a CAS — and
/// a *retried* tick (the engine rewinds its round counter on rollback)
/// replays clean, because the claim for that tick is already taken.
#[derive(Debug)]
struct Arm {
    kind: FaultKind,
    schedule: Schedule,
    claimed: AtomicU64,
    fired: AtomicU64,
}

/// A deterministic set of armed faults, threaded through
/// `TrainConfig::faults` / the server config and probed by the
/// injection sites.
///
/// # Example
///
/// ```
/// use znn_fault::{FaultKind, FaultPlan, Schedule};
///
/// let plan = FaultPlan::new()
///     .task_panic_at(3)
///     .every_n(FaultKind::SlowTask, 2, 4); // ticks 2, 6, 10, …
/// assert!(!plan.take(FaultKind::TaskPanic, 2)); // wrong tick
/// assert!(plan.take(FaultKind::TaskPanic, 3));  // fires
/// assert!(!plan.take(FaultKind::TaskPanic, 3)); // exactly once
/// assert!(plan.take(FaultKind::SlowTask, 6));   // recurring
/// assert!(plan.take(FaultKind::SlowTask, 10));
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<Arm>,
}

impl FaultPlan {
    /// An empty plan (no faults). Arm it with the builder methods.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms a fault of `kind` under an arbitrary [`Schedule`].
    pub(crate) fn arm_schedule(mut self, kind: FaultKind, schedule: Schedule) -> Self {
        self.arms.push(Arm {
            kind,
            schedule,
            claimed: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Arms a fire-exactly-once fault of `kind` at tick `tick`
    /// (1-based; the engine's round counter or the server's request
    /// id).
    pub fn arm(self, kind: FaultKind, tick: u64) -> Self {
        self.arm_schedule(kind, Schedule::Once(tick))
    }

    /// Arms a recurring fault: fires at `start`, `start + n`,
    /// `start + 2n`, …
    pub fn every_n(self, kind: FaultKind, start: u64, n: u64) -> Self {
        assert!(n >= 1, "period must be >= 1");
        self.arm_schedule(kind, Schedule::EveryN { start, n })
    }

    /// Arms a seeded-probabilistic fault: at tick `t` it fires iff a
    /// hash of `(seed, t)` lands under `permille`/1000. Deterministic
    /// per seed.
    pub fn chance(self, kind: FaultKind, permille: u16, seed: u64) -> Self {
        assert!(permille <= 1000, "permille is a probability in 1/1000");
        self.arm_schedule(kind, Schedule::Chance { permille, seed })
    }

    /// Arms a [`FaultKind::TaskPanic`] at `round`.
    pub fn task_panic_at(self, round: u64) -> Self {
        self.arm(FaultKind::TaskPanic, round)
    }

    /// Arms a [`FaultKind::LeaseFail`] at `round`.
    pub fn lease_fail_at(self, round: u64) -> Self {
        self.arm(FaultKind::LeaseFail, round)
    }

    /// Arms a [`FaultKind::NanPoke`] at `round`.
    #[cfg(test)]
    pub(crate) fn nan_poke_at(self, round: u64) -> Self {
        self.arm(FaultKind::NanPoke, round)
    }

    /// Arms a [`FaultKind::Crash`] *after* `round` completes.
    pub fn crash_after(self, round: u64) -> Self {
        self.arm(FaultKind::Crash, round)
    }

    /// A seeded pseudo-random plan: `count` recoverable fire-once
    /// faults (never `Crash`) spread over rounds `1..=rounds`. The same
    /// `(seed, rounds, count)` always produces the same plan — what the
    /// `fault_soak` bench uses to stress recovery reproducibly.
    pub fn seeded(seed: u64, rounds: u64, count: usize) -> Self {
        let kinds = [FaultKind::TaskPanic, FaultKind::LeaseFail, FaultKind::NanPoke];
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let r = splitmix(seed.wrapping_add(i as u64));
            let kind = kinds[(r % 3) as usize];
            let round = 1 + (r >> 8) % rounds.max(1);
            plan = plan.arm(kind, round);
        }
        plan
    }

    /// Claims the armed fault of `kind` at tick `tick`, if any: returns
    /// `true` at most once per `(arm, tick)`. Injection sites call this
    /// and fire iff it returns `true`. A `Once` arm never fires a
    /// second time even at a different tick; recurring arms fire once
    /// per matching tick (retries of a claimed tick replay clean).
    pub fn take(&self, kind: FaultKind, tick: u64) -> bool {
        if tick == 0 {
            return false;
        }
        self.arms.iter().any(|a| {
            if a.kind != kind || !a.schedule.matches(tick) {
                return false;
            }
            if matches!(a.schedule, Schedule::Once(_))
                && a.fired.load(Ordering::Acquire) != 0
            {
                return false;
            }
            let won = a
                .claimed
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |last| {
                    (last != tick).then_some(tick)
                })
                .is_ok();
            if won {
                a.fired.fetch_add(1, Ordering::AcqRel);
            }
            won
        })
    }

    /// Whether an armed fault of `kind` can still fire at some future
    /// tick — used by drivers to pre-size retry budgets. `Once` arms
    /// stop pending after they fire; recurring arms always pend.
    pub fn pending(&self, kind: FaultKind) -> bool {
        self.arms.iter().any(|a| {
            a.kind == kind
                && (!matches!(a.schedule, Schedule::Once(_))
                    || a.fired.load(Ordering::Acquire) == 0)
        })
    }

    /// Total armed faults (fired or not).
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// True when the plan holds no arms at all.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// Total firings so far, across all arms (a recurring arm counts
    /// once per tick it fired at).
    pub fn fired(&self) -> usize {
        self.arms
            .iter()
            .map(|a| a.fired.load(Ordering::Acquire) as usize)
            .sum()
    }

    /// How many times the arms of `kind` have fired.
    pub fn fired_of(&self, kind: FaultKind) -> usize {
        self.arms
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.fired.load(Ordering::Acquire) as usize)
            .sum()
    }

    /// The `(kind, schedule)` of every armed fault, in arm order — lets
    /// a driver iterate the plan it is about to survive.
    pub fn arms(&self) -> Vec<(FaultKind, Schedule)> {
        self.arms.iter().map(|a| (a.kind, a.schedule)).collect()
    }

    /// The ticks in `1..=ticks` at which an arm of `kind` would fire,
    /// ignoring claims — the deterministic firing set a soak bench can
    /// size its assertions against.
    #[cfg(test)]
    pub(crate) fn firing_ticks(&self, kind: FaultKind, ticks: u64) -> Vec<u64> {
        (1..=ticks)
            .filter(|&t| {
                self.arms
                    .iter()
                    .any(|a| a.kind == kind && a.schedule.matches(t))
            })
            .collect()
    }
}

/// SplitMix64 — the same tiny deterministic generator the tensor ops
/// use for data, re-derived here so this crate stays dependency-free.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fires_exactly_once_at_the_armed_round() {
        let p = FaultPlan::new().task_panic_at(4);
        assert!(!p.take(FaultKind::TaskPanic, 3));
        assert!(!p.take(FaultKind::NanPoke, 4));
        assert!(p.take(FaultKind::TaskPanic, 4));
        assert!(!p.take(FaultKind::TaskPanic, 4), "must fire exactly once");
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn multiple_arms_of_one_kind_fire_independently() {
        let p = FaultPlan::new().nan_poke_at(2).nan_poke_at(5);
        assert!(p.take(FaultKind::NanPoke, 2));
        assert!(!p.take(FaultKind::NanPoke, 2));
        assert!(p.take(FaultKind::NanPoke, 5));
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn concurrent_takers_claim_exactly_once() {
        for _ in 0..50 {
            let p = Arc::new(FaultPlan::new().lease_fail_at(1));
            let claims: usize = (0..8)
                .map(|_| {
                    let p = Arc::clone(&p);
                    std::thread::spawn(move || p.take(FaultKind::LeaseFail, 1))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap() as usize)
                .sum();
            assert_eq!(claims, 1);
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(7, 10, 5);
        let b = FaultPlan::seeded(7, 10, 5);
        assert_eq!(a.arms(), b.arms());
        assert_eq!(a.len(), 5);
        assert!(a.arms().iter().all(|&(k, s)| {
            k != FaultKind::Crash
                && matches!(s, Schedule::Once(r) if (1..=10).contains(&r))
        }));
        let c = FaultPlan::seeded(8, 10, 5);
        assert_ne!(a.arms(), c.arms(), "different seeds differ");
    }

    #[test]
    fn pending_reflects_unfired_arms() {
        let p = FaultPlan::new().crash_after(3);
        assert!(p.pending(FaultKind::Crash));
        assert!(!p.pending(FaultKind::TaskPanic));
        assert!(p.take(FaultKind::Crash, 3));
        assert!(!p.pending(FaultKind::Crash));
    }

    #[test]
    fn every_n_fires_at_the_expected_ticks_only() {
        let p = FaultPlan::new().every_n(FaultKind::SlowTask, 3, 4);
        let fired: Vec<u64> = (1..=16).filter(|&t| p.take(FaultKind::SlowTask, t)).collect();
        assert_eq!(fired, vec![3, 7, 11, 15]);
        assert_eq!(p.firing_ticks(FaultKind::SlowTask, 16), vec![3, 7, 11, 15]);
        assert_eq!(p.fired(), 4);
        assert_eq!(p.fired_of(FaultKind::SlowTask), 4);
    }

    #[test]
    fn every_n_claims_once_per_tick_and_retries_replay_clean() {
        let p = FaultPlan::new().every_n(FaultKind::TaskPanic, 2, 2);
        assert!(p.take(FaultKind::TaskPanic, 2));
        // a rolled-back, retried tick must not re-fire
        assert!(!p.take(FaultKind::TaskPanic, 2));
        assert!(p.take(FaultKind::TaskPanic, 4));
        assert!(!p.take(FaultKind::TaskPanic, 3), "off-period tick");
    }

    #[test]
    fn chance_is_deterministic_per_seed() {
        let ticks = 2000;
        let a = FaultPlan::new().chance(FaultKind::RejectLease, 100, 42);
        let b = FaultPlan::new().chance(FaultKind::RejectLease, 100, 42);
        let fa = a.firing_ticks(FaultKind::RejectLease, ticks);
        let fb = b.firing_ticks(FaultKind::RejectLease, ticks);
        assert_eq!(fa, fb, "same seed, same firing set");
        // taking walks the identical set
        let taken: Vec<u64> = (1..=ticks)
            .filter(|&t| a.take(FaultKind::RejectLease, t))
            .collect();
        assert_eq!(taken, fa);
        // ~10% rate, loose bounds (deterministic, so this can't flake)
        assert!(
            (fa.len() as f64) > 0.05 * ticks as f64
                && (fa.len() as f64) < 0.2 * ticks as f64,
            "100‰ fired {} of {ticks}",
            fa.len()
        );
        let c = FaultPlan::new().chance(FaultKind::RejectLease, 100, 43);
        assert_ne!(
            c.firing_ticks(FaultKind::RejectLease, ticks),
            fa,
            "different seeds give different firing sets"
        );
    }

    #[test]
    fn chance_extremes() {
        let never = FaultPlan::new().chance(FaultKind::SlowTask, 0, 9);
        let always = FaultPlan::new().chance(FaultKind::SlowTask, 1000, 9);
        assert!(never.firing_ticks(FaultKind::SlowTask, 100).is_empty());
        assert_eq!(always.firing_ticks(FaultKind::SlowTask, 100).len(), 100);
        assert!(always.pending(FaultKind::SlowTask), "recurring arms always pend");
    }

    #[test]
    fn concurrent_takers_on_a_recurring_arm_claim_once_per_tick() {
        for _ in 0..20 {
            let p = Arc::new(FaultPlan::new().every_n(FaultKind::SlowTask, 1, 1));
            for tick in 1..=4 {
                let claims: usize = (0..8)
                    .map(|_| {
                        let p = Arc::clone(&p);
                        std::thread::spawn(move || p.take(FaultKind::SlowTask, tick))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap() as usize)
                    .sum();
                assert_eq!(claims, 1, "tick {tick}");
            }
            assert_eq!(p.fired(), 4);
        }
    }

    #[test]
    fn tick_zero_never_fires() {
        // 0 is the "never claimed" sentinel; a driver that has not
        // started counting must not trip EveryN{start: 0} arms
        let p = FaultPlan::new().every_n(FaultKind::SlowTask, 0, 1);
        assert!(!p.take(FaultKind::SlowTask, 0));
        assert!(p.take(FaultKind::SlowTask, 1));
    }
}
