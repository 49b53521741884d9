//! Fault-injection hooks for the robustness test harness.
//!
//! Production code never arms a plan; the hooks then cost one `None`
//! check per layer search. Tests install a [`FaultPlan`] through
//! [`FaultScope::inject`] to force specific layers to fail their
//! search, poison their costs with NaN, panic, stall, or fail
//! transiently with a simulated I/O error — exercising the scheduler's
//! degradation ladder and the sweep supervisor end to end.
//!
//! A plan belongs to one task, like its cancellation token: it rides in
//! the thread's [`TaskContext`], which the work pool
//! ([`crate::cancel::run_ordered`]) and the sweep supervisor carry into
//! every thread that works for the task. Searches of other tasks never
//! see it, so concurrent tests, or concurrent service jobs, each see
//! only their own plan. The plan is disarmed when its scope drops (even
//! on panic).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cancel::{self, TaskContext, TaskScope};

/// Which layers a test wants to sabotage, by layer name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Layers whose search must return an injected-failure error.
    pub fail_layers: BTreeSet<String>,
    /// Layers whose every evaluation cost is replaced with NaN (the
    /// search must reject them and report no valid mapping).
    pub nan_layers: BTreeSet<String>,
    /// Layers whose search must panic outright (drives the
    /// supervisor's `catch_unwind` path).
    pub panic_layers: BTreeSet<String>,
    /// Layers whose search must stall for [`FaultPlan::stall_duration`]
    /// before proceeding (drives the supervisor's watchdog path).
    pub stall_layers: BTreeSet<String>,
    /// How long a stalled layer sleeps (cooperatively — a cancelled
    /// task wakes early and returns `Cancelled`).
    pub stall_duration: Duration,
    /// Layers whose search fails with a *transient* injected I/O error:
    /// the first [`FaultPlan::io_error_budget`] attempts per layer
    /// fail, later attempts succeed (drives retry-then-succeed paths).
    pub io_error_layers: BTreeSet<String>,
    /// Injected I/O failures per layer before the fault clears.
    pub io_error_budget: u32,
    /// Restrict the whole plan to searches running against the named
    /// architecture (design label). `None` applies everywhere; a sweep
    /// test uses this to sabotage exactly one design point of many.
    pub arch: Option<String>,
}

fn names<I: IntoIterator<Item = S>, S: Into<String>>(layers: I) -> BTreeSet<String> {
    layers.into_iter().map(Into::into).collect()
}

impl FaultPlan {
    /// A plan that hard-fails the named layers.
    pub fn fail<I: IntoIterator<Item = S>, S: Into<String>>(layers: I) -> Self {
        FaultPlan {
            fail_layers: names(layers),
            ..FaultPlan::default()
        }
    }

    /// A plan that NaN-poisons the named layers' costs.
    pub fn nan_cost<I: IntoIterator<Item = S>, S: Into<String>>(layers: I) -> Self {
        FaultPlan {
            nan_layers: names(layers),
            ..FaultPlan::default()
        }
    }

    /// A plan that panics the named layers' searches.
    pub fn panic<I: IntoIterator<Item = S>, S: Into<String>>(layers: I) -> Self {
        FaultPlan {
            panic_layers: names(layers),
            ..FaultPlan::default()
        }
    }

    /// A plan that stalls the named layers' searches for `duration`.
    pub fn stall<I: IntoIterator<Item = S>, S: Into<String>>(
        layers: I,
        duration: Duration,
    ) -> Self {
        FaultPlan {
            stall_layers: names(layers),
            stall_duration: duration,
            ..FaultPlan::default()
        }
    }

    /// A plan whose named layers fail `budget` times with an injected
    /// transient I/O error, then succeed.
    pub fn io_error<I: IntoIterator<Item = S>, S: Into<String>>(layers: I, budget: u32) -> Self {
        FaultPlan {
            io_error_layers: names(layers),
            io_error_budget: budget,
            ..FaultPlan::default()
        }
    }

    /// Scope the plan to one architecture (by design label).
    pub fn for_arch(mut self, arch: impl Into<String>) -> Self {
        self.arch = Some(arch.into());
        self
    }
}

/// What the armed plan says about one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// No fault: search normally.
    Clean,
    /// Return `MapperError::InjectedFailure` immediately.
    Fail,
    /// Evaluate normally but replace every cost with NaN.
    NanCost,
    /// Panic with a recognisable payload.
    Panic,
    /// Sleep for the given duration before searching.
    Stall(Duration),
    /// Return `MapperError::InjectedIo` (transient — clears after the
    /// plan's budget of attempts).
    IoError,
}

/// A [`FaultPlan`] armed for one task, with the injected-I/O attempts
/// it has fired per layer. Clones of a [`TaskContext`] share it, so
/// retries of a task spend one `io_error` budget.
#[derive(Debug)]
pub struct ArmedPlan {
    plan: FaultPlan,
    io_fired: Mutex<BTreeMap<String, u32>>,
}

/// What the plan armed in `ctx`, if any, says about `layer` searched
/// against the design labelled `arch`.
pub(crate) fn verdict_for(ctx: &TaskContext, layer: &str, arch: &str) -> Verdict {
    let Some(armed) = &ctx.fault else {
        return Verdict::Clean;
    };
    let p = &armed.plan;
    if p.arch.as_deref().is_some_and(|scoped| scoped != arch) {
        return Verdict::Clean;
    }
    if p.panic_layers.contains(layer) {
        return Verdict::Panic;
    }
    if p.stall_layers.contains(layer) {
        return Verdict::Stall(p.stall_duration);
    }
    if p.io_error_layers.contains(layer) {
        // A panicking attempt may poison the tally's mutex; the counts
        // are still coherent, so recover rather than cascade the panic.
        let mut fired = armed.io_fired.lock().unwrap_or_else(|e| e.into_inner());
        let count = fired.entry(layer.to_string()).or_insert(0);
        if *count < p.io_error_budget {
            *count += 1;
            return Verdict::IoError;
        }
        return Verdict::Clean;
    }
    if p.fail_layers.contains(layer) {
        return Verdict::Fail;
    }
    if p.nan_layers.contains(layer) {
        return Verdict::NanCost;
    }
    Verdict::Clean
}

/// RAII guard arming a [`FaultPlan`] for the current thread's task
/// until it drops.
pub struct FaultScope {
    _task: TaskScope,
}

impl FaultScope {
    /// Arm `plan`, with a fresh `io_error` tally, in the current
    /// thread's [`TaskContext`] (keeping its token) until the returned
    /// scope drops.
    pub fn inject(plan: FaultPlan) -> FaultScope {
        let mut ctx = cancel::current_context();
        ctx.fault = Some(Arc::new(ArmedPlan {
            plan,
            io_fired: Mutex::default(),
        }));
        FaultScope {
            _task: TaskScope::enter(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: &str = "any-arch";

    fn verdict(layer: &str, arch: &str) -> Verdict {
        verdict_for(&cancel::current_context(), layer, arch)
    }

    #[test]
    fn plan_is_scoped_and_cleared() {
        assert_eq!(verdict("conv1", ANY), Verdict::Clean);
        {
            let _scope = FaultScope::inject(FaultPlan::fail(["conv1"]));
            assert_eq!(verdict("conv1", ANY), Verdict::Fail);
            assert_eq!(verdict("conv2", ANY), Verdict::Clean);
        }
        assert_eq!(verdict("conv1", ANY), Verdict::Clean);
    }

    #[test]
    fn nan_and_fail_are_distinct() {
        let _scope = FaultScope::inject(FaultPlan {
            fail_layers: ["a"].into_iter().map(String::from).collect(),
            nan_layers: ["b"].into_iter().map(String::from).collect(),
            ..FaultPlan::default()
        });
        assert_eq!(verdict("a", ANY), Verdict::Fail);
        assert_eq!(verdict("b", ANY), Verdict::NanCost);
        assert_eq!(verdict("c", ANY), Verdict::Clean);
    }

    #[test]
    fn panic_and_stall_modes_have_verdicts() {
        let _scope = FaultScope::inject(FaultPlan {
            panic_layers: ["p"].into_iter().map(String::from).collect(),
            stall_layers: ["s"].into_iter().map(String::from).collect(),
            stall_duration: Duration::from_millis(7),
            ..FaultPlan::default()
        });
        assert_eq!(verdict("p", ANY), Verdict::Panic);
        assert_eq!(verdict("s", ANY), Verdict::Stall(Duration::from_millis(7)));
    }

    #[test]
    fn io_errors_are_transient_within_budget() {
        let _scope = FaultScope::inject(FaultPlan::io_error(["conv1"], 2));
        assert_eq!(verdict("conv1", ANY), Verdict::IoError);
        assert_eq!(verdict("conv1", ANY), Verdict::IoError);
        assert_eq!(verdict("conv1", ANY), Verdict::Clean, "budget spent");
        assert_eq!(verdict("conv2", ANY), Verdict::Clean);
    }

    #[test]
    fn arch_scoping_targets_one_design() {
        let _scope = FaultScope::inject(FaultPlan::panic(["conv1"]).for_arch("design-7"));
        assert_eq!(verdict("conv1", "design-7"), Verdict::Panic);
        assert_eq!(verdict("conv1", "design-8"), Verdict::Clean);
    }

    #[test]
    fn plan_travels_with_its_task_only() {
        let _scope = FaultScope::inject(FaultPlan::fail(["conv1"]));
        let elsewhere = std::thread::spawn(|| verdict("conv1", ANY)).join().unwrap();
        assert_eq!(
            elsewhere,
            Verdict::Clean,
            "another task never sees the plan"
        );
        let pooled = cancel::run_ordered(4, 2, |_, _| (verdict("conv1", ANY), false));
        assert_eq!(pooled, [Verdict::Fail; 4], "pool workers carry the plan");
    }
}
