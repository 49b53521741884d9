//! Fault-injection hooks for the robustness test harness.
//!
//! Production code never arms a plan; the hooks then compile down to a
//! mutex-guarded `None` check per layer search. Tests install a
//! [`FaultPlan`] through [`FaultScope::inject`] to force specific layers
//! to fail their search, poison their costs with NaN, panic, stall, or
//! fail transiently with a simulated I/O error — exercising the
//! scheduler's degradation ladder and the sweep supervisor end to end.
//!
//! Scopes serialise on a process-wide lock so concurrent `cargo test`
//! threads cannot observe each other's plans, and the plan is cleared
//! when the scope drops (even on panic).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

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
    /// Budget of *artifact* write failures to inject into the durable
    /// persistence layer (`secureloop_artifact`) while this plan is
    /// armed: each durable-write attempt consumes one failure until the
    /// budget is spent (transient-error model). `0` injects nothing;
    /// [`FaultPlan::ARTIFACT_IO_ALL`] never clears (a persistently full
    /// or read-only disk).
    pub artifact_io_budget: u64,
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

    /// Sentinel budget meaning "every artifact write fails" — the
    /// persistent ENOSPC/EROFS model, as opposed to a finite transient
    /// budget that retries eventually outlast.
    pub const ARTIFACT_IO_ALL: u64 = u64::MAX;

    /// A plan injecting `budget` artifact-write failures into the
    /// durable persistence layer (no layer searches are sabotaged).
    pub fn artifact_io(budget: u64) -> Self {
        FaultPlan {
            artifact_io_budget: budget,
            ..FaultPlan::default()
        }
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

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static SCOPE_LOCK: Mutex<()> = Mutex::new(());
/// Injected-I/O attempts observed per layer while a plan is armed.
static IO_FIRED: Mutex<BTreeMap<String, u32>> = Mutex::new(BTreeMap::new());

fn plan_slot() -> MutexGuard<'static, Option<FaultPlan>> {
    // A panicking test poisons the mutex; the data (a plain plan) is
    // still coherent, so recover rather than cascade the panic.
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

fn io_fired() -> MutexGuard<'static, BTreeMap<String, u32>> {
    IO_FIRED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hold the fault-scope lock without arming a plan. A test that counts
/// cache hits takes it: while another test's plan is armed, every
/// search bypasses the cache.
#[cfg(test)]
pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
    SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether any fault plan is currently armed. Layer-shape caches must
/// be bypassed while one is: faults key on layer *names*, which a
/// shape-dedup cache would conflate.
pub fn armed() -> bool {
    plan_slot().is_some()
}

pub(crate) fn verdict_for(layer: &str, arch: &str) -> Verdict {
    let slot = plan_slot();
    let Some(p) = slot.as_ref() else {
        return Verdict::Clean;
    };
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
        let budget = p.io_error_budget;
        drop(slot);
        let mut fired = io_fired();
        let count = fired.entry(layer.to_string()).or_insert(0);
        if *count < budget {
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

/// RAII guard arming a [`FaultPlan`] for the duration of a test.
///
/// Holding the scope also holds a process-wide lock, so at most one
/// fault-injecting test runs at a time.
pub struct FaultScope {
    _serialise: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Arm `plan` until the returned scope drops. A plan carrying an
    /// `artifact_io_budget` also arms the durable persistence layer's
    /// fault hook; the scope's process-wide lock keeps that global
    /// state exclusive too.
    pub fn inject(plan: FaultPlan) -> FaultScope {
        let guard = SCOPE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        io_fired().clear();
        match plan.artifact_io_budget {
            0 => secureloop_artifact::fault::disarm(),
            FaultPlan::ARTIFACT_IO_ALL => secureloop_artifact::fault::arm_all(),
            n => secureloop_artifact::fault::arm(n),
        }
        *plan_slot() = Some(plan);
        FaultScope { _serialise: guard }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *plan_slot() = None;
        io_fired().clear();
        secureloop_artifact::fault::disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY: &str = "any-arch";

    #[test]
    fn plan_is_scoped_and_cleared() {
        assert_eq!(verdict_for("conv1", ANY), Verdict::Clean);
        {
            let _scope = FaultScope::inject(FaultPlan::fail(["conv1"]));
            assert_eq!(verdict_for("conv1", ANY), Verdict::Fail);
            assert_eq!(verdict_for("conv2", ANY), Verdict::Clean);
        }
        assert_eq!(verdict_for("conv1", ANY), Verdict::Clean);
    }

    #[test]
    fn nan_and_fail_are_distinct() {
        let _scope = FaultScope::inject(FaultPlan {
            fail_layers: ["a"].into_iter().map(String::from).collect(),
            nan_layers: ["b"].into_iter().map(String::from).collect(),
            ..FaultPlan::default()
        });
        assert_eq!(verdict_for("a", ANY), Verdict::Fail);
        assert_eq!(verdict_for("b", ANY), Verdict::NanCost);
        assert_eq!(verdict_for("c", ANY), Verdict::Clean);
    }

    #[test]
    fn panic_and_stall_modes_have_verdicts() {
        let _scope = FaultScope::inject(FaultPlan {
            panic_layers: ["p"].into_iter().map(String::from).collect(),
            stall_layers: ["s"].into_iter().map(String::from).collect(),
            stall_duration: Duration::from_millis(7),
            ..FaultPlan::default()
        });
        assert_eq!(verdict_for("p", ANY), Verdict::Panic);
        assert_eq!(
            verdict_for("s", ANY),
            Verdict::Stall(Duration::from_millis(7))
        );
    }

    #[test]
    fn io_errors_are_transient_within_budget() {
        let _scope = FaultScope::inject(FaultPlan::io_error(["conv1"], 2));
        assert_eq!(verdict_for("conv1", ANY), Verdict::IoError);
        assert_eq!(verdict_for("conv1", ANY), Verdict::IoError);
        assert_eq!(verdict_for("conv1", ANY), Verdict::Clean, "budget spent");
        assert_eq!(verdict_for("conv2", ANY), Verdict::Clean);
    }

    #[test]
    fn arch_scoping_targets_one_design() {
        let _scope = FaultScope::inject(FaultPlan::panic(["conv1"]).for_arch("design-7"));
        assert_eq!(verdict_for("conv1", "design-7"), Verdict::Panic);
        assert_eq!(verdict_for("conv1", "design-8"), Verdict::Clean);
    }
}
