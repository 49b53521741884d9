//! Job specifications, the job lifecycle state machine, and admission
//! control.

use std::time::Duration;

use secureloop_arch::Architecture;
use secureloop_json::Json;
use secureloop_mapper::FaultPlan;
use secureloop_workload::Network;

use crate::dse::fig16_designs;
use crate::run::RunSpec;

/// Job ids become file names (`<state_dir>/<id>.ckpt.json`), so they
/// are restricted to a filesystem-safe alphabet.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// An injected fault a test client attaches to its job (a chaos hook:
/// the soak suite uses it to plan poison jobs). It is armed for this
/// job's sweep only and scoped to one of its designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// `fail` | `nan` | `panic` | `stall` | `io_error`.
    pub kind: String,
    /// Layers the fault applies to.
    pub layers: Vec<String>,
    /// Design label the fault is scoped to (required: the fault
    /// sabotages exactly one design point of the job).
    pub arch: String,
    /// Stall duration in milliseconds (`stall` only).
    pub stall_ms: u64,
}

impl FaultSpec {
    /// Build the mapper-level [`FaultPlan`], always arch-scoped.
    ///
    /// # Errors
    ///
    /// An unknown `kind`.
    pub fn to_plan(&self) -> Result<FaultPlan, String> {
        let layers = self.layers.iter().cloned();
        let plan = match self.kind.as_str() {
            "fail" => FaultPlan::fail(layers),
            "nan" => FaultPlan::nan_cost(layers),
            "panic" => FaultPlan::panic(layers),
            "stall" => FaultPlan::stall(layers, Duration::from_millis(self.stall_ms.max(1))),
            "io_error" => FaultPlan::io_error(layers, 2),
            other => return Err(format!("unknown fault kind '{other}'")),
        };
        Ok(plan.for_arch(self.arch.clone()))
    }

    /// Serialise for the journal.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("kind", self.kind.as_str())
            .field(
                "layers",
                Json::Arr(self.layers.iter().map(|l| Json::from(l.as_str())).collect()),
            )
            .field("arch", self.arch.as_str())
            .field("stall_ms", self.stall_ms)
    }

    /// Parse a [`FaultSpec`] from a submission or the journal.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<FaultSpec, String> {
        let kind = v["kind"]
            .as_str()
            .ok_or("fault needs a string 'kind'")?
            .to_string();
        let layers = v["layers"]
            .as_array()
            .ok_or("fault needs a 'layers' array")?
            .iter()
            .map(|l| {
                l.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "fault layers must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let arch = v["arch"]
            .as_str()
            .ok_or("fault needs an 'arch' design label naming the design point it sabotages")?
            .to_string();
        let stall_ms = v["stall_ms"].as_u64().unwrap_or(50);
        let spec = FaultSpec {
            kind,
            layers,
            arch,
            stall_ms,
        };
        spec.to_plan()?; // validate the kind eagerly
        Ok(spec)
    }
}

/// Keys a `submit` request or journalled spec may carry, for the
/// unknown-key error.
const SUBMIT_KEYS: &str =
    "id, workload, designs, algorithm, samples, iterations, seed, deadline_secs, scheme, fault";

/// One job: what a client asked the server to explore.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen id (see [`valid_job_id`]).
    pub id: String,
    /// The run itself; the workload is required, budgets default like
    /// the one-shot CLI, and annealing is capped like the `dse` command.
    pub run: RunSpec,
    /// Design labels from the Fig. 16 space; empty = the full space.
    pub designs: Vec<String>,
    /// Optional injected fault (chaos-test hook).
    pub fault: Option<FaultSpec>,
}

impl JobSpec {
    /// The job's designs and their pricing, resolved exactly like
    /// `secureloop dse` (see [`fig16_designs`]).
    ///
    /// # Errors
    ///
    /// Names the first unknown label or invalid scheme/class pairing.
    pub fn resolve_designs(&self) -> Result<Vec<Architecture>, String> {
        fig16_designs(&self.designs, self.run.scheme)
    }

    /// Resolve the workload name against the model zoo.
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn resolve_workload(&self) -> Result<Network, String> {
        let name = self.run.workload.as_deref().unwrap_or_default();
        crate::cli::workload(name).map_err(|e| e.to_string())
    }

    /// Serialise for the journal (and for echoing back to clients).
    pub fn to_json(&self) -> Json {
        let run = &self.run;
        let mut v = Json::obj()
            .field("id", self.id.as_str())
            .field("workload", run.workload.as_deref().unwrap_or_default())
            .field(
                "designs",
                Json::Arr(
                    self.designs
                        .iter()
                        .map(|d| Json::from(d.as_str()))
                        .collect(),
                ),
            )
            .field("algorithm", run.algorithm.name())
            .field("samples", run.samples as u64)
            .field("iterations", run.iterations as u64)
            .field("seed", run.seed);
        if let Some(d) = run.deadline_secs {
            v = v.field("deadline_secs", d);
        }
        if let Some(s) = run.scheme {
            v = v.field("scheme", s.name());
        }
        if let Some(f) = &self.fault {
            v = v.field("fault", f.to_json());
        }
        v
    }

    /// Parse a [`JobSpec`] from a `submit` request (whose `op` key is
    /// ignored) or the journal. Run fields go through [`RunSpec::set`];
    /// absent ones take the one-shot CLI defaults.
    ///
    /// # Errors
    ///
    /// Names the missing, unknown or ill-typed key.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let fields = v.as_object().ok_or("a job spec must be a JSON object")?;
        let mut id = None;
        let mut run = RunSpec::default();
        let mut designs = Vec::new();
        let mut fault = None;
        for (key, value) in fields {
            match key.as_str() {
                "op" => {}
                "id" => id = Some(value.as_str().ok_or("submit needs a string 'id'")?),
                "designs" => {
                    designs = match value {
                        Json::Null => Vec::new(),
                        list => list
                            .as_array()
                            .ok_or("'designs' must be an array of labels")?
                            .iter()
                            .map(|d| {
                                d.as_str()
                                    .map(str::to_string)
                                    .ok_or_else(|| "design labels must be strings".to_string())
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    }
                }
                "fault" if !value.is_null() => fault = Some(FaultSpec::from_json(value)?),
                "fault" => {}
                other => {
                    if !run.set(other, value)? {
                        return Err(format!(
                            "unknown submit field '{other}' (expected {SUBMIT_KEYS})"
                        ));
                    }
                }
            }
        }
        let id = id.ok_or("submit needs a string 'id'")?.to_string();
        if !valid_job_id(&id) {
            return Err(format!(
                "invalid job id '{id}' (1-64 chars from [A-Za-z0-9_-])"
            ));
        }
        if run.workload.is_none() {
            return Err("submit needs a string 'workload'".to_string());
        }
        Ok(JobSpec {
            id,
            run,
            designs,
            fault,
        })
    }
}

/// The job lifecycle state machine:
///
/// ```text
///            submit                    pop               sweep resolves
/// (client) ──────────▶ Queued ───────────────▶ Running ─────────────────▶ Completed
///     │                  │                       │  │                        Failed
///     │ queue full       │ cancel                │  │ cancel token            Poisoned
///     ▼                  ▼                       │  ▼
///    Shed            Cancelled                   │ Cancelled
///                                                │ SIGINT/SIGTERM drain
///                                                ▼
///                                             Queued   (checkpointed; re-runs on restart)
/// ```
///
/// `Shed` is terminal and out-of-band: a shed job never held a queue
/// slot. `Queued` and `Running` are the resumable states — a restarted
/// server re-enqueues both (a crash can strike mid-run, which is
/// exactly what the per-design checkpoint protects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is sweeping it.
    Running,
    /// Every design point resolved; none poisoned.
    Completed,
    /// The sweep errored as a whole, or every design point failed.
    Failed,
    /// At least one design point was quarantined by the supervisor.
    Poisoned,
    /// The client cancelled it (queued or mid-run).
    Cancelled,
    /// Rejected by backpressure: the queue was full at submission.
    Shed,
}

impl JobState {
    /// Wire / journal name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Poisoned => "poisoned",
            JobState::Cancelled => "cancelled",
            JobState::Shed => "shed",
        }
    }

    /// Inverse of [`JobState::name`].
    pub fn from_name(name: &str) -> Option<JobState> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "poisoned" => JobState::Poisoned,
            "cancelled" => JobState::Cancelled,
            "shed" => JobState::Shed,
            _ => return None,
        })
    }

    /// Whether the state can still change.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed
                | JobState::Failed
                | JobState::Poisoned
                | JobState::Cancelled
                | JobState::Shed
        )
    }

    /// Whether a restarted server should re-enqueue the job.
    pub fn is_resumable(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One journalled job: its spec, where it is in the lifecycle, and —
/// for `Failed`/`Poisoned`/`Cancelled` — why.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// What was submitted.
    pub spec: JobSpec,
    /// Where the job is in the lifecycle.
    pub state: JobState,
    /// Failure / poison / cancellation detail.
    pub cause: Option<String>,
}

impl JobRecord {
    /// A freshly admitted job.
    pub fn queued(spec: JobSpec) -> JobRecord {
        JobRecord {
            spec,
            state: JobState::Queued,
            cause: None,
        }
    }

    /// Serialise for the journal.
    pub fn to_json(&self) -> Json {
        let mut v = Json::obj()
            .field("spec", self.spec.to_json())
            .field("state", self.state.name());
        if let Some(cause) = &self.cause {
            v = v.field("cause", cause.as_str());
        }
        v
    }

    /// Parse a [`JobRecord`] written by [`JobRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<JobRecord, String> {
        let state_name = v["state"].as_str().ok_or("record needs a 'state'")?;
        let state = JobState::from_name(state_name)
            .ok_or_else(|| format!("unknown job state '{state_name}'"))?;
        Ok(JobRecord {
            spec: JobSpec::from_json(&v["spec"])?,
            state,
            cause: v["cause"].as_str().map(str::to_string),
        })
    }
}

/// Per-job budget caps the server enforces *before* a job takes a
/// queue slot. Budgets flow into the existing
/// [`secureloop_mapper::SearchConfig`] unchanged — admission only
/// bounds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum mapper samples per layer.
    pub max_samples: usize,
    /// Maximum design points per job.
    pub max_designs: usize,
    /// Maximum per-layer deadline a job may request, in seconds.
    pub max_deadline_secs: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_samples: 20_000,
            max_designs: 18,
            max_deadline_secs: 300.0,
        }
    }
}

impl AdmissionPolicy {
    /// Validate a spec against the caps and the catalogue (workload
    /// and design labels must resolve, the fault kind must exist).
    ///
    /// # Errors
    ///
    /// A client-facing reason string for the typed `rejected` response.
    pub fn admit(&self, spec: &JobSpec) -> Result<(), String> {
        let run = &spec.run;
        if run.samples > self.max_samples {
            return Err(format!(
                "samples {} exceeds the admission cap {}",
                run.samples, self.max_samples
            ));
        }
        let designs = spec.resolve_designs()?;
        if designs.len() > self.max_designs {
            return Err(format!(
                "{} designs exceeds the admission cap {}",
                designs.len(),
                self.max_designs
            ));
        }
        if let Some(secs) = run.deadline_secs {
            // The CLI and suites accept a 0-second deadline (every
            // search degrades at once); a job that can only degrade is
            // refused instead of holding a queue slot.
            if secs == 0.0 {
                return Err("'deadline_secs' must be positive for a job".to_string());
            }
            if secs > self.max_deadline_secs {
                return Err(format!(
                    "deadline {secs}s exceeds the admission cap {}s",
                    self.max_deadline_secs
                ));
            }
        }
        spec.resolve_workload()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Algorithm;
    use secureloop_crypto::SchemeId;

    fn spec() -> JobSpec {
        JobSpec {
            id: "job-1".into(),
            run: RunSpec {
                workload: Some("alexnet".into()),
                algorithm: Algorithm::CryptOptSingle,
                samples: 200,
                iterations: 20,
                seed: 7,
                deadline_secs: None,
                scheme: None,
            },
            designs: vec!["14x12/16kB/Pipelined".into()],
            fault: None,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut s = spec();
        s.fault = Some(FaultSpec {
            kind: "panic".into(),
            layers: vec!["conv1".into()],
            arch: "14x12/16kB/Pipelined".into(),
            stall_ms: 50,
        });
        s.run.deadline_secs = Some(2.5);
        s.run.scheme = Some(SchemeId::Seculator);
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_scheme_names_are_rejected_at_parse() {
        let v = spec().to_json().field("scheme", "rot13");
        let err = JobSpec::from_json(&v).unwrap_err();
        assert!(err.contains("unknown scheme 'rot13'"), "got: {err}");
    }

    #[test]
    fn schemes_reprice_resolved_designs() {
        use secureloop_crypto::EngineClass;
        // Explicit design + supported scheme: re-priced in place.
        let mut s = spec();
        s.run.scheme = Some(SchemeId::Seculator);
        let designs = s.resolve_designs().unwrap();
        let cc = designs[0].crypto().unwrap();
        assert_eq!(cc.scheme, SchemeId::Seculator);
        assert_eq!(cc.tag_bits, 32);
        // `none` strips crypto entirely.
        s.run.scheme = Some(SchemeId::None);
        assert!(s.resolve_designs().unwrap()[0].crypto().is_none());
        // Full space under SeDA keeps only the Parallel designs.
        s.designs.clear();
        s.run.scheme = Some(SchemeId::Seda);
        let seda = s.resolve_designs().unwrap();
        assert!(!seda.is_empty());
        assert!(seda
            .iter()
            .all(|a| a.crypto().unwrap().class == EngineClass::Parallel));
    }

    #[test]
    fn admission_rejects_invalid_scheme_class_pairings() {
        let policy = AdmissionPolicy::default();
        // The explicitly named design is Pipelined; SeDA cannot be
        // realised on a fully-pipelined core.
        let mut s = spec();
        s.run.scheme = Some(SchemeId::Seda);
        let err = policy.admit(&s).unwrap_err();
        assert!(
            err.contains("does not support the Pipelined engine class"),
            "got: {err}"
        );
        // The same scheme over the whole space is admissible (the
        // unsupported half is filtered).
        s.designs.clear();
        assert!(policy.admit(&s).is_ok());
    }

    #[test]
    fn record_round_trips_with_state_and_cause() {
        let mut r = JobRecord::queued(spec());
        r.state = JobState::Poisoned;
        r.cause = Some("panicked: injected chaos".into());
        let back = JobRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn job_ids_are_filesystem_safe() {
        assert!(valid_job_id("job-1_A"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id("../etc/passwd"));
        assert!(!valid_job_id("a b"));
        assert!(!valid_job_id(&"x".repeat(65)));
    }

    #[test]
    fn state_machine_names_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Poisoned,
            JobState::Cancelled,
            JobState::Shed,
        ] {
            assert_eq!(JobState::from_name(s.name()), Some(s));
        }
        assert!(JobState::Queued.is_resumable() && !JobState::Queued.is_terminal());
        assert!(JobState::Running.is_resumable());
        assert!(JobState::Shed.is_terminal() && !JobState::Shed.is_resumable());
    }

    #[test]
    fn admission_enforces_the_caps() {
        let policy = AdmissionPolicy {
            max_samples: 500,
            max_designs: 2,
            max_deadline_secs: 10.0,
        };
        assert!(policy.admit(&spec()).is_ok());

        let mut too_many_samples = spec();
        too_many_samples.run.samples = 501;
        assert!(policy
            .admit(&too_many_samples)
            .unwrap_err()
            .contains("admission cap"));

        let mut too_many_designs = spec();
        too_many_designs.designs.clear(); // full 18-design space
        assert!(policy
            .admit(&too_many_designs)
            .unwrap_err()
            .contains("admission cap"));

        let mut too_long = spec();
        too_long.run.deadline_secs = Some(11.0);
        assert!(policy.admit(&too_long).unwrap_err().contains("deadline"));

        let mut bad_workload = spec();
        bad_workload.run.workload = Some("gpt-17".into());
        assert!(policy.admit(&bad_workload).is_err());

        let mut bad_design = spec();
        bad_design.designs = vec!["9x9/1kB/abacus".into()];
        assert!(policy
            .admit(&bad_design)
            .unwrap_err()
            .contains("unknown design"));
    }

    #[test]
    fn ill_typed_and_unknown_budget_keys_are_rejected() {
        // Each of these used to run the default 3000-sample budget.
        for (field, key) in [
            (r#""samples":"40""#, "'samples'"),
            (r#""samples":-3"#, "'samples'"),
            (r#""sample":40"#, "'sample'"),
            (r#""iterations":true"#, "'iterations'"),
        ] {
            let line = format!(r#"{{"op":"submit","id":"j1","workload":"alexnet",{field}}}"#);
            let err = JobSpec::from_json(&Json::parse(&line).unwrap()).unwrap_err();
            assert!(err.contains(key), "{field}: {err}");
        }
        // Every key `to_json` writes still loads.
        let mut s = spec();
        s.run.deadline_secs = Some(1.5);
        s.run.scheme = Some(SchemeId::Seda);
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn admission_refuses_a_zero_deadline() {
        let mut s = spec();
        s.run.deadline_secs = Some(0.0);
        // The shared parser accepts 0 (the CLI and suites run with it)...
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
        // ...but a job that could only degrade is refused.
        let err = AdmissionPolicy::default().admit(&s).unwrap_err();
        assert!(err.contains("'deadline_secs' must be positive"), "{err}");
    }

    #[test]
    fn unscoped_faults_are_rejected() {
        let v = Json::parse(r#"{"kind":"panic","layers":["conv1"]}"#).unwrap();
        let err = FaultSpec::from_json(&v).unwrap_err();
        assert!(err.contains("arch"), "{err}");
    }
}
