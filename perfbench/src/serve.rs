//! `serve-mixed`: the `secureloop serve` binary driven over its
//! JSON-Lines wire protocol by one closed-loop client.
//!
//! The client submits each job only after the previous `result`. Every
//! job spec is sent twice in a row: the cold copy searches, the warm
//! copy reads the process-wide candidate cache and must return the same
//! report. The seed sets the job order; the specs, mapper seeds
//! included, are fixed. A traced session starts the server with
//! `--trace-out`, so the program's own telemetry spans (mapper,
//! scheduler, authblock, anneal, dse) give the layers inside the server
//! process.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use secureloop::annealing::AnnealingConfig;
use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions};
use secureloop::Algorithm;
use secureloop_json::Json;
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_workload::{zoo, Network};

use crate::trace::{self_time_table, Tracer};
use crate::{fresh_dir, host, median, ratio, repeat, splitmix, write_spans, Args, Outcome};

/// Extra spawn-to-ready set-ups per run, besides one per pass.
const SETUP_REPS: usize = 31;
/// Longest wait for any one event before the run is abandoned.
const EVENT_TIMEOUT: Duration = Duration::from_secs(120);

/// One job spec: workload, Fig. 16 design indices, algorithm and
/// budgets.
struct Spec {
    workload: &'static str,
    designs: &'static [usize],
    algorithm: Algorithm,
    samples: usize,
    iterations: usize,
}

const fn spec(
    workload: &'static str,
    designs: &'static [usize],
    algorithm: Algorithm,
    samples: usize,
    iterations: usize,
) -> Spec {
    Spec {
        workload,
        designs,
        algorithm,
        samples,
        iterations,
    }
}

/// The job mix: short and long jobs, large and small networks, all
/// three secure algorithms. An odd number of specs puts the median job
/// between the two copies of one spec, so `job_p50_s` does not jump
/// between specs of different size. Fig. 16 design indices run PE array
/// (14x12, 14x24, 28x24) x GLB (16, 32, 131 kB) x engine (pipelined,
/// parallel).
const SPECS: [Spec; 13] = [
    spec("alexnet", &[0, 7, 14], Algorithm::CryptOptCross, 1000, 100),
    spec("alexnet", &[3, 10], Algorithm::CryptOptSingle, 1000, 100),
    spec(
        "alexnet",
        &[5, 8, 15, 16],
        Algorithm::CryptTileSingle,
        1000,
        100,
    ),
    spec("resnet18", &[1], Algorithm::CryptTileSingle, 500, 100),
    spec("resnet18", &[12], Algorithm::CryptOptSingle, 500, 100),
    spec("vit_tiny", &[4, 13], Algorithm::CryptOptCross, 500, 100),
    spec("mlp", &[0, 1, 2, 3], Algorithm::CryptOptSingle, 300, 100),
    spec("mlp", &[14, 15], Algorithm::CryptOptCross, 300, 100),
    spec("llm_decode", &[0, 6], Algorithm::CryptOptCross, 500, 100),
    spec(
        "llm_decode",
        &[16, 17],
        Algorithm::CryptTileSingle,
        500,
        100,
    ),
    spec("attention", &[2], Algorithm::CryptOptCross, 500, 100),
    spec("attention", &[11], Algorithm::CryptTileSingle, 500, 100),
    spec("mlp", &[4, 5, 9], Algorithm::CryptTileSingle, 300, 100),
];

fn algorithm_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Unsecure => "unsecure",
        Algorithm::CryptTileSingle => "crypt-tile-single",
        Algorithm::CryptOptSingle => "crypt-opt-single",
        Algorithm::CryptOptCross => "crypt-opt-cross",
    }
}

/// The seed's job order: spec indices, shuffled.
fn job_order(seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..SPECS.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A spec's mapper seed. Fixed per spec: the AuthBlock cost of the
/// Crypt-Opt-Cross jobs depends on which mappings a seed finds, and
/// with seeds drawn from `--seed` a session's run time moved by 40%
/// from one seed to the next.
fn spec_seed(spec: usize) -> u64 {
    spec as u64 + 1
}

fn submit_line(id: &str, spec: &Spec, labels: &[String], seed: u64) -> String {
    let designs = spec
        .designs
        .iter()
        .map(|&d| Json::from(labels[d].as_str()))
        .collect();
    Json::obj()
        .field("op", "submit")
        .field("id", id)
        .field("workload", spec.workload)
        .field("designs", Json::Arr(designs))
        .field("algorithm", algorithm_name(spec.algorithm))
        .field("samples", spec.samples as u64)
        .field("iterations", spec.iterations as u64)
        .field("seed", seed)
        .to_string()
}

/// A running `secureloop serve` child and the thread reading its
/// events. Dropping it kills and reaps a child that is still running.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    pid: String,
}

impl Server {
    /// Spawn the server on a fresh state dir, streaming its telemetry
    /// to `trace_out` if given; returns it with the time from spawn to
    /// its `ready` event.
    fn start(
        binary: &Path,
        state_dir: &Path,
        trace_out: Option<&Path>,
    ) -> Result<(Server, Instant, f64), String> {
        fresh_dir(state_dir)?;
        let t0 = Instant::now();
        let mut cmd = Command::new(binary);
        cmd.arg("serve")
            .arg("--state-dir")
            .arg(state_dir)
            .args(["--service-workers", "1", "--job-workers", "1"])
            .args(["--durability", "full"]);
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, events) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let pid = child.id().to_string();
        let mut server = Server {
            stdin: child.stdin.take(),
            child,
            events,
            reader: Some(reader),
            pid,
        };
        let (at, ready) = server.next_event()?;
        if ready["event"].as_str() != Some("ready") {
            return Err(format!("expected a ready event, got {ready}"));
        }
        let setup = at.duration_since(t0).as_secs_f64();
        Ok((server, at, setup))
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin is closed")?;
        let at = Instant::now();
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to the server: {e}"))?;
        Ok(at)
    }

    fn next_event(&mut self) -> Result<(Instant, Json), String> {
        match self.events.recv_timeout(EVENT_TIMEOUT) {
            Ok((at, line)) => Json::parse(&line)
                .map(|v| (at, v))
                .map_err(|e| format!("unparseable event '{line}': {e}")),
            Err(RecvTimeoutError::Timeout) => Err("server went silent".to_string()),
            Err(RecvTimeoutError::Disconnected) => Err("server closed its output".to_string()),
        }
    }

    /// Wait for the next event of `kind`.
    fn wait_for(&mut self, kind: &str) -> Result<Json, String> {
        loop {
            let (_, v) = self.next_event()?;
            match v["event"].as_str() {
                Some(k) if k == kind => return Ok(v),
                Some("error") => return Err(format!("server reported an error: {v}")),
                _ => {}
            }
        }
    }

    /// Follow job `id` to its `result`: the arrival times of its
    /// `accepted`, `started` and `result` events, and the result. The
    /// control loop acknowledges a job while a worker may already run
    /// it, so `accepted` can arrive after `started`, or even after
    /// `result`; all three are awaited.
    fn wait_job(&mut self, id: &str) -> Result<(Instant, Instant, Instant, Json), String> {
        let (mut accepted, mut started) = (None, None);
        let mut result: Option<(Instant, Json)> = None;
        loop {
            if let (Some(a), Some(s), Some((r, v))) = (accepted, started, &result) {
                return Ok((a, s, *r, v.clone()));
            }
            let (at, v) = self.next_event()?;
            if v["id"].as_str() != Some(id) {
                continue;
            }
            match v["event"].as_str() {
                Some("accepted") => accepted = Some(at),
                Some("started") => started = Some(at),
                Some("result") => result = Some((at, v)),
                Some("rejected" | "overloaded") => {
                    return Err(format!("server refused job {id}: {v}"))
                }
                _ => {}
            }
        }
    }

    /// Graceful shutdown; waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.send(r#"{"op":"shutdown"}"#)?;
        self.wait_for("shutdown")?;
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot reap the server: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        drop(self.stdin.take());
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One job as the client saw it.
struct JobTiming {
    spec: usize,
    submit: Instant,
    accepted: Instant,
    started: Instant,
    result: Instant,
    report: Json,
}

/// One closed-loop session against a fresh server.
struct Pass {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    jobs: Vec<JobTiming>,
    cache_hits: u64,
    cache_misses: u64,
    /// AuthBlock overhead (Mbit) of the returned designs, from the
    /// in-process reference.
    overhead_mbit: f64,
}

fn session(
    binary: &Path,
    dir: &Path,
    trace_out: Option<&Path>,
    order: &[usize],
    labels: &[String],
    out: &mut Outcome,
) -> Result<Pass, String> {
    let (mut server, ready, setup_s) = Server::start(binary, dir, trace_out)?;
    let cpu0 = host::cpu_s(&server.pid)?;
    let mut jobs = Vec::with_capacity(order.len() * 2);
    for &s in order {
        for copy in ["cold", "warm"] {
            let id = format!("j{s:02}-{copy}");
            let submit = server.send(&submit_line(&id, &SPECS[s], labels, spec_seed(s)))?;
            let (accepted, started, result, v) = server.wait_job(&id)?;
            out.attempted += 1;
            let status = v["status"].as_str().unwrap_or("?");
            let report = &v["report"];
            let problem = if status != "completed" {
                Some(format!("status {status}: {}", v["cause"]))
            } else if report["designs"].as_array().map(Vec::len) != Some(SPECS[s].designs.len()) {
                Some("report lacks designs".to_string())
            } else if report["skipped"].as_array().is_none_or(|a| !a.is_empty())
                || report["poisoned"].as_array().is_none_or(|a| !a.is_empty())
                || report["interrupted"] != Json::Bool(false)
                || report["degraded_persistence"] != Json::Bool(false)
            {
                Some(format!("incomplete report {report}"))
            } else if copy == "warm"
                && jobs.last().map(|j: &JobTiming| &j.report["designs"]) != Some(&report["designs"])
            {
                Some("warm copy returned a different report than its cold copy".to_string())
            } else {
                None
            };
            if let Some(p) = problem {
                out.failed += 1;
                eprintln!("job {id}: {p}");
            }
            jobs.push(JobTiming {
                spec: s,
                submit,
                accepted,
                started,
                result,
                report: report.clone(),
            });
        }
    }
    let end = jobs.last().map_or(ready, |j| j.result);
    let cpu_s = host::cpu_s(&server.pid)? - cpu0;
    let peak_rss_mb = host::peak_rss_mb(&server.pid)?;
    server.send(r#"{"op":"stats"}"#)?;
    let stats = server.wait_for("stats")?;
    server.shutdown()?;
    Ok(Pass {
        setup_s,
        run_s: end.duration_since(ready).as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        jobs,
        cache_hits: stats["cache"]["hits"].as_u64().unwrap_or(0),
        cache_misses: stats["cache"]["misses"].as_u64().unwrap_or(0),
        overhead_mbit: 0.0,
    })
}

/// The networks the `secureloop` CLI and service resolve these names to.
fn network(name: &str) -> Network {
    match name {
        "alexnet" => zoo::alexnet_conv(),
        "resnet18" => zoo::resnet18(),
        "vit_tiny" => zoo::vit_tiny(2),
        "mlp" => zoo::mlp(4, 4096),
        "llm_decode" => zoo::llm_decode(1024),
        "attention" => zoo::attention(128, 512),
        other => unreachable!("workload '{other}' is not in the job mix"),
    }
}

/// Simulated totals over every report the service returned:
/// `(cycles, energy in uJ)`.
fn sim_totals(pass: &Pass) -> (f64, f64) {
    let (mut cycles, mut pj) = (0u64, 0.0f64);
    for j in &pass.jobs {
        for d in j.report["designs"].as_array().into_iter().flatten() {
            cycles += d["latency_cycles"].as_u64().unwrap_or(0);
            pj += d["energy_pj"].as_f64().unwrap_or(0.0);
        }
    }
    (cycles as f64, pj / 1e6)
}

/// One design of an in-process reference run: label, latency cycles,
/// energy (pJ) and AuthBlock overhead bits.
type Reference = (String, u64, f64, u64);

/// Run every spec in-process through the dse layer with the budgets the
/// service uses. The service must return the same latency and energy
/// per design; the overhead bits, which service reports do not carry,
/// come from here.
fn reference_runs(out: &mut Outcome) -> Result<Vec<Vec<Reference>>, String> {
    let space = fig16_design_space();
    let mut all = Vec::with_capacity(SPECS.len());
    for (s, spec) in SPECS.iter().enumerate() {
        let network = network(spec.workload);
        let designs: Vec<_> = spec.designs.iter().map(|&d| space[d].clone()).collect();
        let search = SearchConfig {
            samples: spec.samples,
            top_k: 4,
            seed: spec_seed(s),
            threads: 1,
            deadline: None,
            mode: SearchMode::Guided,
        };
        let annealing = AnnealingConfig::paper_default().with_iterations(spec.iterations.min(300));
        let run = evaluate_designs_sweep(
            &network,
            &designs,
            spec.algorithm,
            &search,
            &annealing,
            &SweepOptions::new().with_workers(1),
        )
        .map_err(|e| format!("reference sweep failed: {e}"))?;
        out.check(run.results.len() == designs.len(), || {
            format!(
                "spec {s}: the in-process sweep completed {} of {} designs",
                run.results.len(),
                designs.len()
            )
        });
        all.push(
            run.results
                .iter()
                .map(|r| {
                    (
                        r.label.clone(),
                        r.schedule.total_latency_cycles,
                        r.schedule.total_energy_pj,
                        r.schedule.overhead.total_bits(),
                    )
                })
                .collect(),
        );
    }
    Ok(all)
}

/// Check that a session returned the reference's latency and energy
/// for every design of every job; the AuthBlock overhead (Mbit) summed
/// over the session's jobs.
fn check_reference(
    pass: &Pass,
    reference: &[Vec<Reference>],
    labels: &[String],
    out: &mut Outcome,
) -> f64 {
    let mut bits = 0u64;
    for j in &pass.jobs {
        let served = j.report["designs"].as_array().cloned().unwrap_or_default();
        for (i, (label, cycles, pj, overhead)) in reference[j.spec].iter().enumerate() {
            let d = served.get(i).cloned().unwrap_or(Json::Null);
            let same = d["label"].as_str() == Some(labels[SPECS[j.spec].designs[i]].as_str())
                && d["latency_cycles"].as_u64() == Some(*cycles)
                && d["energy_pj"].as_f64() == Some(*pj);
            out.check(same, || {
                format!(
                    "spec {}: the service's {label} differs from the in-process sweep",
                    j.spec
                )
            });
            bits += overhead;
        }
    }
    bits as f64 / 1e6
}

/// What the server's own telemetry (`--trace-out`) shows of one
/// session, summed over its span events.
#[derive(Debug, Default)]
struct ServerLayers {
    mapper_s: f64,
    mapper_samples: u64,
    mapper_valid: u64,
    scheduler_s: f64,
    dse_s: f64,
    optimize_runs: u64,
    optimize_s: f64,
    top_tensor_s: f64,
    anneal_runs: u64,
    proposals: u64,
    accepted: u64,
}

fn server_layers(path: &Path) -> Result<ServerLayers, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut l = ServerLayers::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("{}: bad event: {e}", path.display()))?;
        if v["event"].as_str() != Some("span") {
            continue;
        }
        let secs = v["us"].as_u64().unwrap_or(0) as f64 / 1e6;
        let n = |k: &str| v[k].as_u64().unwrap_or(0);
        match v["phase"].as_str() {
            Some("mapper") => {
                l.mapper_s += secs;
                l.mapper_samples += n("samples");
                l.mapper_valid += n("valid");
            }
            Some("scheduler") => l.scheduler_s += secs,
            Some("dse") => l.dse_s += secs,
            Some("authblock") => {
                l.optimize_runs += 1;
                l.optimize_s += secs;
                l.top_tensor_s = l.top_tensor_s.max(secs);
            }
            Some("anneal") => {
                l.anneal_runs += 1;
                l.proposals += n("proposals");
                l.accepted += n("accepted");
            }
            _ => {}
        }
    }
    Ok(l)
}

pub fn run(args: &Args, state: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let binary: PathBuf = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("secureloop");
    let labels: Vec<String> = fig16_design_space()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let order = job_order(args.seed);

    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPS {
        let (server, _, s) = Server::start(&binary, &state.join(format!("setup{i}")), None)?;
        setup_s.push(s);
        server.shutdown()?;
    }

    // The in-process reference counts against the measuring time.
    let t0 = Instant::now();
    let reference = reference_runs(&mut out)?;
    let reference_s = t0.elapsed().as_secs_f64();

    // The host is calibrated in this process before the first session
    // and after each one, while no server runs.
    let trace_path = |i: usize| state.join(format!("traced{i}.trace.jsonl"));
    let mut calib_s = vec![host::calibrate()];
    let mut sessions = |name: &str, budget_s: f64, traced: bool, out: &mut Outcome| {
        repeat(budget_s, 1, args.min_passes(), |i| {
            let dir = state.join(format!("{name}{i}"));
            let trace = traced.then(|| trace_path(i));
            let mut p = session(&binary, &dir, trace.as_deref(), &order, &labels, out)?;
            calib_s.push(host::calibrate());
            p.overhead_mbit = check_reference(&p, &reference, &labels, out);
            Ok(p)
        })
    };
    let plain = sessions("pass", args.budget_s() - reference_s, false, &mut out)?;
    let traced = if args.trace {
        sessions("traced", args.budget_s(), true, &mut out)?
    } else {
        Vec::new()
    };
    // One factor, from the run's median calibration, turns every host
    // time of the run into reference seconds.
    let speed = host::CALIBRATION_REF_S / median(&calib_s);
    setup_s.extend(plain.iter().map(|p| p.setup_s));
    let walls: Vec<f64> = plain.iter().map(|p| p.run_s * speed).collect();
    let run_s = median(&walls);

    // Every session of one seed must return the same reports.
    for (i, p) in plain.iter().enumerate().skip(1) {
        let same = p
            .jobs
            .iter()
            .zip(&plain[0].jobs)
            .all(|(a, b)| a.report["designs"] == b.report["designs"]);
        out.check(same, || format!("pass {i}: reports differ from pass 0"));
    }

    if !args.trace {
        let job_s: Vec<f64> = plain
            .iter()
            .flat_map(|p| &p.jobs)
            .map(|j| j.result.duration_since(j.submit).as_secs_f64() * speed)
            .collect();
        let mut first: Vec<(f64, usize)> = plain[0]
            .jobs
            .iter()
            .map(|j| (j.result.duration_since(j.submit).as_secs_f64(), j.spec))
            .collect();
        first.sort_by(|a, b| a.0.total_cmp(&b.0));
        let first: Vec<String> = first
            .iter()
            .map(|(t, s)| format!("j{s:02}={t:.3}"))
            .collect();
        eprintln!(
            "serve-mixed: order {order:?}; {} pass(es), reference seconds {walls:?}, \
             host cpu_s {:?}; calibrations {calib_s:?} s; host setup_s {}; \
             in-process reference {reference_s:.2} s\nhost job seconds, pass 0: {}",
            plain.len(),
            plain.iter().map(|p| p.cpu_s).collect::<Vec<_>>(),
            median(&setup_s),
            first.join(" ")
        );
        let (cycles, energy_uj) = sim_totals(&plain[0]);
        out.set("setup_s", median(&setup_s) * speed);
        out.set("run_s", run_s);
        out.set(
            "cpu_s",
            median(&plain.iter().map(|p| p.cpu_s * speed).collect::<Vec<_>>()),
        );
        out.set(
            "peak_rss_mb",
            median(&plain.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
        );
        out.set("job_p50_s", median(&job_s));
        out.set("sim_cycles", cycles);
        out.set("sim_energy_uj", energy_uj);
        out.set("overhead_mbit", plain[0].overhead_mbit);
        return Ok(out);
    }

    // Traced run: the same sessions against a server that streams its
    // telemetry, plus client-side spans per job.
    let mut tracer = Tracer::new();
    for (r, p) in traced.iter().enumerate() {
        tracer.set_run(r as u32);
        let first = p.jobs.first().map(|j| j.submit);
        let last = p.jobs.last().map(|j| j.result);
        let (Some(first), Some(last)) = (first, last) else {
            continue;
        };
        let root = tracer.record("session", first, last);
        for j in &p.jobs {
            let job = tracer.record("job", j.submit, j.result);
            tracer.set_parent(job, root);
            for (name, a, b) in [
                ("admission", j.submit, j.accepted),
                ("queue", j.accepted, j.started),
                ("exec", j.started, j.result),
            ] {
                let id = tracer.record(name, a, b);
                tracer.set_parent(id, job);
            }
        }
    }
    let layers = (0..traced.len())
        .map(|i| server_layers(&trace_path(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let med = |f: &dyn Fn(&ServerLayers) -> f64| -> f64 {
        median(&layers.iter().map(f).collect::<Vec<_>>()) * speed
    };
    let jobs: Vec<&JobTiming> = traced.iter().flat_map(|p| &p.jobs).collect();
    let secs = |f: &dyn Fn(&JobTiming) -> f64| -> f64 {
        median(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>()) * speed
    };
    let exec = |j: &JobTiming| j.result.duration_since(j.started).as_secs_f64();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.run_s * speed).collect();
    let traced_run_s = median(&traced_walls);
    let hit_ratio = ratio(
        traced[0].cache_hits as f64,
        (traced[0].cache_hits + traced[0].cache_misses) as f64,
    );
    let mapper_s = med(&|l| l.mapper_s);
    let scheduler_s = med(&|l| l.scheduler_s);
    let l0 = &layers[0];
    for &(name, _) in crate::PER_LAYER.iter() {
        out.set(name, 0.0);
    }
    out.set("mapper.busy_s", mapper_s);
    out.set("mapper.busy_share", ratio(mapper_s, traced_run_s));
    out.set("mapper.samples", l0.mapper_samples as f64);
    out.set(
        "mapper.valid_ratio",
        ratio(l0.mapper_valid as f64, l0.mapper_samples as f64),
    );
    out.set(
        "mapper.us_per_sample",
        ratio(mapper_s * 1e6, l0.mapper_samples as f64),
    );
    out.set("mapper.cache_hit_ratio", hit_ratio);
    out.set("scheduler.busy_s", scheduler_s);
    out.set("scheduler.busy_share", ratio(scheduler_s, traced_run_s));
    out.set("authblock.optimize_runs", l0.optimize_runs as f64);
    out.set("authblock.optimize_s", med(&|l| l.optimize_s));
    out.set("authblock.top_tensor_s", med(&|l| l.top_tensor_s));
    out.set("anneal.runs", l0.anneal_runs as f64);
    out.set("anneal.proposals", l0.proposals as f64);
    out.set(
        "anneal.accept_ratio",
        ratio(l0.accepted as f64, l0.proposals as f64),
    );
    out.set(
        "dse.busy_s",
        med(&|l| (l.dse_s - l.mapper_s - l.scheduler_s).max(0.0)),
    );
    out.set(
        "service.queue_wait_s",
        secs(&|j| {
            j.started
                .saturating_duration_since(j.accepted)
                .as_secs_f64()
        }),
    );
    out.set("service.exec_s", secs(&exec));
    out.set(
        "service.protocol_s",
        secs(&|j| j.result.duration_since(j.submit).as_secs_f64() - exec(j)),
    );
    out.set("service.cache_hit_ratio", hit_ratio);
    out.set("telemetry.overhead_ratio", ratio(traced_run_s, run_s));
    let spans = write_spans(state, &tracer)?;
    eprintln!(
        "serve-mixed: {} plain pass(es) {:?}, {} traced pass(es) {:?}; spans in {}; \
         server telemetry, first traced pass: {l0:?}",
        plain.len(),
        walls,
        traced.len(),
        traced_walls,
        spans.display()
    );
    eprint!(
        "{}",
        self_time_table(&tracer.layer_times(0), traced[0].run_s)
    );
    Ok(out)
}
