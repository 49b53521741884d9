//! A random-mode search that fans its chunks out to worker threads
//! attributes their `chunk` events to the caller's telemetry scope, as
//! a served job's trace needs. Its own test binary: the trace sink is
//! process-wide.

use secureloop_arch::Architecture;
use secureloop_json::Json;
use secureloop_mapper::{search, SearchConfig, SearchMode};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

#[test]
fn parallel_chunk_events_carry_the_job_scope() {
    let (sink, lines) = telemetry::VecSink::new();
    telemetry::install_sink(sink);
    let cfg = SearchConfig {
        samples: 2048,
        top_k: 3,
        seed: 11,
        threads: 4,
        deadline: None,
        mode: SearchMode::Random,
    };
    {
        let _job = telemetry::enter_scope("job-x");
        search(
            &zoo::alexnet_conv().layers()[2],
            &Architecture::eyeriss_base(),
            &cfg,
        )
        .expect("search succeeds");
    }
    telemetry::take_sink();

    let events: Vec<Json> = lines
        .lock()
        .expect("sink lock")
        .iter()
        .map(|l| Json::parse(l).expect("events are JSON"))
        .collect();
    let chunks: Vec<&Json> = events
        .iter()
        .filter(|e| e["event"].as_str() == Some("chunk"))
        .collect();
    assert_eq!(chunks.len(), 8, "one event per 256-sample chunk");
    for chunk in chunks {
        assert_eq!(chunk["job"].as_str(), Some("job-x"), "{chunk}");
    }
}
