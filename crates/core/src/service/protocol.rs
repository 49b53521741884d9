//! The JSON-Lines wire protocol: one JSON object per line, both ways.
//!
//! Requests (client → server), keyed by `"op"`:
//!
//! ```text
//! {"op":"submit","id":"job-1","workload":"alexnet",
//!  "designs":["14x12/16kB/Pipelined"],   // optional; absent = full Fig. 16 space
//!  "algorithm":"crypt-opt-cross",        // optional run fields: see below
//!  "samples":500,"iterations":100,"seed":1,
//!  "deadline_secs":5.0,"scheme":"seculator",
//!  "fault":{"kind":"panic","layers":["fc0"],"arch":"..."}}  // chaos hook
//! {"op":"cancel","id":"job-1"}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}                      // graceful: drain the queue fully, then exit
//! ```
//!
//! Responses (server → client), keyed by `"event"`:
//!
//! ```text
//! {"event":"ready","resumed":N,"queue_limit":N,"workers":N}
//! {"event":"accepted","id":...,"queue_depth":N}
//! {"event":"overloaded","id":...,"queue_depth":N,"queue_limit":N}   // typed shed
//! {"event":"rejected","id":...,"reason":"..."}                      // admission / malformed
//! {"event":"started","id":...}
//! {"event":"progress","id":...,"design":...,"outcome":...}          // one per design point
//! {"event":"result","id":...,"status":"completed|failed|poisoned|cancelled",
//!  "report":{...},"cause":"..."?}
//! {"event":"checkpointed","id":...}      // drain interrupted it; resumes on restart
//! {"event":"cancelled","id":...}         // a queued job was cancelled in place
//! {"event":"stats",...}
//! {"event":"pong"}
//! {"event":"error","reason":"..."}       // unparseable request line
//! {"event":"shutdown","resumable":N}     // last line before exit
//! ```
//!
//! A submit's run fields (`workload` … `scheme`) are the ones every
//! entry point shares; their defaults and validation rules are in
//! DESIGN.md "Run specification". An ill-typed value or an unknown key
//! gets an `error` event naming the key.

use secureloop_json::Json;

use crate::service::job::JobSpec;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Cancel a queued or running job by id.
    Cancel(String),
    /// Ask for queue / job-table / cache statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain the queue fully, then exit.
    Shutdown,
}

/// Parse one request line.
///
/// # Errors
///
/// A client-facing reason string (sent back as an `error` or
/// `rejected` event).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("not a JSON object: {e}"))?;
    let op = v["op"].as_str().ok_or("request needs a string 'op'")?;
    match op {
        "submit" => Ok(Request::Submit(Box::new(JobSpec::from_json(&v)?))),
        "cancel" => {
            let id = v["id"].as_str().ok_or("cancel needs a string 'id'")?;
            Ok(Request::Cancel(id.to_string()))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// `{"event":"accepted",...}` — the job holds a queue slot.
pub fn accepted(id: &str, queue_depth: usize) -> Json {
    Json::obj()
        .field("event", "accepted")
        .field("id", id)
        .field("queue_depth", queue_depth as u64)
}

/// `{"event":"overloaded",...}` — the typed shed response: the queue
/// was full, the job was NOT buffered, try again later.
pub fn overloaded(id: &str, queue_depth: usize, queue_limit: usize) -> Json {
    Json::obj()
        .field("event", "overloaded")
        .field("id", id)
        .field("queue_depth", queue_depth as u64)
        .field("queue_limit", queue_limit as u64)
}

/// `{"event":"rejected",...}` — admission control or a malformed spec.
pub fn rejected(id: &str, reason: &str) -> Json {
    Json::obj()
        .field("event", "rejected")
        .field("id", id)
        .field("reason", reason)
}

/// `{"event":"error",...}` — the request line itself was unusable.
pub fn protocol_error(reason: &str) -> Json {
    Json::obj().field("event", "error").field("reason", reason)
}

/// `{"event":"started",...}` — a worker picked the job up.
pub fn started(id: &str) -> Json {
    Json::obj().field("event", "started").field("id", id)
}

/// `{"event":"result",...}` — terminal job outcome with its report.
pub fn result(id: &str, status: &str, report: Json, cause: Option<&str>) -> Json {
    let mut v = Json::obj()
        .field("event", "result")
        .field("id", id)
        .field("status", status)
        .field("report", report);
    if let Some(cause) = cause {
        v = v.field("cause", cause);
    }
    v
}

/// `{"event":"checkpointed",...}` — a drain interrupted the job after
/// its finished design points were checkpointed; a restarted server
/// resumes it with zero recomputation.
pub fn checkpointed(id: &str) -> Json {
    Json::obj().field("event", "checkpointed").field("id", id)
}

/// `{"event":"cancelled",...}` — a still-queued job was cancelled.
pub fn cancelled(id: &str) -> Json {
    Json::obj().field("event", "cancelled").field("id", id)
}

/// `{"event":"pong"}`.
pub fn pong() -> Json {
    Json::obj().field("event", "pong")
}

/// `{"event":"ready",...}` — first line after startup; `resumed` is
/// how many journalled jobs were re-enqueued.
pub fn ready(resumed: usize, queue_limit: usize, workers: usize) -> Json {
    Json::obj()
        .field("event", "ready")
        .field("resumed", resumed as u64)
        .field("queue_limit", queue_limit as u64)
        .field("workers", workers as u64)
}

/// `{"event":"shutdown",...}` — last line before exit; `resumable` is
/// how many jobs will resume on restart.
pub fn shutdown(resumable: usize) -> Json {
    Json::obj()
        .field("event", "shutdown")
        .field("resumable", resumable as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_parse_to_requests() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"j1"}"#),
            Ok(Request::Cancel("j1".into()))
        );
        match parse_request(r#"{"op":"submit","id":"j1","workload":"alexnet"}"#).unwrap() {
            Request::Submit(spec) => {
                assert_eq!(spec.id, "j1");
                assert_eq!(spec.run.samples, 3000, "defaults mirror the CLI");
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn bad_lines_report_why() {
        assert!(parse_request("not json").unwrap_err().contains("JSON"));
        assert!(parse_request(r#"{"id":"x"}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"dance"}"#)
            .unwrap_err()
            .contains("dance"));
        assert!(
            parse_request(r#"{"op":"submit","id":"../x","workload":"alexnet"}"#)
                .unwrap_err()
                .contains("invalid job id")
        );
    }

    #[test]
    fn responses_are_single_line_json() {
        for v in [
            accepted("j", 3),
            overloaded("j", 8, 8),
            rejected("j", "too big"),
            protocol_error("bad line"),
            started("j"),
            result("j", "completed", Json::obj(), None),
            checkpointed("j"),
            cancelled("j"),
            pong(),
            ready(2, 8, 2),
            shutdown(1),
        ] {
            let line = v.to_string();
            assert!(!line.contains('\n'));
            assert!(Json::parse(&line).is_ok());
            assert!(line.contains("\"event\""));
        }
    }
}
