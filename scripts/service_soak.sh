#!/usr/bin/env bash
# Soak test for `secureloop serve`: 20 jobs (2 fault-planned poison
# jobs, a burst that overflows the queue), SIGTERM mid-run, restart on
# the same state dir, then assert:
#
#   - a submit with a misspelled budget key gets an `error` naming the
#     key and never becomes a job,
#   - the burst was shed with typed `overloaded` responses,
#   - the poison jobs settled as `poisoned` with their cause,
#   - every resumable job completed after the restart,
#   - the reference job's results are identical to a one-shot
#     `secureloop dse` run of the same sweep.
#
# Run from the repo root: scripts/service_soak.sh
set -euo pipefail

BIN=${BIN:-./target/release/secureloop}
WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
STATE="$WORK/state"

say() { echo "[soak] $*"; }

[ -x "$BIN" ] || { echo "missing $BIN (cargo build --release first)"; exit 1; }

# Small per-job budgets keep each design point around a second; the
# reference job runs the full 18-design Fig. 16 space exactly like the
# one-shot `dse` command (same workload/budgets/seed).
BUDGET='"workload":"mlp","samples":20,"iterations":3,"seed":1'
DESIGNS=("14x12/16kB/Pipelined" "14x12/32kB/Pipelined" "14x12/131kB/Pipelined"
         "14x24/16kB/Parallel" "14x24/32kB/Parallel" "28x24/16kB/Pipelined")

say "one-shot reference run"
"$BIN" dse --workload mlp --samples 20 --iterations 3 --seed 1 --no-cache --json \
    > "$WORK/oneshot.json"

start_server() { # $1 = fifo, $2 = log
    mkfifo "$1"
    "$BIN" serve --state-dir "$STATE" --queue-depth 6 --service-workers 2 \
        --max-retries 1 < "$1" > "$2" &
    SERVER_PID=$!
}

wait_for() { # $1 = pattern, $2 = file, $3 = timeout secs
    for _ in $(seq 1 $(( $3 * 10 ))); do
        grep -q "$1" "$2" 2>/dev/null && return 0
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; exit 1; }
        sleep 0.1
    done
    echo "timeout waiting for $1 in $2"; cat "$2"; exit 1
}

say "phase 1: server up, 20-job burst against a depth-6 queue"
start_server "$WORK/in1" "$WORK/soak-1.log"
exec 3>"$WORK/in1"
wait_for '"event":"ready"' "$WORK/soak-1.log" 30

# A misspelled budget key ("sample") is refused outright instead of
# silently running the default budget; it takes no queue slot.
echo '{"op":"submit","id":"typo","workload":"mlp","sample":20,"iterations":3,"seed":1}' >&3
wait_for '"event":"error"' "$WORK/soak-1.log" 30

# j01 is the byte-identity reference (full space, no designs filter —
# the exact sweep the one-shot run above did). j02/j03 are the planned
# poison jobs: an injected panic scoped to their own design.
echo "{\"op\":\"submit\",\"id\":\"j01\",$BUDGET}" >&3
for i in 2 3; do
    d=${DESIGNS[$((i - 2))]}
    echo "{\"op\":\"submit\",\"id\":\"j0$i\",$BUDGET,\"designs\":[\"$d\"],\"fault\":{\"kind\":\"panic\",\"layers\":[\"fc0\"],\"arch\":\"$d\"}}" >&3
done
for i in $(seq 4 20); do
    id=$(printf 'j%02d' "$i")
    d=${DESIGNS[$(( (i - 4) % ${#DESIGNS[@]} ))]}
    echo "{\"op\":\"submit\",\"id\":\"$id\",$BUDGET,\"designs\":[\"$d\"]}" >&3
done

wait_for '"event":"overloaded"' "$WORK/soak-1.log" 30
say "typed shedding observed"
# Stop the server once the full-space reference job has checkpointed
# its first design point, so the drain lands with 17 of its 18 still to
# run and the restart must resume it. A fixed delay after the first
# result is not enough: every admitted job can finish within a second.
wait_for '"event":"progress","id":"j01"' "$WORK/soak-1.log" 120

say "SIGTERM mid-run"
kill -TERM "$SERVER_PID"
rc=0; wait "$SERVER_PID" || rc=$?
exec 3>&-
[ "$rc" -eq 3 ] || { echo "expected exit 3 after SIGTERM, got $rc"; exit 1; }
grep -q '"event":"checkpointed"' "$WORK/soak-1.log" \
    || { echo "no job was checkpointed by the drain"; cat "$WORK/soak-1.log"; exit 1; }

say "phase 2: restart on the same state dir"
start_server "$WORK/in2" "$WORK/soak-2.log"
exec 3>"$WORK/in2"
wait_for '"event":"ready"' "$WORK/soak-2.log" 30

resumed=$(python3 -c "
import json,sys
ready = json.loads(open('$WORK/soak-2.log').readline())
assert ready['resumed'] >= 1, 'nothing was resumable after a mid-run SIGTERM'
print(ready['resumed'])")
say "resumed $resumed job(s); waiting for them to finish"
for _ in $(seq 1 3000); do
    n=$(grep -c '"event":"result"' "$WORK/soak-2.log" || true)
    [ "$n" -ge "$resumed" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died"; exit 1; }
    sleep 0.1
done

echo '{"op":"shutdown"}' >&3
rc=0; wait "$SERVER_PID" || rc=$?
exec 3>&-
[ "$rc" -eq 0 ] || { echo "expected clean exit 0, got $rc"; exit 1; }

say "checking the transcripts"
python3 - "$WORK" "$resumed" <<'EOF'
import json, sys

work, resumed = sys.argv[1], int(sys.argv[2])
events = []
for log in ("soak-1.log", "soak-2.log"):
    with open(f"{work}/{log}") as f:
        events += [json.loads(l) for l in f if l.strip()]

results = {e["id"]: e for e in events if e.get("event") == "result"}
shed = {e["id"] for e in events if e.get("event") == "overloaded"}
jobs = {f"j{i:02d}" for i in range(1, 21)}

# The misspelled submit got one error naming the key, and nothing else:
# no acceptance, no result, no shed.
errors = [e for e in events if e.get("event") == "error"]
assert len(errors) == 1 and "'sample'" in errors[0]["reason"], errors
assert not [e for e in events if e.get("id") == "typo"], "the typo submit became a job"

# Every job reached a disposition: a terminal result or a typed shed.
missing = jobs - set(results) - shed
assert not missing, f"jobs with no disposition: {sorted(missing)}"
assert shed, "the burst never overflowed the queue"
for e in events:
    if e.get("event") == "overloaded":
        assert e["queue_limit"] == 6, e

# The planned poison jobs report their cause; nothing else poisoned.
for jid in ("j02", "j03"):
    if jid in results:  # unless the burst shed them first
        assert results[jid]["status"] == "poisoned", results[jid]
        assert "panic" in results[jid]["cause"], results[jid]
for jid, r in results.items():
    if jid not in ("j02", "j03"):
        assert r["status"] == "completed", r

# The reference job matches the one-shot CLI run design for design.
oneshot = json.load(open(f"{work}/oneshot.json"))
assert "j01" in results, "the reference job was shed"
service = results["j01"]["report"]["designs"]
assert service == oneshot["designs"], (
    "service results diverge from the one-shot CLI:\n"
    f"  service: {json.dumps(service)[:400]}\n"
    f"  oneshot: {json.dumps(oneshot['designs'])[:400]}")

# Everything that survived the SIGTERM completed after the restart.
phase2 = [json.loads(l) for l in open(f"{work}/soak-2.log") if l.strip()]
done2 = [e for e in phase2 if e.get("event") == "result"]
assert len(done2) >= resumed, (len(done2), resumed)

print(f"soak OK: {len(results)} results, {len(shed)} shed, "
      f"{resumed} resumed after SIGTERM, reference byte-identical")
EOF

say "PASS"
