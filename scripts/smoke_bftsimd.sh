#!/usr/bin/env sh
# smoke_bftsimd.sh — end-to-end smoke test of the bftsimd daemon over a
# real socket: boot it on a free port, submit a grid job over HTTP,
# stream its NDJSON results to the summary line, cancel a second
# long-running job, run a sharded grid on the daemon's own executors
# alone, shard the same grid across two separate pull-worker processes
# on a second coordinator that runs no executors (-workers -1), killing
# one worker mid-grid to force its leases — up to four: each of its
# -workers 2 executors runs one range and holds the next — to re-issue,
# require both sharded
# aggregates to be byte-identical to the plain run and the surviving
# worker to have logged no partial error, then SIGTERM both daemons and
# require clean drains (exit 0, drain notice in the log). The CI
# daemon-smoke job runs this; it needs only sh, curl, cmp and the go
# toolchain.
set -eu

cd "$(dirname "$0")/.."

DIR="$(mktemp -d)"
LOG="$DIR/daemon.log"
LOG2="$DIR/pure.log"
PID=""
PID2=""
W1=""
W2=""
cleanup() {
  [ -n "$W1" ] && kill -9 "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill -9 "$W2" 2>/dev/null || true
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  [ -n "$PID2" ] && kill "$PID2" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/bftsimd" ./cmd/bftsimd

# await_addr PID LOG waits for the daemon PID to announce its resolved
# address in LOG and prints it.
await_addr() {
  i=0
  while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^bftsimd listening on \([^ ]*\).*/\1/p' "$2")"
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    kill -0 "$1" 2>/dev/null || { echo "smoke_bftsimd: daemon died at boot" >&2; cat "$2" >&2; return 1; }
    sleep 0.1
    i=$((i + 1))
  done
  echo "smoke_bftsimd: daemon never announced its address" >&2
  cat "$2" >&2
  return 1
}

"$DIR/bftsimd" -addr 127.0.0.1:0 -dir "$DIR/jobs" -checkpoint-every 1 >"$LOG" 2>&1 &
PID=$!
BASE="http://$(await_addr "$PID" "$LOG")"

curl -fsS "$BASE/healthz" >/dev/null

job_id() {
  sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1
}

# await_state URL STATE polls the job status at URL for up to a minute
# until it reads STATE.
await_state() {
  i=0
  while [ $i -lt 600 ]; do
    curl -fsS "$1" | grep -q "\"state\": \"$2\"" && return 0
    sleep 0.1
    i=$((i + 1))
  done
  return 1
}

# A small job, streamed to completion.
ID="$(curl -fsS -X POST --data-binary '{
  "base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
            "adversary": "random", "density": 0.08, "seed": 41},
  "seeds": 6
}' "$BASE/v1/jobs" | job_id)"
[ -n "$ID" ] || { echo "smoke_bftsimd: submit returned no job id" >&2; exit 1; }

STREAM="$(curl -fsS "$BASE/v1/jobs/$ID/results")"
printf '%s\n' "$STREAM" | grep -q '"summary"' || {
  echo "smoke_bftsimd: results stream missing its summary line" >&2
  printf '%s\n' "$STREAM" >&2
  exit 1
}
printf '%s\n' "$STREAM" | grep -q '"state":"done"' || {
  echo "smoke_bftsimd: streamed job did not finish" >&2
  printf '%s\n' "$STREAM" >&2
  exit 1
}
curl -fsS "$BASE/v1/jobs" | grep -q "\"$ID\"" || {
  echo "smoke_bftsimd: job listing lost the job" >&2
  exit 1
}

# A long job (500 points), cancelled while in flight.
ID2="$(curl -fsS -X POST --data-binary '{
  "base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
            "adversary": "random", "density": 0.08, "seed": 43},
  "seeds": 500
}' "$BASE/v1/jobs" | job_id)"
curl -fsS -X POST "$BASE/v1/jobs/$ID2/cancel" >/dev/null
# Cancellation is asynchronous: the runner finalizes the job after its
# in-flight points unwind. Poll the status until it lands.
await_state "$BASE/v1/jobs/$ID2" cancelled || {
  echo "smoke_bftsimd: cancelled job never reached the cancelled state" >&2
  curl -fsS "$BASE/v1/jobs/$ID2" >&2 || true
  exit 1
}

# A malformed spec must be a client error, not an enqueue.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary '{"base": {"topology": {"Kind": "warp"}}}' "$BASE/v1/jobs")"
[ "$CODE" = "400" ] || { echo "smoke_bftsimd: bad spec returned $CODE, want 400" >&2; exit 1; }

# --- Horizontal sharding: one grid, three ways. ---
# The same grid run three times: unsharded on the daemon's own pool (the
# control); sharded on the same daemon with no pull worker, so its own
# executors lease every range; and sharded on a second coordinator with
# no executors across two external workers, one kill -9'd mid-grid — its
# expired lease must re-issue. Both sharded aggregates must be
# byte-identical to the control.
GRID='{
  "base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
            "adversary": "random", "density": 0.08, "seed": 47},
  "seeds": 200
}'

CID="$(curl -fsS -X POST --data-binary "$GRID" "$BASE/v1/jobs" | job_id)"
[ -n "$CID" ] || { echo "smoke_bftsimd: control submit returned no job id" >&2; exit 1; }
await_state "$BASE/v1/jobs/$CID" done || { echo "smoke_bftsimd: control job never finished" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$CID/aggregate" >"$DIR/control.json"

LID="$(curl -fsS -X POST --data-binary "$GRID" "$BASE/v1/jobs?sharded=1&lease_points=4" | job_id)"
[ -n "$LID" ] || { echo "smoke_bftsimd: in-process sharded submit returned no job id" >&2; exit 1; }
await_state "$BASE/v1/jobs/$LID" done || { echo "smoke_bftsimd: a sharded job with no pull worker never finished" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$LID/aggregate" >"$DIR/local.json"
cmp -s "$DIR/control.json" "$DIR/local.json" || {
  echo "smoke_bftsimd: the executors' sharded aggregate diverged from the plain run" >&2
  diff "$DIR/control.json" "$DIR/local.json" >&2 || true
  exit 1
}

# The kill leg needs a coordinator with no executors: the default pool
# would finish the 200 points before the workers attach, and no lease
# would ever re-issue.
"$DIR/bftsimd" -addr 127.0.0.1:0 -dir "$DIR/pure" -workers -1 -checkpoint-every 1 >"$LOG2" 2>&1 &
PID2=$!
BASE2="http://$(await_addr "$PID2" "$LOG2")"

SID="$(curl -fsS -X POST --data-binary "$GRID" \
  "$BASE2/v1/jobs?sharded=1&lease_points=4&lease_ttl=2s" | job_id)"
[ -n "$SID" ] || { echo "smoke_bftsimd: sharded submit returned no job id" >&2; exit 1; }

"$DIR/bftsimd" -worker -coordinator "$BASE2" -worker-id w1 -workers 2 -poll 50ms >"$DIR/w1.log" 2>&1 &
W1=$!
"$DIR/bftsimd" -worker -coordinator "$BASE2" -worker-id w2 -workers 2 -poll 50ms >"$DIR/w2.log" 2>&1 &
W2=$!

# Kill worker 1 as soon as the grid has made progress but is not done:
# the leases it holds (up to two ranges per executor: the one running
# and the one leased ahead) are abandoned and must re-issue after their
# 2s TTL for the job to ever finish.
i=0
while [ $i -lt 600 ]; do
  DONE="$(curl -fsS "$BASE2/v1/jobs/$SID" | sed -n 's/.*"done": \([0-9]*\).*/\1/p' | head -n 1)"
  [ "${DONE:-0}" -gt 0 ] && break
  sleep 0.05
  i=$((i + 1))
done
[ $i -lt 600 ] || { echo "smoke_bftsimd: sharded job made no progress" >&2; cat "$DIR/w1.log" "$DIR/w2.log" >&2; exit 1; }
kill -9 "$W1" 2>/dev/null || true
W1=""

await_state "$BASE2/v1/jobs/$SID" done || {
  echo "smoke_bftsimd: sharded job never finished after the worker kill" >&2
  curl -fsS "$BASE2/v1/jobs/$SID" >&2 || true
  cat "$DIR/w2.log" >&2
  exit 1
}
curl -fsS "$BASE2/v1/jobs/$SID/aggregate" >"$DIR/sharded.json"
cmp -s "$DIR/control.json" "$DIR/sharded.json" || {
  echo "smoke_bftsimd: sharded aggregate diverged from the single-daemon run" >&2
  diff "$DIR/control.json" "$DIR/sharded.json" >&2 || true
  exit 1
}
# Every partial the surviving worker posted, in the background or not,
# was taken: a rejected or undeliverable one is logged as "partial ...".
if grep -q "partial" "$DIR/w2.log"; then
  echo "smoke_bftsimd: the surviving worker logged partial errors" >&2
  cat "$DIR/w2.log" >&2
  exit 1
fi

# The surviving worker drains cleanly on SIGTERM.
kill -TERM "$W2"
RC=0
wait "$W2" || RC=$?
W2=""
[ "$RC" = "0" ] || { echo "smoke_bftsimd: worker exited $RC after SIGTERM" >&2; cat "$DIR/w2.log" >&2; exit 1; }
grep -q "draining" "$DIR/w2.log" || {
  echo "smoke_bftsimd: no worker drain notice" >&2
  cat "$DIR/w2.log" >&2
  exit 1
}

# Graceful drain of both daemons: SIGTERM, clean exit, drain notice.
for d in "$PID2:$LOG2" "$PID:$LOG"; do
  pid="${d%%:*}"
  log="${d#*:}"
  kill -TERM "$pid"
  RC=0
  wait "$pid" || RC=$?
  [ "$RC" = "0" ] || { echo "smoke_bftsimd: daemon exited $RC after SIGTERM" >&2; cat "$log" >&2; exit 1; }
  grep -q "bftsimd draining" "$log" || {
    echo "smoke_bftsimd: no drain notice in the log" >&2
    cat "$log" >&2
    exit 1
  }
done
PID=""
PID2=""

echo "smoke_bftsimd: OK"
