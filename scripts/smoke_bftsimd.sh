#!/usr/bin/env sh
# smoke_bftsimd.sh — end-to-end smoke test of the bftsimd daemon over a
# real socket: boot it on a free port, submit a grid job over HTTP,
# stream its NDJSON results to the summary line, cancel a second
# long-running job, shard a grid across two separate pull-worker
# processes (killing one mid-grid to force its leases — up to two, the
# range it runs and the one it holds next — to re-issue), require the
# sharded aggregate to be byte-identical to the single-daemon run and
# the surviving worker to have logged no partial error, then SIGTERM the
# daemon and require a clean drain (exit 0, drain notice in the log). The CI daemon-smoke job runs this; it needs only
# sh, curl, cmp and the go toolchain.
set -eu

cd "$(dirname "$0")/.."

DIR="$(mktemp -d)"
LOG="$DIR/daemon.log"
PID=""
W1=""
W2=""
cleanup() {
  [ -n "$W1" ] && kill -9 "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill -9 "$W2" 2>/dev/null || true
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/bftsimd" ./cmd/bftsimd

"$DIR/bftsimd" -addr 127.0.0.1:0 -dir "$DIR/jobs" -checkpoint-every 1 >"$LOG" 2>&1 &
PID=$!

# The daemon announces its resolved address on stdout.
ADDR=""
i=0
while [ $i -lt 100 ]; do
  ADDR="$(sed -n 's/^bftsimd listening on \([^ ]*\).*/\1/p' "$LOG")"
  [ -n "$ADDR" ] && break
  kill -0 "$PID" 2>/dev/null || { echo "smoke_bftsimd: daemon died at boot" >&2; cat "$LOG" >&2; exit 1; }
  sleep 0.1
  i=$((i + 1))
done
[ -n "$ADDR" ] || { echo "smoke_bftsimd: daemon never announced its address" >&2; cat "$LOG" >&2; exit 1; }
BASE="http://$ADDR"

curl -fsS "$BASE/healthz" >/dev/null

job_id() {
  sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1
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
i=0
while [ $i -lt 100 ]; do
  curl -fsS "$BASE/v1/jobs/$ID2" | grep -q '"state": "cancelled"' && break
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 100 ] || {
  echo "smoke_bftsimd: cancelled job never reached the cancelled state" >&2
  curl -fsS "$BASE/v1/jobs/$ID2" >&2 || true
  exit 1
}

# A malformed spec must be a client error, not an enqueue.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary '{"base": {"topology": {"Kind": "warp"}}}' "$BASE/v1/jobs")"
[ "$CODE" = "400" ] || { echo "smoke_bftsimd: bad spec returned $CODE, want 400" >&2; exit 1; }

# --- Horizontal sharding: one grid, two pull-worker processes. ---
# The same grid run twice: once unsharded on the daemon's own pool (the
# control), once sharded across two external workers with one worker
# kill -9'd mid-grid — its expired lease must re-issue and the final
# aggregate must be byte-identical to the control.
GRID='{
  "base": {"topology": {"Kind": "torus", "W": 15, "H": 15, "R": 2}, "t": 1, "mf": 2,
            "adversary": "random", "density": 0.08, "seed": 47},
  "seeds": 200
}'

CID="$(curl -fsS -X POST --data-binary "$GRID" "$BASE/v1/jobs" | job_id)"
[ -n "$CID" ] || { echo "smoke_bftsimd: control submit returned no job id" >&2; exit 1; }
i=0
while [ $i -lt 600 ]; do
  curl -fsS "$BASE/v1/jobs/$CID" | grep -q '"state": "done"' && break
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 600 ] || { echo "smoke_bftsimd: control job never finished" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$CID/aggregate" >"$DIR/control.json"

SID="$(curl -fsS -X POST --data-binary "$GRID" \
  "$BASE/v1/jobs?sharded=1&lease_points=4&lease_ttl=2s" | job_id)"
[ -n "$SID" ] || { echo "smoke_bftsimd: sharded submit returned no job id" >&2; exit 1; }

"$DIR/bftsimd" -worker -coordinator "$BASE" -worker-id w1 -poll 50ms >"$DIR/w1.log" 2>&1 &
W1=$!
"$DIR/bftsimd" -worker -coordinator "$BASE" -worker-id w2 -poll 50ms >"$DIR/w2.log" 2>&1 &
W2=$!

# Kill worker 1 as soon as the grid has made progress but is not done:
# the leases it holds (the range it runs and, with its one range of
# lookahead, the next) are abandoned and must re-issue after their 2s
# TTL for the job to ever finish.
i=0
while [ $i -lt 600 ]; do
  DONE="$(curl -fsS "$BASE/v1/jobs/$SID" | sed -n 's/.*"done": \([0-9]*\).*/\1/p' | head -n 1)"
  [ "${DONE:-0}" -gt 0 ] && break
  sleep 0.05
  i=$((i + 1))
done
[ $i -lt 600 ] || { echo "smoke_bftsimd: sharded job made no progress" >&2; cat "$DIR/w1.log" "$DIR/w2.log" >&2; exit 1; }
kill -9 "$W1" 2>/dev/null || true
W1=""

i=0
while [ $i -lt 600 ]; do
  curl -fsS "$BASE/v1/jobs/$SID" | grep -q '"state": "done"' && break
  sleep 0.1
  i=$((i + 1))
done
[ $i -lt 600 ] || {
  echo "smoke_bftsimd: sharded job never finished after the worker kill" >&2
  curl -fsS "$BASE/v1/jobs/$SID" >&2 || true
  cat "$DIR/w2.log" >&2
  exit 1
}
curl -fsS "$BASE/v1/jobs/$SID/aggregate" >"$DIR/sharded.json"
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

# Graceful drain: SIGTERM, clean exit, drain notice.
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = "0" ] || { echo "smoke_bftsimd: daemon exited $RC after SIGTERM" >&2; cat "$LOG" >&2; exit 1; }
grep -q "bftsimd draining" "$LOG" || {
  echo "smoke_bftsimd: no drain notice in the log" >&2
  cat "$LOG" >&2
  exit 1
}

echo "smoke_bftsimd: OK"
