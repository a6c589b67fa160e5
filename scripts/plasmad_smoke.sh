#!/usr/bin/env sh
# plasmad_smoke.sh — end-to-end smoke test of the serving daemon.
#
# Starts plasmad, submits a small plume job, polls it to completion,
# re-submits the identical spec, then the same spec at sim_workers=4, to
# prove the cache answers both (HTTP 200, cache_hit, no new world, the
# same result bytes), checks /metrics, then SIGTERMs the daemon and
# asserts a clean drain (exit 0). Used by CI and `make plasmad-smoke`.
#
# Requirements: go toolchain, curl. No other dependencies.
set -eu

ADDR="${PLASMAD_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="${PLASMAD_BIN:-bin/plasmad}"
LOG="$(mktemp)"

fail() {
	echo "plasmad_smoke: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$LOG" >&2
	exit 1
}

go build -o "$BIN" ./cmd/plasmad

"$BIN" -addr "$ADDR" -workers 2 -drain-timeout 60s >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

# Wait for the daemon to come up.
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -le 50 ] || fail "daemon did not become healthy"
	sleep 0.2
done

SPEC='{"mesh_nz":6,"ranks":2,"steps":3,"seed":7,"inject_h":400}'

# Submit: must be accepted (202) with a job id.
RESP="$(curl -fsS -X POST -d "$SPEC" "$BASE/jobs")"
JOB_ID="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB_ID" ] || fail "submit response had no job id: $RESP"
echo "submitted $JOB_ID"

# Poll to completion.
i=0
while :; do
	ST="$(curl -fsS "$BASE/jobs/$JOB_ID")"
	case "$ST" in
	*'"state":"done"'*) break ;;
	*'"state":"failed"'* | *'"state":"canceled"'*) fail "job ended badly: $ST" ;;
	esac
	i=$((i + 1))
	[ "$i" -le 300 ] || fail "job did not finish: $ST"
	sleep 0.2
done
echo "job done"

# Result must be present and report particles.
RES="$(curl -fsS "$BASE/jobs/$JOB_ID/result")"
case "$RES" in
*'"final_particles"'*) ;;
*) fail "result payload missing final_particles: $RES" ;;
esac

# Identical re-submission: HTTP 200 (not 202) and cache_hit, same job id.
CODE="$(curl -fsS -o /tmp/plasmad_resubmit.$$ -w '%{http_code}' -X POST -d "$SPEC" "$BASE/jobs")"
RESUB="$(cat /tmp/plasmad_resubmit.$$)"
rm -f /tmp/plasmad_resubmit.$$
[ "$CODE" = "200" ] || fail "cache hit returned HTTP $CODE: $RESUB"
case "$RESUB" in
*'"cache_hit":true'*) ;;
*) fail "re-submission was not a cache hit: $RESUB" ;;
esac
case "$RESUB" in
*"\"id\":\"$JOB_ID\""*) ;;
*) fail "cache hit returned a different job id: $RESUB" ;;
esac
echo "cache hit confirmed"

# Same plume with multicore kernels: sim_workers changes wall time only,
# so it is not in the cache key and this is a cache hit (HTTP 200, same
# job) whose /result is byte-identical to the serial run's.
SPEC_W='{"mesh_nz":6,"ranks":2,"steps":3,"seed":7,"inject_h":400,"sim_workers":4}'
CODE="$(curl -fsS -o /tmp/plasmad_resubmit.$$ -w '%{http_code}' -X POST -d "$SPEC_W" "$BASE/jobs")"
RESP_W="$(cat /tmp/plasmad_resubmit.$$)"
rm -f /tmp/plasmad_resubmit.$$
[ "$CODE" = "200" ] || fail "sim_workers=4 submit returned HTTP $CODE, want a cache hit: $RESP_W"
case "$RESP_W" in
*'"cache_hit":true'*) ;;
*) fail "sim_workers=4 spec was not a cache hit: $RESP_W" ;;
esac
JOB_W="$(printf '%s' "$RESP_W" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ "$JOB_W" = "$JOB_ID" ] || fail "sim_workers=4 cache hit returned job $JOB_W, want $JOB_ID"
RES_W="$(curl -fsS "$BASE/jobs/$JOB_W/result")"
[ "$RES_W" = "$RES" ] || fail "sim_workers=4 result differs from the serial result: $RES_W vs $RES"
echo "sim_workers=4 cache hit confirmed"

# Metrics: one world built despite three submissions.
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q '^plasmad_jobs_submitted 3$' || fail "metrics: want 3 submissions: $METRICS"
echo "$METRICS" | grep -q '^plasmad_worlds_built 1$' || fail "metrics: want exactly 1 world built: $METRICS"
echo "$METRICS" | grep -q '^plasmad_jobs_cache_hits 2$' || fail "metrics: want 2 cache hits: $METRICS"

# SIGTERM: the daemon must drain and exit 0 on its own.
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -le 150 ] || fail "daemon did not exit after SIGTERM"
	sleep 0.2
done
set +e
wait "$PID"
RC=$?
set -e
[ "$RC" -eq 0 ] || fail "daemon exited $RC after SIGTERM"
grep -q "drained" "$LOG" || fail "daemon log has no drain marker"
trap 'rm -f "$LOG"' EXIT

echo "plasmad_smoke: PASS"
