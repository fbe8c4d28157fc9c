# Start and drain helpers for the smoke jobs that run mcpatd. Source
# this file from a bash run block that has built /tmp/mcpatd:
#
#   source .github/scripts/mcpatd.sh
#   mcpatd_start mcpatd.log -quiet   # sets PID and ADDR
#   curl -fsS "http://$ADDR/healthz"
#   mcpatd_drain "$PID" mcpatd.log

# mcpatd_start <log> [flag...] starts /tmp/mcpatd on a random loopback
# port with the given flags, logging to <log>. It sets PID, and ADDR
# once the startup line reports the address; it fails the job when no
# address appears within 10 s.
mcpatd_start() {
  local log=$1
  shift
  /tmp/mcpatd -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
  PID=$!
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/.*mcpatd: listening on //p' "$log" | head -n 1)
    [ -n "$ADDR" ] && return 0
    sleep 0.2
  done
  echo "mcpatd never reported its address"; cat "$log"; exit 1
}

# mcpatd_drain <pid> <log> sends SIGTERM and requires a graceful drain:
# the process exits within 20 s, with status 0, and <log> reports a
# clean shutdown.
mcpatd_drain() {
  local pid=$1 log=$2 rc=0
  kill -TERM "$pid"
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "mcpatd did not exit within 20s of SIGTERM"; cat "$log"; exit 1
  fi
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "mcpatd exited $rc after SIGTERM"; cat "$log"; exit 1
  fi
  grep -q 'clean shutdown' "$log" || { echo "no clean shutdown in $log"; cat "$log"; exit 1; }
}
