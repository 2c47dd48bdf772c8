#!/usr/bin/env bash
# Run one sweep grid the distributed way on this machine: an `art9 serve`
# coordinator on 127.0.0.1:7929 plus two `art9 work` clients that dial it.
# Fails unless the coordinator and both clients exit 0.
#
#   .github/served-sweep.sh RUN_DIR [art9 serve grid flags ...]
#
# The clients start once the coordinator has announced its port, so both
# are connected before the grid can run dry.  Every process inherits the
# environment (ART9_CACHE_DIR, ART9_TRACE, ART9_TRACE_FILE, ...).
set -euo pipefail
run_dir=$1
shift
export PYTHONPATH=src
log="$run_dir.serve.log"
python -m repro.cli serve --host 127.0.0.1 --port 7929 --out "$run_dir" \
  "$@" > "$log" 2>&1 &
serve=$!
until grep -q "coordinator listening" "$log" 2> /dev/null; do
  if ! kill -0 "$serve" 2> /dev/null; then
    cat "$log"
    exit 1
  fi
  sleep 0.1
done
workers=()
for i in 0 1; do
  python -m repro.cli work --connect 127.0.0.1:7929 --name "ci-worker-$i" &
  workers+=("$!")
done
status=0
wait "$serve" || status=$?
cat "$log"
for worker in "${workers[@]}"; do
  wait "$worker" || status=$?
done
exit "$status"
