#!/bin/sh
# Runs panagree-sweep and checks its exit status and its bytes.
#
#   sweep_golden_test.sh STATUS GOLDEN SWEEP [ARGS...]
#
# Runs SWEEP ARGS, expects exit status STATUS, and compares stdout,
# followed by the "[sweep] baseline" stderr line when there is one, with
# the file GOLDEN (/dev/null for "no output"). The topology comes from
# the environment (PANAGREE_CAIDA or PANAGREE_ASES, and PANAGREE_SOURCES),
# as for any run of the tool.
set -eu
expect=$1
golden=$2
shift 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
"$@" >"$tmp/out" 2>"$tmp/err" || status=$?
grep '^\[sweep\] baseline' "$tmp/err" >>"$tmp/out" || true
if [ "$status" -ne "$expect" ]; then
  echo "exit status $status, expected $expect; stderr:" >&2
  cat "$tmp/err" >&2
  exit 1
fi
diff -u "$golden" "$tmp/out"
