#!/bin/sh
# Smoke run of one shipped binary: it must exit 0, and its stdout must
# match every PATTERN (an extended regular expression) given before "--".
#
#   sh tests/cli/smoke.sh PATTERN... -- BINARY [ARG...]
set -u

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
: > "$TMP/patterns"
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  printf '%s\n' "$1" >> "$TMP/patterns"
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: smoke.sh PATTERN... -- BINARY [ARG...]" >&2
  exit 2
fi
shift

"$@" > "$TMP/out"
code=$?
cat "$TMP/out"
if [ "$code" -ne 0 ]; then
  echo "FAIL: $1 exited $code" >&2
  exit 1
fi
status=0
while IFS= read -r pattern; do
  if ! grep -Eq -- "$pattern" "$TMP/out"; then
    echo "FAIL: no output line of $1 matches: $pattern" >&2
    status=1
  fi
done < "$TMP/patterns"
exit $status
