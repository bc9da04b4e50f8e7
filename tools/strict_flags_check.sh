#!/usr/bin/env bash
# Strict whole-number flags: every malformed value (a sign, a trailing
# letter, no digits at all) must make skpd and the capacity bench exit 2
# at once, before any work runs. A wrapped '-1' would otherwise ask skpd
# for 2^64-1 preloaded sessions.
# Usage: tools/strict_flags_check.sh SKPD_BIN [CAPACITY_BIN]
set -uo pipefail

skpd="${1:?usage: strict_flags_check.sh SKPD_BIN [CAPACITY_BIN]}"
capacity="${2:-}"
failures=0

# Runs "$@" with a short deadline and requires exit status 2.
expect_exit2() {
  timeout 10 "$@" >/dev/null 2>&1
  local status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: '$*' exited $status, expected 2" >&2
    failures=$((failures + 1))
  fi
}

for flag in --port --sndbuf --write-queue-soft --write-queue-hard \
            --preload-sessions; do
  for value in -1 80x abc ''; do
    expect_exit2 "$skpd" "$flag=$value"
  done
done
expect_exit2 "$skpd" --port=70000
expect_exit2 "$skpd" --sndbuf=4294967296

if [[ -n "$capacity" ]]; then
  for flag in --sessions --steps; do
    for value in -1 80x abc ''; do
      expect_exit2 "$capacity" "$flag" "$value"
    done
  done
fi

if [[ $failures -ne 0 ]]; then
  echo "$failures malformed flag value(s) were not rejected" >&2
  exit 1
fi
echo "strict flags: every malformed value exits 2"
