#!/usr/bin/env bash
# Regenerates the scenario-matrix golden table (DISABLED_PrintGoldenTable)
# and diffs it against the kGolden rows committed in
# tests/test_scenario_matrix.cpp — the manual workflow the file header
# documents, scripted (ROADMAP "Golden-file refresh workflow"). Then runs
# the byte-identity check (tests/output_digests.sh) against the committed
# tests/output_digests.sha256.
#
# Usage:
#   tests/refresh_goldens.sh [--apply] [BUILD_DIR]
#
#   (no flag)   print a unified diff and the outputs whose digests moved;
#               exit 0 when both are current, 1 when either drifted
#               (CI-friendly)
#   --apply     additionally splice the regenerated rows into the source
#               file in place and rewrite tests/output_digests.sha256 —
#               the only sanctioned digest refresh (record each refresh
#               in CHANGES.md)
#
# BUILD_DIR defaults to "build" (must contain tests/test_scenario_matrix;
# a relative path is taken from the repository root).
set -euo pipefail

apply=0
if [[ "${1:-}" == "--apply" ]]; then
  apply=1
  shift
fi
build_dir="${1:-build}"

root="$(cd "$(dirname "$0")/.." && pwd)"
# A relative BUILD_DIR is taken from the repository root.
build="$build_dir"
[[ "$build" == /* ]] || build="$root/$build_dir"
bin="$build/tests/test_scenario_matrix"
src="$root/tests/test_scenario_matrix.cpp"

# Distinguish "never configured" from "configured but not built" so the
# failure mode is never a bare pipeline abort under `set -o pipefail`.
if [[ ! -d "$build" ]]; then
  echo "error: build dir '$build' does not exist — configure and build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 2
fi
if [[ ! -x "$bin" ]]; then
  echo "error: $bin not found — build the test_scenario_matrix target:" >&2
  echo "  cmake --build $build_dir -j --target test_scenario_matrix" >&2
  exit 2
fi

tmp_new="$(mktemp)"
tmp_old="$(mktemp)"
trap 'rm -f "$tmp_new" "$tmp_old"' EXIT

# The disabled test prints exactly the initializer rows (two lines per
# row, first starting with "    {PredictorKind::"). Capture the run
# separately from the row filter: a crashing binary must surface its
# output, not die silently inside the pipeline.
if ! table_out="$("$bin" --gtest_also_run_disabled_tests \
                        --gtest_filter='*PrintGoldenTable*' 2>&1)"; then
  echo "error: PrintGoldenTable run failed; output was:" >&2
  printf '%s\n' "$table_out" >&2
  exit 2
fi
printf '%s\n' "$table_out" |
  grep -E '^\s+\{PredictorKind::|^\s+ScenarioWorkload::' > "$tmp_new" || true

if [[ ! -s "$tmp_new" ]]; then
  echo "error: PrintGoldenTable produced no rows; output was:" >&2
  printf '%s\n' "$table_out" >&2
  exit 2
fi

# Extract the committed rows: everything between the kGolden opening brace
# and the closing "};", minus the clang-format guard comments.
sed -n '/^const std::vector<GoldenRow> kGolden = {$/,/^};$/p' "$src" |
  grep -E '^\s+\{PredictorKind::|^\s+ScenarioWorkload::' > "$tmp_old"

status=0
if diff -u "$tmp_old" "$tmp_new" > /dev/null; then
  echo "goldens are current ($(grep -c 'PredictorKind' "$tmp_new") rows)"
else
  status=1
  echo "golden table drifted:"
  diff -u --label committed "$tmp_old" --label regenerated "$tmp_new" || true
fi

digests="$root/tests/output_digests.sha256"
tmp_digests="$(mktemp)"
trap 'rm -f "$tmp_new" "$tmp_old" "$tmp_digests"' EXIT
digests_rc=0
"$root/tests/output_digests.sh" "$build" "$tmp_digests" || digests_rc=$?
if [[ "$digests_rc" -gt 1 ]]; then
  exit 2
fi
[[ "$digests_rc" == 0 ]] || status=1
if [[ "$status" == 0 ]]; then
  exit 0
fi

if [[ "$apply" == 1 ]]; then
  cp "$tmp_digests" "$digests"
  echo "updated $digests"
  python3 - "$src" "$tmp_new" <<'EOF'
import re
import sys

src_path, rows_path = sys.argv[1], sys.argv[2]
with open(rows_path) as f:
    rows = f.read().rstrip("\n")
with open(src_path) as f:
    src = f.read()

pattern = re.compile(
    r"(const std::vector<GoldenRow> kGolden = \{\n"
    r"    // clang-format off\n)(.*?)(\n    // clang-format on\n\};)",
    re.S)
new_src, n = pattern.subn(lambda m: m.group(1) + rows + m.group(3), src)
if n != 1:
    sys.exit("error: kGolden block not found in " + src_path)
with open(src_path, "w") as f:
    f.write(new_src)
print(f"updated {src_path}")
EOF
  echo "re-run the suite to confirm: ctest --test-dir build -R Scenario"
  exit 0
fi

echo
echo "run with --apply to splice the regenerated rows into $src"
echo "and rewrite $digests"
exit 1
