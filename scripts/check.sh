#!/usr/bin/env bash
# Full verification sweep: the tier-1 suite plus every sanitizer preset.
#
#   scripts/check.sh            # tier-1 (default preset, all tests), then
#                               # builds (never runs) the benchmark in
#                               # perfbench/ into build-perfbench/
#   scripts/check.sh --fast     # tier-1 minus the `slow`-labeled socket suites
#   scripts/check.sh --san      # tier-1 + asan/tsan/ubsan preset suites
#   scripts/check.sh --obs      # observability loop only: metrics/trace/admin
#                               # suites + a live curl-style scrape smoke test
#   scripts/check.sh --sat      # saturation loop: admission/pipelining suites
#                               # + a short bench_saturation --smoke sweep that
#                               # must emit a sane BENCH_saturation.json
#   scripts/check.sh --codes    # erasure-code policy lane: the policy suites
#                               # (incl. the scalar-GF rerun and the hh sim
#                               # cluster) + bench_codes --smoke, gated on the
#                               # JSON showing lrc single-failure repair
#                               # strictly below the rs baseline.
#   scripts/check.sh --reshard  # elastic-resharding lane: the migration /
#                               # balancer / routing suites (sim + real-socket)
#                               # plus an ASan rerun of the sim suite, then
#                               # bench_reshard --smoke gated on the JSON
#                               # showing the migration completed with sane
#                               # copy amplification.
#   scripts/check.sh --stress REGEX N
#                               # flake hunt: reruns the tests matching the
#                               # ctest regex N times while full `ctest -j`
#                               # runs loop beside them as load. Every failing
#                               # run's whole output is kept under
#                               # build/stress/, with the crashing thread's
#                               # stack (scripts/crashstack.c, preloaded)
#                               # symbolized. Exits 1 when any rerun failed.
#
# The sanitizer presets build into their own trees (build-asan/ build-tsan/
# build-ubsan/) and run curated subsets: ASan+UBSan runs everything, TSan
# targets the threaded socket suites (10-20x slowdown; TIMEOUTs are widened
# in tests/CMakeLists.txt), UBSan re-checks the codec/storage/multi-group
# arithmetic paths.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
SAN=0
OBS=0
SAT=0
CODES=0
RESHARD=0
STRESS_RE=""
STRESS_N=0
usage() {
  echo "usage: $0 [--fast] [--san] [--obs] [--sat] [--codes] [--reshard]" \
       "[--stress REGEX N]" >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --san) SAN=1 ;;
    --obs) OBS=1 ;;
    --sat) SAT=1 ;;
    --codes) CODES=1 ;;
    --reshard) RESHARD=1 ;;
    --stress)
      [[ $# -ge 3 && "$3" =~ ^[1-9][0-9]*$ ]] || usage
      STRESS_RE="$2"
      STRESS_N="$3"
      shift 2 ;;
    *) usage ;;
  esac
  shift
done

run_preset() {
  local preset="$1"; shift
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] ctest $* ==="
  ctest --preset "$preset" -j "$JOBS" "$@"
}

if [[ "$OBS" == 1 ]]; then
  # Narrow observability loop: histogram/exporter/tracer units plus the
  # real-socket admin scrape suite (admin_http_test boots a live TcpCluster
  # and scrapes /metrics, /status and /healthz exactly like curl would).
  run_preset default -R 'histogram_test|obs_test|trace_test|admin_http_test'
  echo "check.sh: observability suites passed"
  exit 0
fi

if [[ "$SAT" == 1 ]]; then
  # Saturation loop: the admission-control and pipelined-client suites, then
  # a low-QPS sim-only open-loop sweep. The smoke sweep must finish inside
  # the timeout and write a BENCH_saturation.json whose knee is a number.
  run_preset default -R 'saturation_test|pipeline_test|pipeline_tcp_test|util_test'
  echo "=== [default] bench_saturation --smoke ==="
  (cd build/bench && timeout 300 ./bench_saturation --smoke)
  python3 - <<'EOF'
import json
with open("build/bench/BENCH_saturation.json") as f:
    doc = json.load(f)
knee = doc["sim"]["knee_qps"]
points = doc["sim"]["points"]
assert isinstance(knee, (int, float)) and knee == knee and knee > 0, knee
assert len(points) >= 6, len(points)
print(f"check.sh: smoke sweep ok — {len(points)} points, knee {knee:.0f} qps")
EOF
  echo "check.sh: saturation suites passed"
  exit 0
fi

if [[ "$CODES" == 1 ]]; then
  # Erasure-code policy lane: the policy unit/property suites (both the
  # dispatched and forced-scalar GF tiers), the wire-conformance suites that
  # pin rs byte-identity, and the hh sim-cluster end-to-end. Then a smoke
  # bench_codes run whose JSON must show the locality win the subsystem
  # exists for: lrc repairs one lost share with strictly fewer network bytes
  # than the rs any-x-of-n baseline.
  run_preset default -R 'ec_test|ec_policy_test|ec_cluster_test|msg_test|config_test|snapshot_test'
  echo "=== [default] bench_codes --smoke ==="
  (cd build/bench && timeout 300 ./bench_codes --smoke)
  python3 - <<'EOF'
import json
with open("build/bench/BENCH_codes.json") as f:
    doc = json.load(f)
rows = {p["code"]: p for p in doc["policies"]}
assert set(rows) == {"rs", "lrc", "hh"}, sorted(rows)
for p in rows.values():
    assert p["encode_mbps"] > 0 and p["decode_mbps"] > 0, p
    assert p["repair_bytes_single"] > 0, p
assert rows["lrc"]["repair_bytes_single"] < rows["rs"]["repair_bytes_single"], \
    (rows["lrc"]["repair_bytes_single"], rows["rs"]["repair_bytes_single"])
assert rows["hh"]["repair_bytes_single"] < rows["rs"]["repair_bytes_single"], \
    (rows["hh"]["repair_bytes_single"], rows["rs"]["repair_bytes_single"])
print("check.sh: code zoo ok — lrc repairs at "
      f"{rows['lrc']['repair_bytes_single'] / rows['rs']['repair_bytes_single']:.0%} "
      f"and hh at {rows['hh']['repair_bytes_single'] / rows['rs']['repair_bytes_single']:.0%} "
      "of rs bytes")
EOF
  echo "check.sh: code-policy suites passed"
  exit 0
fi

if [[ "$RESHARD" == 1 ]]; then
  # Elastic-resharding lane (DESIGN.md §14): the sim migration/balancer suite,
  # the real-socket migration-under-load suite, and the wire/client suites
  # that pin the routing trailer and per-shard cache invalidation. The sim
  # suite reruns under ASan — the migration driver and chunk path are the
  # newest ownership-heavy code in the tree. Then a smoke bench_reshard whose
  # JSON must show the move completed (epoch advanced past prepare+flip) and
  # copied roughly the seeded payload, not a multiple of it.
  run_preset default -R 'reshard_test|reshard_tcp_test|msg_test|kv_test'
  run_preset asan -R 'reshard_test'
  echo "=== [default] bench_reshard --smoke ==="
  (cd build/bench && timeout 300 ./bench_reshard --smoke)
  python3 - <<'EOF'
import json
with open("build/bench/BENCH_reshard.json") as f:
    doc = json.load(f)
cells = doc["cells"]
assert len(cells) >= 1, cells
for c in cells:
    assert c["final_epoch"] >= 2, c            # prepare + flip both committed
    assert c["migration_s"] > 0, c
    assert c["moved_bytes"] >= c["seeded_bytes"], c   # whole payload crossed
    assert c["copy_amplification"] < 2.0, c    # ...without gross re-copying
c = cells[0]
print(f"check.sh: reshard smoke ok — moved {c['moved_bytes']} B "
      f"({c['copy_amplification']:.2f}x of seeded) in {c['migration_s']:.3f} s")
EOF
  echo "check.sh: resharding suites passed"
  exit 0
fi

if [[ -n "$STRESS_RE" ]]; then
  cmake --preset default
  cmake --build --preset default -j "$JOBS"
  out=build/stress
  rm -rf "$out"
  mkdir -p "$out"
  lib="$PWD/$out/libcrashstack.so"
  cc -O2 -Wall -shared -fPIC scripts/crashstack.c -o "$lib" -ldl
  # Resolves the "crashstack: #i <object> +0x<off>" frames of a kept log.
  symbolize() {
    { grep '^crashstack: #' "$1" || true; } | while read -r _ idx obj off; do
      if [[ -f "$obj" ]]; then
        echo "$idx $(addr2line -Cfip -e "$obj" "${off#+}" 2>/dev/null | head -1)"
      fi
    done > "$1.stack"
    [[ -s "$1.stack" ]] || rm -f "$1.stack"
  }
  # Load: whole-suite runs, one after another, until the reruns are done.
  # A failing load run is kept too: the flake may show there.
  (
    i=0
    while [[ ! -e "$out/stop" ]]; do
      i=$((i + 1))
      if LD_PRELOAD="$lib" ctest --preset default -j "$JOBS" > "$out/load.$i.log" 2>&1; then
        rm -f "$out/load.$i.log"
      else
        mv "$out/load.$i.log" "$out/load.$i.FAILED.log"
        symbolize "$out/load.$i.FAILED.log"
      fi
    done
  ) &
  load=$!
  trap 'touch "$out/stop"; wait "$load" 2>/dev/null || true' EXIT
  fails=0
  for ((i = 1; i <= STRESS_N; i++)); do
    if LD_PRELOAD="$lib" ctest --preset default -R "$STRESS_RE" > "$out/run.$i.log" 2>&1; then
      rm -f "$out/run.$i.log"
    else
      fails=$((fails + 1))
      mv "$out/run.$i.log" "$out/run.$i.FAILED.log"
      symbolize "$out/run.$i.FAILED.log"
      echo "check.sh: stress run $i of $STRESS_N FAILED (log: $out/run.$i.FAILED.log)"
    fi
  done
  touch "$out/stop"
  wait "$load" || true
  trap - EXIT
  echo "check.sh: stress '$STRESS_RE': $fails of $STRESS_N runs failed;" \
       "$(ls "$out" | grep -c 'load.*FAILED.log$' || true) failing load runs kept in $out/"
  [[ "$fails" == 0 ]]
  exit
fi

if [[ "$FAST" == 1 ]]; then
  # Narrow loop: skip the real-socket suites (labeled `slow`).
  run_preset default -LE slow
else
  run_preset default
  # perfbench/ compiles against src/ but is its own CMake project: build it
  # (without running it) so a change that breaks its API fails here.
  echo "=== [perfbench] configure + build ==="
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-perfbench -j "$JOBS" --target repo_bench
fi

if [[ "$SAN" == 1 ]]; then
  run_preset asan
  run_preset tsan
  run_preset ubsan
fi

echo "check.sh: all requested suites passed"
