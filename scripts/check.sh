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
#   scripts/check.sh --uring    # io_uring lane: re-runs the WAL + TCP socket
#                               # suites with RSPAXOS_IO_BACKEND=uring; skips
#                               # (exit 0, clear message) when the kernel or
#                               # build lacks io_uring support. The tier-1
#                               # ladder always runs the epoll default.
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
URING=0
CODES=0
RESHARD=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --san) SAN=1 ;;
    --obs) OBS=1 ;;
    --sat) SAT=1 ;;
    --uring) URING=1 ;;
    --codes) CODES=1 ;;
    --reshard) RESHARD=1 ;;
    *) echo "usage: $0 [--fast] [--san] [--obs] [--sat] [--uring] [--codes] [--reshard]" >&2; exit 2 ;;
  esac
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

if [[ "$URING" == 1 ]]; then
  # io_uring lane: the suites that exercise IoDriver on both of its surfaces —
  # FileWal's WRITEV+FSYNC flusher and the TCP transport's readiness loop —
  # re-run with the uring backend selected. Support is probed with the same
  # code make_io_driver() uses, so "skip" here means production binaries on
  # this kernel would silently fall back to epoll too.
  echo "=== [default] configure + build (uring probe) ==="
  cmake --preset default
  cmake --build --preset default -j "$JOBS" --target io_backend_probe
  if ! ./build/tests/io_backend_probe; then
    echo "check.sh: --uring SKIPPED — kernel or build lacks io_uring support" \
         "(io_backend_probe reports epoll fallback); epoll coverage is tier-1"
    exit 0
  fi
  cmake --build --preset default -j "$JOBS"
  echo "=== [default] ctest (RSPAXOS_IO_BACKEND=uring) ==="
  RSPAXOS_IO_BACKEND=uring ctest --preset default -j "$JOBS" \
    -R 'storage_test|wal_conformance_test|transport_test|multi_group_tcp_test|multi_reactor_test|admin_http_test'
  echo "check.sh: uring suites passed"
  exit 0
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
