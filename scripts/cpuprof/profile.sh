#!/bin/sh
# Samples a command's CPU with the LD_PRELOAD sampler and prints the report.
#
#   scripts/cpuprof/profile.sh OUT SECONDS command [args...]
#
# Builds sampler.c into build/cpuprof/ (the repository's ignored build tree)
# on first use, runs the command with the sampler preloaded for its first
# SECONDS wall seconds (0: until it exits), writes the raw samples to OUT and
# prints symbolize.py's report, counting as repository frames the sources
# under the current directory (run it from the checkout whose binary it
# profiles). Example, the five set-ups of put-64k:
#
#   scripts/cpuprof/profile.sh /tmp/p64.txt 0 \
#       .bench_build/repo_bench --workload put-64k --seed 1 --seconds 1 --trace 0 \
#           --data-dir /tmp/p64
set -eu
if [ $# -lt 3 ]; then
  echo "usage: $0 OUT SECONDS command [args...]" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out=$1
secs=$2
shift 2
lib="$root/build/cpuprof/libcpuprof.so"
if [ ! -f "$lib" ] || [ "$here/sampler.c" -nt "$lib" ]; then
  mkdir -p "$root/build/cpuprof"
  cc -O2 -Wall -shared -fPIC "$here/sampler.c" -o "$lib"
fi
CPUPROF_OUT="$out" CPUPROF_SECONDS="$secs" LD_PRELOAD="$lib" "$@" > /dev/null
python3 "$here/symbolize.py" --root "$(pwd)" "$out"
