#!/bin/sh
# Tier-1 gate plus a service smoke test: build, run the full test
# suite, then drive `sfc batch` over the example programs twice with a
# shared cache directory — the warm pass must hit on every job.
set -eu
cd "$(dirname "$0")"

dune build
dune runtest

# Export scan: every value a library interface exports must be used by
# some other .ml file (library, binaries, benches, tests, examples);
# a value used only inside its own module stays out of the .mli.
unused_exports=$(
  for m in lib/*/*.mli; do
    for v in $(grep -oP '^\s*val\s+\K[a-z_][A-Za-z0-9_'"'"']*' "$m"); do
      grep -rlw --include=*.ml -- "$v" lib bin bench perfbench test examples \
        | grep -qv "^${m%.mli}.ml$" || echo "$m $v"
    done
  done)
if [ -n "$unused_exports" ]; then
  echo "ci: exported values used nowhere outside their module:"
  printf '%s\n' "$unused_exports"
  exit 1
fi
echo "export scan: every exported value is used outside its module"

SFC=_build/default/bin/sfc.exe

# Static-analysis gate: every example program must check clean, and the
# racy in-place Gauss-Seidel fixture must fail under --werror.
for f in examples/*.f90; do
  if ! "$SFC" check "$f"; then
    echo "ci: sfc check flagged $f, expected it to be clean"
    exit 1
  fi
done
if "$SFC" check test/fixtures/gauss_seidel_inplace.f90 --werror \
    >/dev/null 2>&1; then
  echo "ci: sfc check --werror accepted the racy fixture"
  exit 1
fi
# Footprint lints: --json must be well-formed (diagnostics + summary
# keys) on every example, with zero dead-write false positives; the
# dead-write fixture must be flagged (both lints) and rejected under
# --werror.
for f in examples/*.f90; do
  json_out=$("$SFC" check "$f" --json)
  if ! printf '%s\n' "$json_out" | grep -q '"diagnostics"' \
      || ! printf '%s\n' "$json_out" | grep -q '"summary"'; then
    echo "ci: sfc check --json on $f missing diagnostics/summary"
    printf '%s\n' "$json_out"
    exit 1
  fi
  if printf '%s\n' "$json_out" | grep -q 'dead-write'; then
    echo "ci: dead-write false positive on clean example $f"
    printf '%s\n' "$json_out"
    exit 1
  fi
done
dead_out=$("$SFC" check test/fixtures/dead_write.f90 2>&1)
if ! printf '%s\n' "$dead_out" | grep -q 'dead-write' \
    || ! printf '%s\n' "$dead_out" | grep -q 'unread-field'; then
  echo "ci: dead-write fixture not flagged"
  printf '%s\n' "$dead_out"
  exit 1
fi
if "$SFC" check test/fixtures/dead_write.f90 --werror >/dev/null 2>&1; then
  echo "ci: sfc check --werror accepted the dead-write fixture"
  exit 1
fi
echo "check smoke: examples clean (no dead-write FPs), racy and dead-write fixtures rejected under --werror"

# Out-of-bounds smoke: a kernel whose read u(i, j+400) lands far
# outside its 66x66 grid fails the bounds proof, so every engine must
# report the overrun as a run failure (exit status below 128, no
# signal) instead of reading past the buffer, serially, on the openmp
# pool (the pooled runner's checked fallback), over dist ranks and on
# both GPU strategies' device twins (vector plans). The retired closure
# engine must be rejected with the located engine diagnostic.
OOBDIR=$(mktemp -d)
cat >"$OOBDIR/oob.f90" <<'F90'
program oob
  implicit none
  integer, parameter :: n = 64
  integer :: i, j
  real(kind=8), dimension(0:n+1, 0:n+1) :: u, v

  do j = 0, n + 1
    do i = 0, n + 1
      u(i, j) = dble(i)
      v(i, j) = 0.0d0
    end do
  end do

  do j = 1, n
    do i = 1, n
      v(i, j) = u(i, j+400)
    end do
  end do
end program oob
F90
for where in vector native \
    "vector --target openmp --threads 2" "native --target openmp --threads 2" \
    "vector --target dist --ranks 2" "native --target dist --ranks 2" \
    "vector --target gpu-initial" "vector --target gpu-optimised"; do
  status=0
  # shellcheck disable=SC2086 # $where is the engine, then target options
  oob_out=$("$SFC" run "$OOBDIR/oob.f90" --exec-engine $where \
    --cache-dir "$OOBDIR/cache" 2>&1) || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ge 128 ]; then
    echo "ci: out-of-bounds run on $where exited with status $status"
    printf '%s\n' "$oob_out"
    rm -rf "$OOBDIR"
    exit 1
  fi
  if ! printf '%s\n' "$oob_out" | grep -q 'run failed'; then
    echo "ci: out-of-bounds run on $where did not report 'run failed'"
    printf '%s\n' "$oob_out"
    rm -rf "$OOBDIR"
    exit 1
  fi
done
if ! "$SFC" run "$OOBDIR/oob.f90" --exec-engine closure 2>&1 \
    | grep -q -- '--exec-engine:1:1: error\[engine\]: unknown'; then
  echo "ci: --exec-engine closure missing the unknown-engine diagnostic"
  rm -rf "$OOBDIR"
  exit 1
fi
rm -rf "$OOBDIR"
echo "out-of-bounds smoke: vector and native report run failed (serial, openmp(2), dist(2)), vector on gpu-initial and gpu-optimised, closure rejected"

CACHE=$(mktemp -d)
JOBS=$(mktemp)
trap 'rm -rf "$CACHE" "$JOBS"' EXIT

for f in examples/*.f90; do
  for target in serial openmp gpu-initial gpu-optimised; do
    printf '{"src": "%s", "target": "%s", "action": "run"}\n' "$f" "$target"
    printf '{"src": "%s", "target": "%s", "action": "compile"}\n' "$f" "$target"
  done
done >"$JOBS"

njobs=$(wc -l <"$JOBS")

cold_out=$("$SFC" batch "$JOBS" --workers 2 --cache-dir "$CACHE")
cold_hits=$(printf '%s\n' "$cold_out" | grep -c '"cache":"hit"' || true)
warm_out=$("$SFC" batch "$JOBS" --workers 2 --cache-dir "$CACHE")
warm_hits=$(printf '%s\n' "$warm_out" | grep -c '"cache":"hit"' || true)
errors=$(printf '%s\n%s\n' "$cold_out" "$warm_out" \
  | grep -c '"status":"error"' || true)

echo "batch smoke: $njobs jobs, cold hits=$cold_hits, warm hits=$warm_hits"
[ "$errors" -eq 0 ] || { echo "ci: batch jobs failed"; exit 1; }
[ "$warm_hits" -ge "$cold_hits" ] || {
  echo "ci: warm run reused fewer cache entries than cold"
  exit 1
}
[ "$warm_hits" -eq "$njobs" ] || {
  echo "ci: warm run should hit the cache on every job"
  exit 1
}

# Execution-engine smoke: the kernels bench compares interp/vector/
# native on identical artifacts, requires native grids bitwise equal to
# vector and native >= vector (when a toolchain is present), and exits
# nonzero on any violation.
ROOT=$(pwd)
BENCHDIR=$(mktemp -d)
if ! (cd "$BENCHDIR" && "$ROOT/_build/default/bench/main.exe" \
    --kernels-only --quick); then
  echo "ci: kernels bench failed (engine mismatch or native < vector)"
  rm -rf "$BENCHDIR"
  exit 1
fi
if ! [ -s "$BENCHDIR/BENCH_kernels.json" ] \
    || ! grep -q '"speedups"' "$BENCHDIR/BENCH_kernels.json"; then
  echo "ci: BENCH_kernels.json missing or malformed"
  rm -rf "$BENCHDIR"
  exit 1
fi
# When a toolchain is present the bench also lands its scheduling
# section (the native schedule, serial and pooled) and self-gates the
# expected fusion on every stencil plus bitwise parity with the
# vector engine — a bench exit of 0 above means those gates passed;
# CI just re-checks the section landed.
if grep -q '"native_over_vector"' "$BENCHDIR/BENCH_kernels.json" \
    && ! grep -q '"scheduling"' "$BENCHDIR/BENCH_kernels.json"; then
  echo "ci: kernels bench ran native but landed no scheduling section"
  rm -rf "$BENCHDIR"
  exit 1
fi
echo "bench smoke: BENCH_kernels.json well-formed, engines bitwise equal"
rm -rf "$BENCHDIR"

# Native JIT smoke: a cold run must compile plugins (reporting their
# cold build time) with grid checksums identical to the vector engine;
# a warm re-run over the same cache directory must Dynlink the cached
# plugins without invoking the compiler — zero .cmxs newer than the
# marker — and report the cache hit. Skipped with a visible notice when
# the container has no ocamlopt toolchain.
NCACHE=$(mktemp -d)
cold_out=$("$SFC" run examples/laplace.f90 --exec-engine native \
  --cache-dir "$NCACHE" --stats 2>&1 >/dev/null)
if printf '%s\n' "$cold_out" | grep -q 'native unavailable'; then
  echo "native smoke: SKIPPED (no ocamlopt toolchain in this environment)"
else
  vec_grids=$("$SFC" run examples/laplace.f90 --exec-engine vector \
    --stats 2>&1 >/dev/null | grep '^grid')
  if ! printf '%s\n' "$cold_out" | grep -q 'cold build'; then
    echo "ci: native cold run did not report a cold build"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  if [ "$vec_grids" != "$(printf '%s\n' "$cold_out" | grep '^grid')" ]; then
    echo "ci: native cold checksums differ from vector"
    printf 'vector:\n%s\nnative:\n%s\n' "$vec_grids" "$cold_out"
    exit 1
  fi
  marker="$NCACHE/.ci-marker"
  touch "$marker"
  warm_out=$("$SFC" run examples/laplace.f90 --exec-engine native \
    --cache-dir "$NCACHE" --stats 2>&1 >/dev/null)
  if ! printf '%s\n' "$warm_out" | grep -q 'warm cache hit'; then
    echo "ci: native warm run did not hit the artifact cache"
    printf '%s\n' "$warm_out"
    exit 1
  fi
  if [ "$vec_grids" != "$(printf '%s\n' "$warm_out" | grep '^grid')" ]; then
    echo "ci: native warm checksums differ from vector"
    exit 1
  fi
  recompiled=$(find "$NCACHE" -name '*.cmxs' -newer "$marker" | wc -l)
  if [ "$recompiled" -ne 0 ]; then
    echo "ci: warm native run recompiled $recompiled plugin(s)"
    exit 1
  fi
  echo "native smoke: cold build + warm cache hit, checksums match vector, 0 recompiles"

  # Scheduling smoke: laplace's sweep/copy pair must fuse (the --stats
  # detail names the shift) and the innermost loops must unroll; the
  # cold and warm checksums above already matched the vector engine.
  if ! printf '%s\n' "$cold_out" | grep -q 'fused 2 nests (shift d=1)'; then
    echo "ci: native --stats does not report the fused sweep/copy pair"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  if ! printf '%s\n' "$cold_out" | grep -q 'x4-unrolled'; then
    echo "ci: native --stats does not report the unrolled schedule"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  echo "native scheduling smoke: shift-fused pair and unrolled loops reported, bitwise vs vector"
fi
rm -rf "$NCACHE"

# Benchmark smoke: the benchmark's own tests, then short cold-start,
# exec-steady and exec-parallel runs that must check every op correct
# with none failed and exit 0 — a benchmark that cannot run its
# workloads fails here, before merge. exec-steady checks every vector
# and native op bitwise against the interpreter's reference checksums,
# exec-parallel every native openmp(2) and dist(2) op. All three need
# the native toolchain, so they follow the native smoke's skip.
if ! python3 perfbench/test_perfbench.py; then
  echo "ci: perfbench tests failed"
  exit 1
fi
if printf '%s\n' "$cold_out" | grep -q 'native unavailable'; then
  echo "perfbench smoke: cold-start, exec-steady and exec-parallel SKIPPED (no ocamlopt toolchain)"
else
  for workload in cold-start exec-steady exec-parallel; do
    if ! pb_full=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 3 --trace 0); then
      echo "ci: perfbench $workload smoke exited nonzero"
      printf '%s\n' "$pb_full"
      exit 1
    fi
    pb_out=$(printf '%s\n' "$pb_full" | tail -n 1)
    if ! printf '%s\n' "$pb_out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'; then
      echo "ci: perfbench $workload smoke not correct or failed ops"
      printf '%s\n' "$pb_out"
      exit 1
    fi
  done
  echo "perfbench smoke: tests pass, 3 s cold-start, exec-steady and exec-parallel runs correct with 0 failed ops"
fi

# Distributed-backend smoke: the dist target must reproduce the serial
# grid checksums exactly, a rank count the grid cannot host must fail
# with the located decomposition diagnostic, and the dist bench must
# emit a well-formed BENCH_dmp.json (it exits nonzero when a gate
# fails).
serial_grids=$("$SFC" run examples/laplace.f90 --stats 2>&1 >/dev/null \
  | grep '^grid')
dist_grids=$("$SFC" run examples/laplace.f90 --target dist --ranks 4 \
  --stats 2>&1 >/dev/null | grep '^grid')
if [ "$serial_grids" != "$dist_grids" ]; then
  echo "ci: dist checksums differ from serial"
  printf 'serial:\n%s\ndist:\n%s\n' "$serial_grids" "$dist_grids"
  exit 1
fi
if "$SFC" run examples/laplace.f90 --target dist --ranks 1000 \
    >/dev/null 2>&1; then
  echo "ci: 1000 ranks on a 12^3 grid should be rejected"
  exit 1
fi
if ! "$SFC" run examples/laplace.f90 --target dist --ranks 1000 2>&1 \
    | grep -q 'error\[decomp\]'; then
  echo "ci: degenerate decomposition missing the located diagnostic"
  exit 1
fi
echo "dist smoke: 4-rank run matches serial, degenerate ranks rejected"

# Superstep fusion + footprint staling: examples/residual.f90 re-reads
# u at offsets and writes it back only along the global j = k = 1 edge —
# a plane the affine write footprint proves is never a mirrored block
# boundary — so every superstep after the first finds u's halos fresh
# and fuses the exchange away. At 4 ranks (a 2x2 process grid, 8
# neighbour links) the whole run must send exactly one exchange: 8
# halo messages, with grid checksums identical to serial.
res_serial=$("$SFC" run examples/residual.f90 --stats 2>&1 >/dev/null \
  | grep '^grid')
res_dist=$("$SFC" run examples/residual.f90 --target dist --ranks 4 \
  --stats 2>&1 >/dev/null)
if [ "$res_serial" != "$(printf '%s\n' "$res_dist" | grep '^grid')" ]; then
  echo "ci: residual dist checksums differ from serial"
  printf 'serial:\n%s\ndist:\n%s\n' "$res_serial" "$res_dist"
  exit 1
fi
res_msgs=$(printf '%s\n' "$res_dist" | grep '^dist: group' \
  | sed 's/.*grid, \([0-9][0-9]*\) msgs.*/\1/')
if [ "$res_msgs" != "8" ]; then
  echo "ci: residual at 4 ranks sent '$res_msgs' halo messages, expected 8"
  printf '%s\n' "$res_dist"
  exit 1
fi
if ! printf '%s\n' "$res_dist" | grep -q 'fused stages'; then
  echo "ci: dist --stats missing the fused-stage count"
  exit 1
fi
if ! printf '%s\n' "$res_dist" | grep -q 'avoided by footprint'; then
  echo "ci: dist --stats missing the footprint staling count"
  exit 1
fi
echo "dist fusion smoke: residual at 4 ranks sends $res_msgs msgs, bitwise vs serial"

# The dist bench self-validates (strong-scaling traffic present, the
# 8-rank point within the stated factor of the Net_model projection,
# one message per neighbour per superstep) and exits nonzero on any
# violation; CI only re-checks the sections landed in the file.
DISTDIR=$(mktemp -d)
if ! (cd "$DISTDIR" && "$ROOT/_build/default/bench/main.exe" \
    --dist --quick); then
  echo "ci: dist bench failed its own validation gate"
  rm -rf "$DISTDIR"
  exit 1
fi
if ! [ -s "$DISTDIR/BENCH_dmp.json" ] \
    || ! grep -q '"projected"' "$DISTDIR/BENCH_dmp.json" \
    || ! grep -q '"model_gate"' "$DISTDIR/BENCH_dmp.json" \
    || ! grep -q '"coalescing"' "$DISTDIR/BENCH_dmp.json" \
    || ! grep -q '"footprint_staling"' "$DISTDIR/BENCH_dmp.json"; then
  echo "ci: BENCH_dmp.json missing or malformed"
  rm -rf "$DISTDIR"
  exit 1
fi
echo "dist bench smoke: BENCH_dmp.json well-formed and self-validated"
rm -rf "$DISTDIR"

# Serve smoke: a live `sfc serve` instance must answer three concurrent
# clients with checksums identical to a serial in-process batch, answer
# the same job list again identically once its runs have handed their
# grids back to the arena, report every client identity and a nonzero
# arena release count in its metrics JSON, and shut down cleanly on
# request. The job list runs every program serial, openmp and dist, so
# the openmp and dist jobs are served twice on the shared pool; the
# metrics must show at most pool_size - 1 pool worker domains spawned.
# The examples' grids sit below the arena's 4096-element threshold, so
# a 16^3 Laplace joins them.
SRVDIR=$(mktemp -d)
SOCK="$SRVDIR/sfc.sock"
sed 's/nx = 12, ny = 12, nz = 12/nx = 16, ny = 16, nz = 16/' \
  examples/laplace.f90 >"$SRVDIR/laplace16.f90"
for f in examples/*.f90 "$SRVDIR/laplace16.f90"; do
  for target in serial openmp dist; do
    printf '{"src": "%s", "target": "%s", "action": "run"}\n' "$f" "$target"
  done
done >"$SRVDIR/jobs.jsonl"
srv_njobs=$(wc -l <"$SRVDIR/jobs.jsonl")
serial_sums=$("$SFC" batch "$SRVDIR/jobs.jsonl" --workers 1 --no-cache \
  | grep -o '"checksums":{[^}]*}' | sort)

"$SFC" serve --socket "$SOCK" --workers 2 --handlers 4 --quota 32 \
  --cache-dir "$SRVDIR/cache" --cache-mb 64 2>"$SRVDIR/serve.log" &
SRVPID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -S "$SOCK" ]; then
  echo "ci: serve socket never appeared"
  kill "$SRVPID" 2>/dev/null || true
  exit 1
fi

for cl in a b c; do
  "$SFC" batch "$SRVDIR/jobs.jsonl" --socket "$SOCK" --client "$cl" \
    >"$SRVDIR/out.$cl" &
  eval "PID_$cl=\$!"
done
wait "$PID_a" "$PID_b" "$PID_c"
for cl in a b c; do
  oks=$(grep -c '"status":"ok"' "$SRVDIR/out.$cl" || true)
  if [ "$oks" -ne "$srv_njobs" ]; then
    echo "ci: concurrent client $cl: $oks/$srv_njobs jobs ok"
    cat "$SRVDIR/out.$cl"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
  sums=$(grep -o '"checksums":{[^}]*}' "$SRVDIR/out.$cl" | sort)
  if [ "$sums" != "$serial_sums" ]; then
    echo "ci: concurrent client $cl checksums differ from serial batch"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
done

"$SFC" batch "$SRVDIR/jobs.jsonl" --socket "$SOCK" --client a \
  >"$SRVDIR/out.again"
sums=$(grep -o '"checksums":{[^}]*}' "$SRVDIR/out.again" | sort)
if [ "$sums" != "$serial_sums" ]; then
  echo "ci: repeated job list checksums differ from serial batch"
  kill "$SRVPID" 2>/dev/null || true
  exit 1
fi

printf '{"action": "metrics"}\n' >"$SRVDIR/metrics.jsonl"
metrics=$("$SFC" batch "$SRVDIR/metrics.jsonl" --socket "$SOCK")
releases=$(printf '%s\n' "$metrics" \
  | grep -o '"rt.arena_releases":[0-9]*' | cut -d: -f2)
if [ "${releases:-0}" -eq 0 ]; then
  echo "ci: served runs released no grid to the arena"
  printf '%s\n' "$metrics"
  kill "$SRVPID" 2>/dev/null || true
  exit 1
fi
pool_size=$(printf '%s\n' "$metrics" | grep -o '"pool_size":[0-9]*' \
  | cut -d: -f2)
spawned=$(printf '%s\n' "$metrics" \
  | grep -o '"pool.domains_spawned":[0-9]*' | cut -d: -f2)
if [ -z "$pool_size" ] || [ "${spawned:-0}" -gt $((pool_size - 1)) ]; then
  echo "ci: served jobs spawned ${spawned:-0} pool domains, pool size ${pool_size:-missing}"
  printf '%s\n' "$metrics"
  kill "$SRVPID" 2>/dev/null || true
  exit 1
fi
for key in '"scheduler"' '"queue_depth"' '"cache"' '"counters"' \
    '"a":{"weight"' '"b":{"weight"' '"c":{"weight"'; do
  if ! printf '%s\n' "$metrics" | grep -q "$key"; then
    echo "ci: serve metrics JSON missing $key"
    printf '%s\n' "$metrics"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
done

printf '{"action": "shutdown"}\n' >"$SRVDIR/shutdown.jsonl"
"$SFC" batch "$SRVDIR/shutdown.jsonl" --socket "$SOCK" >/dev/null
wait "$SRVPID"
echo "serve smoke: 3 concurrent clients x $srv_njobs jobs and a repeat match serial, $releases grids released, ${spawned:-0} pool domains spawned (pool size $pool_size), metrics well-formed, clean shutdown"
rm -rf "$SRVDIR"

echo "ci: OK"
