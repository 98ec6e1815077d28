#!/bin/sh
# Usage: bench_flags_reject_typos.sh BUILD_DIR
#
# A driver that takes --bench exits 2 on a kernel name it does not know
# and lists the ones it does; every driver exits 2 on a malformed
# number. Both happen before anything is measured, so a misspelt kernel
# in a smoke line cannot pass as an empty run.
dir=$1
fail=0

expect() {
  want=$1
  shift
  "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "exit $rc, want $want: $*"
    fail=1
  fi
}

expect 2 "$dir/figures" --quick --bench=nosuch
expect 2 "$dir/figures" --quick --bench=fib,nosuch
expect 2 "$dir/figures" --quick --bench=fib,,map
expect 2 "$dir/ablation_promotion" --quick --bench=nosuch
expect 2 "$dir/ablation_finegrained" --quick --bench=nosuch
expect 2 "$dir/figures" --quick --procs=abc
expect 2 "$dir/figures" --quick --procs=-1
expect 2 "$dir/figures" --quick --runs=x
expect 2 "$dir/figures" --quick --scale=0.2x
expect 2 "$dir/figures" --quick --seed=
expect 2 "$dir/ablation_grain" --quick --procs=2x
expect 0 "$dir/figures" --quick --procs=2 --runs=1 --bench=fib,usp-tree

if ! "$dir/figures" --bench=nosuch 2>&1 | grep -q 'known:.* fib .* multi-usp-tree'; then
  echo "figures --bench=nosuch does not list the known kernels"
  fail=1
fi
exit $fail
