#!/bin/sh
# bench_cache --dir D keeps its result cache in a fresh subdirectory of D
# and removes only that: a file already in D survives the run, and D holds
# nothing new afterwards.
#
# Usage: bench_cache_dir_test.sh <bench_cache binary> <examples dir>
set -eu
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
examples=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/D"
echo keep > "$work/D/keep.txt"
cd "$work"  # the harness writes BENCH_cache.json into its working directory
"$bin" --steps 4 --qasm "$examples/ghz.qasm" --dir "$work/D" > /dev/null
test "$(cat "$work/D/keep.txt")" = keep
test "$(ls -A "$work/D")" = keep.txt
test -s "$work/BENCH_cache.json"
echo "ok: bench_cache left $work/D as it found it"
