#!/usr/bin/env bash
# ab.sh — same-host A/B of one millibench workload: a base revision against
# the current checkout, in alternating pairs. Run it from the repository
# root:
#
#   bash scripts/ab.sh <base-rev> <workload> <pairs> [first-seed]
#   make ab BASE=<rev> WORKLOAD=<workload> PAIRS=<n> [SEED=<first-seed>]
#
# The base revision's committed files are extracted (git archive) into a
# temporary directory; the head side is this checkout as it stands,
# uncommitted changes included. Each side builds millibench from its own
# sources through bench/run.sh. Pair i runs seed first-seed+i on both sides,
# `bash bench/run.sh --workload W --seconds 15 --trace 0 --seed S --record
# side.jsonl`, and the side that runs first alternates from pair to pair.
#
# Per pair it prints each side's raw pass median (the median of millibench's
# per-pass wall times, before host-probe normalization), its normalized
# pass_s, and whether the two sim_digests are equal. At the end it prints
# `millibench -compare` on the two record files, then per side the median
# and quartiles of both numbers and the pairs each side won. Raw and
# normalized both matter: the host probe alone can swing pass_s by tens of
# percent. Records and logs stay in .bench_build/ab/. The exit status is
# nonzero when a run fails, a digest differs, or -compare fails.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: bash scripts/ab.sh <base-rev> <workload> <pairs> [first-seed]" >&2
  exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seed=${4:-1}

head_dir=$PWD
base_dir=$(mktemp -d)
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_rev" | tar -x -C "$base_dir"

out="$head_dir/.bench_build/ab/$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

# median reads numbers, one per line, and prints their median.
median() { sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }

# summary reads numbers, one per line, and prints "median [q1-q3]" with
# millibench's quartile interpolation.
summary() {
  sort -g | awk '
    function q(i,   m, j, d) {
      m = NR + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
      d = i * m - j * 4
      return (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    { v[NR] = $1 }
    END {
      med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
      if (NR == 1) printf "%.3f [%.3f-%.3f]", med, v[1], v[1]
      else printf "%.3f [%.3f-%.3f]", med, q(1), q(3)
    }'
}

# run SIDE DIR SEED makes one untraced run and prints "raw pass_s digest".
run() {
  local side=$1 dir=$2 s=$3 log="$out/$1-$3"
  if ! (cd "$dir" && bash bench/run.sh --workload "$workload" --seconds 15 --trace 0 \
    --seed "$s" --record "$out/$side.jsonl") >"$log.out" 2>"$log.err"; then
    echo "ab: $side run of seed $s failed; see $log.err" >&2
    return 1
  fi
  local raw norm digest
  raw=$(sed -n 's/^millibench: pass [0-9]*: \([0-9.]*\)s,.*/\1/p' "$log.err" | median)
  norm=$(grep -o '"pass_s":{"value":[^,}]*' "$log.out" | sed 's/.*://' | awk '{ printf "%.3f", $1 }')
  digest=$(sed -n 's/.*sim_digest=\([0-9a-f]*\).*/\1/p' "$log.out")
  echo "$raw $norm $digest"
}

status=0
echo "ab: $workload, base $base_rev vs this checkout, $pairs pairs from seed $seed; logs in $out"
printf '%-5s %-6s %-6s %-22s %-22s %s\n' pair seed first "base raw / pass_s" "head raw / pass_s" sim_digest
for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    first=base
    b=$(run base "$base_dir" "$s")
    h=$(run head "$head_dir" "$s")
  else
    first=head
    h=$(run head "$head_dir" "$s")
    b=$(run base "$base_dir" "$s")
  fi
  read -r braw bnorm bdig <<<"$b"
  read -r hraw hnorm hdig <<<"$h"
  same=equal
  if [[ $bdig != "$hdig" ]]; then
    same=DIFFERS
    status=1
  fi
  printf '%-5s %-6s %-6s %-22s %-22s %s\n' "$i" "$s" "$first" "$braw / $bnorm" "$hraw / $hnorm" "$same"
  echo "$braw $bnorm $hraw $hnorm" >>"$out/pairs.txt"
done

echo
"$head_dir/.bench_build/millibench" -spec "$head_dir/BENCHMARK.json" -compare "$out/base.jsonl" "$out/head.jsonl" || status=1

echo
col() { awk -v c="$1" '{ print $c }' "$out/pairs.txt"; }
wins() { awk -v b="$1" -v h="$2" '$h < $b { hw++ } $b < $h { bw++ } END { printf "base %d, head %d of %d", bw, hw, NR }' "$out/pairs.txt"; }
printf '%-22s %-26s %-26s %s\n' "" "base median [q1-q3]" "head median [q1-q3]" "pairs won (lower)"
printf '%-22s %-26s %-26s %s\n' "raw pass median (s)" "$(col 1 | summary)" "$(col 3 | summary)" "$(wins 1 3)"
printf '%-22s %-26s %-26s %s\n' "pass_s (normalized)" "$(col 2 | summary)" "$(col 4 | summary)" "$(wins 2 4)"
exit "$status"
