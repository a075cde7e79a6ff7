#!/usr/bin/env bash
# Write every report that the determinism checks compare into OUT_DIR, using
# the gcrkit sources and bundled specs of the checkout at ROOT:
#   .github/scripts/reports.sh ROOT OUT_DIR
# That is each bundled spec, bench/specs/so2_x_so2_ode.json and the spec
# log_t.json that it writes into OUT_DIR, plain, --format csv, --full and
# --full --format csv, on its own grid and at --grid 3 (96 reports with the
# ten bundled specs), the same four on tangent_cone.json and
# torus_so2_x_so2.json at --grid 11 (1,331 points, more than one
# classification block: 8 reports), plain and --full on log_t.json at
# --grid 33 (1,089 points in two blocks, each with skipped points: 2
# reports), plain and --full on the 3-D chart steep_3d.json at --grid 3
# (d_k g_ij overflows at s = 0.5, where only --full reads it: 2 reports),
# --full on sqrt_kappa.json (a profile whose padded integration range starts
# at the root s = 0 of its curvature sqrt(s): 1 report), then
# `families --json` and `eval --point 1,1,1` on special_sqrt2.json and
# curve_tube.json: 115 files with the three specs written into OUT_DIR.  A
# numpy RuntimeWarning fails the run: it is a silent inf or NaN.
set -euo pipefail
root=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
run() {
  PYTHONPATH="$root/src" PYTHONDONTWRITEBYTECODE=1 \
    python -W error::RuntimeWarning -m gcrkit "$@"
}
# log(t) fails at t <= 0, the first points of each grid row (t varies
# fastest): skipped points between classified ones
cat > "$out/log_t.json" <<'EOF'
{
  "components": ["s", "t", "s*s+log(t)"],
  "variables": ["s", "t"],
  "domain": {"s": [0.5, 1.5], "t": [-1, 1]}
}
EOF
for spec in "$root"/src/gcrkit/specs/*.json "$root"/bench/specs/so2_x_so2_ode.json "$out/log_t.json"; do
  name=$(basename "$spec" .json)
  for grid in "" "--grid 3"; do
    for flags in "" "--format csv" "--full" "--full --format csv"; do
      tag=$(echo $name $grid $flags | tr ' ' '_' | tr -d '-')
      run check "$spec" $grid $flags > "$out/$tag.out"
    done
  done
done
# a mapping chart and an expression chart across a block boundary
for name in tangent_cone torus_so2_x_so2; do
  for flags in "" "--format csv" "--full" "--full --format csv"; do
    tag=$(echo $name --grid 11 $flags | tr ' ' '_' | tr -d '-')
    run check "$root/src/gcrkit/specs/$name.json" --grid 11 $flags > "$out/$tag.out"
  done
done
# skipped points on both sides of a block boundary
for flags in "" "--full"; do
  tag=$(echo log_t --grid 33 $flags | tr ' ' '_' | tr -d '-')
  run check "$out/log_t.json" --grid 33 $flags > "$out/$tag.out"
done
# at s = 0.5, g_ss = 5e306 is finite but d_s g_ss is not
cat > "$out/steep_3d.json" <<'EOF'
{
  "components": ["s", "t", "u", "2^(s*1000)"],
  "variables": ["s", "t", "u"],
  "domain": {"s": [0, 1], "t": [0, 1], "u": [0, 1]}
}
EOF
for flags in "" "--full"; do
  tag=$(echo steep_3d --grid 3 $flags | tr ' ' '_' | tr -d '-')
  run check "$out/steep_3d.json" --grid 3 $flags > "$out/$tag.out"
done
cat > "$out/sqrt_kappa.json" <<'EOF'
{
  "family": "hypercylinder_rotational",
  "parameters": {"kappa": "sqrt(s)"},
  "domain": {"s": [0.06, 1.06], "t": [0.0, 6.283185307179586], "u": [-1.0, 1.0]}
}
EOF
run check "$out/sqrt_kappa.json" --full > "$out/sqrt_kappa_full.out"
run families --json > "$out/families.out"
for spec in special_sqrt2 curve_tube; do
  run eval "$root/src/gcrkit/specs/$spec.json" --point 1,1,1 > "$out/eval_$spec.out"
done
