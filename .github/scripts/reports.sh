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
# at the root s = 0 of its curvature sqrt(s): 1 report), --full on
# cone_ab.json (a tangent_cone over a torus of radii 0.6 and 0.8 with a phase
# in w, as the self-test draws its bases) and tube_knot.json (a curve_tube
# over a curve that is not a great circle): 2 reports, then
# `families --json`, `eval --point 1,1,1` on special_sqrt2.json and
# curve_tube.json, `eval --point 0.3,-0.2` on the 2-D chart saddle_raw.json,
# `eval --point 0.2,1.2,2.0` at a degenerate point of rotational_sphere.json
# and `eval --point 1,-0.5` at a point of log_t.json that check skips (its
# stderr and exit status), then plain and --full on marked_saddle.json at
# --grid 3 (a point skipped as singular and one whose classification
# overflows after its geometry assembled: 2 reports) and `eval --point 1,1`
# at the second (its stderr and exit status), then plain and --full on the 3-D
# chart steep_metric.json at --grid 5 (jets finite everywhere, g_ss overflows
# for s above about 0.4976: 2 reports) and `eval --point 0.6,0.5,0.5` at an
# overflowing point (its stderr and exit status), then plain and --full on
# sqrt_div.json at --grid 3 (points whose value divides by zero at t = 0.5,
# and whose first partials alone do at s = 0: 2 reports) and `eval --point
# 0,0.25` at one of the latter (its stderr and exit status), then check on
# sharp_tube.json, a curve_tube whose frame transport overflows, and on
# fast_tube.json, one whose curve is regular at speed 1e200 (their stderr
# and exit status), then check on superscript_digit.json and
# huge_literal.json, raw specs whose components hold a digit that float()
# refuses and a literal past the float range (their stderr and exit status):
# 142 files with the twelve specs written into OUT_DIR.  A numpy
# RuntimeWarning fails the run: it is a silent inf or NaN.
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
# the cone (symbolic-derivative trees) and a closed-form chart across a block boundary
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
# the cone and the tube away from their default charts
cat > "$out/cone_ab.json" <<'EOF'
{
  "family": "tangent_cone",
  "parameters": {"c": 0.2, "y": ["0.6*cos(v/0.6)", "0.6*sin(v/0.6)",
                                 "0.8*cos(w/0.8+1.3)", "0.8*sin(w/0.8+1.3)"]},
  "domain": {"s": [0.75, 2.25], "v": [0.0, 3.7699111843077517],
             "w": [0.0, 5.026548245743669]}
}
EOF
run check "$out/cone_ab.json" --full > "$out/cone_ab_full.out"
cat > "$out/tube_knot.json" <<'EOF'
{
  "family": "curve_tube",
  "parameters": {"c": 0.4, "alpha": ["cos(0.5)*cos(w)", "cos(0.5)*sin(w)",
                                     "sin(0.5)*cos(2*w)", "sin(0.5)*sin(2*w)"]}
}
EOF
run check "$out/tube_knot.json" --full > "$out/tube_knot_full.out"
run families --json > "$out/families.out"
for spec in special_sqrt2 curve_tube; do
  run eval "$root/src/gcrkit/specs/$spec.json" --point 1,1,1 > "$out/eval_$spec.out"
done
run eval "$root/src/gcrkit/specs/saddle_raw.json" --point 0.3,-0.2 > "$out/eval_saddle_raw.out"
run eval "$root/src/gcrkit/specs/rotational_sphere.json" --point 0.2,1.2,2.0 \
  > "$out/eval_rotational_sphere.out"
# eval fails where check skips, with check's reason and exit 3
status=0
run eval "$out/log_t.json" --point 1,-0.5 > "$out/eval_log_t.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/eval_log_t.out"
# a saddle singular at (-1, 1) and lifted by a bump of 1e160 at (1, 1), where
# the position split overflows once the geometry has assembled: check skips
# both, and eval fails at the second with check's reason and exit 3
cat > "$out/marked_saddle.json" <<'EOF'
{
  "components": ["s*(1-t)/2", "t", "(s+1)^2*t/2+1e160*exp(-700*((s-1)^2+(t-1)^2))"],
  "variables": ["s", "t"],
  "domain": {"s": [-1, 1], "t": [-1, 1]}
}
EOF
for flags in "" "--full"; do
  tag=$(echo marked_saddle --grid 3 $flags | tr ' ' '_' | tr -d '-')
  run check "$out/marked_saddle.json" --grid 3 $flags > "$out/$tag.out"
done
status=0
run eval "$out/marked_saddle.json" --point 1,1 > "$out/eval_marked_saddle.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/eval_marked_saddle.out"
# jets finite on the whole grid, but g_ss = 1 + 490000 exp(1400 s) overflows
# for s above about 0.4976: check skips those points as not finite, and eval
# fails at one with check's reason and exit 3
cat > "$out/steep_metric.json" <<'EOF'
{
  "components": ["s", "t", "u", "exp(700*s)"],
  "variables": ["s", "t", "u"],
  "domain": {"s": [0.3, 0.7], "t": [0, 1], "u": [0, 1]}
}
EOF
for flags in "" "--full"; do
  tag=$(echo steep_metric --grid 5 $flags | tr ' ' '_' | tr -d '-')
  run check "$out/steep_metric.json" --grid 5 $flags > "$out/$tag.out"
done
status=0
run eval "$out/steep_metric.json" --point 0.6,0.5,0.5 > "$out/eval_steep_metric.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/eval_steep_metric.out"
# sqrt(s) is defined at s = 0 but its derivative 0.5/sqrt(s) divides by zero
# there, and 1/(t-0.5) divides by zero at t = 0.5: every skip comes from a
# derivative or a division, and eval fails at (0, 0.25) with check's reason
cat > "$out/sqrt_div.json" <<'EOF'
{
  "components": ["s", "t", "sqrt(s)+1/(t-0.5)"],
  "variables": ["s", "t"],
  "domain": {"s": [0, 1], "t": [0, 1]}
}
EOF
for flags in "" "--full"; do
  tag=$(echo sqrt_div --grid 3 $flags | tr ' ' '_' | tr -d '-')
  run check "$out/sqrt_div.json" --grid 3 $flags > "$out/$tag.out"
done
status=0
run eval "$out/sqrt_div.json" --point 0,0.25 > "$out/eval_sqrt_div.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/eval_sqrt_div.out"
# a curve on the unit 3-sphere, regular, with alpha'' about 1e100: the set-up
# refuses its frame's knot data with exit 2 and one line
cat > "$out/sharp_tube.json" <<'EOF'
{
  "family": "curve_tube",
  "parameters": {"alpha": ["cos(w)", "sin(w)", "1e-300*sin(1e200*w)", "0"]}
}
EOF
status=0
run check "$out/sharp_tube.json" > "$out/sharp_tube.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/sharp_tube.out"
# a curve on the unit 3-sphere, regular at speed 1e200: its rows overflow,
# and the set-up refuses its frame's knot data with exit 2 and one line
cat > "$out/fast_tube.json" <<'EOF'
{
  "family": "curve_tube",
  "parameters": {"alpha": ["cos(1e200*w)", "sin(1e200*w)", "0", "0"]}
}
EOF
status=0
run check "$out/fast_tube.json" > "$out/fast_tube.out" 2>&1 || status=$?
echo "exit status $status" >> "$out/fast_tube.out"
# "²" is a digit to str.isdigit but not to float(), and 1e400 is past the
# float range: the parser refuses each with exit 2 and one line that names
# the offset
cat > "$out/superscript_digit.json" <<'EOF'
{
  "components": ["s", "t", "s*²"],
  "variables": ["s", "t"],
  "domain": {"s": [0, 1], "t": [0, 1]}
}
EOF
cat > "$out/huge_literal.json" <<'EOF'
{
  "components": ["s", "t", "s*1e400"],
  "variables": ["s", "t"],
  "domain": {"s": [0, 1], "t": [0, 1]}
}
EOF
for name in superscript_digit huge_literal; do
  status=0
  run check "$out/$name.json" > "$out/$name.out" 2>&1 || status=$?
  echo "exit status $status" >> "$out/$name.out"
done
