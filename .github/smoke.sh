#!/usr/bin/env bash
# Smoke-run the CLI and the scripts from the repository root:
#   bash .github/smoke.sh
# Needs `cdmos` and `python` on PATH, with the package importable (installed,
# or PYTHONPATH=src). Writes its files to $RUNNER_TEMP, or to a fresh
# temporary directory when that is unset.
set -euo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

cdmos solve problems/box_bilinear.txt > /dev/null
cdmos solve problems/box_bilinear.txt --density-grid 5 > /dev/null
python -m cdmos.cli solve problems/box_bilinear.txt --density-grid 5 > /dev/null
# every problem's JSON report and density table are bit-for-bit
# deterministic (univariate_deep takes the closed forms, offcentre_quartic
# an off-centre solve); box_bilinear's table (n = 2) has 1 + 21^2 lines
for f in problems/*.txt; do
  p="$(basename "$f" .txt)"
  for run in a b; do
    cdmos solve "$f" --density-grid 21 --density-out "$tmp/$p-$run.csv" --json "$tmp/$p-$run.json" > /dev/null
  done
  cmp "$tmp/$p-a.csv" "$tmp/$p-b.csv"
  cmp "$tmp/$p-a.json" "$tmp/$p-b.json"
done
test "$(wc -l < "$tmp/box_bilinear-a.csv")" -eq $((1 + 21 * 21))
python -m cdmos.cli basis uniform_box 4 --dim 2 --format csv > /dev/null
python -m cdmos.cli basis counting_hypercube 1 --dim 3 --format csv > /dev/null
# the printed monomial coefficients stop at the degree cap 8, with exit code 2
cdmos basis uniform_box 8 --dim 2 --format csv > /dev/null
status=0; cdmos basis uniform_box 9 > /dev/null 2>&1 || status=$?
test "$status" -eq 2
# a negative sample grid is rejected before any output, with exit code 2
status=0; cdmos basis uniform_box 2 --grid -1 > /dev/null 2>&1 || status=$?
test "$status" -eq 2
# the degree cap is checked before the basis is built: 12 variables at
# degree 9 would first enumerate C(21, 9) = 293,930 exponents
status=0; cdmos basis uniform_box 9 --dim 12 > /dev/null 2>&1 || status=$?
test "$status" -eq 2
# an output path that cannot be written is rejected before any solve, with
# exit code 2 and an error line, not a traceback after the solve
status=0; cdmos solve problems/univariate_x.txt --json "$tmp/missing/r.json" 2> "$tmp/missing.err" || status=$?
test "$status" -eq 2
grep -q "^error: " "$tmp/missing.err"
if grep -q Traceback "$tmp/missing.err"; then exit 1; fi
# --density-out without --density-grid is rejected before any solve or
# output, with exit code 2 and no file created
status=0; cdmos solve problems/univariate_x.txt --density-out "$tmp/nogrid.csv" > /dev/null 2>&1 || status=$?
test "$status" -eq 2
test ! -e "$tmp/nogrid.csv"
# a NaN box bound is rejected before any output, with exit code 2
status=0; cdmos basis uniform_box 2 --lo nan > /dev/null 2>&1 || status=$?
test "$status" -eq 2
# the solver has one tolerance: a problem file's tol line is an unknown key,
# rejected at its line before any solve, with exit code 2 and no report
cp problems/univariate_x.txt "$tmp/tol.txt"
echo 'tol = 1e-8' >> "$tmp/tol.txt"
line="$(wc -l < "$tmp/tol.txt")"
status=0; cdmos solve "$tmp/tol.txt" > "$tmp/tol.out" 2> "$tmp/tol.err" || status=$?
test "$status" -eq 2
test ! -s "$tmp/tol.out"
grep -q "unknown key 'tol' (line $line)" "$tmp/tol.err"
# a '*' that does not sit between two factors is an error at its line and column
printf 'variables = x\nobjective = x**2\norders = 1\n' > "$tmp/star.txt"
status=0; cdmos solve "$tmp/star.txt" > /dev/null 2> "$tmp/star.err" || status=$?
test "$status" -eq 2
grep -q "(line 2, column 1)" "$tmp/star.err"
# so is a coefficient that is not finite, at its line: exit code 2, no report
printf 'variables = x\nobjective = 1e999 x\norders = 1\n' > "$tmp/inf.txt"
status=0; cdmos solve "$tmp/inf.txt" > "$tmp/inf.out" 2> "$tmp/inf.err" || status=$?
test "$status" -eq 2
test ! -s "$tmp/inf.out"
grep -q "non-finite coefficient inf at exponent (1,) (line 2)" "$tmp/inf.err"
# sigma has no degree cap: the order-6 row (2t = 12) carries it
cdmos solve problems/univariate_deep.txt > "$tmp/deep.json"
python -c 'import json, sys; r = {row["t"]: row for row in json.load(sys.stdin)["rows"]}; sys.exit(0 if r[6]["sigma"] is not None else "no sigma at t = 6")' < "$tmp/deep.json"
# orders above a certified one are taken in closed form: rows
# t = 3..6 report 0 solver iterations and a certificate residual
# <= 1e-9, and each order solved alone (a copy with orders = t..t)
# gives the same rho to 1e-6
for t in 2 3 4 5 6; do
  sed "s/^orders .*/orders     = $t..$t/" problems/univariate_deep.txt > "$tmp/deep-$t.txt"
  cdmos solve "$tmp/deep-$t.txt" > "$tmp/deep-$t.json"
done
python -c '
import json, sys
d = sys.argv[1]
sweep = json.load(open(d + "/deep.json"))["rows"]
lone = [json.load(open("%s/deep-%d.json" % (d, r["t"])))["rows"][0] for r in sweep]
bad = [r["t"] for r, s in zip(sweep, lone) if abs(r["rho"] - s["rho"]) > 1e-6]
solved = [r["t"] for r in sweep if r["t"] >= 3 and not (
    r["solver"]["iterations"] == 0 and r["certificate_residual"] <= 1e-9)]
print("solver iterations: sweep", [r["solver"]["iterations"] for r in sweep],
      "orders alone", [r["solver"]["iterations"] for r in lone])
sys.exit("rho differs at t = %s" % bad if bad else
         "no closed form at t = %s" % solved if solved else 0)
' "$tmp"
# on a box the relaxation is strictly feasible, so no order of the
# off-centre quartic, solved alone, may report infeasible or unbounded
# (exit code 1, an order left unsolved, is allowed here)
for t in 6 8 10; do
  sed "s/^orders .*/orders     = $t..$t/" problems/offcentre_quartic.txt > "$tmp/offcentre-$t.txt"
  cdmos solve "$tmp/offcentre-$t.txt" > "$tmp/offcentre-$t.json" || test $? -eq 1
done
python -c '
import json, sys
errors = [row["lower_error"] for t in (6, 8, 10) for row in
          json.load(open("%s/offcentre-%d.json" % (sys.argv[1], t)))["rows"]]
print("off-centre quartic, t = 6, 8, 10 alone:", errors)
bad = [e for e in errors if e and ("infeasible" in e or "unbounded" in e)]
sys.exit("feasible box reported %s" % bad if bad else 0)
' "$tmp"
python scripts/density_profile.py > /dev/null
python scripts/sandwich_demo.py > /dev/null
# u_t and the SOS density above order 1
python scripts/sandwich_demo.py 6 > /dev/null
python scripts/density_profile.py 4 > /dev/null
