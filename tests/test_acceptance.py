"""Acceptance gate: eight end-to-end checks at pinned tolerances.

Each test prints a single pass/fail line so the gate can be read off a plain
pytest -s run.  Tolerances are part of the contract and must not be loosened.
"""

import json
import time

import numpy as np
from conftest import (box_quadrature, ortho_polynomial, random_polynomial, reproduce,
                      smoothed_objective)

from cdmos.cli import main
from cdmos.hierarchy import (certify_and_extract, lower_bound, sandwich_sweep,
                             upper_bound)
from cdmos.measures import CountingHypercube, UniformBox, moments
from cdmos.momentmat import SemialgebraicSet
from cdmos.orthobasis import build_basis, christoffel
from cdmos.polyring import Polynomial, enumerate_basis

X = Polynomial.variable(1, 0)
X1, X2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
UNIT_INTERVAL = SemialgebraicSet(1, (1.0 - X * X,), box=((-1.0,), (1.0,)))
UNIT_MEASURE = UniformBox((-1.0,), (1.0,))
UNIT_SQUARE = SemialgebraicSet(2, (1.0 - X1 * X1, 1.0 - X2 * X2),
                               box=((-1.0, -1.0), (1.0, 1.0)))
SQUARE_MEASURE = UniformBox((-1.0, -1.0), (1.0, 1.0))

UNIVARIATE_PROBLEM = """\
variables = x
objective = x
constraint = 1 - x^2 >= 0
measure = uniform_box
box = -1 1
orders = 1..2
"""


def report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_orthonormality_and_reproduction():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst_orth = 0.0
    worst_rep = 0.0
    for n in (1, 2):
        measure = UniformBox((-1.0,) * n, (1.0,) * n)
        for t in range(1, 5):
            B = build_basis(measure, t)
            polys = [ortho_polynomial(B, a) for a in B.basis]
            for i, p in enumerate(polys):
                for j in range(i, len(polys)):
                    q = polys[j]
                    val = box_quadrature(lambda x: p(x) * q(x),
                                         measure.lo, measure.hi)
                    worst_orth = max(worst_orth,
                                     abs(val - (1.0 if i == j else 0.0)))
        B = build_basis(measure, 4)
        for _ in range(50):
            p = random_polynomial(rng, n, int(rng.integers(0, 5)))
            x = tuple(rng.uniform(-1, 1, size=n))
            worst_rep = max(worst_rep, abs(reproduce(B, p, x) - p(x)))
    elapsed = time.perf_counter() - start
    ok = worst_orth <= 1e-8 and worst_rep <= 1e-8 and elapsed < 5.0
    report(f"orthonormality {worst_orth:.1e}, reproduction {worst_rep:.1e}, "
           f"{elapsed:.2f}s", ok)


def test_criterion_2_sandwich_and_monotonicity():
    start = time.perf_counter()
    instances = [(X, UNIT_INTERVAL, UNIT_MEASURE),
                 (X1 * X2, UNIT_SQUARE, SQUARE_MEASURE)]
    ok = True
    rho1 = None
    for f, B, mu in instances:
        rows = sandwich_sweep(f, B, mu, 4)
        rhos = [row.rho for row in rows]
        us = [row.u for row in rows]
        ok &= all(v is not None for v in rhos + us)
        ok &= all(b >= a - 1e-7 for a, b in zip(rhos, rhos[1:]))
        ok &= all(b <= a + 1e-7 for a, b in zip(us, us[1:]))
        ok &= all(r - 1e-6 <= -1.0 <= u + 1e-9 for r, u in zip(rhos, us))
        ok &= abs(rhos[0] - (-1.0)) <= 1e-6
        if rho1 is None:
            rho1 = rhos[0]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(f"sandwich/monotonicity orders 1..4, rho_1 = {rho1:.8f}, "
           f"{elapsed:.2f}s", ok)


def test_criterion_3_kernel_section_reconstruction():
    r = lower_bound(X, UNIT_INTERVAL, 1, measure=UNIT_MEASURE)
    expected = r.density_basis.eval_all((-1.0,))
    sigma_err = float(np.max(np.abs(r.sigma - expected)))
    peak = r.density((-1.0,))
    chris = christoffel(r.density_basis, (-1.0,))
    ok = (r.extraction.certified and sigma_err <= 1e-5 and
          abs(peak - 9.0) <= 1e-4 and abs(chris - 1 / 9) <= 1e-5)
    report(f"density coords err {sigma_err:.1e}, peak {peak:.6f}, "
           f"christoffel {chris:.8f}", ok)


def test_criterion_4_change_of_basis_identity():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for t in (1, 2, 3):
        basis = build_basis(UNIT_MEASURE, 2 * t)
        b2t = enumerate_basis(1, 2 * t)
        for _ in range(34 if t < 3 else 32):
            f = random_polynomial(rng, 1, int(rng.integers(0, 2 * t + 1)))
            y = rng.standard_normal(len(b2t))
            lhs = smoothed_objective(f, y, basis)
            rhs = float(np.array([f.terms.get(a, 0.0) for a in b2t]) @ y)
            worst = max(worst, abs(lhs - rhs))
    report(f"change-of-basis identity on 100 pairs, worst err {worst:.1e}",
           worst <= 1e-9)


def test_criterion_5_extraction_soundness():
    f = (X * X - 1.0) * (X * X - 1.0)
    B = SemialgebraicSet(1, (4.0 - X * X,))
    r = lower_bound(f, B, 2)
    ex = r.extraction
    points = sorted(xi[0] for xi, _ in ex.minimizers)
    ok = (ex.certified and len(points) == 2 and
          abs(points[0] + 1.0) <= 1e-4 and abs(points[1] - 1.0) <= 1e-4 and
          all(abs(f(xi)) <= 1e-6 for xi, _ in ex.minimizers))
    # an inexact moment vector (the reference measure's own) must be rejected
    r2 = lower_bound(X, UNIT_INTERVAL, 2)
    r2.y = moments(UNIT_MEASURE, 4)
    ok &= not certify_and_extract(r2, UNIT_INTERVAL).certified
    report(f"extraction {points if ex.certified else 'failed'}, "
           f"inexact case rejected", ok)


def test_criterion_6_dirac_limit_contrast():
    rho1 = lower_bound(X1 * X2, UNIT_SQUARE, 1).rho
    u4 = upper_bound(X1 * X2, SQUARE_MEASURE, 4).u
    ok = (u4 - (-1.0) > 1e-2) and (rho1 - (-1.0) <= 1e-6)
    report(f"signed density exact at order 1 (rho_1 = {rho1:.8f}) while "
           f"nonnegative densities lag (u_4 = {u4:.6f})", ok)


def test_criterion_7_solver_invariants_and_discrete_case():
    instances = [
        lower_bound(X, UNIT_INTERVAL, 1),
        lower_bound(X, UNIT_INTERVAL, 2),
        lower_bound(X1 * X2, UNIT_SQUARE, 1),
        lower_bound(X1 * X2, UNIT_SQUARE, 2),
        lower_bound((X * X - 1.0) * (X * X - 1.0),
                    SemialgebraicSet(1, (4.0 - X * X,)), 2),
    ]
    ok = True
    worst_resid = 0.0
    for r in instances:
        sol = r.solution
        ok &= sol.dual_objective <= sol.objective + 1e-6
        for blk in r.certificate.problem.blocks:
            ok &= np.linalg.eigvalsh(blk.at(sol.y))[0] >= -1e-6
        resid = r.certificate.residual()
        worst_resid = max(worst_resid, resid)
        ok &= resid <= 1e-6
    # finite support: for x1 x2 on {-1,1}^2 both hierarchies are exact at order 1
    Bh = SemialgebraicSet(2, (X1 * X1 - 1.0, 1.0 - X1 * X1,
                              X2 * X2 - 1.0, 1.0 - X2 * X2))
    mh = CountingHypercube(2)
    rho = lower_bound(X1 * X2, Bh, 1).rho
    u = upper_bound(X1 * X2, mh, 1).u
    ok &= abs(rho - (-1.0)) <= 1e-6 and abs(u - (-1.0)) <= 1e-6
    report(f"duality/feasibility/certificates on 5 instances "
           f"(worst residual {worst_resid:.1e}); discrete rho_1 = {rho:.8f}, "
           f"u_1 = {u:.8f}", ok)


def test_criterion_8_cli_determinism(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(UNIVARIATE_PROBLEM)
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["solve", str(prob), "--json", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    r1 = doc["rows"][0]
    values_ok = (abs(r1["rho"] - (-1.0)) <= 1e-6 and
                 r1["exactness"] == "certified" and
                 max(abs(a - b) for a, b in zip(
                     r1["sigma"], [1.0, -np.sqrt(3), np.sqrt(5)])) <= 1e-5 and
                 abs(r1["christoffel"][0]["value"] - 1 / 9) <= 1e-5)
    report(f"CLI reports bit-for-bit identical ({identical}), "
           f"values consistent ({values_ok})", identical and values_ok)
