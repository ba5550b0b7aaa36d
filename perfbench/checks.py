"""Answer checks on one pass's report; every failed check fails its order.

An order (report row) fails when it carries an error, or when any of these
fails, each at the tier-1 tests' tolerance TOL:

* rho_t <= u_t;
* rho_t <= f(x) at every reported minimizer and every sampled feasible point
  (all 2^n vertices on the hypercube workload);
* every reported minimizer satisfies the constraints;
* rho_t and u_t match the committed reference values of the problem;
* the report and density table are byte-identical to the run's first pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from workloads import Problem

TOL = 1e-6


@dataclass
class Verdict:
    attempted: int
    failures: List[str] = field(default_factory=list)   # one entry per failed order
    certified: int = 0
    best_feasible: float = np.inf     # min f over every verified feasible point
    rhos: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_report(problem: Problem, report: Optional[dict],
                 reference: Optional[List[dict]], same_as_first: bool,
                 samples: np.ndarray) -> Verdict:
    """Check one pass; ``report`` is None when the pass produced none."""
    orders = range(problem.orders[0], problem.orders[1] + 1)
    v = Verdict(attempted=len(orders))
    if report is None:
        v.failures = [f"t={t}: no report" for t in orders]
        return v
    rows = {row["t"]: row for row in report["rows"]}
    ref = {r["t"]: r for r in reference or []}
    f_samples = problem.objective_at(samples)
    v.best_feasible = float(np.min(f_samples))
    for t in orders:
        problems = _check_row(problem, rows.get(t), ref.get(t), f_samples, v)
        if not same_as_first:
            problems.append("report differs from the first pass")
        if problems:
            v.failures.append(f"t={t}: " + "; ".join(problems))
    return v


def _check_row(problem: Problem, row: Optional[dict], ref: Optional[dict],
               f_samples: np.ndarray, v: Verdict) -> List[str]:
    if row is None:
        return ["missing row"]
    out = []
    for key in ("lower_error", "upper_error"):
        if row.get(key):
            out.append(f"{key}: {row[key]}")
    rho, u = row.get("rho"), row.get("u")
    if rho is None or u is None:
        return out + ["missing bound"]
    v.rhos.append(rho)
    if rho > u + TOL:
        out.append(f"rho {rho!r} > u {u!r}")
    if rho > float(np.min(f_samples)) + TOL:
        out.append(f"rho {rho!r} above f at a sampled point")
    if row.get("exactness") == "certified":
        v.certified += 1
    points = np.array([m["point"] for m in row.get("minimizers") or []],
                      dtype=float).reshape(-1, problem.n)
    if len(points):
        if not problem.feasible(points, TOL).all():
            out.append("infeasible minimizer")
        else:
            f_min = problem.objective_at(points)
            v.best_feasible = min(v.best_feasible, float(np.min(f_min)))
            if rho > float(np.min(f_min)) + TOL:
                out.append(f"rho {rho!r} above f at a minimizer")
    if ref is None:
        out.append("no reference value")
    else:
        for key, value in (("rho", rho), ("u", u)):
            if abs(value - ref[key]) > TOL:
                out.append(f"{key} {value!r} != reference {ref[key]!r}")
    return out


def summarize(verdicts: List[Verdict]) -> Dict[str, float]:
    """Answer-guard metrics over all passes of a run that returned bounds."""
    attempted = sum(v.attempted for v in verdicts)
    rhos = [r for v in verdicts for r in v.rhos]
    if not rhos:
        return {}
    best = min(v.best_feasible for v in verdicts)
    return {
        "hierarchy.certified_frac": sum(v.certified for v in verdicts) / attempted,
        "hierarchy.rho_excess_max": max(rhos) - best,
    }
