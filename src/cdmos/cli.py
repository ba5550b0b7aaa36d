"""Batch front end: problem files in, JSON reports and density tables out.

Problem file format (`key = value` lines, `#` comments):

    variables  = x1 x2
    objective  = x1 x2
    constraint = 1 - x1^2 >= 0        # repeatable
    constraint = 1 - x2^2 >= 0
    measure    = uniform_box          # or counting_hypercube, or omitted
    box        = -1 1 ; -1 1          # per-variable bounds, required for uniform_box
    orders     = 1..3                 # or one order: orders = 3

The JSON report has one row per requested order with the full column set;
absent values are explicit nulls.  Each row's status is ``ok``, ``partial``
(one of the two hierarchies failed at that order) or ``failed`` (both).  Exit
code 0 iff every row is ``ok`` (NotCertified is not a failure), 1 otherwise,
and 2 when the file or an option is rejected before any solve: a parse error
(a coefficient that is not finite among them), box bounds that are not finite
with lo < hi, no order left to solve, a negative density grid,
``--density-out`` without a positive ``--density-grid``, or an output file
(``--json``, ``--density-out``) that cannot be opened for writing; both are
opened, and so created, before the solve.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .hierarchy import SweepRow, min_relaxation_order, sandwich_sweep
from .measures import CountingHypercube, ReferenceMeasure, UniformBox
from .momentmat import SemialgebraicSet
from .orthobasis import BasisConstructionError, OrthoBasis, build_basis
from .polyring import PolyParseError, Polynomial, parse_polynomial

# the density readout evaluates T and writes the CSV on chunks of grid points
# of about this many floats, so its memory does not grow with the grid
_CHUNK_FLOATS = 1 << 16
# the degree up to which `cdmos basis` prints T's monomial coefficients
_COEFF_DEGREE_CAP = 8


class ProblemFileError(ValueError):
    """Parse or validation error with a 1-based line number."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        loc = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


@dataclass
class ProblemFile:
    var_names: List[str]
    objective: Polynomial
    constraints: List[Polynomial]
    measure: Optional[ReferenceMeasure]
    box: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]]
    orders: Tuple[int, int]

    @property
    def n(self) -> int:
        return len(self.var_names)

    def semialgebraic_set(self) -> SemialgebraicSet:
        return SemialgebraicSet(self.n, tuple(self.constraints), box=self.box)


_SCALAR_KEYS = {"variables", "objective", "measure", "box", "orders"}


def _named_measure(kind: str, n: int, box: Optional[tuple]) -> ReferenceMeasure:
    """The reference measure called ``kind`` on n variables, for problem files
    and ``cdmos basis``; uniform_box takes its bounds from box = (lo, hi)."""
    name = kind.strip().lower()
    if name == "uniform_box":
        if box is None:
            raise ValueError("measure uniform_box requires a 'box' line")
        return UniformBox(*box)
    if name == "counting_hypercube":
        return CountingHypercube(n)
    raise ValueError(f"unknown measure kind {kind!r}")


def _at_line(lineno: int, make, *args):
    """make(*args), with its ValueError re-raised as a ProblemFileError at
    lineno (and at the column of a PolyParseError)."""
    try:
        return make(*args)
    except PolyParseError as exc:
        raise ProblemFileError(str(exc).rsplit(" (column", 1)[0], lineno, exc.column) from None
    except ValueError as exc:
        raise ProblemFileError(str(exc), lineno) from None


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; see the module docstring for syntax."""
    raw: Dict[str, Tuple[str, int]] = {}
    constraint_lines: List[Tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ProblemFileError("expected 'key = value'", lineno)
        key, _, value = body.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "constraint":
            constraint_lines.append((value, lineno))
            continue
        if key not in _SCALAR_KEYS:
            raise ProblemFileError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ProblemFileError(f"duplicate key {key!r}", lineno)
        raw[key] = (value, lineno)

    if "variables" not in raw:
        raise ProblemFileError("missing 'variables'", 1)
    var_names = raw["variables"][0].split()
    if not var_names or len(set(var_names)) != len(var_names):
        raise ProblemFileError("variables must be distinct non-empty names",
                               raw["variables"][1])
    n = len(var_names)

    if "objective" not in raw:
        raise ProblemFileError("missing 'objective'", 1)
    obj_text, obj_line = raw["objective"]
    objective = _at_line(obj_line, parse_polynomial, obj_text, var_names)

    constraints: List[Polynomial] = []
    for ctext, lineno in constraint_lines:
        body = ctext
        if ">=" in body:
            lhs, _, rhs = body.partition(">=")
            if rhs.strip() != "0":
                raise ProblemFileError("constraints must end in '>= 0'", lineno)
            body = lhs.strip()
        constraints.append(_at_line(lineno, parse_polynomial, body, var_names))

    box = None
    if "box" in raw:
        btext, bline = raw["box"]
        parts = [p.strip() for p in btext.split(";")]
        if len(parts) != n:
            raise ProblemFileError(
                f"box declares {len(parts)} coordinate ranges for {n} variables", bline)
        lo, hi = [], []
        for p in parts:
            vals = p.split()
            if len(vals) != 2:
                raise ProblemFileError("each box range needs 'lo hi'", bline)
            try:
                a, b = float(vals[0]), float(vals[1])
            except ValueError:
                raise ProblemFileError(f"bad box bound in {p!r}", bline)
            lo.append(a)
            hi.append(b)
        box = (tuple(lo), tuple(hi))
        _at_line(bline, UniformBox, *box)

    measure = (_at_line(raw["measure"][1], _named_measure, raw["measure"][0], n, box)
               if "measure" in raw else None)

    if "orders" not in raw:
        raise ProblemFileError("missing 'orders'", 1)
    otext, oline = raw["orders"]
    try:
        if ".." in otext:
            a, b = otext.split("..")
            orders = (int(a), int(b))
        else:
            orders = (int(otext), int(otext))
    except ValueError:
        raise ProblemFileError(f"bad orders value {otext!r} (want 'a..b' or 'a')", oline)
    if orders[0] < 1 or orders[1] < orders[0]:
        raise ProblemFileError("orders must satisfy 1 <= a <= b", oline)

    return ProblemFile(var_names=var_names, objective=objective,
                       constraints=constraints, measure=measure,
                       box=box, orders=orders)


# ---------------------------------------------------------------------------
# Running a problem and serializing the report.
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    problem: ProblemFile
    rows: List[SweepRow]
    density_order: Optional[int] = None

    def density_row(self) -> Optional[SweepRow]:
        return next((row for row in self.rows if row.t == self.density_order), None)

    def to_dict(self) -> dict:
        pf = self.problem
        rows_out = []
        for row in self.rows:
            r: dict = {"t": row.t, "rho": None, "u": row.u, "gap": row.gap,
                       "status": "ok", "exactness": None, "minimizers": None,
                       "christoffel": None, "sigma": None,
                       "lower_error": row.lower_error,
                       "upper_error": row.upper_error,
                       "solver": None, "certificate_residual": None,
                       "density_error": None}
            if row.lower_error is not None and row.upper_error is not None:
                r["status"] = "failed"
            elif row.lower_error is not None or row.upper_error is not None:
                r["status"] = "partial"
            lb = row.lower
            if lb is not None:
                r["rho"] = lb.rho
                ex = lb.extraction
                if ex.certified:
                    r["exactness"] = "certified"
                    r["minimizers"] = [{"point": list(xi), "value": fv}
                                       for xi, fv in ex.minimizers]
                    if lb.sigma is not None:
                        r["christoffel"] = [{"point": list(xi), "value": value}
                                            for xi, value in lb.christoffel_at().items()]
                else:
                    r["exactness"] = "not_certified"
                if lb.sigma is not None:
                    r["sigma"] = [float(v) for v in lb.sigma]
                r["density_error"] = lb.density_error
                r["certificate_residual"] = lb.certificate.residual()
                r["solver"] = {"iterations": lb.solution.iterations,
                               "gap": lb.solution.gap,
                               "primal_residual": lb.solution.primal_residual,
                               "dual_residual": lb.solution.dual_residual}
            rows_out.append(r)
        drow = self.density_row()
        basis_labels = None if drow is None else drow.lower.y.basis.array.tolist()
        return {
            "problem": {
                "variables": pf.var_names,
                "objective": pf.objective.to_string(pf.var_names),
                "constraints": [g.to_string(pf.var_names) + " >= 0"
                                for g in pf.constraints],
                "measure": (None if pf.measure is None else
                            type(pf.measure).__name__),
                "box": (None if pf.box is None else
                        [list(pf.box[0]), list(pf.box[1])]),
                "orders": list(pf.orders),
            },
            "rows": rows_out,
            "density_order": self.density_order,
            "density_basis_labels": basis_labels,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @property
    def all_solved(self) -> bool:
        return all(row.lower_error is None and
                   (self.problem.measure is None or row.upper_error is None)
                   for row in self.rows)


def _pick_density_order(rows: Sequence[SweepRow]) -> Optional[int]:
    """Prefer the first certified order with a density, else the last with one."""
    with_density = [row for row in rows
                    if row.lower is not None and row.lower.sigma is not None]
    if not with_density:
        return None
    for row in with_density:
        if row.lower.extraction.certified:
            return row.t
    return with_density[-1].t


def run(pf: ProblemFile) -> RunReport:
    """Run the sandwich sweep over the requested orders and build the report.

    Raises ValueError, before any solve, when no requested order is left to
    solve.
    """
    B = pf.semialgebraic_set()
    f = pf.objective
    t_lo, t_hi = pf.orders
    t_min = min_relaxation_order(f, B)
    if t_hi < t_min:
        raise ValueError(f"orders {t_lo}..{t_hi} lie below the minimum relaxation "
                         f"order {t_min}")
    rows = sandwich_sweep(f, B, pf.measure, t_hi, t_min=max(t_lo, t_min))
    return RunReport(problem=pf, rows=rows,
                     density_order=_pick_density_order(rows))


def _grid_points(axes: Sequence[np.ndarray], start: int = 0, stop: Optional[int] = None):
    """Rows start..stop-1 of the (k^n, n) array of the grid's points, in
    itertools.product order, which is the meshgrid(indexing="ij") order."""
    shape = [len(a) for a in axes]
    flat = np.arange(start, math.prod(shape) if stop is None else stop)
    return np.stack([a[i] for a, i in zip(axes, np.unravel_index(flat, shape))], axis=-1)


def _grid_tables(basis: OrthoBasis, axes: Sequence[np.ndarray]) -> Iterator:
    """(rows, T_alpha at the grid points ``rows``), about _CHUNK_FLOATS floats at a time."""
    size, step = math.prod(len(a) for a in axes), max(1, _CHUNK_FLOATS // len(basis.basis))
    for i in range(0, size, step):
        yield slice(i, i + step), basis.eval_all(_grid_points(axes, i, min(i + step, size)))


def _sample_axes(measure: ReferenceMeasure, k: int) -> List[np.ndarray]:
    """k values on each axis of the measure's box, [-1, 1] for the hypercube."""
    if isinstance(measure, UniformBox):
        return [np.linspace(a, b, k) for a, b in zip(measure.lo, measure.hi)]
    return [np.linspace(-1.0, 1.0, k)] * measure.n


@dataclass
class DensitySamples:
    """The signed density sigma(x) and the diagonal kernel K(x, x) on a regular
    grid, as columns over the grid's points (see `_grid_points`)."""

    axes: List[np.ndarray]
    sigma: np.ndarray
    kernel_diag: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return _grid_points(self.axes)


def _x_labels(axes: Sequence[np.ndarray], sep: str) -> Iterator[str]:
    """The grid's points as text, in row order, made lazily; each axis value formatted once."""
    return (sep.join(p) for p in
            itertools.product(*([repr(v) for v in a.tolist()] for a in axes)))


def sample_density(report: RunReport, grid_n: int) -> DensitySamples:
    """Evaluate the signed density and diagonal kernel on a regular grid.

    Raises ValueError when the run produced no density (no measure, or no
    orthonormal basis at degree 2t).
    """
    row = report.density_row()
    if row is None or row.lower is None or row.lower.sigma is None:
        raise ValueError("density unavailable: no reconstructed density in report")
    lb = row.lower
    axes = _sample_axes(lb.density_basis.measure, grid_n)
    samples = DensitySamples(axes, *np.empty((2, grid_n ** len(axes))))
    for rows, T in _grid_tables(lb.density_basis, axes):
        samples.sigma[rows] = T @ lb.sigma
        samples.kernel_diag[rows] = np.einsum("ij,ij->i", T, T)
    return samples


def write_density_csv(samples: DensitySamples, fh: TextIO) -> None:
    """Write the density table to the text file fh: a header, then one row
    per grid point, formatted and written about _CHUNK_FLOATS values at a time."""
    n = len(samples.axes)
    fh.write(",".join([f"x{i+1}" for i in range(n)] + ["sigma", "kernel_diag"]) + "\n")
    labels = _x_labels(samples.axes, ",")
    step = max(1, _CHUNK_FLOATS // (n + 2))
    for i in range(0, len(samples.sigma), step):
        fh.write("".join(f"{x},{s!r},{k!r}\n" for x, s, k in zip(
            itertools.islice(labels, step), samples.sigma[i:i + step].tolist(),
            samples.kernel_diag[i:i + step].tolist())))


# ---------------------------------------------------------------------------
# Command-line entry points.
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    with contextlib.ExitStack() as files:
        try:
            with open(args.file, "r") as fh:
                pf = parse_problem(fh.read())
            if args.density_grid < 0:
                raise ValueError(f"--density-grid must be >= 0, got {args.density_grid}")
            if args.density_out and not args.density_grid:
                raise ValueError("--density-out needs a positive --density-grid")
            out, density_out = (files.enter_context(open(path, "w")) if path else sys.stdout
                                for path in (args.json, args.density_out))
            report = run(pf)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out.write(report.to_json())
        if args.density_grid:
            try:
                samples = sample_density(report, args.density_grid)
            except ValueError as exc:
                print(exc, file=sys.stderr)
            else:
                write_density_csv(samples, density_out)
        return 0 if report.all_solved else 1


def _cmd_basis(args) -> int:
    try:
        measure = _named_measure(args.measure, args.dim,
                                 ((args.lo,) * args.dim, (args.hi,) * args.dim))
        if args.t > _COEFF_DEGREE_CAP:
            raise ValueError(f"degree {args.t} exceeds cap {_COEFF_DEGREE_CAP}; the monomial "
                             "coefficients of T_alpha grow with the degree, so float64 "
                             "evaluation loses accuracy beyond this")
        if args.grid < 0:
            raise ValueError(f"--grid must be >= 0, got {args.grid}")
        basis = build_basis(measure, args.t)
    except (ValueError, BasisConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # row alpha: T_alpha's coefficient of x^beta is L(T_alpha) for y = e_beta
    D = basis.riesz(np.eye(len(basis.basis)))
    axes = _sample_axes(measure, args.grid)
    kernel_diag = [k for _, T in _grid_tables(basis, axes)
                   for k in np.einsum("ij,ij->i", T, T).tolist()]
    if args.format == "json":
        doc = {"measure": type(measure).__name__, "t": args.t,
               "exponents": basis.basis.array.tolist(),
               "coefficients": [[float(v) for v in row] for row in D],
               "kernel_diag_samples": [
                   {"x": x, "kernel_diag": k}
                   for x, k in zip(_grid_points(axes).tolist(), kernel_diag)]}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        labels = ["".join(str(a) for a in alpha) for alpha in basis.basis]
        sys.stdout.write("alpha," + ",".join(labels) + "\n")
        for i, alpha in enumerate(basis.basis):
            sys.stdout.write(labels[i] + "," +
                             ",".join(repr(float(v)) for v in D[i]) + "\n")
        sys.stdout.write("x,kernel_diag\n")
        sys.stdout.write("".join(f"{x},{k!r}\n" for x, k in
                                 zip(_x_labels(axes, " "), kernel_diag)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdmos",
        description="Moment-SOS bounds with Christoffel-Darboux density "
                    "reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the hierarchies on a problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", help="write the JSON report here instead of stdout")
    p_solve.add_argument("--density-grid", type=int, default=0, metavar="N",
                         help="sample the signed density on an N-point grid per axis")
    p_solve.add_argument("--density-out", help="write the density CSV here")
    p_solve.set_defaults(func=_cmd_solve)

    p_basis = sub.add_parser("basis", help="print an orthonormal basis table")
    p_basis.add_argument("measure", help="uniform_box or counting_hypercube")
    p_basis.add_argument("t", type=int)
    p_basis.add_argument("--dim", type=int, default=1)
    p_basis.add_argument("--lo", type=float, default=-1.0)
    p_basis.add_argument("--hi", type=float, default=1.0)
    p_basis.add_argument("--grid", type=int, default=5)
    p_basis.add_argument("--format", choices=["csv", "json"], default="json")
    p_basis.set_defaults(func=_cmd_basis)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
