import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import box_deep_problem, box_grid, density_csv_per_row

from cdmos import cli
from cdmos.cli import (ProblemFileError, main, parse_problem, run,
                       sample_density, write_density_csv)
from cdmos.measures import CountingHypercube, UniformBox
from cdmos.orthobasis import build_basis
from cdmos.polyring import parse_polynomial

UNIVARIATE = """\
# minimize x over [-1, 1]
variables = x
objective = x
constraint = 1 - x^2 >= 0
measure = uniform_box
box = -1 1
orders = 1..2
"""

BILINEAR = """\
variables = x1 x2
objective = x1 x2
constraint = 1 - x1^2 >= 0
constraint = 1 - x2^2 >= 0
measure = uniform_box
box = -1 1 ; -1 1
orders = 1..2
"""

BOX_BILINEAR = (Path(__file__).resolve().parents[1] / "problems" /
                "box_bilinear.txt").read_text()

# box_bilinear on the non-square box [-1, 1] x [-0.5, 2]
BOX_BILINEAR_WIDE = (BOX_BILINEAR
                     .replace("1 - x2^2 >= 0", "1 + 1.5 x2 - x2^2 >= 0")
                     .replace("-1 1 ; -1 1", "-1 1 ; -0.5 2"))

TRILINEAR = """\
variables = x1 x2 x3
objective = x1 + x2 x3
constraint = 1 - x1^2 >= 0
constraint = 2 x2 - x2^2 >= 0
constraint = 0.75 - x3 - x3^2 >= 0
measure = uniform_box
box = -1 1 ; 0 2 ; -1.5 0.5
orders = 1..1
"""

# the counting hypercube's support has 2 points per axis, so its orthonormal
# basis stops at degree 1 and every upper bound past t = 1 fails
HYPERCUBE_BILINEAR = """\
variables = x1 x2
objective = x1 x2
constraint = 1 - x1^2 >= 0
constraint = 1 - x2^2 >= 0
measure = counting_hypercube
orders = 1..3
"""

# no constraint, so the lower bound of x is unbounded at every order
HYPERCUBE_UNCONSTRAINED = """\
variables = x
objective = x
measure = counting_hypercube
orders = 1..2
"""


def csv_text(samples):
    """The density CSV as ``write_density_csv`` writes it, read back as text."""
    buf = io.StringIO()
    write_density_csv(samples, buf)
    return buf.getvalue()


class TestParseProblem:
    def test_univariate(self):
        pf = parse_problem(UNIVARIATE)
        assert pf.var_names == ["x"]
        assert pf.objective((0.5,)) == pytest.approx(0.5)
        assert len(pf.constraints) == 1
        assert isinstance(pf.measure, UniformBox)
        assert pf.box == ((-1.0,), (1.0,))
        assert pf.orders == (1, 2)

    def test_undeclared_variable(self):
        bad = UNIVARIATE.replace("objective = x", "objective = x3")
        with pytest.raises(ProblemFileError) as err:
            parse_problem(bad)
        assert "x3" in str(err.value)
        assert err.value.line == 3

    def test_syntax_error_reports_location(self):
        bad = UNIVARIATE.replace("objective = x", "objective = x + ")
        with pytest.raises(ProblemFileError) as err:
            parse_problem(bad)
        assert err.value.line == 3
        assert err.value.column is not None

    def test_duplicate_key(self):
        bad = UNIVARIATE + "orders = 2..3\n"
        with pytest.raises(ProblemFileError, match="duplicate"):
            parse_problem(bad)

    def test_unknown_key(self):
        with pytest.raises(ProblemFileError, match="unknown key"):
            parse_problem(UNIVARIATE + "solver = fancy\n")

    def test_missing_sections(self):
        with pytest.raises(ProblemFileError, match="variables"):
            parse_problem("objective = 1\norders = 1..1\n")
        with pytest.raises(ProblemFileError, match="objective"):
            parse_problem("variables = x\norders = 1..1\n")
        with pytest.raises(ProblemFileError, match="orders"):
            parse_problem("variables = x\nobjective = x\n")

    def test_box_arity_mismatch(self):
        bad = BILINEAR.replace("box = -1 1 ; -1 1", "box = -1 1")
        with pytest.raises(ProblemFileError, match="2 variables"):
            parse_problem(bad)

    def test_uniform_box_requires_box(self):
        bad = UNIVARIATE.replace("box = -1 1\n", "")
        with pytest.raises(ProblemFileError, match="requires"):
            parse_problem(bad)

    def test_counting_hypercube(self):
        text = ("variables = x1 x2\nobjective = x1 x2\n"
                "constraint = x1^2 - 1 >= 0\nconstraint = 1 - x1^2 >= 0\n"
                "constraint = x2^2 - 1 >= 0\nconstraint = 1 - x2^2 >= 0\n"
                "measure = counting_hypercube\norders = 1..1\n")
        pf = parse_problem(text)
        assert pf.measure == CountingHypercube(2)

    def test_bad_orders_and_tol(self):
        with pytest.raises(ProblemFileError, match="orders"):
            parse_problem(UNIVARIATE.replace("orders = 1..2", "orders = 3..2"))
        # the solver has one tolerance, so a file cannot set it
        with pytest.raises(ProblemFileError, match="unknown key 'tol'") as err:
            parse_problem(UNIVARIATE + "tol = 1e-8\n")
        assert err.value.line == 8

    @pytest.mark.parametrize("bounds", ["nan 1", "-inf inf", "-1e308 1e308", "1 -1"])
    def test_bad_box_bounds(self, bounds):
        # UniformBox's rule, at the box line, with or without a measure
        no_measure = UNIVARIATE.replace("measure = uniform_box\n", "")
        for text, line in [(UNIVARIATE, 6), (no_measure, 5)]:
            with pytest.raises(ProblemFileError, match="lo < hi") as err:
                parse_problem(text.replace("box = -1 1", "box = " + bounds))
            assert err.value.line == line

    @pytest.mark.parametrize("old, new, message, line, column", [
        ("measure = uniform_box", "measure uniform_box", "expected 'key = value'", 5, None),
        ("variables = x", "variables = x x", "variables must be distinct", 2, None),
        ("1 - x^2 >= 0", "1 - x^2 >= 1", "must end in '>= 0'", 4, None),
        ("box = -1 1", "box = -1", "each box range needs 'lo hi'", 6, None),
        ("box = -1 1", "box = -1 one", "bad box bound in '-1 one'", 6, None),
        ("orders = 1..2", "orders = 1..2..3", "bad orders value '1..2..3'", 7, None),
        ("objective = x", "objective = 1e999 x", "non-finite coefficient inf", 3, None),
        ("objective = x", "objective = 1e200 1e200 x", "non-finite coefficient inf", 3, None),
        ("objective = x", "objective = x $ 2", "unexpected character '\\$'", 3, 2),
        ("objective = x", "objective =", "empty polynomial", 3, 0),
        ("1 - x^2", "1 - x^", "expected integer exponent after '\\^'", 4, 5),
        ("1 - x^2", "1 - x^1.5", "exponent must be a non-negative integer, got 1.5", 4, 6),
        ("objective = x", "objective = x (1)", "unexpected token '\\('", 3, 2),
        ("objective = x", "objective = x + *", "empty term", 3, 4),
        # a '*' that does not sit between two factors is an error at its column
        ("objective = x", "objective = x**2", "expected a factor after '\\*'", 3, 1),
        ("objective = x", "objective = x*-1", "expected a factor after '\\*'", 3, 1),
        ("objective = x", "objective = 2*-x", "expected a factor after '\\*'", 3, 1),
        ("objective = x", "objective = x*", "expected a factor after '\\*'", 3, 1),
        ("objective = x", "objective = *x", "empty term before '\\*'", 3, 0),
        ("objective = x", "objective = x*+1", "expected a factor after '\\*'", 3, 1),
    ], ids=["no_equals", "repeated_variable", "constraint_rhs", "one_box_bound",
            "non_numeric_box_bound", "three_part_orders",
            "infinite_coefficient", "overflowing_coefficient", "unexpected_character",
            "empty_polynomial", "missing_exponent", "fractional_exponent",
            "unexpected_token", "empty_term", "double_star", "star_minus",
            "number_star_minus", "trailing_star", "leading_star", "star_plus"])
    def test_error_names_its_line(self, old, new, message, line, column):
        # a polynomial's syntax error also names its column in the value
        text = UNIVARIATE.replace(old, new)
        assert text != UNIVARIATE
        with pytest.raises(ProblemFileError, match=message) as err:
            parse_problem(text)
        assert (err.value.line, err.value.column) == (line, column)
        where = f"line {line}" + (f", column {column}" if column is not None else "")
        assert str(err.value).endswith(f"({where})")

    def test_single_order(self):
        assert parse_problem(UNIVARIATE.replace("orders = 1..2", "orders = 3")).orders == (3, 3)

    def test_unknown_measure_kind(self):
        with pytest.raises(ProblemFileError, match="unknown measure kind 'gaussian'") as err:
            parse_problem(UNIVARIATE.replace("measure = uniform_box", "measure = gaussian"))
        assert err.value.line == 5


class TestRunReport:
    def test_univariate_values(self):
        report = run(parse_problem(UNIVARIATE))
        doc = report.to_dict()
        assert [r["t"] for r in doc["rows"]] == [1, 2]
        r1 = doc["rows"][0]
        assert r1["rho"] == pytest.approx(-1.0, abs=1e-6)
        assert r1["u"] == pytest.approx(-np.sqrt(1 / 3), abs=1e-12)
        assert r1["exactness"] == "certified"
        assert r1["minimizers"][0]["point"][0] == pytest.approx(-1.0, abs=1e-6)
        assert r1["christoffel"][0]["value"] == pytest.approx(1 / 9, abs=1e-5)
        assert r1["certificate_residual"] <= 1e-6
        assert len(r1["sigma"]) == 3

    def test_schema_has_full_column_set(self):
        report = run(parse_problem(UNIVARIATE))
        columns = {"t", "rho", "u", "gap", "status", "exactness", "minimizers",
                   "christoffel", "sigma", "lower_error", "upper_error",
                   "solver", "certificate_residual", "density_error"}
        for row in report.to_dict()["rows"]:
            assert set(row) == columns

    def test_explicit_nulls_without_measure(self):
        text = ("variables = x\nobjective = x\nconstraint = 1 - x^2 >= 0\n"
                "orders = 1..1\n")
        report = run(parse_problem(text))
        row = report.to_dict()["rows"][0]
        assert row["u"] is None and row["gap"] is None
        assert row["sigma"] is None and row["christoffel"] is None
        assert report.density_order is None

    def test_density_order_prefers_first_certified(self):
        report = run(parse_problem(BILINEAR))
        # order 1 is exact but not flat; order 2 certifies
        assert report.density_order == 2
        # the labels are sigma's index, which is y*'s
        lb = report.density_row().lower
        labels = report.to_dict()["density_basis_labels"]
        assert labels == [list(a) for a in lb.y.basis]
        assert len(labels) == len(lb.sigma)

    def test_json_deterministic(self):
        a = run(parse_problem(UNIVARIATE)).to_json()
        b = run(parse_problem(UNIVARIATE)).to_json()
        assert a == b
        json.loads(a)  # well formed

    def test_failed_upper_bound_is_partial(self):
        # the sweep isolates each order's failure: the upper bound fails at
        # t = 2 and 3, the lower bound still solves there
        doc = run(parse_problem(HYPERCUBE_BILINEAR)).to_dict()
        assert [(r["t"], r["status"]) for r in doc["rows"]] == [
            (1, "ok"), (2, "partial"), (3, "partial")]
        for r in doc["rows"][1:]:
            assert r["lower_error"] is None
            assert r["rho"] == pytest.approx(-1.0, abs=1e-6)
            assert r["u"] is None
            assert "only 2 points" in r["upper_error"]

    def test_failed_lower_bound_is_partial_and_both_failed(self):
        doc = run(parse_problem(HYPERCUBE_UNCONSTRAINED)).to_dict()
        assert [(r["t"], r["status"]) for r in doc["rows"]] == [(1, "partial"), (2, "failed")]
        first, second = doc["rows"]
        assert "unbounded" in first["lower_error"] and first["rho"] is None
        assert first["upper_error"] is None and first["u"] == pytest.approx(-1.0)
        assert "unbounded" in second["lower_error"]
        assert "only 2 points" in second["upper_error"]

    def test_report_polynomials_parse_back(self):
        # the report prints every coefficient as the float that was solved:
        # %g's six digits where they read back exactly, repr's otherwise
        text = (UNIVARIATE.replace("objective = x", "objective = 0.1234567 x^2 + 1234567.5 x")
                .replace("1 - x^2 >= 0", "1 - 0.1 x - 0.30000000000000004 x^2 >= 0"))
        pf = parse_problem(text)
        problem = run(pf).to_dict()["problem"]
        assert problem["objective"] == "1234567.5 x + 0.1234567 x^2"
        assert parse_polynomial(problem["objective"], pf.var_names) == pf.objective
        assert [parse_polynomial(g.removesuffix(" >= 0"), pf.var_names)
                for g in problem["constraints"]] == pf.constraints


class TestDensitySampling:
    def test_grid_values(self):
        report = run(parse_problem(UNIVARIATE))
        samples = sample_density(report, 5)
        assert samples.sigma.shape == samples.kernel_diag.shape == (5,)
        assert samples.points[0].tolist() == [-1.0]
        # at the minimizer the kernel section peaks at K(-1,-1)
        assert samples.sigma[0] == pytest.approx(samples.kernel_diag[0], abs=1e-4)
        # signed density: negative somewhere in the interior
        assert samples.sigma.min() < 0

    def test_kernel_diag_against_direct_evaluation(self):
        from cdmos.orthobasis import build_basis, cd_kernel
        report = run(parse_problem(UNIVARIATE))
        B = build_basis(UniformBox((-1.0,), (1.0,)),
                        2 * report.density_order)
        samples = sample_density(report, 7)
        for x, kd in zip(samples.points.tolist(), samples.kernel_diag.tolist()):
            x = tuple(x)
            assert kd == pytest.approx(cd_kernel(B, x, x), rel=1e-12)

    def test_unavailable_without_measure(self):
        text = ("variables = x\nobjective = x\nconstraint = 1 - x^2 >= 0\n"
                "orders = 1..1\n")
        report = run(parse_problem(text))
        with pytest.raises(ValueError, match="density unavailable"):
            sample_density(report, 5)

    def test_csv_shape(self):
        report = run(parse_problem(BILINEAR))
        csv = csv_text(sample_density(report, 3))
        lines = csv.strip().splitlines()
        assert lines[0] == "x1,x2,sigma,kernel_diag"
        assert len(lines) == 1 + 9

    @pytest.mark.parametrize("text,k", [(UNIVARIATE, 7), (BOX_BILINEAR, 5),
                                        (BOX_BILINEAR_WIDE, 6), (TRILINEAR, 4)],
                             ids=["1d", "box_bilinear", "box_bilinear_wide", "3d"])
    def test_csv_matches_per_row_formatter(self, text, k):
        pf = parse_problem(text)
        samples = sample_density(run(pf), k)
        points = box_grid(*pf.box, k)
        np.testing.assert_array_equal(samples.points, points)
        assert csv_text(samples) == density_csv_per_row(
            points, samples.sigma, samples.kernel_diag)

    @pytest.mark.parametrize("text,k", [(UNIVARIATE, 7), (UNIVARIATE, 29),
                                        (BOX_BILINEAR, 5), (TRILINEAR, 4)],
                             ids=["1d_one_chunk", "1d", "box_bilinear", "3d"])
    def test_streamed_csv_across_chunks(self, text, k, monkeypatch):
        # with 64-float chunks the basis is evaluated on 12 (1d), 4 (2d) and 6
        # (3d) points at a time and the CSV written 21, 16 and 12 rows at a
        # time: 7 points fit in one chunk, the other counts are no multiple
        pf = parse_problem(text)
        report = run(pf)
        whole = sample_density(report, k)
        monkeypatch.setattr(cli, "_CHUNK_FLOATS", 64)
        samples = sample_density(report, k)
        np.testing.assert_array_equal(samples.kernel_diag, whole.kernel_diag)
        # the matrix-vector product may round by chunk
        np.testing.assert_allclose(samples.sigma, whole.sigma, rtol=0,
                                   atol=1e-14 * np.max(np.abs(whole.sigma)))
        assert csv_text(samples) == density_csv_per_row(
            box_grid(*pf.box, k), samples.sigma, samples.kernel_diag)

    def test_readout_memory_does_not_grow_with_grid(self):
        # 3 variables at order 3: the table of T over a 41^3 grid is 46 MB
        report = run(parse_problem(TRILINEAR.replace("orders = 1..1", "orders = 3..3")))
        peaks = []
        for k in (21, 41):
            tracemalloc.start()
            try:
                with open(os.devnull, "w") as fh:
                    write_density_csv(sample_density(report, k), fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the two output columns grow by 0.95 MB; measured 2.4 -> 3.9 MB
        assert peaks[1] - peaks[0] <= 2e6


@pytest.mark.parametrize("variant", [0, 11])
def test_box_deep_density_at_every_order(variant):
    # sigma is read off y* at 2t = 10 and 12 too, and at the certified
    # minimizer it is T(xi): the density is the kernel section
    doc = run(parse_problem(box_deep_problem(variant))).to_dict()
    measure = UniformBox((-1.0, -1.0), (1.0, 1.0))
    rows = {r["t"]: r for r in doc["rows"]}
    assert sorted(rows) == [3, 4, 5, 6]
    assert [len(rows[t]["sigma"]) for t in (5, 6)] == [66, 91]
    for t, r in rows.items():
        assert r["density_error"] is None and r["exactness"] == "certified"
        assert len(r["christoffel"]) == len(r["minimizers"]) == 1
        T = build_basis(measure, 2 * t).eval_all(tuple(r["minimizers"][0]["point"]))
        # measured 2.6e-8, at t = 4; the solver's y* is a Dirac to about 1e-8
        assert np.max(np.abs(np.array(r["sigma"]) - T)) <= 1e-7 * np.max(np.abs(T))


class TestCommandLine:
    def test_solve_writes_report_and_density(self, tmp_path, capsys):
        prob = tmp_path / "p.txt"
        prob.write_text(UNIVARIATE)
        out = tmp_path / "report.json"
        csv = tmp_path / "density.csv"
        code = main(["solve", str(prob), "--json", str(out),
                     "--density-grid", "5", "--density-out", str(csv)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["rho"] == pytest.approx(-1.0, abs=1e-6)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "x1,sigma,kernel_diag"
        assert len(lines) == 6

    def test_solve_bitwise_deterministic(self, tmp_path):
        prob = tmp_path / "p.txt"
        prob.write_text(BILINEAR)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["solve", str(prob), "--json", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_solve_parse_error_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "bad.txt"
        prob.write_text("variables = x\nobjective = x +\norders = 1..1\n")
        assert main(["solve", str(prob)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_solve_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/p.txt"]) == 2

    def test_orders_below_minimum_relaxation_order_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "p.txt"
        prob.write_text(UNIVARIATE.replace("objective = x", "objective = x^4 - x")
                        .replace("orders = 1..2", "orders = 1..1"))
        assert main(["solve", str(prob)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "below the minimum relaxation order 2" in err

    def test_negative_density_grid_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "p.txt"
        prob.write_text(UNIVARIATE)
        assert main(["solve", str(prob), "--density-grid", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--density-grid must be >= 0" in err

    @pytest.mark.parametrize("text", [HYPERCUBE_BILINEAR, HYPERCUBE_UNCONSTRAINED],
                             ids=["upper_fails", "lower_fails"])
    def test_failed_order_exit_code(self, tmp_path, capsys, text):
        # the report is still written, one row per order
        prob = tmp_path / "p.txt"
        prob.write_text(text)
        assert main(["solve", str(prob)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert "partial" in [r["status"] for r in doc["rows"]]

    def test_density_unavailable_message_printed_once(self, tmp_path, capsys):
        # x1 x2 on the hypercube at t = 1 has no degree-2 orthonormal basis
        prob = tmp_path / "p.txt"
        prob.write_text(HYPERCUBE_BILINEAR.replace("orders = 1..3", "orders = 1..1"))
        assert main(["solve", str(prob), "--density-grid", "5"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["density_order"] is None
        assert err == "density unavailable: no reconstructed density in report\n"

    def test_basis_json(self, capsys):
        assert main(["basis", "uniform_box", "2", "--grid", "3",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exponents"] == [[0], [1], [2]]
        D = np.array(doc["coefficients"])
        assert D[1, 1] == pytest.approx(np.sqrt(3.0))
        ks = {tuple(s["x"]): s["kernel_diag"] for s in doc["kernel_diag_samples"]}
        assert ks[(-1.0,)] == pytest.approx(9.0, abs=1e-10)

    def test_basis_kernel_samples_match_pointwise_kernel(self, capsys):
        from cdmos.orthobasis import build_basis, cd_kernel
        assert main(["basis", "uniform_box", "4", "--dim", "2", "--grid", "7",
                     "--lo", "-0.5", "--hi", "2", "--format", "json"]) == 0
        samples = json.loads(capsys.readouterr().out)["kernel_diag_samples"]
        B = build_basis(UniformBox((-0.5, -0.5), (2.0, 2.0)), 4)
        assert len(samples) == 49
        for s in samples:
            x = tuple(s["x"])
            assert s["kernel_diag"] == pytest.approx(cd_kernel(B, x, x), rel=1e-14)

    def test_basis_csv_samples_match_per_row_format(self, capsys):
        from cdmos.orthobasis import build_basis, cd_kernel
        assert main(["basis", "uniform_box", "3", "--dim", "2", "--grid", "4",
                     "--lo", "-0.5", "--hi", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.split("x,kernel_diag\n", 1)[1].splitlines()
        points = box_grid((-0.5, -0.5), (2.0, 2.0), 4)
        B = build_basis(UniformBox((-0.5, -0.5), (2.0, 2.0)), 3)
        assert len(lines) == len(points)
        for line, x in zip(lines, points.tolist()):
            label, kd = line.split(",")
            assert label == " ".join(repr(v) for v in x)
            assert float(kd) == pytest.approx(cd_kernel(B, x, x), rel=1e-14)

    def test_basis_csv(self, capsys):
        assert main(["basis", "uniform_box", "1", "--grid", "2",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha,")
        assert "x,kernel_diag" in out

    def test_basis_error_exit_code(self, capsys):
        assert main(["basis", "counting_hypercube", "2", "--dim", "2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gaussian", "2"], "unknown measure kind 'gaussian'"),
        (["uniform_box", "2", "--lo", "nan"], "lo < hi"),
        (["uniform_box", "2", "--hi", "inf"], "lo < hi")],
        ids=["unknown_kind", "nan_lo", "inf_hi"])
    def test_basis_bad_measure_exit_code(self, capsys, argv, message):
        # the same measure names and box rule as problem files
        assert main(["basis"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    def test_basis_above_degree_cap_exit_code(self, capsys):
        # the basis itself has no cap, but the printed coefficients D do
        assert main(["basis", "uniform_box", "9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds cap" in err

    def test_basis_negative_grid_exit_code(self, capsys):
        assert main(["basis", "uniform_box", "2", "--grid", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --grid must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [["9"], ["2", "--grid", "-1"]],
                             ids=["above_cap", "negative_grid"])
    def test_basis_checks_input_before_building(self, capsys, monkeypatch, argv):
        # the cap and the grid are checked first: t = 12 with --dim 9 would
        # enumerate C(21, 9) exponents only to be rejected
        def no_build(*args):
            raise AssertionError("build_basis called on rejected input")

        monkeypatch.setattr(cli, "build_basis", no_build)
        assert main(["basis", "uniform_box"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--json", "--density-out"])
    def test_unwritable_output_rejected_before_solve(self, tmp_path, capsys,
                                                     monkeypatch, flag):
        # both output files are opened before the sweep, so a missing
        # directory is an option error (exit 2), not a traceback after it
        def no_run(*args, **kwargs):
            raise AssertionError("run called with an unwritable output path")

        prob = tmp_path / "p.txt"
        prob.write_text(UNIVARIATE)
        monkeypatch.setattr(cli, "run", no_run)
        assert main(["solve", str(prob), "--density-grid", "5",
                     flag, str(tmp_path / "missing" / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "missing" in err

    @pytest.mark.parametrize("grid", [[], ["--density-grid", "0"]])
    def test_density_out_without_grid_rejected_before_solve(self, tmp_path, capsys,
                                                            monkeypatch, grid):
        # a density table needs a grid: without one the option is an error
        # (exit 2, no file created), not silently ignored
        def no_run(*args, **kwargs):
            raise AssertionError("run called with --density-out but no grid")

        prob = tmp_path / "p.txt"
        prob.write_text(UNIVARIATE)
        monkeypatch.setattr(cli, "run", no_run)
        density, report = tmp_path / "d.csv", tmp_path / "r.json"
        assert main(["solve", str(prob), "--density-out", str(density),
                     "--json", str(report)] + grid) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "--density-grid" in err
        assert not density.exists() and not report.exists()
