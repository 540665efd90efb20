"""Command-line round trips, exit codes, and manifest contents.

Everything runs in-process through main(argv) so exit codes and outputs
are asserted without spawning shells.
"""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stableci import cli, experiments, selectors
from stableci.cli import (CliParseError, load_config, main, read_matrix, read_selection,
                          read_vector, write_selection)
from stableci.errors import StableCIError
from stableci.experiments import (DEFAULT_ETA_GRID, ExperimentConfig, SelectorSpec,
                                  eta_sweep, run_selector, run_trial)
from stableci.linmodel import DesignMatrix
from stableci.noise import RngStream
from stableci.selectors import lambda_to_c1
from stableci.stability import slack_allowance

from oracles import alone, one_trial, records_rows, screening_exact
from test_experiments import ENGINE_CASES, ONE_ROUND


@pytest.fixture
def data(tmp_path):
    gen = np.random.default_rng(21)
    X = gen.standard_normal((40, 6)) / math.sqrt(40)
    beta = np.zeros(6)
    beta[:2] = 4.0
    y = X @ beta + gen.standard_normal(40)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, y[:, None], delimiter=",")
    return {"x": str(xp), "y": str(yp), "X": X, "y_arr": y, "dir": tmp_path}


# ---------------------------------------------------------------------------
# CSV parsing


def test_read_matrix_header_sniffing(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0]])
    p.write_text("1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_rejects_ragged_and_empty(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CliParseError, match="line 2 has 1 field"):
        read_matrix(str(p))
    p.write_text("a,b\n")
    with pytest.raises(CliParseError):
        read_matrix(str(p))
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(CliParseError, match="line 2 is not a row of numbers"):
        read_matrix(str(p))
    # line numbers count the header and skipped blank lines
    p.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(CliParseError, match="line 4 has 1 field"):
        read_matrix(str(p))
    p.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(CliParseError, match="line 3 is not a row of numbers"):
        read_matrix(str(p))


def test_read_vector_shapes(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1.0\n2.0\n3.0\n")
    np.testing.assert_array_equal(read_vector(str(p)), [1.0, 2.0, 3.0])
    p.write_text("1.0,2.0,3.0\n")
    np.testing.assert_array_equal(read_vector(str(p)), [1.0, 2.0, 3.0])
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(CliParseError):
        read_vector(str(p))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.booleans())
def test_read_matrix_round_trips_doubles(tmp_path, a, header):
    p = tmp_path / "m.csv"
    head = ",".join(f"c{j}" for j in range(a.shape[1])) + "\n" if header else ""
    p.write_text(head + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))
    assert read_matrix(str(p)).view(np.uint64).tolist() == a.view(np.uint64).tolist()
    np.savetxt(p, a, fmt="%.18e", delimiter=",")
    assert read_matrix(str(p)).view(np.uint64).tolist() == a.view(np.uint64).tolist()


@pytest.mark.parametrize("text, expected", [
    ("x0,x1\n1.5,-2\n3,4e-3\n", [[1.5, -2.0], [3.0, 4e-3]]),
    ("\n1,2\n\n  \t\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n,,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ('"a","b"\n"1.5","2"\n3,"4e-3"\n', [[1.5, 2.0], [3.0, 4e-3]]),
    (" 1.0 , 2.0 \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,3\n", [[1.0, 2.0, 3.0]]),
    ("y\n1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    ("1,2\n\u00a0,\u2003,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
], ids=["header", "blank-lines", "commas-only-line", "crlf", "quoted", "padded",
        "single-row", "single-column", "unicode-space-line"])
def test_read_matrix_accepted_layouts(tmp_path, text, expected):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    got = read_matrix(str(p))
    assert got.dtype == np.float64 and got.shape == np.shape(expected)
    np.testing.assert_array_equal(got, expected)


def test_read_matrix_reads_past_a_byte_order_mark(tmp_path):
    # Excel writes a UTF-8 CSV with a BOM; it once made a header-less
    # file's first row fail float(), which then skipped it as a header
    p = tmp_path / "m.csv"
    p.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.5\n")
    np.testing.assert_array_equal(read_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])
    p.write_bytes(b"\xef\xbb\xbfa,b\n1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_matrix(str(p)), [[1.0, 2.0], [3.0, 4.0]])
    # the rescan that names a bad line reads the first row as data too
    p.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0\n")
    with pytest.raises(CliParseError, match="line 2 has 1 field"):
        read_matrix(str(p))


@pytest.mark.parametrize("text, where", [
    ("1,2\n# note\n3,4\n", "line 2 "),
    ("1,2\n #\n3,4\n", "line 2 "),
    ("1.0,2.0\n3.0\n", "line 2 "),
    ("1.0,2.0\n3.0,oops\n", "line 2 "),
    ("1,2,\n3,4,\n", "line 2 "),
    ("1,2\n1_000,4\n", "line 2 "),
    ("", "no numeric rows"),
    ("\n  \n", "no numeric rows"),
    ("a,b\n", "no numeric rows"),
], ids=["hash-line", "space-hash-line", "ragged", "non-numeric", "trailing-comma",
        "underscore-literal", "empty", "blank-only", "header-only"])
def test_read_matrix_rejections_name_the_path(tmp_path, text, where):
    p = tmp_path / "m.csv"
    p.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CliParseError, match=re.escape(f"{p}: {where}")):
            read_matrix(str(p))


def test_filler_lines_are_those_the_strip_test_skipped():
    # the reader's filler test must skip exactly the lines that the
    # replace/replace/strip expression it stands for skipped
    def stripped_empty(line):
        return not line.replace(",", "").replace('"', "").strip()

    pieces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    pieces += [",", '"', "#", "\x00", "7"]
    for a in pieces:
        for b in ["", *pieces]:
            for end in ("\n", "\r\n"):
                line = a + b + end
                assert bool(cli._FILLER(line)) == stripped_empty(line), repr(line)


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(CliParseError, match="cannot read"):
        read_matrix(str(tmp_path / "absent.csv"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_nonfinite_design_exits_2(data, tmp_path, cell):
    lines = open(data["x"]).read().splitlines()
    lines[3] = ",".join([cell] + lines[3].split(",")[1:])
    bad = tmp_path / "x_bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert main(["select", "--x", str(bad), "--y", data["y"], "--method", "screen",
                 "--k", "2", "--eta", "1.0", "--out", str(out)]) == 2
    assert main(["ci", "--x", str(bad), "--y", data["y"], "--model", "0,1",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_all_zero_design_exits_2(data, tmp_path, capsys):
    # the default Frank-Wolfe step count divides by the largest column norm
    zero = tmp_path / "x_zero.csv"
    np.savetxt(zero, np.zeros((40, 6)), delimiter=",")
    out = tmp_path / "out.csv"
    assert main(["select", "--x", str(zero), "--y", data["y"], "--method", "lasso",
                 "--c1", "1", "--eta", "1", "--out", str(out)]) == 2
    assert main(["ci", "--x", str(zero), "--y", data["y"], "--model", "0,1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("design has no nonzero entry") == 2
    assert not out.exists()


@pytest.mark.parametrize("method", [["screen", "--k", "2"], ["lasso", "--c1", "1"]])
def test_overflowing_design_exits_2(data, tmp_path, capsys, method):
    # every entry is finite, but the first column's norm overflows float64
    X = data["X"].copy()
    X[0, 0] = 1e200
    huge = tmp_path / "x_huge.csv"
    np.savetxt(huge, X, delimiter=",")
    out = tmp_path / "out.csv"
    assert main(["select", "--x", str(huge), "--y", data["y"], "--method", *method,
                 "--eta", "1", "--out", str(out)]) == 2
    assert "rescale the design" in capsys.readouterr().err
    assert not out.exists()


def fixed_width_csv(a: np.ndarray, header: list[str]) -> str:
    """Header row, then 15 significant digits with an explicit sign per field."""
    int_digits = max(1, len(str(int(np.max(np.abs(a))))))
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{v:+.{15 - int_digits}f}" for v in row) + "\n" for row in a)


def test_select_ci_on_fixed_width_design_refit_exactly(tmp_path):
    gen = np.random.default_rng(5)
    n, d = 120, 12
    X = gen.standard_normal((n, d))
    y = X[:, :3] @ np.array([3.0, -2.0, 1.5]) + gen.standard_normal(n)
    xp, yp = tmp_path / "X.csv", tmp_path / "y.csv"
    xp.write_text(fixed_width_csv(X, [f"x{j}" for j in range(d)]))
    yp.write_text(fixed_width_csv(y[:, None], ["y"]))
    # the doubles the text stands for, parsed one cell at a time
    Xq = np.array([[float(c) for c in line.split(",")]
                   for line in xp.read_text().splitlines()[1:]])
    yq = np.array([float(line) for line in yp.read_text().splitlines()[1:]])
    assert read_matrix(str(xp)).view(np.uint64).tolist() == Xq.view(np.uint64).tolist()
    assert read_vector(str(yp)).view(np.uint64).tolist() == yq.view(np.uint64).tolist()

    sel, out = str(tmp_path / "sel.csv"), str(tmp_path / "iv.csv")
    assert main(["select", "--x", str(xp), "--y", str(yp), "--method", "fs", "--k", "3",
                 "--eta", "2.0", "--seed", "1", "--out", sel]) == 0
    assert main(["ci", "--x", str(xp), "--y", str(yp), "--selection", sel, "--out", out]) == 0
    model, _, meta = read_selection(sel)
    assert (meta["n"], meta["d"]) == (str(n), str(d)) and len(model) == 3
    rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(model)
    coef, *_ = np.linalg.lstsq(Xq[:, list(model)], yq, rcond=None)
    np.testing.assert_allclose([float(r[1]) for r in rows], coef, rtol=1e-10, atol=1e-10)


def test_read_matrix_is_read_only_and_adopted_by_design_matrix(data):
    a = read_matrix(data["x"])
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    assert np.shares_memory(DesignMatrix(a).entries, a)
    assert not read_vector(data["y"]).flags.writeable


def test_select_holds_at_most_two_and_a_half_design_sizes(tmp_path):
    # the parsed design is adopted, its norms take no squared copy and
    # forward stepwise residualizes in row blocks, so the traced peak is
    # the design, the residual copy and small change: about 2.2 design
    # sizes, where copying and whole-matrix temporaries gave 3.1
    gen = np.random.default_rng(8)
    n, d = 4000, 100
    X = gen.standard_normal((n, d))
    y = X[:, :5] @ np.full(5, 0.5) + gen.standard_normal(n)
    xp, yp, sel = tmp_path / "X.csv", tmp_path / "y.csv", str(tmp_path / "sel.csv")
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, y[:, None], delimiter=",")
    tracemalloc.start()
    try:
        assert main(["select", "--x", str(xp), "--y", str(yp), "--method", "fs", "--k", "5",
                     "--eta", "1.0", "--delta", "0.02", "--seed", "1", "--out", sel]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * X.nbytes, peak / X.nbytes


# ---------------------------------------------------------------------------
# select


def test_select_ci_round_trip(data, capsys):
    sel = str(data["dir"] / "selection.csv")
    rc = main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
               "--k", "2", "--eta", "1.0", "--delta", "0.02", "--out", sel])
    assert rc == 0
    assert "selected 2 of 6 columns" in capsys.readouterr().out
    model, budgets, meta = read_selection(sel)
    assert len(model) == 2 and len(budgets) == 2
    assert meta["method"] == "screen" and meta["schema"] == "1"
    assert meta["stream_layout"] == "2"  # ci ignores this meta row
    assert json.load(open(sel + ".manifest.json"))["stream_layout"] == 2

    out = str(data["dir"] / "intervals.csv")
    rc = main(["ci", "--x", data["x"], "--y", data["y"], "--selection", sel,
               "--sigma", "known:1.0", "--alpha", "0.1", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "index,estimate,stderr,K,lower,upper"
    assert len(lines) == 3
    manifest = json.load(open(out + ".manifest.json"))
    # both certificates carry slack 2*delta = 0.04; the remainder rule
    # leaves 0.06 on the quantile side
    assert manifest["parameters"]["delta_level"] == pytest.approx(0.06)
    assert manifest["command"] == "ci" and manifest["schema_version"] == 1
    assert manifest["stream_layout"] == 2
    for row in lines[1:]:
        f = row.split(",")
        assert float(f[4]) <= float(f[1]) <= float(f[5])


def test_select_huge_eta_reproduces_exact_screening(data):
    sel = str(data["dir"] / "s.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
                 "--k", "3", "--eta", "1e9", "--out", sel]) == 0
    model, _, _ = read_selection(sel)
    X = DesignMatrix(data["X"])
    assert model == screening_exact(X, data["y_arr"], 3)


def test_select_lasso_lambda_resolves_c1(data):
    sel = str(data["dir"] / "l.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "lasso",
                 "--lam", "0.05", "--eta", "1.0", "--steps", "25", "--out", sel]) == 0
    manifest = json.load(open(sel + ".manifest.json"))
    params = manifest["parameters"]
    X = DesignMatrix(data["X"])
    assert params["lam"] == 0.05
    assert params["c1"] == pytest.approx(alone(lambda_to_c1, X, data["y_arr"], 0.05), rel=1e-9)
    assert params["steps"] == 25
    rows = [l.split(",") for l in open(sel).read().splitlines()]
    assert any(r[0] == "theta" for r in rows)
    assert any(r[0] == "trace" and r[6] != "" for r in rows)  # objective column


def test_select_lasso_penalty_flags(data):
    base = ["select", "--x", data["x"], "--y", data["y"], "--method", "lasso",
            "--eta", "1.0"]
    assert main(base) == 2  # neither radius nor penalty
    assert main(base + ["--c1", "1.0", "--lam", "1.0"]) == 2
    assert main(base + ["--lam", "1e9"]) == 2  # zeroes every coordinate


def test_select_missing_k(data):
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "fs",
                 "--eta", "1.0"]) == 2


@pytest.mark.parametrize("method, knob, value", [("screen", "k", 3), ("fs", "k", 3),
                                                ("lasso", "lam", 0.05)])
def test_select_and_run_selector_share_one_dispatch(data, method, knob, value):
    sel = str(data["dir"] / "sel.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", method,
                 f"--{knob}", str(value), "--eta", "0.7", "--delta", "0.03",
                 "--sigma", "1.5", "--seed", "9", "--out", sel]) == 0
    X, y = DesignMatrix(read_matrix(data["x"])), read_vector(data["y"])
    res = run_selector(SelectorSpec(method=method, **{knob: value}), X, y, 0.7, 0.03, 1.5,
                       RngStream(9))
    model, budgets, meta = read_selection(sel)
    assert model == res.model
    assert budgets == list(res.budgets)
    theta = {int(r[1]): float(r[2]) for r in (l.split(",") for l in open(sel).read().splitlines())
             if r[0] == "theta"}
    if res.theta is None:
        assert theta == {}
    else:
        assert theta == {j: v for j, v in enumerate(res.theta) if v != 0.0}
        assert float(meta["c1"]) == res.c1 and int(meta["steps"]) == len(res.trace)


@pytest.mark.parametrize("flags", [["lasso", "--c1", "inf", "--steps", "5"],
                                   ["lasso", "--c1", "nan", "--steps", "5"],
                                   ["lasso", "--lam", "inf"],
                                   ["screen", "--k", "2", "--sigma", "inf"],
                                   ["fs", "--k", "2", "--sigma", "nan"]])
def test_select_rejects_nonfinite_knobs(data, flags):
    out = data["dir"] / "sel.csv"
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", *flags,
                 "--eta", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_select_dimension_mismatch(tmp_path, data):
    bad = tmp_path / "short.csv"
    bad.write_text("1.0\n2.0\n")
    assert main(["select", "--x", data["x"], "--y", str(bad), "--method", "screen",
                 "--k", "1", "--eta", "1.0"]) == 3


def test_nonfinite_response_is_rejected(data, tmp_path):
    y = data["y_arr"].copy()
    y[5] = np.nan
    bad = tmp_path / "nan.csv"
    np.savetxt(bad, y[:, None], delimiter=",")
    sel = str(tmp_path / "sel.csv")
    for method in (["screen", "--k", "2"], ["fs", "--k", "2"], ["lasso", "--lam", "0.05"]):
        assert main(["select", "--x", data["x"], "--y", str(bad), "--method", *method,
                     "--eta", "1.0", "--out", sel]) == 2, method
    out = tmp_path / "iv.csv"
    assert main(["ci", "--x", data["x"], "--y", str(bad), "--model", "0,1",
                 "--sigma", "known:1.0", "--out", str(out)]) == 2
    assert main(["ci", "--x", data["x"], "--y", str(bad), "--model", "0,1",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_default_select_then_default_ci(data):
    # select's default delta certifies a slack that ci's default alpha can spend
    sel = str(data["dir"] / "sel.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
                 "--k", "2", "--eta", "1.0", "--out", sel]) == 0
    out = str(data["dir"] / "iv.csv")
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--selection", sel,
                 "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 3


# ---------------------------------------------------------------------------
# ci


def test_ci_fixed_model_classical_constant(data, capsys):
    out = str(data["dir"] / "iv.csv")
    rc = main(["ci", "--x", data["x"], "--y", data["y"], "--model", "0",
               "--alpha", "0.05", "--sigma", "known:1.0", "--out", out])
    assert rc == 0
    assert "model_size=1" in capsys.readouterr().out
    K = float(open(out).read().splitlines()[1].split(",")[3])
    np.testing.assert_allclose(K, scipy.stats.norm.ppf(0.975), rtol=1e-12)
    np.testing.assert_allclose(K, 1.9599639845400545, rtol=1e-15)


def test_ci_selection_budget_shifts_constant(data):
    # a certified (1,0,0) budget at alpha=0.05: z at 1 - 0.025 e^{-1}
    sel = data["dir"] / "handmade.csv"
    sel.write_text("record,f1,f2,f3,f4,f5,f6\n"
                   "meta,schema,1,,,,\n"
                   "selected,0,,,,,\n"
                   "budget,advanced,1.0,0.0,0.0,,\n")
    out = str(data["dir"] / "iv2.csv")
    rc = main(["ci", "--x", data["x"], "--y", data["y"], "--selection", str(sel),
               "--alpha", "0.05", "--sigma", "known:1.0", "--out", out])
    assert rc == 0
    K = float(open(out).read().splitlines()[1].split(",")[3])
    np.testing.assert_allclose(K, 2.357590481797843, rtol=1e-12)
    np.testing.assert_allclose(
        K, scipy.stats.norm.ppf(1 - 0.025 * math.exp(-1)), rtol=1e-12)


def test_ci_rejects_a_selection_made_on_another_design(tmp_path, capsys):
    # the certificate's noise scales were calibrated on the selection's n and d
    gen = np.random.default_rng(5)
    files = {}
    for n, d in ((100, 20), (50, 12)):
        X = gen.standard_normal((n, d)) / math.sqrt(n)
        y = X[:, :3] @ np.full(3, 40.0) + gen.standard_normal(n)
        files[n] = (str(tmp_path / f"x{n}.csv"), str(tmp_path / f"y{n}.csv"))
        np.savetxt(files[n][0], X, delimiter=",")
        np.savetxt(files[n][1], y[:, None], delimiter=",")
    sel = str(tmp_path / "sel.csv")
    assert main(["select", "--x", files[100][0], "--y", files[100][1], "--method", "screen",
                 "--k", "3", "--eta", "5.0", "--out", sel]) == 0
    assert max(read_selection(sel)[0]) < 12  # every index exists in the 50x12 design
    capsys.readouterr()
    out = tmp_path / "iv.csv"
    assert main(["ci", "--x", files[50][0], "--y", files[50][1], "--selection", sel,
                 "--sigma", "known:1.0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "100x20" in err and "50x12" in err
    assert not out.exists()


def test_ci_rejects_another_selection_schema(data):
    sel = data["dir"] / "schema2.csv"
    sel.write_text("record,f1,f2,f3,f4,f5,f6\n"
                   "meta,schema,2,,,,\n"
                   "selected,0,,,,,\n"
                   "budget,advanced,1.0,0.0,0.0,,\n")
    with pytest.raises(CliParseError, match="schema '2'"):
        read_selection(str(sel))
    out = data["dir"] / "iv.csv"
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--selection", str(sel),
                 "--sigma", "known:1.0", "--out", str(out)]) == 2
    assert not out.exists()


def test_ci_selection_without_budget_rows(data):
    # a selection file must carry its certificate; --model is the explicit
    # no-selection path
    sel = data["dir"] / "nobudget.csv"
    sel.write_text("record,f1,f2,f3,f4,f5,f6\n"
                   "meta,schema,1,,,,\n"
                   "selected,0,,,,,\n")
    with pytest.raises(CliParseError, match="--model"):
        read_selection(str(sel))
    out = data["dir"] / "iv.csv"
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--selection", str(sel),
                 "--sigma", "known:1.0", "--out", str(out)]) == 2
    assert not out.exists()


def test_ci_empty_model(data):
    out = str(data["dir"] / "iv3.csv")
    rc = main(["ci", "--x", data["x"], "--y", data["y"], "--model", "",
               "--sigma", "known:1.0", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["parameters"]["K"] == 0.0


def test_ci_weights_route(data):
    out = str(data["dir"] / "iv4.csv")
    rc = main(["ci", "--x", data["x"], "--y", data["y"], "--model", "0,1",
               "--alpha", "0.1", "--weights", "0.5,0.25,0.25",
               "--sigma", "known:1.0", "--out", out])
    assert rc == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["parameters"]["delta_level"] == pytest.approx(0.05)


def test_ci_weights_must_cover_slack(data):
    sel = str(data["dir"] / "slacky.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
                 "--k", "2", "--eta", "0.5", "--delta", "0.02", "--out", sel]) == 0
    # slack 0.04 but the weights only allow (0.01 + 0.01) * 0.1 = 0.002
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--selection", sel,
                 "--weights", "0.98,0.01,0.01", "--sigma", "known:1.0",
                 "--out", str(data["dir"] / "iv5.csv")]) == 2


def test_ci_exit_codes(data, tmp_path):
    base = ["ci", "--x", data["x"], "--y", data["y"], "--sigma", "known:1.0",
            "--out", str(tmp_path / "o.csv")]
    assert main(base + ["--model", "0", "--alpha", "1.5"]) == 2
    assert main(base + ["--model", "7"]) == 3
    assert main(base + ["--model", "0", "--weights", "1,0"]) == 2
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--model", "0",
                 "--sigma", "bogus", "--out", str(tmp_path / "o.csv")]) == 2
    with pytest.raises(SystemExit):
        main(base + ["--model", "0", "--selection", "x.csv"])
    with pytest.raises(SystemExit):
        main(base)  # neither --model nor --selection


@pytest.mark.parametrize("command", ["select", "ci"])
def test_an_unwritable_out_path_exits_2(data, tmp_path, capsys, command):
    # a missing directory raised FileNotFoundError (exit 1) after the work
    out = tmp_path / "missing" / "o.csv"
    flags = ["--method", "screen", "--k", "2", "--eta", "1.0"] if command == "select" else \
        ["--model", "0", "--sigma", "known:1.0"]
    assert main([command, "--x", data["x"], "--y", data["y"], *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("sigma", ["inf", "known:inf", "nan", "known:-inf"])
def test_ci_rejects_nonfinite_sigma(data, sigma):
    out = data["dir"] / "iv.csv"
    assert main(["ci", "--x", data["x"], "--y", data["y"], "--model", "0,1",
                 "--sigma", sigma, "--out", str(out)]) == 2
    assert not out.exists()


def test_ci_rank_deficient_exit(tmp_path):
    X = np.ones((10, 2))
    y = np.arange(10.0)
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y[:, None], delimiter=",")
    assert main(["ci", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                 "--model", "0,1", "--sigma", "known:1.0",
                 "--out", str(tmp_path / "o.csv")]) == 4


def test_ci_estimate_needs_samples(tmp_path):
    gen = np.random.default_rng(0)
    X = gen.standard_normal((5, 6))
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", gen.standard_normal((5, 1)), delimiter=",")
    assert main(["ci", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                 "--model", "0", "--sigma", "estimate",
                 "--out", str(tmp_path / "o.csv")]) == 5


def test_ci_estimate_checks_the_full_model(tmp_path, capsys):
    # the model 0,1 is full rank; the full model repeats column 1 as column 3
    gen = np.random.default_rng(4)
    X = gen.standard_normal((30, 4))
    X[:, 3] = X[:, 1]
    np.savetxt(tmp_path / "x.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", gen.standard_normal((30, 1)), delimiter=",")
    out = tmp_path / "o.csv"
    base = ["ci", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--model", "0,1", "--out", str(out)]
    assert main(base + ["--sigma", "known:1.0"]) == 0
    out.unlink()
    capsys.readouterr()
    assert main(base + ["--sigma", "estimate"]) == 4
    assert re.fullmatch(r"error: columns \(0, 1, 2, 3\): singular value ratio "
                        r"\d\.\d{3}e-\d\d below 1\.0e-10\n", capsys.readouterr().err)
    assert not out.exists()
    # n <= d: four rows of the same design
    np.savetxt(tmp_path / "x.csv", X[:4], delimiter=",")
    np.savetxt(tmp_path / "y.csv", gen.standard_normal((4, 1)), delimiter=",")
    assert main(base + ["--sigma", "estimate"]) == 5
    assert capsys.readouterr().err == \
        "error: need n > d for the full-model estimate, got n=4, d=4\n"
    assert not out.exists()


_SIGMAS = (("known", "known:1.0"), ("estimate", "estimate"))


@pytest.mark.parametrize("method, sigma_mode, sigma_flag", [
    *(pytest.param("fixed", mode, flag, id=f"{mode}-{flag}") for mode, flag in _SIGMAS),
    *(pytest.param(method, mode, flag, id=f"{method}-{mode}")
      for method in ("screen", "fs", "lasso", "lasso-c1") for mode, flag in _SIGMAS)])
def test_ci_and_fixed_model_trial_share_one_inference_path(tmp_path, method, sigma_mode,
                                                           sigma_flag):
    """ci on a trial's data and selection gives the trial record's K and
    widths bit for bit: a fixed model at the all-on-delta split, and every
    noisy selector (LASSO by penalty and by radius) at the default split."""
    if method == "fixed":
        cfg = ExperimentConfig(n=50, d=6,
                               selector=SelectorSpec(method="fixed", fixed_model=(0, 2, 3)),
                               trials=1, master_seed=8, alpha=0.1,
                               alpha_weights=(1.0, 0.0, 0.0), sigma_mode=sigma_mode)
        eta, choice = None, ["--model", "0,2,3"]
    else:
        spec, eta = {"screen": (SelectorSpec(method="screen", k=3), 1.0),
                     "fs": (SelectorSpec(method="fs", k=3), 1.0),
                     "lasso": (SelectorSpec(method="lasso", lam=0.5, steps=20), 0.5),
                     "lasso-c1": (SelectorSpec(method="lasso", c1=2.0), 0.5)}[method]
        cfg = ExperimentConfig(n=100, d=20, selector=spec, trials=3, master_seed=8,
                               signal=5.0, active_fraction=0.15, alpha=0.1, sigma_mode=sigma_mode,
                               eta_grid=(eta,))
        delta = slack_allowance(cfg.alpha) / 2.0
    for t in range(cfg.trials):
        X, _, _, y = one_trial(cfg, t)
        np.savetxt(tmp_path / "x.csv", X.entries, delimiter=",", fmt="%.17g")
        np.savetxt(tmp_path / "y.csv", y[:, None], delimiter=",", fmt="%.17g")
        if method != "fixed":
            # the selection the trial makes, on its selector stream (2, t)
            rng = RngStream(cfg.master_seed).child(2, t)
            choice = ["--selection", str(tmp_path / "sel.csv")]
            write_selection(choice[1], spec.method, {"n": X.n, "d": X.d},
                            run_selector(spec, X, y, eta, delta, cfg.sigma, rng))
        out = tmp_path / "iv.csv"
        assert main(["ci", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                     *choice, "--alpha", "0.1", "--sigma", sigma_flag, "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        rec = run_trial(cfg, t)[0]
        assert rec.flagged is None and [int(r[0]) for r in rows] == list(rec.model)
        assert {float(r[3]) for r in rows} == {rec.K}
        np.testing.assert_array_equal([float(r[5]) - float(r[4]) for r in rows], rec.widths)


# ---------------------------------------------------------------------------
# budget


def parse_budget_lines(text):
    out = {}
    for line in text.splitlines():
        kind, rest = line.split(" ", 1)
        out[kind] = {kv.split("=")[0]: kv.split("=")[1]
                     for kv in rest.split(" (")[0].split(" ")}
    return out


def test_budget_command(capsys):
    assert main(["budget", "--k", "10", "--eta-step", "0.1", "--delta", "0.05"]) == 0
    got = parse_budget_lines(capsys.readouterr().out)
    assert float(got["simple"]["eta"]) == pytest.approx(1.0)
    assert float(got["advanced"]["eta"]) == pytest.approx(0.82404551204099, abs=1e-11)
    assert float(got["advanced"]["nu"]) == 0.05


def test_budget_sparse(capsys):
    assert main(["budget", "--sparse", "10", "3", "0.05"]) == 0
    got = parse_budget_lines(capsys.readouterr().out)
    assert float(got["sparse"]["eta"]) == pytest.approx(math.log(3500), abs=1e-9)


def test_budget_zero_step(capsys):
    assert main(["budget", "--k", "1", "--eta-step", "0"]) == 0
    got = parse_budget_lines(capsys.readouterr().out)
    assert float(got["simple"]["eta"]) == 0.0
    assert float(got["advanced"]["eta"]) == 0.0


@pytest.mark.parametrize("step", [["--eta-step", "nan"], ["--eta-step", "inf"],
                                  ["--eta-step", "0.1", "--tau-step", "nan"]])
def test_budget_rejects_nonfinite_step(step, capsys):
    assert main(["budget", "--k", "3", *step]) == 2
    assert "nan" not in capsys.readouterr().out


def test_budget_rejects_a_tau_above_one(capsys):
    # 3 rounds at tau_step 0.5 compose to tau 1.5, which no certificate
    # carries: once printed as a `simple` line with exit 0
    assert main(["budget", "--k", "3", "--eta-step", "1", "--tau-step", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.search(r"k=3\b.*tau_step=0\.5\b", err), err
    assert main(["budget", "--k", "2", "--eta-step", "1", "--tau-step", "0.5"]) == 0
    assert parse_budget_lines(capsys.readouterr().out)["simple"]["tau"] == "1.0"


@pytest.mark.parametrize("argv", [["--k", "3", "--eta-step", "1", "--delta", "0"],
                                  ["--k", "3", "--eta-step", "1", "--sparse", "5", "3", "0"]],
                         ids=["advanced-delta-0", "sparse-tau-0"])
def test_budget_checks_every_line_before_printing_any(argv, capsys):
    # the simple line used to be printed before the advanced line's delta,
    # or the sparse line's tau, was rejected
    assert main(["budget", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["select", "--method", "screen", "--k", "2", "--eta", "1e200"],
    ["budget", "--k", "3", "--eta-step", "1e308"],
    ["experiment", 1e200, {"method": "screen", "k": 3}],
    ["select", "--method", "screen", "--k", "2", "--eta", "1e-310"],
    ["select", "--method", "fs", "--k", "2", "--eta", "1e-310"],
    ["select", "--method", "lasso", "--c1", "1", "--eta", "1e-310"],
    ["experiment", 1e-310, {"method": "screen", "k": 3}],
    ["experiment", 1e-310, {"method": "fs", "k": 3}],
    ["experiment", 1e200, {"method": "lasso", "c1": 1.0}],
    ["experiment", 1e-310, {"method": "screen", "k": 3}, "a/b/out"],
], ids=["select-huge", "budget-huge", "experiment-huge", "screen-tiny", "fs-tiny",
        "lasso-tiny", "experiment-screen-tiny", "experiment-fs-tiny",
        "experiment-lasso-default-steps-huge", "experiment-screen-tiny-nested-out-dir"])
def test_an_overflowing_eta_step_exits_2(data, capsys, argv):
    # a composed eta or a Laplace scale that overflows is rejected, naming
    # eta_step, where it once left a traceback or an inf scale that picks
    # the lowest columns whatever y is; an experiment leaves no directory
    # that it made, also where only the first block's data shows the failure
    made = argv[3] if len(argv) > 3 else "out"  # the --out-dir below data["dir"]
    out = data["dir"] / made
    if argv[0] == "select":
        argv = [*argv, "--x", data["x"], "--y", data["y"], "--out", str(out)]
    elif argv[0] == "experiment":
        cfg = data["dir"] / "cfg.json"
        cfg.write_text(json.dumps(experiment_config(eta_grid=[1.0, argv[1]], selector=argv[2])))
        argv = ["experiment", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "eta_step" in captured.err and "Traceback" not in captured.err
    assert "inf" not in captured.out
    assert not (data["dir"] / made.split("/")[0]).exists() and data["dir"].is_dir()


def test_a_failed_sweep_keeps_an_out_dir_that_existed(tmp_path, capsys):
    # the directory is removed only if the failed call made it
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(experiment_config(eta_grid=[1.0, 1e-310])))
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "the Laplace scale overflows" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_budget_defaults_match_default_select(data, capsys):
    # the certificate `budget` prints is the one a default `select` writes
    sel = str(data["dir"] / "sel.csv")
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
                 "--k", "2", "--eta", "0.7", "--out", sel]) == 0
    advanced, linear = read_selection(sel)[1]
    capsys.readouterr()
    assert main(["budget", "--k", "2", "--eta-step", "0.7"]) == 0
    got = parse_budget_lines(capsys.readouterr().out)
    assert float(got["advanced"]["eta"]) == advanced.eta
    assert float(got["advanced"]["nu"]) == advanced.nu == advanced.tau
    assert float(got["simple"]["eta"]) == linear.eta


def test_budget_usage_errors():
    assert main(["budget"]) == 2
    assert main(["budget", "--k", "5"]) == 2


@pytest.mark.parametrize("argv, workers, name, text", [
    (["ci", "--model", "0,a"], None, "--model", "'a'"),
    (["ci", "--model", "0,,1"], None, "--model", "''"),
    (["budget", "--sparse", "5", "x", "0.1"], None, "--sparse", "'x'"),
    (["budget", "--sparse", "5", "2", "y"], None, "--sparse", "'y'"),
    (["experiment"], "two", "STABLECI_WORKERS", "'two'"),
    (["select", "--method", "screen", "--k", "2", "--eta", "1", "--seed", "-1"], None,
     "--seed", "-1"),
    (["select", "--method", "screen", "--k", "2", "--eta", "1", "--seed", str(2 ** 64)], None,
     "--seed", str(2 ** 64)),
], ids=["model-letter", "model-empty", "sparse-int", "sparse-float", "workers-env",
        "seed-negative", "seed-2**64"])
def test_a_bad_number_names_its_flag(data, monkeypatch, capsys, argv, workers, name, text):
    out = data["dir"] / "out"
    if argv[0] in ("ci", "select"):
        argv = [*argv, "--x", data["x"], "--y", data["y"], "--out", str(out)]
    elif argv[0] == "experiment":
        cfg = data["dir"] / "cfg.json"
        cfg.write_text(json.dumps(experiment_config()))
        argv = [*argv, "--config", str(cfg), "--out-dir", str(out)]
        monkeypatch.setenv("STABLECI_WORKERS", workers)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert name in err and text in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# experiment


def experiment_config(**overrides):
    cfg = {"n": 60, "d": 12, "trials": 5, "master_seed": 3,
           "signal": 5.0, "active_fraction": 0.25,
           "selector": {"method": "screen", "k": 3},
           "eta_grid": [1.0, 5.0]}
    cfg.update(overrides)
    return cfg


def run_experiment(tmp_path, name, cfg, extra=()):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / name
    rc = main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir),
               *extra])
    return rc, out_dir


CSV_NAMES = ["records.csv", "summary.csv", "plot_width.csv", "plot_fdr.csv",
             "plot_risk.csv"]


def test_experiment_outputs(tmp_path):
    rc, out = run_experiment(tmp_path, "a", experiment_config())
    assert rc == 0
    for name in CSV_NAMES + ["manifest.json"]:
        assert (out / name).exists()
    records = (out / "records.csv").read_text().splitlines()
    assert len(records) == 1 + 2 * 5  # header + etas x trials
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("eta,trials,flagged,empty_models,coverage")
    assert len(summary) == 3
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["parameters"]["eta_grid"] == [1.0, 5.0]
    assert manifest["stream_layout"] == 2


def test_experiment_rerun_byte_identical(tmp_path):
    _, out1 = run_experiment(tmp_path, "r1", experiment_config())
    _, out2 = run_experiment(tmp_path, "r2", experiment_config())
    for name in CSV_NAMES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_experiment_workers_do_not_change_results(tmp_path):
    # 20 trials are two blocks, so two workers start a pool of two
    _, out1 = run_experiment(tmp_path, "w1", experiment_config(trials=20))
    rc, out2 = run_experiment(tmp_path, "w2", experiment_config(trials=20),
                              extra=("--workers", "2"))
    assert rc == 0
    for name in CSV_NAMES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_experiment_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STABLECI_WORKERS", "2")
    rc, out = run_experiment(tmp_path, "we", experiment_config(trials=2))
    assert rc == 0
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["parameters"]["workers"] == 2


def test_experiment_starts_a_process_per_block_at_most(tmp_path, monkeypatch, capsys):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    # one trial is one block: no pool
    rc, one = run_experiment(tmp_path, "one-block", experiment_config(trials=1),
                             extra=("--workers", "4"))
    assert rc == 0 and sizes == []
    assert json.load(open(one / "manifest.json"))["parameters"]["processes"] == 1
    # 3 trials on 4 workers are three blocks of one trial
    rc, three = run_experiment(tmp_path, "three-blocks", experiment_config(trials=3),
                               extra=("--workers", "4"))
    assert rc == 0 and sizes == [3]
    assert json.load(open(three / "manifest.json"))["parameters"]["processes"] == 3
    # 40 trials on 8 workers are eight blocks of 5
    rc, pooled = run_experiment(tmp_path, "eight-blocks", experiment_config(trials=40),
                                extra=("--workers", "8"))
    assert rc == 0 and sizes == [3, 8]
    assert "8 workers" in capsys.readouterr().out
    params = json.load(open(pooled / "manifest.json"))["parameters"]
    assert (params["workers"], params["processes"]) == (8, 8)
    _, single = run_experiment(tmp_path, "single", experiment_config(trials=40),
                               extra=("--workers", "1"))
    assert (pooled / "records.csv").read_bytes() == (single / "records.csv").read_bytes()


def test_experiment_runs_a_process_per_worker_on_a_short_sweep(tmp_path):
    # 12 trials fit one block, but 4 workers take a block of 3 each, in a
    # real pool, and write the files that one process writes
    cfg = experiment_config(trials=12)
    _, single = run_experiment(tmp_path, "single", cfg, extra=("--workers", "1"))
    rc, pooled = run_experiment(tmp_path, "pooled", cfg, extra=("--workers", "4"))
    assert rc == 0
    assert json.load(open(pooled / "manifest.json"))["parameters"]["processes"] == 4
    for name in CSV_NAMES:
        assert (pooled / name).read_bytes() == (single / name).read_bytes(), name


def config_json(cfg: ExperimentConfig, **overrides) -> dict:
    """cfg as an `experiment` config: every field, and the selector's knobs
    that are set."""
    raw = dataclasses.asdict(cfg)
    raw["selector"] = {k: v for k, v in raw["selector"].items() if v not in (None, ())}
    return {**raw, **overrides}


RECORDS_HEADER = ("eta,trial,flagged,model_size,model,covered,fdr,risk,K,budget_eta,"
                  "budget_tau,budget_nu,widths\n")


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_records_csv_is_the_field_by_field_format_of_the_sweep(tmp_path, case):
    # the columnar writer against the oracle that formats each record's
    # fields one at a time: repr floats, quoted flag reasons with commas,
    # empty risk, model and widths fields
    cfg = ENGINE_CASES[case]
    rows = eta_sweep(cfg)
    rc, out = run_experiment(tmp_path, "case", config_json(cfg))
    assert rc == (2 if any(summary.trials == 0 for _, _, summary in rows) else 0)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    for eta, records, _ in rows:
        writer.writerows(records_rows(eta, records))
    assert (out / "records.csv").read_text() == RECORDS_HEADER + want.getvalue()


def test_pooled_experiment_builds_no_per_run_object(tmp_path, monkeypatch):
    """With TrialRecord, ModelSet and StabilityBudget made to raise inside
    experiments, a pooled experiment writes the same files: a block hands
    back columns, and the command formats them."""
    configs = {"screen": experiment_config(trials=40),
               "lam": config_json(ENGINE_CASES["lasso-lam-estimate"], trials=40),
               "flagged": config_json(ENGINE_CASES["fixed-rank-deficient"], trials=40)}
    want = {name: run_experiment(tmp_path, f"want-{name}", cfg) for name, cfg in configs.items()}

    def per_run_object(*args, **kwargs):
        raise AssertionError("a per-run object was built")

    for name in ("TrialRecord", "ModelSet", "StabilityBudget"):
        monkeypatch.setattr(experiments, name, per_run_object)
    for name, cfg in configs.items():
        rc, out = run_experiment(tmp_path, f"got-{name}", cfg, extra=("--workers", "2"))
        assert rc == want[name][0]
        assert json.load(open(out / "manifest.json"))["parameters"]["processes"] == 2
        for csv_name in CSV_NAMES:
            assert (out / csv_name).read_bytes() == (want[name][1] / csv_name).read_bytes()


def test_redrawn_design_sweeps_build_no_design_matrix(tmp_path, monkeypatch):
    """With DesignMatrix made to raise inside experiments, serial and
    pooled sweeps that redraw the design per trial write the same files: a
    block draws, checks and scales its designs as one stack."""
    configs = {"screen": experiment_config(trials=40),
               "fs": config_json(ENGINE_CASES["fs"], trials=40),
               "lam": config_json(ENGINE_CASES["lasso-lam-estimate"], trials=40)}
    assert all(cfg.get("regenerate_x_per_trial", True) for cfg in configs.values())
    want = {name: run_experiment(tmp_path, f"want-{name}", cfg) for name, cfg in configs.items()}

    def design_matrix(*args, **kwargs):
        raise AssertionError("a DesignMatrix was built")

    monkeypatch.setattr(experiments, "DesignMatrix", design_matrix)
    for name, cfg in configs.items():
        for workers in ("1", "2"):
            rc, out = run_experiment(tmp_path, f"got-{name}-{workers}", cfg,
                                     extra=("--workers", workers))
            assert rc == want[name][0]
            for csv_name in CSV_NAMES:
                assert (out / csv_name).read_bytes() == (want[name][1] / csv_name).read_bytes()


@pytest.mark.parametrize("case, reason", [("fixed-rank-deficient", "rank_deficient"),
                                          ("flagged", "degenerate_level")])
def test_flagged_runs_across_blocks_do_not_depend_on_workers(tmp_path, case, reason):
    # 40 trials on three workers are three blocks, so a pool of three
    cfg = config_json(ENGINE_CASES[case], trials=40)
    outs = {}
    for workers in (1, 3):
        rc, outs[workers] = run_experiment(tmp_path, f"w{workers}", cfg,
                                           extra=("--workers", str(workers)))
        assert rc == 2
        params = json.load(open(outs[workers] / "manifest.json"))["parameters"]
        assert params["processes"] == workers
    for name in CSV_NAMES:
        assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name
    flags = [row["flagged"] for row in csv.DictReader(open(outs[3] / "records.csv"))]
    assert sum(f.startswith(reason + ": ") for f in flags) == 40


@pytest.mark.parametrize("overrides, knob", [
    ({"selector": {"method": "lasso", "c1": math.inf, "steps": 5}}, "c1"),
    ({"sigma": math.inf}, "sigma"),
    ({"signal": math.nan}, "signal"),
])
def test_experiment_rejects_nonfinite_config(tmp_path, capsys, overrides, knob):
    rc, out = run_experiment(tmp_path, "nonfinite", experiment_config(**overrides))
    assert rc == 2
    err = capsys.readouterr().err
    assert knob in err and "response" not in err
    assert not (out / "records.csv").exists()


def test_experiment_rejects_support_threshold(tmp_path, capsys):
    cfg = experiment_config(selector={"method": "lasso", "c1": 1.0, "steps": 5,
                                      "support_threshold": 1e-12})
    rc, out = run_experiment(tmp_path, "threshold", cfg)
    assert rc == 2
    assert "support_threshold" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("overrides, knob", [
    ({"selector": {"method": "screen", "k": 3, "fixed_model": [0, 1]}}, "fixed_model"),
    ({"selector": {"method": "lasso", "c1": 1.0, "k": 3}}, "k"),
    ({"selector": {"method": "fs", "k": 3, "steps": 5}}, "steps"),
    ({"selector": {"method": "fixed", "fixed_model": [0], "lam": 0.5}}, "lam"),
    ({"d": 5, "selector": {"method": "fixed", "fixed_model": [1, 7]}}, "fixed_model"),
    ({"d": 5, "selector": {"method": "fs", "k": 6}}, "k=6"),
])
def test_experiment_rejects_dead_knobs_and_shapes_beyond_d(tmp_path, capsys, overrides, knob):
    # before any trial runs: no output at all
    rc, out = run_experiment(tmp_path, "knob", experiment_config(**overrides))
    assert rc == 2
    assert knob in capsys.readouterr().err
    assert not out.exists()


def test_select_rejects_a_knob_its_method_ignores(data, tmp_path, capsys):
    out = tmp_path / "sel.csv"
    assert main(["select", "--x", data["x"], "--y", data["y"], "--method", "screen",
                 "--k", "2", "--steps", "5", "--eta", "1", "--out", str(out)]) == 2
    assert "does not use steps" in capsys.readouterr().err
    assert not out.exists()


def test_select_method_choices_are_the_tables_noisy_methods(monkeypatch, capsys):
    # a method is a choice of `select --method` exactly when its record has
    # a kernel: fixed is not one, and a registered noisy record is
    monkeypatch.setitem(selectors.MECHANISMS, "screen-once", ONE_ROUND)
    argv = ["select", "--x", "x.csv", "--y", "y.csv", "--eta", "1", "--method"]
    noisy = [name for name, mech in selectors.MECHANISMS.items() if mech.kernel]
    assert noisy == ["screen", "fs", "lasso", "screen-once"]
    for name in [*selectors.MECHANISMS, "ridge"]:
        if name in noisy:
            assert cli.build_parser().parse_args(argv + [name]).method == name
        else:
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv + [name])
            assert "invalid choice" in capsys.readouterr().err


def without(key, selector=False):
    """experiment_config() less one top-level or selector key."""
    cfg = experiment_config()
    del (cfg["selector"] if selector else cfg)[key]
    return cfg


def assert_rejected_up_front(tmp_path, capsys, cfg, key):
    # exit 2, the key named, and not even the output directory made
    rc, out = run_experiment(tmp_path, "cfg", cfg)
    assert rc == 2
    err = capsys.readouterr().err.replace(str(tmp_path), "")
    assert key is None or re.search(rf"(?<!\w){key}(?!\w)", err), err
    assert not out.exists()


_SCREEN = {"method": "screen", "k": 3}
_LASSO = {"method": "lasso", "c1": 1.0}

# one bad config per rule of the JSON schema that configs were once checked
# against: (config, the key the error must name)
CONFIG_RULES = {
    "not-an-object": ([experiment_config()], None),
    "n-type": (experiment_config(n="60"), "n"),
    "n-range": (experiment_config(n=0), "n"),
    "d-type": (experiment_config(d=[12]), "d"),
    "d-range": (experiment_config(d=0), "d"),
    "trials-type": (experiment_config(trials=True), "trials"),
    "trials-range": (experiment_config(trials=0), "trials"),
    "master_seed-type": (experiment_config(master_seed=3.5), "master_seed"),
    "master_seed-range": (experiment_config(master_seed=-1), "master_seed"),
    "signal-type": (experiment_config(signal="5"), "signal"),
    "active_fraction-type": (experiment_config(active_fraction=None), "active_fraction"),
    "active_fraction-range": (experiment_config(active_fraction=1.5), "active_fraction"),
    "sigma-type": (experiment_config(sigma=False), "sigma"),
    "sigma-range": (experiment_config(sigma=0), "sigma"),
    "alpha-type": (experiment_config(alpha="0.1"), "alpha"),
    "alpha-range": (experiment_config(alpha=1), "alpha"),
    "regenerate_x_per_trial-type": (experiment_config(regenerate_x_per_trial=1),
                                    "regenerate_x_per_trial"),
    "sigma_mode-enum": (experiment_config(sigma_mode="plugin"), "sigma_mode"),
    "eta_grid-type": (experiment_config(eta_grid=1.0), "eta_grid"),
    "eta_grid-empty": (experiment_config(eta_grid=[]), "eta_grid"),
    "eta_grid-item-type": (experiment_config(eta_grid=["1.0"]), "eta_grid"),
    "eta_grid-item-range": (experiment_config(eta_grid=[1.0, 0]), "eta_grid"),
    "alpha_weights-type": (experiment_config(alpha_weights="thirds"), "alpha_weights"),
    "alpha_weights-length": (experiment_config(alpha_weights=[0.5, 0.5]), "alpha_weights"),
    "alpha_weights-item-type": (experiment_config(alpha_weights=[1.0, 0, "0"]),
                                "alpha_weights"),
    "alpha_weights-item-range": (experiment_config(alpha_weights=[1.2, -0.1, -0.1]),
                                 "alpha_weights"),
    **{f"{key}-required": (without(key), key)
       for key in ("n", "d", "trials", "master_seed", "selector")},
    "unknown-key": (experiment_config(unknown_key=1), "unknown_key"),
    "selector-type": (experiment_config(selector="screen"), "selector"),
    "method-required": (without("method", selector=True), "method"),
    "selector-unknown-key": (experiment_config(selector={**_SCREEN, "seed": 1}), "seed"),
    "method-enum": (experiment_config(selector={"method": "svm"}), "method"),
    "k-type": (experiment_config(selector={**_SCREEN, "k": "3"}), "k"),
    "k-range": (experiment_config(selector={**_SCREEN, "k": 0}), "k"),
    # null is no value of a selector key, not even of one the method leaves unset
    "steps-null": (experiment_config(selector={**_SCREEN, "steps": None}), "steps"),
    "c1-type": (experiment_config(selector={**_LASSO, "c1": "1"}), "c1"),
    "c1-range": (experiment_config(selector={**_LASSO, "c1": 0}), "c1"),
    "lam-type": (experiment_config(selector={"method": "lasso", "lam": [0.5]}), "lam"),
    "lam-range": (experiment_config(selector={"method": "lasso", "lam": -0.5}), "lam"),
    "steps-type": (experiment_config(selector={**_LASSO, "steps": "20"}), "steps"),
    "steps-range": (experiment_config(selector={**_LASSO, "steps": 0}), "steps"),
    "fixed_model-type": (experiment_config(selector={"method": "fixed", "fixed_model": 0}),
                         "fixed_model"),
    "fixed_model-item-type": (experiment_config(selector={"method": "fixed",
                                                          "fixed_model": ["0"]}),
                              "fixed_model"),
    "fixed_model-item-range": (experiment_config(selector={"method": "fixed",
                                                           "fixed_model": [-1]}),
                               "fixed_model"),
}


@pytest.mark.parametrize("rule", CONFIG_RULES)
def test_experiment_rejects_each_config_rule_up_front(tmp_path, capsys, rule):
    cfg, key = CONFIG_RULES[rule]
    assert_rejected_up_front(tmp_path, capsys, cfg, key)


ONCE_GOT_THROUGH = {
    # a float for an integer: once a TypeError traceback, or a silent truncation
    "n-float": (experiment_config(n=50.0), "n"),
    "trials-float": (experiment_config(trials=2.0), "trials"),
    "k-float": (experiment_config(selector={**_SCREEN, "k": 2.0}), "k"),
    "fixed_model-float": (experiment_config(selector={"method": "fixed",
                                                      "fixed_model": [0, 1.0]}), "fixed_model"),
    # once rejected only after the output directory was made
    "master_seed-2**64": (experiment_config(master_seed=2 ** 64), "master_seed"),
    # a trial index must fit one word of a stream path
    "trials-2**64": (experiment_config(trials=2 ** 64), "trials"),
    "alpha_weights-sum": (experiment_config(alpha_weights=[0.5, 0.5, 0.5]), "alpha_weights"),
    "alpha_weights-nan": (experiment_config(alpha_weights=[math.nan, 0.5, 0.5]),
                          "alpha_weights"),
    "eta_grid-nan": (experiment_config(eta_grid=[math.nan]), "eta_grid"),
    # once ran the first block's selection, then exited 5 and removed the
    # directory: no trial gets an interval for a nonempty model
    "sigma_mode-estimate-n<=d": (experiment_config(n=10, d=20, trials=3, master_seed=1,
                                                   sigma_mode="estimate"), "sigma_mode"),
}


@pytest.mark.parametrize("rule", ONCE_GOT_THROUGH)
def test_experiment_rejects_up_front_what_once_got_through(tmp_path, capsys, rule):
    cfg, key = ONCE_GOT_THROUGH[rule]
    assert_rejected_up_front(tmp_path, capsys, cfg, key)


# a round count the config fixes is certified at every eta on load; the
# overflow once surfaced in the first block, after the directory was made
OVERFLOWING_ETA_GRID_ENTRIES = {
    "screen": (experiment_config(selector=_SCREEN, eta_grid=[1.0, 1e200]),
               r"eta_grid entry 1e\+200"),
    "fs": (experiment_config(selector={"method": "fs", "k": 3}, eta_grid=[1.0, 1e200]),
           r"eta_grid entry 1e\+200"),
    "lasso-steps": (experiment_config(selector={**_LASSO, "steps": 5}, eta_grid=[1.0, 1e200]),
                    r"eta_grid entry 1e\+200"),
    # the fs Laplace scale depends on the config alone
    "fs-scale": (experiment_config(selector={"method": "fs", "k": 3}, eta_grid=[1.0, 1e-310]),
                 r"eta_grid entry 1e-310"),
}


@pytest.mark.parametrize("case", OVERFLOWING_ETA_GRID_ENTRIES)
def test_an_overflowing_eta_grid_entry_exits_2_before_the_out_dir(tmp_path, capsys, case):
    cfg, key = OVERFLOWING_ETA_GRID_ENTRIES[case]
    assert_rejected_up_front(tmp_path, capsys, cfg, key)


# the all-on-delta split leaves a noisy selector no slack: the error once
# blamed an eta_grid entry, or came from the first block, naming only delta
NO_SLACK = {
    "screen": experiment_config(alpha_weights=[1, 0, 0]),
    "lasso-default-steps": experiment_config(selector={"method": "lasso", "lam": 0.5},
                                             alpha_weights=[1, 0, 0]),
}


@pytest.mark.parametrize("case", NO_SLACK)
def test_weights_that_leave_a_noisy_selector_no_slack_are_named(tmp_path, capsys, case):
    assert_rejected_up_front(tmp_path, capsys, NO_SLACK[case], r"alpha_weights \[1, 0, 0\]")


REJECTED_UP_FRONT = {
    **CONFIG_RULES, **ONCE_GOT_THROUGH,
    **{f"eta_grid-entry-{case}": v for case, v in OVERFLOWING_ETA_GRID_ENTRIES.items()},
    **{f"alpha_weights-no-slack-{case}": (cfg, None) for case, cfg in NO_SLACK.items()},
}


def library_form(raw) -> bool:
    """Whether a config's file has the shape load_config checks: a JSON
    object whose selector is an object with no null value."""
    return isinstance(raw, dict) and isinstance(raw.get("selector"), dict) and \
        None not in raw["selector"].values()


@pytest.mark.parametrize("case", [case for case, (raw, _) in REJECTED_UP_FRONT.items()
                                  if library_form(raw)])
def test_the_library_rejects_each_config_with_the_command_lines_message(tmp_path, capsys,
                                                                         case):
    raw = dict(REJECTED_UP_FRONT[case][0])
    assert run_experiment(tmp_path, "cfg", raw)[0] == 2
    err = capsys.readouterr().err
    sel = raw.pop("selector")
    with pytest.raises((TypeError, ValueError, StableCIError)) as info:
        ExperimentConfig(**raw, selector=SelectorSpec(**sel))
    assert str(info.value) in err, err


def test_load_config_keys_are_the_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(experiment_config(
        selector={"method": "fixed", "fixed_model": [0, 2]}, alpha_weights=[1.0, 0, 0])))
    cfg = load_config(str(path))
    assert cfg.eta_grid == (1.0, 5.0)
    assert (cfg.n, cfg.d, cfg.trials, cfg.master_seed, cfg.signal, cfg.active_fraction) == \
        (60, 12, 5, 3, 5.0, 0.25)
    assert cfg.selector.fixed_model == (0, 2) and cfg.alpha_weights == (1.0, 0, 0)
    path.write_text(json.dumps(without("eta_grid")))
    assert load_config(str(path)).eta_grid == DEFAULT_ETA_GRID


def run_fresh(code, *args):
    """The stdout of a fresh interpreter that runs code with args as
    sys.argv[1:], importing this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_imports_without_jsonschema():
    run_fresh("import sys; sys.modules['jsonschema'] = None; import stableci.cli")


MAIN = "from stableci.cli import main\nif main(sys.argv[1:]): sys.exit('exit 2')"


@pytest.mark.parametrize("statement, args, loads_special", [
    ("import stableci", [], False),
    ("import stableci.cli", [], False),
    (MAIN, ["select", "--method", "screen", "--k", "2"], False),
    (MAIN, ["select", "--method", "fs", "--k", "2"], False),
    (MAIN, ["select", "--method", "lasso", "--c1", "1.0"], False),
    (MAIN, ["select", "--method", "lasso", "--lam", "0.5"], False),
    (MAIN, ["budget", "--k", "3", "--eta-step", "0.5"], False),
    ("from stableci.cli import load_config\nload_config(sys.argv[1])", ["{cfg}"], False),
    (MAIN, ["ci", "--x", "{x}", "--y", "{y}", "--model", "0,1", "--out", "{dir}/iv.csv"],
     True),
    (MAIN, ["budget", "--sparse", "10", "3", "0.05"], True),
], ids=["import-stableci", "import-cli", "select-screen", "select-fs", "select-lasso-c1",
        "select-lasso-lam", "budget-k", "load-config", "ci", "budget-sparse"])
def test_only_a_quantile_or_log_binomial_loads_scipy_special(data, statement, args,
                                                             loads_special):
    # importing scipy.special takes about 0.2 s, most of a cold start, and
    # only K and the sparse bound need it; scipy.linalg is never needed
    # (the sigma estimate's QR is numpy's)
    if args[:1] == ["select"]:
        args = [*args, "--x", "{x}", "--y", "{y}", "--eta", "1.0", "--out", "{dir}/sel.csv"]
    cfg = data["dir"] / "cfg.json"
    cfg.write_text(json.dumps(experiment_config(selector={"method": "fs", "k": 3})))
    args = [a.format(x=data["x"], y=data["y"], dir=data["dir"], cfg=cfg) for a in args]
    code = f"import sys\n{statement}\nprint('scipy.special' in sys.modules, " \
           "'scipy.linalg' in sys.modules)"
    assert run_fresh(code, *args).split()[-2:] == [str(loads_special), "False"]


def test_a_pooled_sweep_loads_scipy_special_before_it_forks(tmp_path):
    # forked workers inherit the parent's modules: loaded before the pool,
    # scipy.special is imported once, not once per worker
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(experiment_config(trials=40)))
    code = """import sys, types
from stableci import cli
seen = []
class Pool:
    def __init__(self, processes):
        seen.append('scipy.special' in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, tasks):
        return list(map(fn, tasks))
cli.multiprocessing = types.SimpleNamespace(Pool=Pool)
if cli.main(sys.argv[1:]): sys.exit('exit 2')
print(seen)"""
    out = run_fresh(code, "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                    "--workers", "2")
    assert out.splitlines()[-1] == "[True]"


def test_experiment_all_flagged_names_reasons(tmp_path, capsys):
    # with n=3 rows, forward stepwise runs out of candidates at step 4
    cfg = experiment_config(n=3, d=10, selector={"method": "fs", "k": 5}, eta_grid=[1.0])
    rc, _ = run_experiment(tmp_path, "collinear", cfg)
    assert rc == 2
    assert "all 5 trials were flagged (all_candidates_collinear: 5)" in capsys.readouterr().err


def test_experiment_keeps_the_etas_that_worked(tmp_path, capsys):
    # default LASSO steps grow with eta: at eta_step 4 every trial's
    # certified eta leaves no level, at 0.5 the trials complete
    cfg = experiment_config(n=100, d=20, trials=4, active_fraction=0.15,
                            selector={"method": "lasso", "lam": 0.5}, eta_grid=[0.5, 4.0])
    rc, out = run_experiment(tmp_path, "partial", cfg)
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        "error: eta 4.0: all 4 trials were flagged (degenerate_level: 4)"
    for name in CSV_NAMES + ["manifest.json"]:
        assert (out / name).exists(), name
    with open(out / "summary.csv") as fh:
        worked, failed = list(csv.DictReader(fh))
    assert worked["eta"] == "0.5" and worked["trials"] == "4" and worked["coverage"] != ""
    assert (failed["eta"], failed["trials"], failed["flagged"], failed["empty_models"]) == \
        ("4.0", "0", "4", "0")
    assert all(failed[c] == "" for c in ("coverage", "width_max", "width_q80", "width_q85",
                                         "width_q90", "width_q100", "mean_fdr", "mean_risk",
                                         "mean_K"))
    records = (out / "records.csv").read_text().splitlines()[1:]
    assert len(records) == 8
    assert all(",degenerate_level: " in r for r in records if r.startswith("4.0,"))
    assert (out / "plot_width.csv").read_text().splitlines()[2] == "4.0,,"


def test_experiment_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["experiment", "--config", str(p),
                 "--out-dir", str(tmp_path / "nowhere")]) == 2


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_experiment_unwritable_out_dir_exits_2(tmp_path, capsys, where):
    # an --out-dir that is a file raised FileExistsError from os.makedirs
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out_dir = blocker if where == "a file" else blocker / "sub"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(experiment_config(trials=1, eta_grid=[1.0])))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out_dir}: ")


def test_experiment_fixed_selector_with_weights(tmp_path):
    cfg = experiment_config(selector={"method": "fixed", "fixed_model": [0, 1]},
                            alpha_weights=[1.0, 0.0, 0.0], eta_grid=[1.0],
                            trials=3)
    rc, out = run_experiment(tmp_path, "fixed", cfg)
    assert rc == 0
    rows = (out / "records.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[4] == "0|1" for r in rows)
