"""CLI contract: outputs, manifests, reproducibility, exit codes."""

import json
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worldfunc as wf
from worldfunc.cli import UsageError, _build_parser, _write_csv, main, parse_geometry


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def write_points(path, pts):
    path.write_text(json.dumps(pts))
    return path


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_command(tmp_path):
    pts = write_points(tmp_path / "pts.json", [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert run(["sigma", "--geometry", "minkowski", "--points", pts,
                "--out-dir", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "sigma.csv")
    assert header == ["i", "j", "sigma"]
    table = {(int(i), int(j)): s for i, j, s in rows}
    assert table[(0, 1)] == 0.5 and table[(0, 2)] == -0.5 and table[(0, 0)] == 0.0


@pytest.mark.parametrize("spec,dim", [("euclidean:dim=3", 3), ("minkowski", 4),
                                      ("discrete:lambda0_sq=0.01", 4),
                                      ("grainy:lambda0_sq=0.01,sigma0=0.03", 4)])
def test_sigma_command_matches_per_pair_loop(tmp_path, spec, dim):
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (40, dim))
    f = write_points(tmp_path / "pts.json", pts.tolist())
    assert run(["sigma", "--geometry", spec, "--points", f, "--out-dir", tmp_path]) == 0
    # the per-pair loop the command replaced, kept as reference
    g = parse_geometry(spec)
    want = ["i,j,sigma"] + [f"{i},{j},{wf.sigma(g, pts[i], pts[j])!r}"
                            for i in range(len(pts)) for j in range(i, len(pts))]
    assert (tmp_path / "sigma.csv").read_text() == "\n".join(want) + "\n"


def test_sigma_non_finite_point_exits_1(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text("[[0, 0, 0, 0], [NaN, 0, 0, 0]]")
    assert run(["sigma", "--geometry", "minkowski", "--points", pts,
                "--out-dir", tmp_path]) == 1


def test_sigma_missing_file_exits_1(tmp_path):
    assert run(["sigma", "--geometry", "minkowski", "--points",
                tmp_path / "nope.json", "--out-dir", tmp_path]) == 1


def test_bad_geometry_exits_1(tmp_path):
    pts = write_points(tmp_path / "p.json", [[0, 0]])
    assert run(["sigma", "--geometry", "hyperbolic", "--points", pts,
                "--out-dir", tmp_path]) == 1


@pytest.mark.parametrize("argv, message", [
    (["eqv", "witness", "--geometry", "discrete:lambda0_sq"], "malformed geometry option 'lambda0_sq'"),
    (["eqv", "solve", "--geometry", "minkowski", "--p0", "0,x,0,0", "--p1", "1,0,0,0",
      "--q0", "0,0,0,0"], "bad point '0,x,0,0'"),
], ids=["geometry-option-without-value", "bad-point"])
def test_malformed_option_value_exits_1(tmp_path, capsys, argv, message):
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_geometry_minilanguage():
    g = parse_geometry("euclidean:dim=5")
    assert g.kind == "euclidean" and g.dim == 5
    g = parse_geometry("grainy:lambda0_sq=0.01,sigma0=0.03")
    assert g.lambda0_sq == 0.01 and g.sigma0 == 0.03
    with pytest.raises(UsageError, match="a discrete geometry needs lambda0_sq"):
        parse_geometry("discrete")
    with pytest.raises(UsageError, match="missing option 'file'"):
        parse_geometry("deformed")


def test_grainy_spec_needs_both_options(tmp_path, capsys):
    pts = write_points(tmp_path / "p.json", [[0, 0, 0, 0]])
    assert run(["sigma", "--geometry", "grainy", "--points", pts, "--out-dir", tmp_path]) == 1
    assert "a grainy geometry needs lambda0_sq and sigma0" in capsys.readouterr().err
    spec = tmp_path / "geom.json"
    spec.write_text(json.dumps({"kind": "grainy", "lambda0_sq": 0.01}))
    assert run(["sigma", "--geometry", f"@{spec}", "--points", pts, "--out-dir", tmp_path]) == 1
    assert "a grainy geometry needs sigma0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["grainy:lambda0_sq=nan,sigma0=0.03",
                                  "grainy:lambda0_sq=0.01,sigma0=nan",
                                  "grainy:lambda0_sq=inf,sigma0=0.03",
                                  "discrete:lambda0_sq=inf"])
def test_non_finite_geometry_parameters_exit_1(tmp_path, capsys, spec):
    pts = write_points(tmp_path / "p.json", [[0, 0, 0, 0], [1, 0, 0, 0]])
    assert run(["sigma", "--geometry", spec, "--points", pts, "--out-dir", tmp_path]) == 1
    assert run(["chain", "--geometry", spec, "--link-sigma-m", 0.5, "--steps", 3,
                "--out-dir", tmp_path]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_geometry_whose_ramp_slope_overflows_exits_1(tmp_path, capsys):
    pts = write_points(tmp_path / "p.json", [[0, 0, 0, 0], [1, 1, 0, 0]])
    spec = "grainy:lambda0_sq=0.01,sigma0=5e-324"
    assert run(["sigma", "--geometry", spec, "--points", pts, "--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lambda0_sq / sigma0 overflows" in err
    assert not list(tmp_path.glob("*.csv"))


def test_deformed_geometry_from_file(tmp_path):
    fspec = tmp_path / "F.json"
    fspec.write_text(json.dumps({"F_table": [[-10, -10], [0, 0], [10, 10]]}))
    g = parse_geometry(f"deformed:file={fspec}")
    assert wf.sigma(g, (0, 0, 0, 0), (1, 0, 0, 0)) == 0.5


@pytest.mark.parametrize("form", ["@{}", "deformed:file={}"])
@pytest.mark.parametrize("content", ["[1, 2]", '"discrete"', "3.5", "null"])
def test_geometry_file_without_json_object_exits_1(tmp_path, capsys, form, content):
    spec = tmp_path / "spec.json"
    spec.write_text(content)
    pts = write_points(tmp_path / "p.json", [[0, 0, 0, 0]])
    assert run(["sigma", "--geometry", form.format(spec), "--points", pts,
                "--out-dir", tmp_path]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("content", [{"kind": "discrete", "lambda0_sq": [0.01]},
                                     {"kind": "minkowski", "units": [1.0]},
                                     {"kind": "minkowski", "units": {"hbar": "x"}},
                                     {"kind": "euclidean", "dim": 2.7},
                                     {"kind": "discrete"},
                                     {"kind": ["discrete"]},
                                     {"kind": "deformed", "F_table": [["a", 0], [0, 0]]},
                                     {"kind": "deformed", "F_table": [[-2, -2], [0, 0], [0.5, 0.5],
                                                                      [1, 0.5], [2, 1.5]]}])
def test_geometry_file_with_wrongly_typed_value_exits_1(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(content))
    pts = write_points(tmp_path / "p.json", [[0, 0, 0, 0]])
    assert run(["sigma", "--geometry", f"@{spec}", "--points", pts,
                "--out-dir", tmp_path]) == 1
    assert "bad geometry spec" in capsys.readouterr().err


def test_geometry_from_serialized_spec_file(tmp_path):
    spec = tmp_path / "geom.json"
    spec.write_text(json.dumps(wf.Geometry.discrete(0.02).to_dict()))
    g = parse_geometry(f"@{spec}")
    assert g.kind == "discrete" and g.lambda0_sq == 0.02
    assert wf.sigma(g, (0, 0, 0, 0), (2, 0, 0, 0)) == 2.02


# ---------------------------------------------------------------------------
# eqv
# ---------------------------------------------------------------------------

def test_eqv_check(tmp_path, capsys):
    assert run(["eqv", "check", "--geometry", "minkowski",
                "--a-origin", "0,0,0,0", "--a-end", "0.7,1,0,0.7",
                "--b-origin", "0,0,0,0", "--b-end", "0,1,0,0",
                "--out-dir", tmp_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["schema_version"] == 1
    on_disk = json.loads((tmp_path / "eqv_check.json").read_text())
    assert on_disk == payload


def test_eqv_check_requires_vectors(tmp_path):
    assert run(["eqv", "check", "--geometry", "minkowski",
                "--out-dir", tmp_path]) == 1


def test_eqv_solve(tmp_path, capsys):
    assert run(["eqv", "solve", "--geometry", "minkowski",
                "--p0", "0,0,0,0", "--p1", "0,1,0,0", "--q0", "0,0,0,0",
                "--starts", 32, "--out-dir", tmp_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["variance"], payload["manifold_dim_estimate"]) == ("multi", 2)
    assert len(payload["representatives"]) == payload["diagnostics"]["cells_nonempty"] == 1


def _ids(cases):
    """argv0, argv1, ...: one id per (argv, message) case."""
    return [f"argv{i}" for i in range(len(cases))]


_NON_FINITE = [
    (["eqv", "solve", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "1,0,0,0",
      "--q0", "0,0,0,0", "--tol", "inf"], "tol must be finite"),
    (["eqv", "solve", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "1,0,0,0",
      "--q0", "0,0,0,0", "--tol", "nan"], "tol must be finite"),
    (["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0", "--p1", "2,0,0,0",
      "--max-radius", "nan"], "max_radius must be finite"),
    (["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0,0", "--a-end", "1,0,0,0",
      "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0", "--tol", "nan"], "tol must be finite"),
    (["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0,0", "--a-end", "1,0,0,0",
      "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0", "--tol", "1e-9x"],
     "argument --tol: invalid float value: '1e-9x'"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--tol", "nan"],
     "tol must be finite"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json",
      "--box-half-width", "inf"], "--box-half-width must be finite"),
    (["eqv", "witness", "--geometry", "minkowski", "--tol=-inf"], "tol must be finite"),
    (["density", "--lambda0-sq", "nan", "--sigma0", "0.03", "--grid=-0.1:0.1:5"],
     "lambda0_sq must be finite"),
    (["density", "--lambda0-sq", "0.01", "--sigma0", "nan", "--grid=-0.1:0.1:5"],
     "sigma0 must be finite"),
    (["density", "--lambda0-sq", "inf", "--sigma0", "0.03", "--grid=-0.1:0.1:5"],
     "lambda0_sq must be finite"),
    (["chain", "--geometry", "minkowski", "--link-sigma-m", "nan", "--steps", "3"],
     "link_sigma_m must be finite"),
    (["chain", "--geometry", "minkowski", "--link-sigma-m", "inf", "--steps", "3"],
     "link_sigma_m must be finite"),
    (["density", "--lambda0-sq", "0.01", "--sigma0=-inf", "--grid=-0.1:0.1:5"],
     "sigma0 must be finite"),
]


@pytest.mark.parametrize("argv,message", _NON_FINITE, ids=_ids(_NON_FINITE))
def test_non_finite_config_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    # valid input files, so only the non-finite option can fail the command
    monkeypatch.chdir(tmp_path)
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    write_points(tmp_path / "pts.json", [[0, 0, 0, 0], [1, 0, 0, 0]])
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_CHECK_SAME = ["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0,0",
               "--a-end", "1,0,0,0", "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0"]


@pytest.mark.parametrize("argv", [
    _CHECK_SAME + ["--tol", "-1"],
    ["eqv", "solve", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "0,1,0,0",
     "--q0", "0,0,0,0", "--tol", "-1", "--starts", "4"],
    ["eqv", "witness", "--geometry", "minkowski", "--tol=-1e-9"],
    ["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0", "--p1", "2,0,0,0",
     "--tol", "-1"],
    ["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0", "--p1", "2,0,0,0",
     "--max-radius", "-1"],
    ["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--tol", "-1"],
])
def test_negative_tolerance_or_radius_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert "must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eqv_check_is_reflexive_at_zero_tolerance(tmp_path, capsys):
    assert run(_CHECK_SAME + ["--tol", "0", "--out-dir", tmp_path]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True


@pytest.mark.parametrize("argv,message", [
    (["chain", "--geometry", "minkowski", "--link-sigma-m", "0", "--steps", "3"],
     "link_sigma_m must be positive"),
    (["chain", "--geometry", "euclidean:dim=3", "--link-sigma-m", "0.5", "--steps", "3"],
     "needs a Minkowski-substrate geometry"),
    (["density", "--lambda0-sq", "-0.01", "--sigma0", "0.03", "--grid=-0.1:0.1:5"],
     "lambda0_sq must be >= 0"),
])
def test_invalid_command_configuration_is_a_usage_error(tmp_path, capsys, argv, message):
    # the library's InvalidInputError on a command's own options exits 1, not 2
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["sigma", "--geometry", "minkowski", "--points", "nan.json"],
     "point coordinates must be finite"),
    (["tube", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "0,1,0,0"],
     "tube sampling requires sigma(p0, p1) > 0"),
    (["eqv", "solve", "--geometry", "minkowski", "--p0", "0,0,0,0", "--p1", "0,0,0,0",
      "--q0", "0,0,0,0"], "p0 and p1 must differ"),
    (["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0", "--a-end", "1,0,0",
      "--b-origin", "0,0,0", "--b-end", "1,0,0"], "dimension 3"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--envelope", "p7.json"],
     "unknown point 'P7' at /args[0]"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--envelope", "c.json"],
     "malformed envelope node at /: KeyError: 'value'"),
    (["tube", "--geometry", "euclidean:dim=1", "--p0", "0", "--p1", "1"],
     "a 1-d chart has no transverse direction"),
], ids=["nan-point", "spacelike-tube", "equal-solve-points", "3d-check-on-minkowski",
        "envelope-P7", "envelope-const-without-value", "1d-tube"])
def test_input_the_library_rejects_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    # an InvalidInputError is an input error wherever it is raised: exit 1, nothing written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text("[[0, 0, 0, 0], [NaN, 0, 0, 0]]")
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    (tmp_path / "p7.json").write_text(json.dumps(
        {"op": "-", "args": [{"op": "sigma", "points": ["P7", "R"]}, {"op": "const", "value": 1}]}))
    (tmp_path / "c.json").write_text('{"op": "const"}')
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


_POINT_FILE_READERS = {
    "sigma-points": ["sigma", "--geometry", "euclidean:dim=3", "--points", "bad.json"],
    "object-skeleton": ["object", "--geometry", "euclidean:dim=3", "--skeleton", "bad.json"],
    "object-probes": ["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json",
                      "--probes", "bad.json"],
}
_BAD_POINT_FILES = {
    "number": ("5", "bad.json must hold a JSON array of points, not int"),
    "object": ('{"a": [0, 0, 0]}', "bad.json must hold a JSON array of points, not dict"),
    "string-coordinate": ('[[0, "x", 0], [1, 0, 0]]', "a point must be a flat list of numbers"),
    "invalid-json": ("[[0, 0", "bad.json is not valid JSON"),
}


@pytest.mark.parametrize("content", sorted(_BAD_POINT_FILES))
@pytest.mark.parametrize("reader", sorted(_POINT_FILE_READERS))
def test_malformed_point_file_is_an_input_error(tmp_path, capsys, monkeypatch, reader, content):
    # each used to end in a TypeError or numpy ValueError traceback, not an error line
    monkeypatch.chdir(tmp_path)
    text, message = _BAD_POINT_FILES[content]
    (tmp_path / "bad.json").write_text(text)
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert run(_POINT_FILE_READERS[reader] + ["--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_overflowing_chain_is_a_numerical_failure(tmp_path, capsys):
    assert run(["chain", "--geometry", "discrete:lambda0_sq=50", "--link-sigma-m", "0.5",
                "--steps", "400", "--ensemble", "4", "--out-dir", tmp_path / "out"]) == 2
    assert "overflowed at step 82" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_TUBE = ["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0", "--p1", "2,0,0,0"]
_CHAIN = ["chain", "--geometry", "minkowski", "--link-sigma-m", "0.5"]
_SOLVE = ["eqv", "solve", "--geometry", "discrete:lambda0_sq=0.01", "--p0", "0,0,0,0",
          "--p1", "0.3,1,0,0", "--q0", "0.1,0.2,0,0"]
_CHECK = ["eqv", "check", "--geometry", "minkowski", "--a-origin", "0,0,0,0",
          "--a-end", "1,0,0,0", "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0"]


_BAD_COUNTS = [
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--random", "-1"],
     "--random must be an integer >= 0"),
    (_TUBE + ["--stations", "-1"], "stations must be >= 0"),
    (_TUBE + ["--directions", "-2"], "directions must be >= 0"),
    (_TUBE + ["--directions", "2.5"], "argument --directions: invalid int value: '2.5'"),
    (_TUBE + ["--stations", "2.5"], "argument --stations: invalid int value: '2.5'"),
    (["eqv", "witness", "--geometry", "minkowski", "--budget", "-5"], "budget must be >= 0"),
    (_CHAIN + ["--steps", "0"], "steps must be >= 1"),
    (_CHAIN + ["--steps", "10", "--ensemble", "0"], "ensemble must be >= 1"),
    (_SOLVE + ["--max-iter", "-1"], "max_iter must be >= 0"),
    (_SOLVE + ["--starts", "0"], "starts must be >= 1"),
    (["eqv", "witness", "--geometry", "minkowski", "--seed", "-2"], "seed must be >= 0"),
    (_TUBE + ["--seed", "-2"], "seed must be >= 0"),
    (_CHAIN + ["--steps", "3", "--seed", "-2"], "seed must be >= 0"),
    (_SOLVE + ["--seed", "-1"], "seed must be >= 0"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--seed", "-1"],
     "--seed must be an integer >= 0"),
]


@pytest.mark.parametrize("argv,message", _BAD_COUNTS, ids=_ids(_BAD_COUNTS))
def test_bad_count_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    # a valid skeleton file, so only the count option can fail the command
    monkeypatch.chdir(tmp_path)
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tube_has_no_scan_points_option(tmp_path, capsys):
    # the radii are bracketed by F's linear cells, not by a scan grid
    assert run(_TUBE + ["--scan-points", "64", "--out-dir", tmp_path / "out"]) == 1
    assert "unrecognized arguments: --scan-points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_WIDTHS = [
    (_SOLVE + ["--dedupe-radius", "-1", "--starts", "4"], "unrecognized arguments: --dedupe-radius"),
    (_SOLVE + ["--box-half-width", "-1"], "unrecognized arguments: --box-half-width"),
    (["object", "--geometry", "euclidean:dim=3", "--skeleton", "sk.json", "--box-half-width", "-1"],
     "must be >= 0"),
]


@pytest.mark.parametrize("argv,message", _WIDTHS, ids=_ids(_WIDTHS))
def test_negative_width_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    # a negative --box-half-width ended in numpy's "high - low < 0" traceback;
    # eqv solve has no radius or box since it walks F's cells, so both are
    # unknown options there
    monkeypatch.chdir(tmp_path)
    write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sigma", "--geometry", "minkowski", "--points", "pts.json", "--tol", "1e-3"],
    _CHAIN + ["--steps", "3", "--tol", "1e-3"],
    _CHECK + ["--starts", "4"],
    _CHECK + ["--p0", "0,0,0,0"],
    _SOLVE + ["--budget", "5"],
    _SOLVE + ["--a-origin", "0,0,0,0"],
    ["eqv", "witness", "--geometry", "minkowski", "--starts", "4"],
    ["eqv", "witness", "--geometry", "minkowski", "--max-iter", "4"],
    # sigma, eqv check and density draw nothing
    _CHECK + ["--seed", "-1"],
    ["sigma", "--geometry", "minkowski", "--points", "pts.json", "--seed", "-1"],
    ["density", "--lambda0-sq", "0.01", "--sigma0", "0.03", "--grid=-0.1:0.1:5", "--seed", "-1"],
])
def test_unread_option_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # each command takes only the options it reads
    monkeypatch.chdir(tmp_path)
    write_points(tmp_path / "pts.json", [[0, 0, 0, 0], [1, 0, 0, 0]])
    assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,vectors", [
    ("check", ["--a-origin", "--a-end", "--b-origin", "--b-end"]),
    ("solve", ["--p0", "--p1", "--q0"]),
])
def test_eqv_mode_requires_each_vector_option(tmp_path, capsys, mode, vectors):
    argv = {"check": _CHECK, "solve": _SOLVE}[mode]
    for name in vectors:
        i = argv.index(name)
        assert run(argv[:i] + argv[i + 2:] + ["--out-dir", tmp_path]) == 1
        assert f"the following arguments are required: {name}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*"))


def test_eqv_manifest_records_the_options_of_its_mode(tmp_path):
    assert run(["eqv", "witness", "--geometry", "minkowski", "--budget", 0,
                "--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "eqv_witness_manifest.json").read_text())
    assert manifest["config"]["args"] == {
        "budget": 0, "geometry": "minkowski", "mode": "witness",
        "out_dir": str(tmp_path), "seed": 0, "tol": 1e-9}


def test_negative_first_coordinate_needs_no_equals_form(tmp_path):
    assert run(["eqv", "solve", "--geometry", "minkowski", "--p0", "-1,0,0,0",
                "--p1", "0,0,0,0", "--q0", "0,0,0,0", "--starts", 4,
                "--out-dir", tmp_path / "spaced"]) == 0
    assert run(["eqv", "solve", "--geometry", "minkowski", "--p0=-1,0,0,0",
                "--p1", "0,0,0,0", "--q0", "0,0,0,0", "--starts", 4,
                "--out-dir", tmp_path / "equals"]) == 0
    spaced, equals = (json.loads((tmp_path / d / "eqv_solve.json").read_text())
                      for d in ("spaced", "equals"))
    assert spaced == equals and spaced["variance"] == "single"
    assert run(["eqv", "check", "--geometry", "minkowski", "--a-origin", "-.5,0,0,0",
                "--a-end", "0.5,0,0,0", "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0",
                "--out-dir", tmp_path]) == 0
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03, "--grid", "-0.1:0.1:11",
                "--out-dir", tmp_path]) == 0
    assert len((tmp_path / "density.csv").read_text().splitlines()) == 12


def test_zero_counts_are_accepted(tmp_path, capsys):
    assert run(["eqv", "witness", "--geometry", "minkowski", "--budget", 0,
                "--out-dir", tmp_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"budget": 0, "found": False,
                                                   "schema_version": 1}
    assert run(_TUBE + ["--stations", 0, "--out-dir", tmp_path]) == 0
    assert run(_CHAIN + ["--steps", 1, "--out-dir", tmp_path]) == 0


def test_eqv_witness(tmp_path, capsys):
    assert run(["eqv", "witness", "--geometry", "discrete:lambda0_sq=0.01",
                "--seed", 7, "--out-dir", tmp_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    a = wf.GeomVector(payload["a"]["origin"], payload["a"]["end"])
    b = wf.GeomVector(payload["b"]["origin"], payload["b"]["end"])
    c = wf.GeomVector(payload["c"]["origin"], payload["c"]["end"])
    g = wf.Geometry.discrete(0.01)
    assert wf.is_equivalent(g, a, b).equivalent
    assert wf.is_equivalent(g, b, c).equivalent
    assert not wf.is_equivalent(g, a, c).equivalent


def test_eqv_witness_honours_tol(tmp_path, capsys):
    # the library finds no witness at tol = 100, so neither may the CLI
    assert wf.find_intransitivity_witness(wf.Geometry.discrete(0.01), seed=7, tol=100) is None
    assert run(["eqv", "witness", "--geometry", "discrete:lambda0_sq=0.01",
                "--seed", 7, "--tol", 100, "--out-dir", tmp_path]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is False


def test_eqv_witness_none_euclidean(tmp_path, capsys):
    assert run(["eqv", "witness", "--geometry", "euclidean:dim=3",
                "--seed", 0, "--budget", 50, "--out-dir", tmp_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False


# ---------------------------------------------------------------------------
# tube
# ---------------------------------------------------------------------------

def test_tube_command(tmp_path):
    assert run(["tube", "--geometry", "discrete:lambda0_sq=0.02",
                "--p0", "0,0,0,0", "--p1", "2,0,0,0",
                "--stations", 17, "--directions", 4, "--out-dir", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "tube_profile.csv")
    assert header == ["t", "radius"]
    mid = [r for t, r in rows if t == 1.0]
    assert mid and abs(mid[0] - math.sqrt(0.03)) < 1e-6
    header, rows = read_csv(tmp_path / "tube_cloud.csv")
    assert header == ["t", "r", "x0", "x1", "x2", "x3"]
    assert rows


def test_tube_spacelike_exits_1(tmp_path):
    assert run(["tube", "--geometry", "minkowski", "--p0", "0,0,0,0",
                "--p1", "0,1,0,0", "--out-dir", tmp_path]) == 1


# ---------------------------------------------------------------------------
# object
# ---------------------------------------------------------------------------

def test_object_command(tmp_path):
    sk = write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    probes = write_points(tmp_path / "probes.json",
                          [[1, 0, 0.5], [0, 1, 0.3], [0, 2, 0.5]])
    assert run(["object", "--geometry", "euclidean:dim=3", "--skeleton", sk,
                "--envelope", "cylinder", "--probes", probes,
                "--out-dir", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "object_probes.csv")
    assert header == ["x0", "x1", "x2", "envelope_value", "member"]
    assert [r[-1] for r in rows] == [1.0, 1.0, 0.0]


def test_object_skeleton_of_another_dimension_is_an_input_error(tmp_path, capsys):
    # the skeleton used to load without its dim and end in a numpy broadcast traceback
    sk = write_points(tmp_path / "sk.json", [[0, 0], [1, 0]])
    assert run(["object", "--geometry", "euclidean:dim=3", "--skeleton", sk, "--random", 3,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "point has dimension 2, expected 3" in err
    assert not (tmp_path / "out").exists()


_NO_R_ENVELOPE = {"op": "-", "args": [{"op": "sigma", "points": ["P0", "P1"]},
                                     {"op": "const", "value": 0.25}]}


@pytest.mark.parametrize("spec,dim,envelope", [
    ("euclidean:dim=3", 3, "cylinder"),
    ("discrete:lambda0_sq=0.01", 4, "cylinder"),
    ("minkowski", 4, _NO_R_ENVELOPE),  # one value for every probe
], ids=["euclidean-cylinder", "discrete-cylinder", "no-R-expression"])
def test_object_command_matches_per_probe_loop(tmp_path, spec, dim, envelope):
    sk_pts = np.random.default_rng(4).uniform(-1.0, 1.0, (3, dim))
    sk_file = write_points(tmp_path / "sk.json", sk_pts.tolist())
    env_arg = envelope
    if envelope != "cylinder":
        env_arg = tmp_path / "env.json"
        env_arg.write_text(json.dumps(envelope))
    assert run(["object", "--geometry", spec, "--skeleton", sk_file, "--envelope", env_arg,
                "--random", 300, "--seed", 9, "--out-dir", tmp_path]) == 0
    # the per-probe loop the command replaced, kept as reference
    g = parse_geometry(spec)
    sk = wf.Skeleton(tuple(sk_pts))
    env = wf.Envelope.cylinder() if envelope == "cylinder" else wf.Envelope.from_dict(envelope)
    rng = np.random.default_rng(9)
    center = np.mean(np.stack(sk.points), axis=0)
    want = [",".join(f"x{i}" for i in range(dim)) + ",envelope_value,member"]
    for _ in range(300):
        p = center + rng.uniform(-2.0, 2.0, dim)
        val = wf.evaluate_envelope(g, sk, env, p)
        member = wf.object_membership(g, sk, env, p, 1e-9)
        want.append(",".join(repr(float(v)) for v in (*p, val, 1.0 if member else 0.0)))
    assert (tmp_path / "object_probes.csv").read_text() == "\n".join(want) + "\n"


def test_object_command_expression_envelope(tmp_path):
    sk = write_points(tmp_path / "sk.json", [[0, 0, 0], [1, 0, 0]])
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"op": "-", "args": [
        {"op": "sigma", "points": ["P0", "R"]},
        {"op": "sigma", "points": ["P0", "P1"]}]}))
    assert run(["object", "--geometry", "euclidean:dim=3", "--skeleton", sk,
                "--envelope", env, "--random", 50, "--out-dir", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "object_probes.csv")
    assert len(rows) == 50


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_command_and_reproducibility(tmp_path):
    args = ["chain", "--geometry", "discrete:lambda0_sq=0.005",
            "--link-sigma-m", 0.5, "--steps", 30, "--ensemble", 16,
            "--seed", 3, "--raw"]
    assert run(args + ["--out-dir", tmp_path / "a"]) == 0
    assert run(args + ["--out-dir", tmp_path / "b"]) == 0
    stats_a = (tmp_path / "a" / "chain_stats.csv").read_bytes()
    stats_b = (tmp_path / "b" / "chain_stats.csv").read_bytes()
    assert stats_a == stats_b
    raw_a = (tmp_path / "a" / "chains.npy").read_bytes()
    raw_b = (tmp_path / "b" / "chains.npy").read_bytes()
    assert raw_a == raw_b

    header, rows = read_csv(tmp_path / "a" / "chain_stats.csv")
    assert header == ["step", "mean_t", "var_transverse", "mean_angle"]
    want = wf.deflection_angle(0.005, 0.5)
    assert all(abs(r[3] - want) < 1e-9 for r in rows)

    manifest = json.loads((tmp_path / "a" / "chain_manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["max_link_length_drift"] < 1e-12
    digest = hashlib.sha256(stats_a).hexdigest()
    assert manifest["outputs"]["chain_stats.csv"]["sha256"] == digest
    assert manifest["outputs"]["chains.npy"]["sha256"] == hashlib.sha256(raw_a).hexdigest()


def test_chain_raw_writes_exactly_the_named_file(tmp_path):
    # np.save of a path would write pts.csv.npy; the directory does not exist yet
    out = tmp_path / "x" / "y"
    assert run(["chain", "--geometry", "discrete:lambda0_sq=0.005", "--link-sigma-m", 0.5,
                "--steps", 5, "--ensemble", 3, "--raw", "--out-raw", "pts.csv",
                "--out-dir", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["chain_manifest.json", "chain_stats.csv",
                                                     "pts.csv"]
    assert np.load(out / "pts.csv", allow_pickle=False).shape == (3, 7, 4)
    manifest = json.loads((out / "chain_manifest.json").read_text())
    assert manifest["config"]["args"]["out_raw"] == "pts.csv"
    digest = hashlib.sha256((out / "pts.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["pts.csv"] == {"path": str(out / "pts.csv"), "sha256": digest}


def test_chain_without_raw_writes_only_the_stats(tmp_path):
    assert run(["chain", "--geometry", "discrete:lambda0_sq=0.005", "--link-sigma-m", 0.5,
                "--steps", 5, "--ensemble", 3, "--out-dir", tmp_path]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain_manifest.json",
                                                          "chain_stats.csv"]
    manifest = json.loads((tmp_path / "chain_manifest.json").read_text())
    assert list(manifest["outputs"]) == ["chain_stats.csv"]


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_command(tmp_path):
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03,
                "--grid=-0.05:0.05:5", "--out-dir", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "density.csv")
    assert header == ["sigma_g", "rho"]
    rho = {round(sg, 6): r for sg, r in rows}
    assert rho[-0.05] == 1.0 and rho[0.0] == 0.75 and rho[0.025] == 0.75


# non-finite parameters are rejected at parse time (test_non_finite_config_is_a_usage_error);
# a negative one by relative_density's validation, which is a usage error too
@pytest.mark.parametrize("lam,s0", [("-0.01", "0.03")])
def test_density_bad_parameters_exit_1(tmp_path, lam, s0):
    assert run(["density", "--lambda0-sq", lam, "--sigma0", s0,
                "--grid=-0.1:0.1:5", "--out-dir", tmp_path]) == 1
    assert not list(tmp_path.glob("*"))


def test_density_bad_grid_exits_1(tmp_path):
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03,
                "--grid", "oops", "--out-dir", tmp_path]) == 1


@pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "0:inf:3", "-inf:1:3", "0:1:-2"])
def test_density_non_finite_grid_exits_1(tmp_path, capsys, grid):
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03,
                f"--grid={grid}", "--out-dir", tmp_path]) == 1
    assert "bad grid" in capsys.readouterr().err
    assert not list(tmp_path.glob("*"))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_has_no_threads_key(tmp_path):
    # nothing in the package is parallel, so the manifest claims no thread cap
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03,
                "--grid", "0:1:3", "--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "density_manifest.json").read_text())
    assert "threads" not in manifest


def _manifest_commands(tmp_path):
    """(manifest name, argv) of every command, on small inputs."""
    sk = write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    pts = write_points(tmp_path / "pts.json", [[0, 0, 0, 0], [1, 0.5, 0, 0]])
    geometry = ["--geometry", "discrete:lambda0_sq=0.01"]
    return [
        ("sigma", ["sigma", *geometry, "--points", pts]),
        ("eqv_check", ["eqv", "check", *geometry, "--a-origin", "0,0,0,0", "--a-end", "1,0,0,0",
                       "--b-origin", "0,0,0,0", "--b-end", "1,0,0,0"]),
        ("eqv_solve", ["eqv", "solve", *geometry, "--p0", "0,0,0,0", "--p1", "1,0.5,0,0",
                       "--q0", "0.1,0,0,0", "--starts", 4]),
        ("eqv_witness", ["eqv", "witness", *geometry, "--budget", 64]),
        ("tube", ["tube", *geometry, "--p0", "0,0,0,0", "--p1", "2,0,0,0", "--stations", 5]),
        # the object manifest used to leave out --random, --box-half-width and --probes
        ("object", ["object", "--geometry", "euclidean:dim=3", "--skeleton", sk, "--random", 50,
                    "--box-half-width", 3, "--seed", 4]),
        ("chain", ["chain", *geometry, "--link-sigma-m", 0.5, "--steps", 5, "--ensemble", 4]),
        ("density", ["density", "--lambda0-sq", 0.01, "--sigma0", 0.03, "--grid", "0:1:3"]),
    ]


def _argv_from(command, args):
    """The argv that parses to a manifest's recorded args."""
    argv = command.split("_")
    for key, value in args.items():
        if key == "mode" or value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv


def test_every_manifest_records_every_parsed_option(tmp_path):
    for name, argv in _manifest_commands(tmp_path):
        argv = [str(a) for a in argv] + ["--out-dir", str(tmp_path / name)]
        assert run(argv) == 0, name
        manifest = json.loads((tmp_path / name / f"{name}_manifest.json").read_text())
        parsed = vars(_build_parser().parse_args(argv))
        want = {k: v for k, v in parsed.items() if k not in ("func", "command")}
        assert manifest["config"]["args"] == want, name
        if name == "density":  # the one command without a geometry
            assert set(manifest["config"]) == {"args"}
        else:
            assert set(manifest["config"]) == {"args", "geometry"}, name
            assert manifest["config"]["geometry"] == parse_geometry(want["geometry"]).to_dict()
        # every command repeats from its recorded options, output for output
        again = tmp_path / "again" / name
        assert run(_argv_from(name, {**manifest["config"]["args"], "out_dir": again})) == 0, name
        for out, entry in manifest["outputs"].items():
            digest = hashlib.sha256((again / out).read_bytes()).hexdigest()
            assert digest == entry["sha256"], (name, out)


def test_module_entry_point_runs(tmp_path):
    src = str(Path(wf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "worldfunc.cli", "density", "--lambda0-sq", "0.01",
         "--sigma0", "0.03", "--grid", "0:1:3", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "density_manifest.json").is_file()


def test_manifest_digests_and_full_precision(tmp_path):
    pts = write_points(tmp_path / "pts.json", [[0, 0, 0], [0.1, 0.2, 0.3]])
    assert run(["sigma", "--geometry", "euclidean:dim=3", "--points", pts,
                "--out-dir", tmp_path]) == 0
    manifest = json.loads((tmp_path / "sigma_manifest.json").read_text())
    blob = (tmp_path / "sigma.csv").read_bytes()
    assert manifest["outputs"]["sigma.csv"]["sha256"] == hashlib.sha256(blob).hexdigest()
    # sigma draws nothing, so it takes no --seed and records none
    assert manifest["tool"] == "worldfunc" and manifest["seed"] is None
    # round-trip precision: the printed value parses back to the exact float
    _, rows = read_csv(tmp_path / "sigma.csv")
    want = wf.sigma(wf.Geometry.euclidean(3), (0, 0, 0), (0.1, 0.2, 0.3))
    assert rows[1][2] == want


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_manifest_is_canonical_strict_json(tmp_path):
    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03,
                "--grid", "0:1:3", "--out-dir", tmp_path]) == 0
    text = (tmp_path / "density_manifest.json").read_text()
    manifest = _strict_json(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert manifest["schema_version"] == 1 and manifest["command"] == "density"


def test_eqv_check_overflow_exits_2_and_writes_nothing(tmp_path, capsys):
    # the residuals overflow to inf and NaN, which strict JSON cannot hold
    with np.errstate(all="ignore"):
        assert run(["eqv", "check", "--geometry", "minkowski",
                    "--a-origin", "0,0,0,0", "--a-end", "1e200,0,0,0",
                    "--b-origin", "0,0,0,0", "--b-end", "0,1e200,0,0",
                    "--out-dir", tmp_path]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*"))


def test_high_boost_chain_manifest_is_strict_json(tmp_path):
    # the README example at 64 chains used to write "max_link_length_drift": NaN
    argv = ["chain", "--geometry", "discrete:lambda0_sq=0.005", "--link-sigma-m", 0.5,
            "--steps", 1000, "--ensemble", 64, "--seed", 42, "--out-dir", tmp_path]
    assert run(argv) == 0
    manifest = _strict_json((tmp_path / "chain_manifest.json").read_text())
    assert manifest["max_link_length_drift"] <= 1e-12
    config = manifest["config"]
    stats = wf.simulate_ensemble(wf.ChainParams.from_dict({**config["args"],
                                                           "geometry": config["geometry"]}))
    assert manifest["max_gamma"] == stats.max_gamma.max() > 1e3


# ---------------------------------------------------------------------------
# the bulk CSV writer against the per-value writer it replaced
# ---------------------------------------------------------------------------

def _ref_fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _ref_csv(header, rows):
    return "\n".join([header, *(",".join(_ref_fmt(v) for v in row) for row in rows)]) + "\n"


def test_write_csv_matches_per_value_writer(tmp_path):
    floats = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-310, -1.5e300, 0.1, 1 / 3])
    ints = np.arange(-4, 5, dtype=np.int64)
    flags = floats > 0
    _write_csv(tmp_path / "t.csv", "a,b,c,d", ints, floats, flags, floats[::-1])
    want = _ref_csv("a,b,c,d", zip(ints, floats, flags.astype(float), floats[::-1]))
    assert (tmp_path / "t.csv").read_text() == want
    assert "-0.0" in want and "nan" in want and "-inf" in want
    _write_csv(tmp_path / "empty.csv", "a,b", ints[:0], floats[:0])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"


def test_chain_raw_and_stats_match_per_value_writer(tmp_path):
    # lambda0_sq = 0.02 boosts chains to u0 ~ 6e6, and every value stays finite
    params = wf.ChainParams(geometry=wf.Geometry.discrete(0.02), link_sigma_m=0.5,
                            steps=400, ensemble=40, seed=1)
    with np.errstate(all="ignore"):
        assert run(["chain", "--geometry", "discrete:lambda0_sq=0.02", "--link-sigma-m", 0.5,
                    "--steps", 400, "--ensemble", 40, "--seed", 1, "--raw",
                    "--out-dir", tmp_path]) == 0
        stats, points = wf.simulate_ensemble(params, keep_chains=True)
    raw = np.load(tmp_path / "chains.npy", allow_pickle=False)
    assert raw.dtype == points.dtype == np.float64 and raw.shape == points.shape == (40, 402, 4)
    assert np.all(np.isfinite(raw))
    # bit for bit, so a -0.0 in place of a 0.0 counts
    assert np.array_equal(raw.view(np.int64), points.view(np.int64))
    assert (tmp_path / "chain_stats.csv").read_text() == _ref_csv(
        "step,mean_t,var_transverse,mean_angle",
        zip(stats.step, stats.mean_t, stats.var_transverse, stats.mean_angle))


def test_sigma_tube_object_density_match_per_value_writer(tmp_path):
    g = wf.Geometry.discrete(0.02)
    pts = [[0.0, -0.0, 0.5, -0.0], [1.0, 0.25, -0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]]
    f = write_points(tmp_path / "pts.json", pts)
    assert run(["sigma", "--geometry", "discrete:lambda0_sq=0.02", "--points", f,
                "--out-dir", tmp_path]) == 0
    i, j = np.triu_indices(3)
    pts_arr = np.array(pts)
    assert (tmp_path / "sigma.csv").read_text() == _ref_csv(
        "i,j,sigma", zip(i, j, wf.sigma(g, pts_arr[i], pts_arr[j])))

    assert run(["tube", "--geometry", "discrete:lambda0_sq=0.02", "--p0", "0,0,0,0",
                "--p1", "2,0,0,0", "--stations", 9, "--directions", 4, "--seed", 3,
                "--out-dir", tmp_path]) == 0
    tube = wf.sample_segment_tube(g, [0, 0, 0, 0], [2, 0, 0, 0],
                                  wf.TubeSamplerConfig(stations=9, directions=4, seed=3,
                                                       tol=1e-9))
    assert (tmp_path / "tube_cloud.csv").read_text() == _ref_csv(
        "t,r,x0,x1,x2,x3", tube.points)
    assert (tmp_path / "tube_profile.csv").read_text() == _ref_csv(
        "t,radius", zip(tube.arc_positions, tube.profile))

    sk = write_points(tmp_path / "sk.json", [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    probes = [[-0.0, 0.0, 0.5], [1.0, -0.0, 0.25], [0.0, 2.0, -0.0]]
    pf = write_points(tmp_path / "probes.json", probes)
    assert run(["object", "--geometry", "euclidean:dim=3", "--skeleton", sk,
                "--probes", pf, "--out-dir", tmp_path]) == 0
    e3 = wf.Geometry.euclidean(3)
    skel = wf.Skeleton(tuple(np.array(p, float) for p in [[0, 0, 0], [0, 0, 1], [1, 0, 0]]))
    env = wf.Envelope.cylinder()
    rows = [(*p, wf.evaluate_envelope(e3, skel, env, np.array(p)),
             float(wf.object_membership(e3, skel, env, np.array(p), 1e-9))) for p in probes]
    text = (tmp_path / "object_probes.csv").read_text()
    assert text == _ref_csv("x0,x1,x2,envelope_value,member", rows)
    assert "-0.0" in text

    assert run(["density", "--lambda0-sq", 0.01, "--sigma0", 0.03, "--grid=-0.1:0.1:41",
                "--out-dir", tmp_path]) == 0
    grid = np.linspace(-0.1, 0.1, 41)
    assert (tmp_path / "density.csv").read_text() == _ref_csv(
        "sigma_g,rho", zip(grid, wf.relative_density(0.01, 0.03, grid)))
