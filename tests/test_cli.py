"""CLI surface: flags, formats, exit codes, golden summary format."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from lubinlab import Config
from lubinlab.cli import _config, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_polygon_json(capsys):
    code, out, _ = run(capsys, "polygon", "--p", "2", "--series", "4,6,4,1@1")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == [[1, 2], [2, 1], [4, 0]]
    assert data["segments"][0] == {"slope": "-1", "width": 1}


def test_polygon_text_and_svg(capsys):
    code, out, _ = run(capsys, "polygon", "--p", "2", "--series", "4,6,4,1@1", "--format", "text")
    assert code == 0 and "*" in out
    code, out, _ = run(capsys, "polygon", "--p", "2", "--series", "4,6,4,1@1", "--format", "svg")
    assert code == 0 and out.startswith("<svg")


def test_log_subcommand_reports_a3(capsys):
    code, out, _ = run(capsys, "log", "--p", "3", "--N", "10", "--M", "16", "--series", "3,0,1@1")
    assert code == 0
    data = json.loads(out)
    assert data["polygon_ok"]
    table = {tuple(e): c for e, c in data["coefficients"]}
    a3 = table[(3,)]
    # a3 = -1/24 = (1/3) * (-1/8): valuation -1, unit congruent to -1/8
    assert a3["val"] == -1
    rel = a3["prec"] - a3["val"]
    got = int(a3["unit"]) % 3**rel
    want = (-pow(8, -1, 3**rel)) % 3**rel
    assert got == want


def test_group_subcommand(capsys):
    code, out, _ = run(capsys, "group", "--p", "2", "--N", "8", "--M", "16", "--series", "2,1@1")
    assert code == 0
    data = json.loads(out)
    assert data["min_coeff_valuation"] >= 0
    assert data["certificates"]["associative"]["ok"]
    table = {tuple(e): c for e, c in data["coefficients"]}
    assert table[(1, 1)]["val"] == 0


def test_frobenius_subcommand(capsys):
    code, out, _ = run(capsys, "frobenius", "--p", "2", "--N", "8", "--M", "16", "--series", "2,1@1")
    assert code == 0
    data = json.loads(out)
    assert data["pi"]["val"] == 1
    assert data["unit_digits"][0] == 1
    assert data["congruent_xp_mod_p"] is True


def test_analyze_fixture_file(tmp_path, capsys):
    fx = [{"name": "gm_p3", "p": 3, "N": 10, "M": 25, "f": "3,3,1@1", "u": "4,6,4,1@1"}]
    path = tmp_path / "gm_p3.json"
    path.write_text(json.dumps(fx))
    code, out, _ = run(capsys, "analyze", "--fixture", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "CERTIFIED"
    assert report["frobenius"]["pi_residue"] == "3"


def test_fixture_series_truncated_below_M_refused(tmp_path, capsys):
    """JSON series keep their own truncation; under --M 33 the pair was
    REJECTED on a logarithm vertex its series cannot show."""
    from lubinlab import gm_pair

    f, u = gm_pair(2, 32, 80)
    path = tmp_path / "gm_p2.json"
    path.write_text(json.dumps([{"name": "gm_p2", "p": 2, "f": f.to_json(), "u": u.to_json()}]))
    code, out, err = run(capsys, "analyze", "--fixture", str(path), "--M", "33")
    assert code == 2 and out == ""
    assert err == "error: series f is truncated at degree 32, below M=33\n"
    code, out, _ = run(capsys, "analyze", "--fixture", str(path), "--M", "32")
    assert code == 0 and json.loads(out)["verdict"] == "CERTIFIED"


def test_analyze_inline_rejected_exit_1(capsys):
    code, out, _ = run(
        capsys, "analyze", "--p", "3", "--N", "10", "--M", "25",
        "--f", "3@1", "--u", "4@1",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "REJECTED"


def test_analyze_missing_args_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "--p", "3")
    assert code == 2 and "error" in err


def test_batch_summary_golden(tmp_path, capsys):
    fx = [
        {"name": "gm_p2", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"},
        {"name": "zz_bad", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "1,1@1"},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(fx))
    code, out, _ = run(capsys, "batch", "--fixture", str(path))
    assert code == 1  # one REJECTED
    lines = out.splitlines()
    assert lines[0].split() == ["name", "p", "verdict", "pi", "minval", "reason"]
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("gm_p2") and "CERTIFIED" in lines[2]
    assert lines[3].startswith("zz_bad") and "REJECTED" in lines[3]


def test_batch_json_reports_reparse(tmp_path, capsys):
    fx = [{"name": "gm_p2", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"}]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(fx))
    code, out, _ = run(capsys, "batch", "--fixture", str(path), "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["name"] == "gm_p2"
    assert reports[0]["verdict"] == "CERTIFIED"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code, out, _ = run(
        capsys, "polygon", "--p", "2", "--series", "2,1@1", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["vertices"] == [[1, 1], [2, 0]]


def test_help_documents_every_flag():
    ap = build_parser()
    for sub in ("polygon", "log", "group", "frobenius", "analyze", "batch"):
        args = ap.parse_args([sub, "--help"]) if False else None
    # --help exits; instead verify the option registry directly
    subparsers = next(
        a for a in ap._actions if isinstance(a, type(ap._subparsers._group_actions[0]))
    )
    for name, sp in subparsers.choices.items():
        flags = {s for a in sp._actions for s in a.option_strings}
        assert {"--p", "--N", "--M", "--guard", "--out"} <= flags, name


def test_every_config_field_is_set_by_the_cli():
    """A Config field that the CLI leaves at its default is a knob no user
    can reach."""
    argv = ["analyze", "--N", "20", "--M", "32", "--M2", "5", "--guard", "40", "--n-shape", "2"]
    cfg, default = _config(build_parser().parse_args(argv)), Config()
    unset = [f.name for f in dataclasses.fields(Config) if getattr(cfg, f.name) == getattr(default, f.name)]
    assert unset == []


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polygon", "--p", "2", "--series", "2,1@1", "--bogus"])
    assert exc.value.code == 2


def test_inline_fraction_coefficients(capsys):
    code, out, _ = run(capsys, "polygon", "--p", "2", "--series", "1/2,1@0")
    assert code == 0
    assert json.loads(out)["vertices"][0] == [0, -1]


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
def test_non_prime_p_rejected(capsys, p):
    code, out, err = run(capsys, "polygon", "--p", p, "--series", "1,2,3@1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "prime" in err


@pytest.mark.parametrize("m2", ["0", "1", "2"])
def test_vacuous_m2_rejected(capsys, m2):
    code, out, err = run(
        capsys, "analyze", "--p", "3", "--N", "10", "--M", "25", "--M2", m2,
        "--f", "3,3,1@1", "--u", "4,6,4,1@1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "M2 must be at least 3" in err


@pytest.mark.parametrize("n_shape", ["0", "-1"])
def test_no_iterate_shape_refused(capsys, n_shape):
    """Checking no iterate shape used to pass as CERTIFIED with an empty list."""
    code, out, err = run(
        capsys, "analyze", "--p", "3", "--N", "10", "--M", "25", "--n-shape", n_shape,
        "--f", "3,3,1@1", "--u", "4,6,4,1@1",
    )
    assert code == 2 and out == ""
    assert err == f"error: n_shape must be at least 1, got {n_shape}\n"


PAIRS = Path(__file__).resolve().parent.parent / "demos" / "fixtures" / "pairs.json"


def test_batch_refuses_vacuous_m2(capsys):
    """M2 does not depend on any fixture, so the whole run is refused once."""
    code, out, err = run(capsys, "batch", "--fixture", str(PAIRS), "--M2", "1")
    assert code == 2 and out == ""
    assert err == "error: M2 must be at least 3, got 1\n"


def test_batch_bad_fixture_entries_keep_their_rows(tmp_path, capsys):
    fx = [
        {"name": "bad_N", "p": 2, "N": 2, "M": 16, "f": "2,1@1", "u": "3,3,1@1"},
        {"name": "bad_p", "p": 4, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(fx))
    code, out, _ = run(capsys, "batch", "--fixture", str(path))
    assert code == 2
    rows = out.splitlines()[2:]
    assert rows[0].startswith("bad_N") and "fixture error: N must be at least 4" in rows[0]
    assert rows[1].startswith("bad_p") and "fixture error: p must be a prime, got 4" in rows[1]


def test_batch_non_object_entry_is_a_fixture_error(tmp_path, capsys):
    """An entry that is not a JSON object raised TypeError out of
    analyze_fixture, and ``lubinlab batch`` printed a traceback."""
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([[1, 2]]))
    code, out, err = run(capsys, "batch", "--fixture", str(path), "--format", "json")
    assert code == 2 and err == ""
    (report,) = json.loads(out)
    assert report == {
        "name": "fixture",
        "prime": None,
        "verdict": "INCONCLUSIVE",
        "reason": "fixture error: fixture entry must be a JSON object, got [1, 2]",
    }
    code, out, err = run(capsys, "batch", "--fixture", str(path))
    assert code == 2 and err == ""
    row = "fixture                  None INCONCLUSIVE  -        -       fixture error: "
    assert out.splitlines()[2] == row + "fixture entry must be a JSON object, got [1, 2]"
    code, out, err = run(capsys, "analyze", "--fixture", str(path))
    assert (code, out) == (2, "")
    assert err == "error: fixture entry must be a JSON object, got [1, 2]\n"


@pytest.mark.parametrize("command", ["analyze", "batch"])
@pytest.mark.parametrize("body", ["5", "null", "true", '"text"'])
def test_fixture_file_of_a_scalar_refused(tmp_path, capsys, command, body):
    """A fixture file holding a number, null or true made ``batch`` and
    ``analyze --fixture`` raise TypeError with a traceback, and a string was
    split into its characters."""
    path = tmp_path / "fx.json"
    path.write_text(body)
    code, out, err = run(capsys, command, "--fixture", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: fixture file must hold a JSON object or array, got {body}\n"


def test_high_precision_analyze_runs_in_bounded_memory():
    """At N = 60000 the cached powers of p held p^0 .. p^60000, about 550 MB,
    and under a 300 MB address-space limit ``analyze`` died in a MemoryError
    traceback instead of printing its REJECTED row."""
    limit = 300 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["analyze", "--p", "5", "--f", "5,0,0,0,1", "--u", "-1", "--M", "25", "--N", "60000", "--format", "text"]
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from lubinlab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    row = done.stdout.splitlines()[2]
    assert row.startswith("inline") and row.split()[2] == "REJECTED"


@pytest.mark.parametrize("field, value", [("p", [2]), ("p", 2.7), ("p", True), ("N", "20"), ("M", 16.0), ("p", None)])
def test_wrong_typed_fixture_field_refused(tmp_path, capsys, field, value):
    """p, N and M must be JSON integers: a list raised TypeError out of
    ``int()``, which ``lubinlab batch`` printed as a traceback, and 2.7 or
    true were truncated to 2 or 1 and analysed."""
    entry = {"name": "x", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1", field: value}
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([entry]))
    message = f"fixture field {field!r} must be an integer, got {json.dumps(value)}"
    code, out, err = run(capsys, "batch", "--fixture", str(path))
    assert code == 2 and err == ""
    assert out.splitlines()[2].endswith(f"INCONCLUSIVE  -        -       fixture error: {message}")
    code, out, err = run(capsys, "analyze", "--fixture", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


MALFORMED = [
    pytest.param({"f": None}, "fixture field 'f': series must be a JSON object or an inline coefficient string, got null", id="no-f"),
    pytest.param({"f": {"p": 2, "M": 16, "N": 8}}, "fixture field 'f': series field 'coeffs' must be a list, got null", id="no-coeffs"),
    pytest.param({"u": {"p": 2, "M": 16, "N": 8, "coeffs": [[1, "2"]]}}, "fixture field 'u': series field 'coeffs' needs", id="non-pair-entry"),
    pytest.param({"f": {"p": 2, "M": 16, "N": 8, "coeffs": [[[-1], "1"]]}}, "fixture field 'f': series field 'coeffs' needs", id="negative-exponent"),
    pytest.param({"f": {"p": 2, "M": 16, "N": 8, "coeffs": [[[1.0], "2"]]}}, "fixture field 'f': series field 'coeffs' needs", id="float-exponent"),
    pytest.param({"f": {"p": 2, "M": 16.0, "N": 8, "coeffs": [[[1], "2"]]}}, "fixture field 'f': series field 'M' must be an integer, got 16.0", id="float-M"),
    pytest.param({"f": {"p": 2, "M": 16, "N": 8, "coeffs": [[[1], "1/0"]]}}, "fixture field 'f': series field 'coeffs' needs", id="zero-denominator"),
    pytest.param({"f": {"p": 1, "M": 16, "N": 8, "coeffs": [[[1], "2"]]}}, "fixture field 'f': p must be a prime, got 1", id="p-1"),
    pytest.param(
        {"f": {"p": 2, "M": 16, "N": 8, "coeffs": [[[1, 0], "2"], [[0, 1], "1"]]}},
        "fixture field 'f': series field 'coeffs' needs univariate [[exponent >= 0], value] entries, got [[1, 0], \"2\"]",
        id="two-variables",
    ),
    pytest.param({"f": {"p": 2, "M": 16, "N": 0, "coeffs": [[[1], "2"]]}}, "fixture field 'f': series field 'N' must be at least 1, got 0", id="N-0"),
    pytest.param({"f": "2,1@-1"}, "fixture field 'f': inline series shift must be at least 0, got -1", id="negative-shift"),
    pytest.param({"u": "3,3,1@1.5"}, "fixture field 'u': inline series '3,3,1@1.5' is not", id="float-shift"),
]


@pytest.mark.parametrize("change, message", MALFORMED)
def test_malformed_series_refused(tmp_path, capsys, change, message):
    """A missing series or coeffs list and a non-pair coeffs entry raised
    KeyError or TypeError out of ``analyze --fixture``; a negative exponent
    was REJECTED at "weierstrass degree -1"; a float exponent or M was
    truncated by ``int()``; a series with p = 1 looped forever in
    ``vp_int``; a negative inline shift was analysed; a series in two
    variables or with N = 0 was refused inside ``analyze`` by "composition
    is univariate" or "zero known to nonpositive precision carries no
    digits"."""
    entry = {"name": "x", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1", **change}
    if entry["f"] is None:
        del entry["f"]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run(capsys, "analyze", "--fixture", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: {message}")
    code, out, err = run(capsys, "batch", "--fixture", str(path), "--format", "json")
    assert code == 2 and err == ""
    (report,) = json.loads(out)
    assert report["verdict"] == "INCONCLUSIVE" and report["reason"].startswith(f"fixture error: {message}")


@pytest.mark.parametrize("command, series", [("log", "3,2,1@0"), ("frobenius", "4,2,1@0")])
def test_series_with_constant_term_has_no_logarithm(capsys, command, series):
    """The logarithm recurrence built a power table of a series with a
    constant term: ``log`` printed a logarithm with "polygon ok: True" and
    ``frobenius`` a multiplier, both exiting 0."""
    code, out, err = run(capsys, command, "--p", "2", "--series", series, "--M", "8")
    assert (code, out, err) == (2, "", "error: substituted series has a constant term\n")
