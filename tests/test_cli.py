"""CLI surface: flags, formats, exit codes, golden summary format."""

import argparse
import collections
import dataclasses
import json
import os
import random
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
    """Each subcommand registers exactly the flags it reads: --M2 only
    where a certificate runs, and --p everywhere but batch, whose entries
    carry their own prime."""
    ap = build_parser()
    subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"-h", "--help", "--N", "--M", "--guard", "--out", "--format"}
    series = shared | {"--p", "--series"}
    want = {
        "polygon": series,
        "log": series,
        "group": series | {"--M2"},
        "frobenius": series,
        "analyze": shared | {"--p", "--M2", "--fixture", "--name", "--f", "--u"},
        "batch": shared | {"--M2", "--fixture"},
    }
    assert {name: {s for a in sp._actions for s in a.option_strings} for name, sp in subparsers.choices.items()} == want


PAIRS = Path(__file__).resolve().parent.parent / "demos" / "fixtures" / "pairs.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "--p", "2", "--series", "2,1@1", "--M2", "5"],
        ["polygon", "--p", "2", "--series", "2,1@1", "--n-shape", "1"],
        ["log", "--p", "3", "--series", "3,0,1@1", "--M2", "2"],
        ["log", "--p", "3", "--series", "3,0,1@1", "--n-shape", "1"],
        ["group", "--p", "2", "--series", "2,1@1", "--M", "16", "--n-shape", "1"],
        ["frobenius", "--p", "2", "--series", "2,1@1", "--M", "16", "--M2", "5"],
        ["frobenius", "--p", "2", "--series", "2,1@1", "--M", "16", "--n-shape", "1"],
        ["batch", "--fixture", str(PAIRS), "--p", "2"],
        ["batch", "--fixture", str(PAIRS), "--n-shape", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_the_subcommand_does_not_read_is_refused(capsys, argv):
    """These flags were accepted and never read; ``log --M2 2`` was even
    refused with "M2 must be at least 3".  argparse now refuses each.
    --n-shape is read by no subcommand: ``analyze`` checks no iterate shape."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_every_config_field_is_set_by_the_cli():
    """A Config field that the CLI leaves at its default is a knob no user
    can reach."""
    argv = ["analyze", "--N", "20", "--M", "32", "--M2", "5", "--guard", "40"]
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


@pytest.mark.parametrize("p", ["0", "1", "4", "-3"])
def test_non_prime_p_rejected_by_analyze(capsys, p):
    """An inline pair with a p that is not prime is refused for that p, not
    as a missing one: 0 is a value given, as 4 is."""
    code, out, err = run(capsys, "analyze", "--p", p, "--f", "2,1@1", "--u", "3,3,1@1")
    assert (code, out, err) == (2, "", f"error: p must be a prime, got {p}\n")


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
    """Checking no iterate shape used to pass as CERTIFIED with an empty
    list, and was then refused as a meaningless --n-shape.  ``analyze``
    checks no iterate shape now, since stage 2 implies them, and refuses
    the flag."""
    with pytest.raises(SystemExit) as exc:
        main([
            "analyze", "--p", "3", "--N", "10", "--M", "25", "--n-shape", n_shape,
            "--f", "3,3,1@1", "--u", "4,6,4,1@1",
        ])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --n-shape {n_shape}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["--name", "gm_p3", "--p", "2", "--f", "2,1", "--u", "3,3,1"], "--p, --f, --u"),
        (["--p", "2"], "--p"),
        (["--f", "2,1", "--u", "3,3,1"], "--f, --u"),
        (["--u", ""], "--u"),
    ],
)
def test_analyze_refuses_inline_flags_with_a_fixture(capsys, argv, flags):
    """``analyze --fixture F --name gm_p3 --p 2 --f 2,1 --u 3,3,1``
    certified gm_p3 at p = 3 and dropped --p, --f and --u without a word."""
    code, out, err = run(capsys, "analyze", "--fixture", str(PAIRS), *argv)
    assert (code, out, err) == (2, "", f"error: --fixture takes its pair from the file, not from {flags}\n")


def test_analyze_refuses_a_name_without_a_fixture(capsys):
    """--name without --fixture named the inline pair's report "inline"."""
    code, out, err = run(capsys, "analyze", "--name", "gm_p3", "--p", "3", "--f", "3,3,1@1", "--u", "4,6,4,1@1")
    assert (code, out, err) == (2, "", "error: --name picks an entry of --fixture, which is not given\n")
    code, out, _ = run(capsys, "analyze", "--p", "3", "--f", "3,3,1@1", "--u", "4,6,4,1@1")
    assert code == 0 and json.loads(out)["name"] == "inline"


def test_analyze_names_a_name_given_twice(tmp_path, capsys):
    """Two entries named 'a' were refused with "fixture file holds several
    entries; pick one with --name", though --name was given."""
    entry = {"name": "a", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"}
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([entry, {**entry, "name": "b"}, entry]))
    code, out, err = run(capsys, "analyze", "--fixture", str(path), "--name", "a")
    assert (code, out, err) == (2, "", "error: 2 entries are named 'a'\n")
    code, out, _ = run(capsys, "analyze", "--fixture", str(path), "--name", "b")
    assert code == 0 and json.loads(out)["name"] == "b"
    code, out, err = run(capsys, "analyze", "--fixture", str(path))
    assert (code, out, err) == (2, "", "error: fixture file holds several entries; pick one with --name\n")


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


def run_capped(argv, limit, timeout=120):
    """``lubinlab`` in a subprocess whose address space is capped at limit
    bytes and whose run is cut after timeout seconds."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-c", "import sys; from lubinlab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap,
    )


def test_high_precision_analyze_runs_in_bounded_memory():
    """At N = 60000 the cached powers of p held p^0 .. p^60000, about 550 MB,
    and under a 300 MB address-space limit ``analyze`` died in a MemoryError
    traceback instead of printing its REJECTED row."""
    argv = ["analyze", "--p", "5", "--f", "5,0,0,0,1", "--u", "-1", "--M", "25", "--N", "60000", "--format", "text"]
    done = run_capped(argv, 300 << 20)
    assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
    row = done.stdout.splitlines()[2]
    assert row.startswith("inline") and row.split()[2] == "REJECTED"


def test_sparse_logarithm_runs_in_bounded_memory():
    """The logarithm of f = 2x has one coefficient, and at M = 4000 its
    recurrence grew the power table of f to 3998 powers of 4000 columns,
    about 220 MB, reading one absent slot per power."""
    done = run_capped(["log", "--p", "2", "--series", "2", "--M", "4000"], 100 << 20)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert [e for e, _ in json.loads(done.stdout)["coefficients"]] == [[1]]


def test_series_precision_past_the_working_precision_is_not_built(tmp_path, capsys):
    """A serialized f that says N = 10^8 was built at 10^8 digits before
    ``analyze`` cut it to the working precision of 15, and the run did not
    finish in 30 s under a 1 GB address-space limit.  It is built at 15
    digits and prints the report of the same f at N = 15."""

    def fixture(n):
        f = {"p": 3, "M": 9, "N": n, "coeffs": [[[1], "3"], [[2], "3"], [[3], "1"]]}
        path = tmp_path / f"deep-{n}.json"
        path.write_text(json.dumps({"name": "deep", "p": 3, "N": 6, "M": 9, "f": f, "u": "4,6,4,1@1"}))
        return str(path)

    done = run_capped(["analyze", "--fixture", fixture(10**8)], 1 << 30, timeout=20)
    code, out, _ = run(capsys, "analyze", "--fixture", fixture(15))
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0 and json.loads(out)["verdict"] == "CERTIFIED"


def test_series_term_past_the_working_truncation_is_not_built(tmp_path, capsys):
    """A serialized f whose own M is 10^9 carries a term x^(10^8), past the
    run's M of 9.  A series laid out as packed lists by degree, built at its
    own M, would hold 10^8 slots before ``analyze`` cut it to the run's.
    It is built below the run's M and prints the report of the same f
    without that term, under a 20 s and 1 GB bound."""

    def fixture(terms):
        f = {"p": 3, "M": 10**9, "N": 15, "coeffs": [[[1], "3"], [[2], "3"], [[3], "1"], *terms]}
        path = tmp_path / f"far-{len(terms)}.json"
        path.write_text(json.dumps({"name": "far", "p": 3, "N": 6, "M": 9, "f": f, "u": "4,6,4,1@1"}))
        return str(path)

    done = run_capped(["analyze", "--fixture", fixture([[[10**8], "1"]])], 1 << 30, timeout=20)
    code, out, _ = run(capsys, "analyze", "--fixture", fixture([]))
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
    assert code == 0 and json.loads(out)["verdict"] == "CERTIFIED"


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
    pytest.param(
        {"f": {"p": 2, "M": 16, "N": 8, "coeffs": [[[1], "2"], [[1], "6"], [[2], "1"]]}},
        "fixture field 'f': series field 'coeffs' gives exponent 1 twice",
        id="repeated-exponent",
    ),
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
    digits"; of an exponent given twice, the last value was kept."""
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


def test_fuzzed_command_lines_exit_0_1_or_2(tmp_path, capsys):
    """A seeded fuzz of ``main`` over its six subcommands at M <= 16:
    malformed inline series, bad primes and sizes, and broken fixture
    files, mixed with good ones.  Every call returns 0, 1 or 2 (argparse's
    refusals exit 2), and none prints a traceback."""
    rng = random.Random(20261019)
    entry = {"name": "gm_p2", "p": 2, "N": 8, "M": 16, "f": "2,1@1", "u": "3,3,1@1"}
    files = {
        "good": json.dumps([entry]),
        "empty": "",
        "open": "[{",
        "scalar": "5",
        "nested": "[[1]]",
        "string-M": json.dumps([{**entry, "M": "8"}]),
    }
    for name, body in files.items():
        (tmp_path / f"{name}.json").write_text(body)
    good_fixture, bad_fixtures = str(tmp_path / "good.json"), [str(tmp_path / f"{name}.json") for name in files if name != "good"]
    choices = {  # (good, bad) values of each piece
        "series": (["2,1@1", "3,3,1@1", "4,6,4,1@1", "2,0,1@1"], ["", "@", "1/0,1@1", "2,,1@1", "2,1@-1", "a,b@1"]),
        "--p": (["2", "3", "5"], ["0", "1", "4", "-3", "x"]),
        "--M": (["8", "9", "12", "16"], ["0", "-1", "x"]),
        "--N": (["4", "8"], ["0", "-1", "x"]),
        "--fixture": ([good_fixture], bad_fixtures + [str(tmp_path / "missing.json")]),
    }

    def pick(piece):
        good, bad = choices[piece]
        return rng.choice(good if rng.random() < 0.8 else bad)

    codes = collections.Counter()
    for _ in range(300):
        command = rng.choice(["polygon", "log", "group", "frobenius", "analyze", "batch"])
        argv = [command, "--M", pick("--M")]
        if rng.random() < 0.5:
            argv += ["--N", pick("--N")]
        if command == "batch" or command == "analyze" and rng.random() < 0.5:
            argv += ["--fixture", pick("--fixture")]
        elif command == "analyze":
            argv += ["--p", pick("--p"), "--f", pick("series"), "--u", pick("series")]
        else:
            argv += ["--p", pick("--p"), "--series", pick("series")]
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        codes[code] += 1
    assert codes[0] and codes[1] and codes[2]
