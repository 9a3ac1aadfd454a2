"""Golden corpus: analyzer reports frozen byte for byte.

Three corpora are frozen under ``tests/golden/``:

* ``criterion4.json``  - the criterion-4 battery (gm/lt and their twists at
  p = 2, 3, 5, default Config);
* ``demo_pairs.json``  - ``demos/fixtures/pairs.json`` through ``batch_run``;
* ``criterion7.json``  - the criterion-7 sweep (seed 20260810, 20 configs).

Each file is a JSON list of report dicts, serialized like ``lubinlab batch
--format json``.  A kernel rewrite must leave every report unchanged, so
any difference is a failure.  To list every report field that moved, one
line of (corpus, report name, field path, old, new) each, writing nothing:

    PYTHONPATH=src python tests/test_golden.py --diff

To refreeze after a deliberate report change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from lubinlab import Config, analyze, batch_run, gm_pair, load_fixtures

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_FIXTURES = Path(__file__).resolve().parent.parent / "demos" / "fixtures" / "pairs.json"


def criterion4_reports():
    from test_acceptance import CFG, PRIMES, pair_battery

    return [
        analyze(f, u, CFG, name=name)
        for p in PRIMES
        for name, (f, u) in pair_battery(p)
    ]


def demo_pair_reports():
    return batch_run(load_fixtures(str(DEMO_FIXTURES)))


def criterion7_reports():
    rnd = random.Random(20260810)
    f0, u0 = gm_pair(2, 48, 120)
    configs = set()
    while len(configs) < 20:
        N = rnd.choice((6, 8, 10, 12, 14))
        M = rnd.choice((8, 12, 16, 24, 32))
        configs.add((N, M))
    return [analyze(f0, u0, Config(N=N, M=M), name="sweep") for N, M in sorted(configs)]


CORPORA = {
    "criterion4": criterion4_reports,
    "demo_pairs": demo_pair_reports,
    "criterion7": criterion7_reports,
}


def dump(reports) -> str:
    return json.dumps([r.data for r in reports], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_reports_match_golden(corpus):
    reports = CORPORA[corpus]()
    want = (GOLDEN / f"{corpus}.json").read_text(encoding="utf-8")
    got = dump(reports)
    if got != want:
        frozen = json.loads(want)
        assert len(frozen) == len(reports), corpus
        for i, (old, rep) in enumerate(zip(frozen, reports)):
            assert rep.to_json() == json.dumps(old, sort_keys=True, indent=2) + "\n", (
                corpus,
                i,
                rep.data.get("name"),
                rep.data.get("config"),
            )
    assert got == want, corpus


def moved_fields(old, new, path=""):
    """(path, old, new) for every leaf where two JSON values differ; a key
    or list entry on one side only is a leaf whose other side is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved_fields(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved_fields(a, b, f"{path}[{i}]")
    elif old != new:
        yield path, old, new


def print_moved_fields():
    """Print each report field that moved against the frozen corpora."""
    for corpus, build in CORPORA.items():
        frozen = json.loads((GOLDEN / f"{corpus}.json").read_text(encoding="utf-8"))
        reports = [r.data for r in build()]
        if len(frozen) != len(reports):
            print(corpus, "-", "len", len(frozen), len(reports), sep="\t")
        for i, (old, new) in enumerate(zip(frozen, reports)):
            for path, a, b in moved_fields(old, json.loads(json.dumps(new))):
                print(corpus, f"{old.get('name')}[{i}]", path, json.dumps(a), json.dumps(b), sep="\t")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if sys.argv[1:] == ["--diff"]:
        print_moved_fields()
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    for name, build in CORPORA.items():
        (GOLDEN / f"{name}.json").write_text(dump(build()), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")
