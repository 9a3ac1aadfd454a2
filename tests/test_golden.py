"""Golden corpus: analyzer reports frozen byte for byte.

Three corpora are frozen under ``tests/golden/``:

* ``criterion4.json``  - the criterion-4 battery (gm/lt and their twists at
  p = 2, 3, 5, default Config);
* ``demo_pairs.json``  - ``demos/fixtures/pairs.json`` through ``batch_run``;
* ``criterion7.json``  - the criterion-7 sweep (seed 20260810, 20 configs).

Each file is a JSON list of report dicts, serialized like ``lubinlab batch
--format json``.  A kernel rewrite must leave every report unchanged, so
any difference is a failure.  To refreeze after a deliberate report change:

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


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    GOLDEN.mkdir(exist_ok=True)
    for name, build in CORPORA.items():
        (GOLDEN / f"{name}.json").write_text(dump(build()), encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json")
