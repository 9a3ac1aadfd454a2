"""Benchmark of lubinlab: one seeded workload per run, end-to-end metrics
untraced, or per-layer metrics from a traced run.

    python3 bench/run.py --workload certify_dense --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; lubinlab is imported from the
checkout's ``src/`` and nowhere else.  Workloads:

* certify_dense   - twisted gm/lt pairs at p = 2, 3, 5 through ``analyze``
                    at the default Config (N=16, M=64, M2=12), one at a time;
* batch_screen    - a fixture file of small pairs and negative controls
                    through in-process ``lubinlab batch`` with
                    LUBINLAB_THREADS=min(2, nproc);
* factor_polygons - twisted f at p = 2, 3, 5 and M=64: iterate shapes,
                    Newton polygons and Weierstrass factors.

With ``--trace 0`` the untraced closed loop repeats whole cycles of the
workload's calls until ``--seconds`` of call time have passed, after timing
set-up (import plus input generation) ``SETUP_REPEATS`` times; the times it
reports are reference-scaled (see ``clock.Clock``) and the unscaled ones are
printed beside them.  With ``--trace 1`` one cycle runs untraced and then
once more traced, and the spans give the per-layer metrics.  Every item is
checked against its expected result and every cycle's report digest must
match the first.  Human-readable lines start with ``#``; the last line is
the JSON result.  Results and spans are also written under ``.bench_out/``
in the checkout.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

from clock import Clock, usage

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# (name, unit, better) of each metric; the values come from
# measure_untraced() and per_layer().
END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("call_s_p50", "s", "lower"),
    ("cpu_s_per_item", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_SERIES = [f"series.mul{k}" for k in (1, 2, 3)]
_SERIES_CALLS = ["series.compose1", "series.compose2", "series.reversion", "series.inverse"]
_POLYGON = [
    f"polygon.{fn}"
    for fn in (
        "newton_polygon",
        "count_roots_open_disk",
        "verify_iterate_shape",
        "iterate",
        "weierstrass_factor",
        "vertex_split",
    )
]
_DYNAMICS = [
    f"dynamics.{fn}"
    for fn in ("check_commute", "normalize_u", "logarithm_recurrence", "logarithm_limit", "dlog_integrality")
]
_FORMALGROUP = [
    f"formalgroup.{fn}"
    for fn in ("exp_from_log", "group_from_log", "certify", "bracket", "frobenius_multiplier", "lubin_tate_lift")
]

PER_LAYER = (
    [("padic.reduce_terms.calls", "count", "lower"), ("padic.reduce_terms.s", "s", "lower")]
    + [(f"{n}.{k}", u, "lower") for n in _SERIES for k, u in (("calls", "count"), ("s", "s"), ("terms", "count"))]
    + [(f"{n}.{k}", u, "lower") for n in _SERIES_CALLS + _POLYGON for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"{n}.s", "s", "lower") for n in _DYNAMICS]
    + [("dynamics.logarithm_limit.iterates", "count", "lower")]
    + [(f"{n}.s", "s", "lower") for n in _FORMALGROUP]
    + [("formalgroup.frobenius_multiplier.digits_per_candidate", "digits/compose", "higher")]
    + [
        ("analyzer.analyze.calls", "count", "lower"),
        ("analyzer.analyze.s", "s", "lower"),
        ("analyzer.analyze.self_s", "s", "lower"),
        ("analyzer.verdict.CERTIFIED", "count", "higher"),
        ("analyzer.verdict.REJECTED", "count", "lower"),
        ("analyzer.verdict.INCONCLUSIVE", "count", "lower"),
        ("analyzer.make_twist_fixture.s", "s", "lower"),
        ("analyzer.batch_run.s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def pin_lubinlab(root=ROOT):
    """Import lubinlab from ``root/src`` and return the seconds it took."""
    src = (root / "src").resolve()
    if not (src / "lubinlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no lubinlab sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import lubinlab

    import_s = time.perf_counter() - t0
    origin = Path(lubinlab.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"error: lubinlab was imported from {origin}, not from {src}")
    return import_s


def git_revision(root=ROOT) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def threads_env(value: int):
    """Set LUBINLAB_THREADS for the run and restore the caller's value."""
    saved = os.environ.get("LUBINLAB_THREADS")
    os.environ["LUBINLAB_THREADS"] = str(value)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["LUBINLAB_THREADS"]
        else:
            os.environ["LUBINLAB_THREADS"] = saved


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    return sum(r.ru_maxrss for r in usage()) / 1024


def _run_call(call):
    try:
        return call.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return call.items, call.items, b""


def run_cycles(calls, seconds, clock, tag=None):
    """Closed loop, one client: repeat the cycle of calls until ``seconds``
    of raw call time have passed (at least one cycle).  Returns scaled and
    raw totals, the scaled per-call durations, items attempted and failed,
    and the sha256 report digest of each cycle; a cycle whose digest differs
    from the first counts all its items as failed."""
    durations, digests = [], []
    attempted = failed = 0
    totals = {"wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0}
    while True:
        h = hashlib.sha256()
        for call in calls:
            if tag is not None:
                tag(call.label)
            (items, bad, body), wall, cpu, raw_wall, raw_cpu = clock.measure(lambda: _run_call(call))
            durations.append(wall)
            for key, value in zip(totals, (wall, cpu, raw_wall, raw_cpu)):
                totals[key] += value
            attempted += items
            failed += bad
            h.update(body)
        digests.append(h.hexdigest())
        if totals["raw_wall_s"] >= seconds:
            break
    failed += sum(c.items for c in calls) * sum(d != digests[0] for d in digests)
    return {
        **totals,
        "durations": durations,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "digests": digests,
    }


def _setup(workloads, workload, seed, sizes, work_dir, clock):
    rng = workloads.rng_for(workload, seed)
    calls, wall, _cpu, raw_wall, _raw_cpu = clock.measure(lambda: workloads.WORKLOADS[workload](rng, sizes, work_dir))
    return calls, wall, raw_wall


def measure_untraced(workload, seed, seconds, sizes, work_dir, import_s):
    import tracer
    import workloads

    setup_s, raw_setup_s, prints = [], [], set()
    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            calls, dt, raw_dt = _setup(workloads, workload, seed, sizes, work_dir, clock)
            setup_s.append(dt)
            raw_setup_s.append(raw_dt)
            prints.add(workloads.fingerprint(calls))
        if not tracer.unwrapped():
            raise RuntimeError("tracing wrappers are installed during the untraced run")
        loop = run_cycles(calls, seconds, clock)
    unwrapped = tracer.unwrapped()
    if not unwrapped:
        raise RuntimeError("tracing wrappers appeared during the untraced run")
    n = loop["attempted"]
    failed = loop["failed"] if len(prints) == 1 else n
    import_scale = statistics.median(setup_s) / statistics.median(raw_setup_s)
    metrics = {
        "items_per_s": n / loop["wall_s"],
        "call_s_p50": statistics.median(loop["durations"]),
        "cpu_s_per_item": loop["cpu_s"] / n,
        "setup_s": import_s * import_scale + statistics.median(setup_s),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = {
        "attempted": n,
        "failed": failed,
        "fail_frac": failed / n,
        "call_samples": len(loop["durations"]),
        "call_durations_s": loop["durations"],
        "cycles": len(loop["digests"]),
        "report_digest": loop["digests"][0],
        "digests_repeat": len(set(loop["digests"])) == 1,
        "input_digest": sorted(prints)[0],
        "inputs_repeat": len(prints) == 1,
        "import_s": import_s,
        "setup_samples_s": setup_s,
        "unwrapped": unwrapped,
        "reference_samples": len(clock.samples),
        "reference_median_s": statistics.median(clock.samples),
        "raw": {
            "items_per_s": n / loop["raw_wall_s"],
            "cpu_s_per_item": loop["raw_cpu_s"] / n,
            "setup_s": import_s + statistics.median(raw_setup_s),
        },
    }
    return metrics, info


def measure_traced(workload, seed, sizes, work_dir):
    import tracer
    import workloads

    setup_tracer, cycle_tracer = tracer.Tracer(), tracer.Tracer()
    with Clock() as clock:
        with setup_tracer:
            setup_tracer.set_item("setup")
            calls, _, _ = _setup(workloads, workload, seed, sizes, work_dir, clock)
        plain = run_cycles(calls, 0, clock)
        with cycle_tracer:
            traced = run_cycles(calls, 0, clock, tag=cycle_tracer.set_item)
    if not tracer.unwrapped():
        raise RuntimeError("tracing wrappers were not removed")
    spans = cycle_tracer.spans()
    agg = tracer.aggregate(spans)
    setup_agg = tracer.aggregate(setup_tracer.spans())
    overhead = traced["wall_s"] / plain["wall_s"] - 1
    n = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    if traced["digests"][0] != plain["digests"][0]:
        failed = n
    setup_path = work_dir / f"spans-{workload}-seed{seed}-setup.tsv.gz"
    cycle_path = work_dir / f"spans-{workload}-seed{seed}-cycle.tsv.gz"
    setup_tracer.write(setup_path)
    cycle_tracer.write(cycle_path)
    info = {
        "attempted": n,
        "failed": failed,
        "fail_frac": failed / n,
        "report_digest": plain["digests"][0],
        "digests_repeat": traced["digests"][0] == plain["digests"][0],
        "input_digest": workloads.fingerprint(calls),
        "spans": len(spans),
        "peak_rss_mb": _peak_rss_mb(),
        "span_files": [setup_path.name, cycle_path.name],
    }
    return per_layer(agg, setup_agg, overhead), info


def per_layer(agg, setup_agg, overhead):
    """The value of every PER_LAYER metric, from the traced cycle's span
    aggregate (and the traced set-up's, for make_twist_fixture)."""
    frob = agg["frob_compositions"]
    special = {
        "formalgroup.frobenius_multiplier.digits_per_candidate": (
            agg["extra"]["formalgroup.frobenius_multiplier"] / frob if frob else 0.0
        ),
        "analyzer.make_twist_fixture.s": setup_agg["s"]["analyzer.make_twist_fixture"],
        "trace.overhead_frac": overhead,
    }
    column = {"calls": "calls", "s": "s", "self_s": "self_s", "terms": "extra", "iterates": "extra"}
    values = {}
    for name, _unit, _better in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stem == "analyzer.verdict":
            values[name] = agg["verdicts"][kind]
        else:
            values[name] = agg[column[kind]][stem]
    return values


def run(workload, seed, seconds, trace, sizes=None, work_dir=None, import_s=0.0):
    """One benchmark run in this process; returns the result dict and info."""
    import lubinlab
    import workloads

    sizes = sizes or workloads.FULL
    work_dir = Path(work_dir or ROOT / ".bench_out")
    work_dir.mkdir(parents=True, exist_ok=True)
    threads = min(2, nproc())
    with threads_env(threads):
        if trace:
            values, info = measure_traced(workload, seed, sizes, work_dir)
            table = PER_LAYER
        else:
            values, info = measure_untraced(workload, seed, seconds, sizes, work_dir, import_s)
            table = END_TO_END
    info["env"] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "lubinlab_threads": threads,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "lubinlab_path": lubinlab.__file__,
    }
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    out = work_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({"result": result, "info": info}, indent=1, sort_keys=True) + "\n")
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["certify_dense", "batch_screen", "factor_polygons"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    import_s = pin_lubinlab()
    result, info = run(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    print(f"# lubinlab benchmark {json.dumps(info['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(f"# fail_frac = {info['fail_frac']!r} frac ({info['failed']} of {info['attempted']} items)")
    if not args.trace:
        print(f"# call_s_p50 over {info['call_samples']} calls in {info['cycles']} cycles")
        print(f"# unscaled: {json.dumps(info['raw'], sort_keys=True)}")
    print(f"# report sha256 {info['report_digest']} repeats: {info['digests_repeat']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
