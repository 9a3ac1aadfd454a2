"""Spans around the public functions of each lubinlab layer, installed from
outside the library and removed afterwards.

``Tracer.install`` replaces every binding of each target: the home module,
every other ``lubinlab`` module that imported the name, and class
attributes for methods.  Each wrapped call records one span (id, name,
item, parent, start, end, extra) into a per-thread buffer, so the batch
pool's worker threads never interleave a record.  ``extra`` carries one
count per span where a layer metric needs it: the term products of a
series multiplication, the iterates of ``logarithm_limit``, the digits
pinned by ``frobenius_multiplier`` and the verdict of ``analyze``.
"""

import functools
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict

from lubinlab import analyzer, cli, dynamics, formalgroup, padic, polygon
from lubinlab.formalgroup import FormalGroupLaw
from lubinlab.series import PSeries

VERDICTS = ("CERTIFIED", "REJECTED", "INCONCLUSIVE")


def _fixed(name):
    return lambda args: name


def _by_nvars(stem):
    names = {k: f"{stem}{k}" for k in (1, 2, 3)}
    return lambda args: names[args[0].nvars]


def _mul_terms(args, result):
    return len(args[0].coeffs) * len(args[1].coeffs)


def _limit_iterates(args, result):
    return len(result.stabilization or ())


def _pi_digits(args, result):
    pi = result[0]
    return pi.N - pi.v


def _verdict(args, result):
    return VERDICTS.index(result.verdict)


def _analyze_item(args, kwargs):
    return kwargs.get("name", args[3] if len(args) > 3 else "pair")


# (owner, attribute, span name from the positional args, extra from
# (args, result), item id from (args, kwargs) when the call starts a new item)
TARGETS = [
    (padic, "reduce_terms", _fixed("padic.reduce_terms"), None, None),
    (PSeries, "__mul__", _by_nvars("series.mul"), _mul_terms, None),
    (PSeries, "compose", _by_nvars("series.compose"), None, None),
    (PSeries, "reversion", _fixed("series.reversion"), None, None),
    (PSeries, "inverse", _fixed("series.inverse"), None, None),
]
TARGETS += [
    (polygon, fn, _fixed(f"polygon.{fn}"), None, None)
    for fn in (
        "newton_polygon",
        "count_roots_open_disk",
        "verify_iterate_shape",
        "iterate",
        "weierstrass_factor",
        "vertex_split",
    )
]
TARGETS += [
    (dynamics, fn, _fixed(f"dynamics.{fn}"), _limit_iterates if fn == "logarithm_limit" else None, None)
    for fn in (
        "check_commute",
        "normalize_u",
        "logarithm_recurrence",
        "logarithm_limit",
        "dlog_integrality",
    )
]
TARGETS += [
    (formalgroup, fn, _fixed(f"formalgroup.{fn}"), _pi_digits if fn == "frobenius_multiplier" else None, None)
    for fn in (
        "exp_from_log",
        "group_from_log",
        "bracket",
        "frobenius_multiplier",
        "lubin_tate_lift",
    )
]
TARGETS += [
    (FormalGroupLaw, "certify", _fixed("formalgroup.certify"), None, None),
    (analyzer, "analyze", _fixed("analyzer.analyze"), _verdict, _analyze_item),
    (analyzer, "make_twist_fixture", _fixed("analyzer.make_twist_fixture"), None, None),
    (analyzer, "batch_run", _fixed("analyzer.batch_run"), None, None),
    (cli, "main", _fixed("cli.main"), None, None),
]

ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in TARGETS}


def _binding_sites():
    """Every (namespace, attribute, target) where a target function is bound:
    its owner, plus each lubinlab module that imported the same object
    under the same name.  Classes are patched once, on the class."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "lubinlab" or n.startswith("lubinlab.")]
    sites = []
    for key, orig in ORIGINALS.items():
        owner, attr = key
        sites.append((owner, attr, key))
        if isinstance(owner, type):
            continue
        sites.extend((m, attr, key) for m in modules if m is not owner and m.__dict__.get(attr) is orig)
    return sites


SITES = _binding_sites()


def unwrapped():
    """True when every binding site holds its original function object."""
    return all(ns.__dict__[attr] is ORIGINALS[key] for ns, attr, key in SITES)


class _Buffer:
    """One thread's recorded spans, open-span stack and current item."""

    __slots__ = ("stack", "spans", "item")

    def __init__(self):
        self.stack = []
        self.spans = []
        self.item = None


class Tracer:
    """In-memory span recorder; use as ``with Tracer() as tr:``."""

    def __init__(self):
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = None
        self._patched = []
        self.t0 = time.perf_counter()

    # -- thread buffers -------------------------------------------------

    def _buf(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_item(self, item):
        """Tag the spans this thread records from now on with ``item``."""
        self._buf().item = item

    # -- installing ---------------------------------------------------------

    def _wrap(self, orig, name_of, extra_of, item_of):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            buf = tracer._buf()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack else 0
            sid = next(tracer._ids)
            saved_item = buf.item
            if item_of is not None:
                buf.item = item_of(args, kwargs)
            stack.append(sid)
            extra = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.spans.append((sid, name_of(args), buf.item, parent, start, end, extra))
                buf.item = saved_item

        return wrapper

    def install(self):
        if not unwrapped():
            raise RuntimeError("a tracer is already installed")
        self._main = self._buf()
        wrappers = {
            (owner, attr): self._wrap(ORIGINALS[(owner, attr)], name_of, extra_of, item_of)
            for owner, attr, name_of, extra_of, item_of in TARGETS
        }
        for ns, attr, key in SITES:
            setattr(ns, attr, wrappers[key])
            self._patched.append((ns, attr, ORIGINALS[key]))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def spans(self):
        """All recorded spans, ordered by id."""
        out = []
        for buf in self._buffers:
            out.extend(buf.spans)
        out.sort()
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated lines, times in seconds
        from the tracer's creation."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\titem\tparent\tstart_s\tend_s\textra\n")
            t0 = self.t0
            for sid, name, item, parent, start, end, extra in self.spans():
                fh.write(f"{sid}\t{name}\t{item}\t{parent}\t{start - t0:.9f}\t{end - t0:.9f}\t{extra}\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans):
    """Per-name totals over spans: calls, inclusive seconds, self seconds
    (duration minus the union of the child spans) and the sum of extras,
    plus the verdict counts of ``analyze`` and the compositions made
    directly inside ``frobenius_multiplier``."""
    children = defaultdict(list)
    for _sid, _name, _item, parent, start, end, _extra in spans:
        children[parent].append((start, end))
    frob_ids = {s[0] for s in spans if s[1] == "formalgroup.frobenius_multiplier"}
    agg = {
        "calls": defaultdict(int),
        "s": defaultdict(float),
        "self_s": defaultdict(float),
        "extra": defaultdict(int),
        "verdicts": defaultdict(int),
        "frob_compositions": 0,
    }
    for sid, name, _item, parent, start, end, extra in spans:
        agg["calls"][name] += 1
        agg["s"][name] += end - start
        agg["self_s"][name] += (end - start) - _covered(children.get(sid, ()), start, end)
        if extra is None:
            pass
        elif name == "analyzer.analyze":
            agg["verdicts"][VERDICTS[extra]] += 1
        else:
            agg["extra"][name] += extra
        if name.startswith("series.compose") and parent in frob_ids:
            agg["frob_compositions"] += 1
    return agg
