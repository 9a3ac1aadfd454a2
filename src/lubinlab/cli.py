"""Command-line front door.

Subcommands: polygon, log, group, frobenius, analyze, batch.  The four
single-series subcommands share one path, ``cmd_series``: it resolves the
Config, parses ``--series`` at the working precision, runs the subcommand's
computation and emits its JSON payload, or builds its text or svg body only
when that format is asked for.  Each subcommand takes only the flags it
reads: --N --M --out on every one, and --p on all but batch (each fixture
entry names its own prime).  The working precision is derived, N +
ceil(M/(p-1)) + 4, and the certificate degree is the constant
``analyzer.M2``; no flag sets either.
``analyze`` takes its pair from --fixture (with --name) or from --p, --f
and --u, never from both.  Exit code 0 on success/CERTIFIED, 1 on
REJECTED, 2 on INCONCLUSIVE or input errors.  Inline series syntax:
"c1,c2,...@k" means sum_i c_i x^(k+i-1) with integer or a/b coefficients
(shift defaults to 1).
"""

import argparse
import json
import sys
from dataclasses import fields

from .analyzer import (
    CERTIFIED,
    Config,
    INCONCLUSIVE,
    M2,
    REJECTED,
    analyze_fixture,
    batch_run,
    load_fixtures,
    parse_series_arg,
    summary_table,
)
from .dynamics import log_polygon_vertices, logarithm_recurrence
from .errors import LubinlabError
from .formalgroup import frobenius_multiplier, group_from_log
from .polygon import newton_polygon

# a Config knob left out is absent from the parsed arguments, so it keeps
# Config's default
KNOB = {"type": int, "default": argparse.SUPPRESS}
FLAGS = {
    "--p": {"type": int, "help": "prime of the coefficient ring"},
    "--N": {**KNOB, "help": "target p-adic digits (>= 4)"},
    "--M": {**KNOB, "help": "x-adic truncation order (>= p^2)"},
    "--out": {"help": "write the report here instead of stdout"},
}
SHARED_FLAGS = ("--N", "--M", "--out")


def _scalar_table(s):
    """The coefficients of a series or a law as [exponents, scalar JSON] rows."""
    return [[list(e), c.to_json()] for e, c in sorted(s.coeffs.items())]


# Each computation takes the parsed series and the Config, and returns its
# JSON payload with a body builder for each other format.


def _polygon(g, cfg):
    poly = newton_polygon(g)
    payload = poly.to_json()
    return payload, {"text": lambda: poly.ascii() + "\n" + json.dumps(payload["segments"]), "svg": poly.svg}


def _log(g, cfg):
    L = logarithm_recurrence(g)
    vertices = newton_polygon(L).negative_vertices()
    payload = {
        "p": g.prime,
        "coefficients": _scalar_table(L),
        "polygon_vertices": [list(v) for v in vertices],
        "polygon_ok": vertices == log_polygon_vertices(g.prime, g.x_prec),
    }

    def text():
        lines = [f"log coefficients (p={g.prime}):"]
        lines += [f"  x^{i:<3} = {c!r}" for (i,), c in sorted(L.coeffs.items())]
        lines.append(f"polygon vertices: {payload['polygon_vertices']}")
        lines.append(f"polygon ok: {payload['polygon_ok']}")
        return "\n".join(lines)

    return payload, {"text": text}


def _group(g, cfg):
    G = group_from_log(logarithm_recurrence(g))
    G.certify(M2)
    payload = {
        "p": g.prime,
        "construction": G.construction,
        "min_coeff_valuation": G.min_coeff_valuation(),
        "certificates": G.certificates,
        "coefficients": _scalar_table(G),
    }

    def text():
        lines = [f"formal group law (p={g.prime}), min valuation {payload['min_coeff_valuation']}:"]
        lines += [f"  x^{a} y^{b} = {c!r}" for (a, b), c in sorted(G.coeffs.items()) if not c.is_zero_like()]
        lines.append(f"certificates: {G.certificates}")
        return "\n".join(lines)

    return payload, {"text": text}


def _frobenius(g, cfg):
    p = g.prime
    pi, bk = frobenius_multiplier(logarithm_recurrence(g), g)
    digits = [pi.u // p**k % p for k in range(pi.N - pi.v)]
    payload = {
        "p": p,
        "pi": pi.to_json(),
        "pi_residue": str(pi.as_fraction()),
        "unit_digits": digits,
        "congruent_xp_mod_p": True,
        "bracket": _scalar_table(bk),
    }
    return payload, {"text": lambda: f"pi = {pi!r} (unit digits {digits}); bracket congruent to x^{p} mod {p}"}


# name: (help, formats, computation)
SERIES_COMMANDS = {
    "polygon": ("Newton polygon of a series", ["json", "text", "svg"], _polygon),
    "log": ("power-series logarithm with precision ledger", ["json", "text"], _log),
    "group": ("formal group law from the logarithm", ["json", "text"], _group),
    "frobenius": ("Frobenius multiplier and its bracket", ["json", "text"], _frobenius),
}


def _subparser(sub, name, title, flags, handler):
    """A subcommand with the shared flags and those of ``flags``."""
    sp = sub.add_parser(name, help=title)
    sp.set_defaults(handler=handler)
    for flag, options in FLAGS.items():
        if flag in SHARED_FLAGS or flag in flags:
            sp.add_argument(flag, **options)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lubinlab",
        description="p-adic dynamics: Newton polygons, series logarithms, "
        "Lubin-Tate formal groups, commuting-pair certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (title, formats, _) in SERIES_COMMANDS.items():
        sp = _subparser(sub, name, title, ("--p",), cmd_series)
        sp.add_argument("--series", required=True, help='inline series "c1,c2,...@k"')
        sp.add_argument("--format", choices=formats, default="json")

    sp = _subparser(sub, "analyze", "certify one commuting pair", ("--p",), cmd_analyze)
    sp.add_argument("--fixture", help="JSON fixture file")
    sp.add_argument("--name", help="entry to pick when the file holds several")
    sp.add_argument("--f", dest="f_inline", help="inline f (requires --p and --u)")
    sp.add_argument("--u", dest="u_inline", help="inline u")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = _subparser(sub, "batch", "certify every fixture in a file", (), cmd_batch)
    sp.add_argument("--fixture", required=True, help="JSON fixture file (array)")
    sp.add_argument("--format", choices=["json", "text"], default="text")
    return ap


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args) -> Config:
    return Config(**{f.name: getattr(args, f.name) for f in fields(Config) if hasattr(args, f.name)})


def cmd_series(args) -> int:
    """polygon, log, group and frobenius: one inline series in, one report out."""
    cfg = _config(args)
    if args.p is None:
        raise LubinlabError("--p is required with an inline series")
    g = parse_series_arg(args.series, args.p, cfg.M, cfg.resolve(args.p).working_prec())
    payload, bodies = SERIES_COMMANDS[args.command][2](g, cfg)
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(bodies[args.format]() + "\n", args.out)
    return 0


def cmd_analyze(args) -> int:
    cfg = _config(args)
    inline = [flag for flag, value in (("--p", args.p), ("--f", args.f_inline), ("--u", args.u_inline)) if value is not None]
    if args.fixture:
        if inline:
            raise LubinlabError(f"--fixture takes its pair from the file, not from {', '.join(inline)}")
        entries = load_fixtures(args.fixture)
        if args.name is not None:
            entries = [e for e in entries if isinstance(e, dict) and e.get("name") == args.name]
            if not entries:
                raise LubinlabError(f"no fixture named {args.name!r}")
            if len(entries) > 1:
                raise LubinlabError(f"{len(entries)} entries are named {args.name!r}")
        elif not entries:
            raise LubinlabError("fixture file holds no entries")
        elif len(entries) > 1:
            raise LubinlabError("fixture file holds several entries; pick one with --name")
        report = analyze_fixture(entries[0], cfg)
    else:
        if args.name is not None:
            raise LubinlabError("--name picks an entry of --fixture, which is not given")
        if args.p is None or not (args.f_inline and args.u_inline):
            raise LubinlabError("need --fixture, or --p with --f and --u")
        entry = {"name": "inline", "p": args.p, "f": args.f_inline, "u": args.u_inline}
        report = analyze_fixture(entry, cfg)
    if args.format == "text":
        _emit(summary_table([report]), args.out)
    else:
        _emit(report.to_json(), args.out)
    return {CERTIFIED: 0, REJECTED: 1, INCONCLUSIVE: 2}[report.verdict]


def cmd_batch(args) -> int:
    cfg = _config(args)
    entries = load_fixtures(args.fixture)
    reports = batch_run(entries, cfg)
    if args.format == "json":
        body = json.dumps([r.data for r in reports], sort_keys=True, indent=2) + "\n"
    else:
        body = summary_table(reports)
    _emit(body, args.out)
    verdicts = [r.verdict for r in reports]
    if REJECTED in verdicts:
        return 1
    if INCONCLUSIVE in verdicts:
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (LubinlabError, ValueError, OSError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
