"""Command-line front door.

Subcommands: polygon, log, group, frobenius, analyze, batch.  Exit code 0
on success/CERTIFIED, 1 on REJECTED, 2 on INCONCLUSIVE or input errors.
Inline series syntax: "c1,c2,...@k" means sum_i c_i x^(k+i-1) with integer
or a/b coefficients (shift defaults to 1).
"""

import argparse
import json
import sys

from .analyzer import (
    CERTIFIED,
    Config,
    INCONCLUSIVE,
    REJECTED,
    analyze_fixture,
    batch_run,
    load_fixtures,
    parse_series_arg,
    summary_table,
)
from .dynamics import log_polygon_vertices, logarithm_recurrence
from .errors import LubinlabError
from .formalgroup import exp_from_log, frobenius_multiplier, group_from_log
from .polygon import newton_polygon


def _add_config_flags(sp):
    sp.add_argument("--p", type=int, help="prime of the coefficient ring")
    sp.add_argument("--N", type=int, default=16, help="target p-adic digits (>= 4)")
    sp.add_argument("--M", type=int, default=64, help="x-adic truncation order (>= p^2)")
    sp.add_argument("--M2", type=int, default=12, help="truncation for the associativity certificate and the lift")
    sp.add_argument("--guard", type=int, default=None, help="extra digits carried through exp/reversion (>= ceil(M/(p-1)))")
    sp.add_argument("--n-shape", type=int, default=None, help="iterate polygon checks up to this n")
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lubinlab",
        description="p-adic dynamics: Newton polygons, series logarithms, "
        "Lubin-Tate formal groups, commuting-pair certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polygon", help="Newton polygon of a series")
    _add_config_flags(sp)
    sp.add_argument("--series", required=True, help='inline series "c1,c2,...@k"')
    sp.add_argument("--format", choices=["json", "text", "svg"], default="json")

    sp = sub.add_parser("log", help="power-series logarithm with precision ledger")
    _add_config_flags(sp)
    sp.add_argument("--series", required=True, help="the noninvertible series f")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("group", help="formal group law from the logarithm")
    _add_config_flags(sp)
    sp.add_argument("--series", required=True, help="the noninvertible series f")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("frobenius", help="Frobenius multiplier and its bracket")
    _add_config_flags(sp)
    sp.add_argument("--series", required=True, help="the noninvertible series f")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("analyze", help="certify one commuting pair")
    _add_config_flags(sp)
    sp.add_argument("--fixture", help="JSON fixture file")
    sp.add_argument("--name", help="entry to pick when the file holds several")
    sp.add_argument("--f", dest="f_inline", help="inline f (requires --p and --u)")
    sp.add_argument("--u", dest="u_inline", help="inline u")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("batch", help="certify every fixture in a file")
    _add_config_flags(sp)
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
    return Config(N=args.N, M=args.M, m2=args.M2, guard=args.guard, n_shape=args.n_shape)


def _series_from_args(args, cfg: Config):
    if args.p is None:
        raise LubinlabError("--p is required with an inline series")
    resolved = cfg.resolve(args.p)
    return parse_series_arg(args.series, args.p, cfg.M, resolved.working_prec())


def _scalar_table(series):
    return [[list(e), c.to_json()] for e, c in sorted(series.coeffs.items())]


def cmd_polygon(args) -> int:
    cfg = _config(args)
    g = _series_from_args(args, cfg)
    poly = newton_polygon(g)
    if args.format == "svg":
        _emit(poly.svg() + "\n", args.out)
    elif args.format == "text":
        body = poly.ascii() + "\n" + json.dumps(poly.to_json()["segments"]) + "\n"
        _emit(body, args.out)
    else:
        _emit(json.dumps(poly.to_json(), sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_log(args) -> int:
    cfg = _config(args)
    g = _series_from_args(args, cfg)
    logf = logarithm_recurrence(g)
    poly = newton_polygon(logf.series)
    p = g.prime
    payload = {
        "p": p,
        "coefficients": _scalar_table(logf.series),
        "polygon_vertices": [list(v) for v in poly.negative_vertices()],
        "polygon_ok": poly.negative_vertices() == log_polygon_vertices(p, g.x_prec),
    }
    if args.format == "text":
        lines = [f"log coefficients (p={p}):"]
        for (i,), c in sorted(logf.series.coeffs.items()):
            lines.append(f"  x^{i:<3} = {c!r}")
        lines.append(f"polygon vertices: {payload['polygon_vertices']}")
        lines.append(f"polygon ok: {payload['polygon_ok']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_group(args) -> int:
    cfg = _config(args)
    g = _series_from_args(args, cfg)
    logf = logarithm_recurrence(g)
    G = group_from_log(logf)
    G.certify(cfg.m2)
    payload = {
        "p": g.prime,
        "construction": G.construction,
        "min_coeff_valuation": G.min_coeff_valuation(),
        "certificates": G.certificates,
        "coefficients": _scalar_table(G.F),
    }
    if args.format == "text":
        lines = [f"formal group law (p={g.prime}), min valuation {payload['min_coeff_valuation']}:"]
        for (a, b), c in sorted(G.F.coeffs.items()):
            if not c.is_zero_like():
                lines.append(f"  x^{a} y^{b} = {c!r}")
        lines.append(f"certificates: {G.certificates}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_frobenius(args) -> int:
    cfg = _config(args)
    g = _series_from_args(args, cfg)
    logf = logarithm_recurrence(g)
    exp_series = exp_from_log(logf)
    pi, bk = frobenius_multiplier(logf, g, exp_series)
    digits = []
    u = pi.u
    for _ in range(pi.N - pi.v):
        digits.append(u % g.prime)
        u //= g.prime
    payload = {
        "p": g.prime,
        "pi": pi.to_json(),
        "pi_residue": str(pi.as_fraction()),
        "unit_digits": digits,
        "congruent_xp_mod_p": True,
        "bracket": _scalar_table(bk),
    }
    if args.format == "text":
        _emit(
            f"pi = {pi!r} (unit digits {digits}); bracket congruent to x^{g.prime} mod {g.prime}\n",
            args.out,
        )
    else:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_analyze(args) -> int:
    cfg = _config(args)
    if args.fixture:
        entries = load_fixtures(args.fixture)
        if args.name is not None:
            entries = [e for e in entries if isinstance(e, dict) and e.get("name") == args.name]
            if not entries:
                raise LubinlabError(f"no fixture named {args.name!r}")
        if len(entries) != 1:
            raise LubinlabError("fixture file holds several entries; pick one with --name")
        report = analyze_fixture(entries[0], cfg)
    else:
        if not (args.p and args.f_inline and args.u_inline):
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
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "polygon": cmd_polygon,
        "log": cmd_log,
        "group": cmd_group,
        "frobenius": cmd_frobenius,
        "analyze": cmd_analyze,
        "batch": cmd_batch,
    }
    try:
        return handlers[args.command](args)
    except (LubinlabError, ValueError, OSError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
