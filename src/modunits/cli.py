"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical identity failed,
2 usage or input error.  Rationals are written "a/b", complex numbers "x+yi".
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers read it as True
if TYPE_CHECKING:
    from .qseries import PuiseuxSeries

# Each command imports the engine layers it uses, inside its cmd_ function, so a short process
# compiles and loads no other module: expand of eta, theta2-4, g2, g3, delta or j loads
# classical, qseries and cycloq alone, cusps, divisor and rank load cusps and cycloq alone, and
# no command but verify loads verify.  theta and verify still load the whole exact engine,
# because bench/tracer.py patches the names that thetag and verify import from units and
# qseries at module level.  numpy is imported only by theta commands above thetag.SMALL_G.

# The lattice sum grows like R^g, so genera above this are refused before any work.
MAX_THETA_GENUS = 8
# Levels are refused above these before any work.  X(N) has about 0.3 N^2 cusps:
# `cusps` or `divisor` at 500 takes about 1 s and 100 MiB.  The rank's elimination
# grows much faster: N = 17, the slowest level up to 18, takes about 2 s, and 23 takes 30 s.
MAX_CUSP_LEVEL = 500
MAX_RANK_LEVEL = 18
# Truncations (|--trunc|), h1N/hN levels, the level of expand's index vectors (the lcm of their
# denominators) and --samples are refused above these.  At trunc 1000 on a 2-vCPU VM the slowest
# commands are expand wunit at level 5 (25-27 s, most of it in big-int products; 3 s at level 6),
# h1N at N = 31 (8-10 s) and expand siegel at level 6 (1 s); verify g14-eta takes 0.2-0.3 s,
# and phi-siegel about 7 ms a sample.
# Past the index cap, wunit at level 11 took 391 s and siegel 1/12 1/11 (level 132) 14.5 s.
MAX_TRUNC = 1000
MAX_UNIT_LEVEL = 36
MAX_INDEX_LEVEL = 6
MAX_SAMPLES = 2000


class UsageError(ValueError):
    pass


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {text.strip()!r}: {exc}") from exc


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    if t.endswith("i"):  # only the unit: "inf" and "nan" keep theirs
        t = t[:-1] + "j"
    if t.endswith("j") and t[:-1] in ("", "+", "-"):
        t = t[:-1] + "1j"
    try:
        return complex(t)
    except ValueError as exc:
        raise UsageError(f"malformed complex number {text!r}: {exc}") from exc


def parse_tol(text: str) -> float:
    """A tolerance: a finite number above 0 (NaN, infinity and 0 are usage errors)."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return tol


def in_range(low, high, kind=int):
    """An argparse type: an int (or another kind, as Fraction) in low..high, so that other
    values fail before any work."""

    def parse(text: str):
        try:
            x = kind(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"malformed value {text.strip()!r}") from exc
        if not low <= x <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {text.strip()!r}")
        return x

    return parse


class IndexParams(argparse.Action):
    """expand's parameters as rationals.  Index vectors of level (the lcm of the denominators)
    above MAX_INDEX_LEVEL fail here, before any work."""

    def __call__(self, parser, namespace, values, option_string=None):
        level = math.lcm(*(x.denominator for x in values))
        if level > MAX_INDEX_LEVEL:
            parser.error(f"the lcm of the parameters' denominators must be in 1..{MAX_INDEX_LEVEL}, got {level}")
        setattr(namespace, self.dest, values)


def format_series(series: PuiseuxSeries, fmt: str) -> str:
    if fmt == "json":
        return series.to_json()
    lines = [f"(2 pi i)^{series.two_pi_i_power} * (  # truncated at q^{series.trunc}"]
    for e in series.exponents():
        c = series.coefficient(e)
        if c.is_rational():
            coeff = str(c.rational_value())
        else:
            coeff = f"[order {c.order}] " + " + ".join(
                f"({x})*z^{i}" for i, x in enumerate(c.coeffs) if x
            )
        lines.append(f"  q^{str(e):>8}  {coeff}")
    lines.append(")")
    return "\n".join(lines)


def cmd_expand(args) -> int:
    from . import classical

    trunc = args.trunc
    name = args.name
    params = args.params
    builders = {
        "eta": lambda: classical.eta(trunc),
        "theta2": lambda: classical.theta_classical(2, trunc),
        "theta3": lambda: classical.theta_classical(3, trunc),
        "theta4": lambda: classical.theta_classical(4, trunc),
        "g2": lambda: classical.eisenstein("g2", trunc),
        "g3": lambda: classical.eisenstein("g3", trunc),
        "delta": lambda: classical.discriminant(trunc),
        "j": lambda: classical.j_function(trunc),
    }
    if name not in builders:  # the units layer, which the names above do not load
        from . import units

        builders.update(klein=lambda: units.klein_form_0_half(trunc), g14=lambda: units.g14(trunc))
    if name in builders:
        if params:
            raise UsageError(f"{name!r} takes no positional parameters")
        series = builders[name]()
    elif name in ("siegel", "wp"):
        if len(params) != 2:
            raise UsageError(f"{name!r} needs two rational parameters r s")
        v = units.FracVector(*params)
        series = units.siegel_function(v, trunc) if name == "siegel" else units.wp_expansion(v, trunc)
    elif name == "wunit":
        if len(params) != 8:
            raise UsageError("'wunit' needs eight rationals: r1 s1 r1' s1' r2 s2 r2' s2'")
        series = units.weierstrass_unit(*(units.FracVector(*params[i : i + 2]) for i in range(0, 8, 2)), trunc)
    elif name in ("h1N", "hN"):
        if len(params) != 1:
            raise UsageError(f"{name!r} needs a level parameter N")
        N = params[0]
        if N.denominator != 1 or not 2 <= N <= MAX_UNIT_LEVEL:
            raise UsageError(f"{name!r} needs a level N in 2..{MAX_UNIT_LEVEL}, got {N}")
        series = (units.h1N if name == "h1N" else units.hN)(int(N), trunc)
    else:
        raise UsageError(f"unknown expansion name {name!r}")
    if series.is_zero():  # a truncation at or below the leading exponent, as verify refuses it
        raise ValueError(f"no coefficient below trunc={series.trunc}")
    print(format_series(series, args.format))
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.identity not in verify.IDENTITY_RUNNERS:
        raise UsageError(f"unknown identity {args.identity!r}")
    check, takes = verify.IDENTITY_RUNNERS[args.identity]
    given = {k: getattr(args, k) for k in ("trunc", "tol", "N", "samples", "seed")}
    options = {k: v for k, v in given.items() if v is not None}
    ignored = [f"--{k}" for k in options if k not in takes]
    if ignored:
        allowed = ", ".join(f"--{k}" for k in takes) or "no options"
        raise UsageError(f"{args.identity!r} does not take {', '.join(ignored)} (it takes {allowed})")
    report = check(**options)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        status = "pass" if report.passed else "FAIL"
        extra = f" ({report.witness})" if report.witness else ""
        print(f"{report.identity} [{report.parameter}]: {status}{extra} in {report.wall_ms:.1f} ms")
    return 0 if report.passed else 1


def cmd_cusps(args) -> int:
    from . import cusps

    classes = cusps.enumerate_cusps(args.N)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "level": args.N,
                    "count": cusps.cusp_count(args.N),
                    "cusps": [{"a": c.a, "c": c.c} for c in classes],
                }
            )
        )
    else:
        print(f"X({args.N}) has {cusps.cusp_count(args.N)} cusps:")
        for c in classes:
            print(f"  {c}")
    return 0


def cmd_divisor(args) -> int:
    from . import cusps

    r, s = parse_rational(args.r), parse_rational(args.s)
    div = cusps.divisor_of_siegel_power((r, s), args.N)
    text = {m: str(Fraction(m, args.N)) for m in set(div.orders)}  # a row holds at most N distinct orders
    orders = [(c, text[m]) for c, m in zip(cusps.enumerate_cusps(args.N), div.orders)]
    if args.format == "json":
        entries = [{"cusp": {"a": c.a, "c": c.c}, "order": m} for c, m in orders]
        payload = {"level": args.N, "index": [str(r), str(s)], "entries": entries, "degree": str(div.degree())}
        print(json.dumps(payload))
    else:
        print(f"divisor of g_[{r};{s}]^(12*{args.N}) on X({args.N}):")
        for c, m in orders:
            print(f"  {str(c):>10}  {m}")
        print(f"  degree: {div.degree()}")
    return 0


def cmd_rank(args) -> int:
    from . import cusps

    rank = cusps.unit_group_rank(args.N)
    expected = cusps.cusp_count(args.N) - 1
    if args.format == "json":
        print(json.dumps({"level": args.N, "rank": rank, "cusp_count_minus_1": expected}))
    else:
        print(f"divisor-matrix rank at level {args.N}: {rank} (n - 1 = {expected})")
    return 0 if rank == expected else 1


def _parse_char(text: str, g: int):
    from . import thetag

    try:
        r_part, s_part = text.split(":")
        r = [parse_rational(x) for x in r_part.split(",")]
        s = [parse_rational(x) for x in s_part.split(",")]
    except ValueError as exc:
        raise UsageError(f"malformed characteristic {text!r}: expected r1,..,rg:s1,..,sg") from exc
    if len(r) != g or len(s) != g:
        raise UsageError(f"characteristic length does not match --g {g}")
    return thetag.ThetaChar(r, s)


def _parse_point(text: str, g: int):
    from . import thetag

    entries = [parse_complex(x) for x in text.replace(";", ",").split(",")]
    if len(entries) == g:
        return thetag.SiegelPoint.diagonal(entries)
    if len(entries) == g * g:
        return thetag.SiegelPoint([entries[i * g : (i + 1) * g] for i in range(g)])
    raise UsageError(f"--point needs {g} diagonal entries or {g * g} matrix entries")


def cmd_theta(args) -> int:
    from . import thetag

    ch = _parse_char(args.char, args.g)
    point = _parse_point(args.point, args.g)
    radius = thetag.truncation_radius(point, args.tol)
    value = thetag.theta_constant(ch, point, tol=args.tol, radius=radius)
    # One unit past R: the skipped shell holds the largest terms the bound leaves out.
    check = thetag.theta_constant(ch, point, tol=args.tol, radius=radius + 1)
    payload = {
        "value_re": value.real,
        "value_im": value.imag,
        "radius": radius,
        "residuals": {"two_radius": abs(value - check)},
    }
    print(json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modunits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the q-expansion of a named function")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=in_range(-math.inf, math.inf, Fraction), action=IndexParams)
    p.add_argument("--trunc", type=in_range(-MAX_TRUNC, MAX_TRUNC, Fraction), default="50")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="check a named identity")
    p.add_argument("identity")
    p.add_argument("--trunc", type=in_range(-MAX_TRUNC, MAX_TRUNC, Fraction), default=None)
    p.add_argument("--tol", type=parse_tol, default=None)
    p.add_argument("--N", type=in_range(2, MAX_RANK_LEVEL), default=None)
    p.add_argument("--samples", type=in_range(1, MAX_SAMPLES), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cusps", help="list cusp classes of X(N)")
    p.add_argument("N", type=in_range(2, MAX_CUSP_LEVEL))
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("divisor", help="divisor of a 12N-th Siegel power")
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("N", type=in_range(2, MAX_CUSP_LEVEL))
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("rank", help="exact rank of the Siegel-power divisor matrix")
    p.add_argument("N", type=in_range(2, MAX_RANK_LEVEL))
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("theta", help="numerically evaluate a degree-g theta constant")
    p.add_argument("--g", type=in_range(1, MAX_THETA_GENUS), required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=parse_tol, default=1e-10)
    p.set_defaults(func=cmd_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Bind "--point VALUE" as "--point=VALUE", so values like -0.3+1i, -1/2:0 or -3/2 are not read as options.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--point", "--char", "--trunc"):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    # argparse reads "-1/2" as an option, as it takes only -1 and -0.5 for negative numbers.  Where
    # the parameters are rationals, a leading space marks such a token as a value (Fraction strips
    # it), and a "--" has nothing left to protect, so it is dropped.
    if argv[:1] == ["divisor"] or (argv[:1] == ["expand"] and not {"siegel", "wp", "wunit"}.isdisjoint(argv)):
        argv = [f" {t}" if t[:1] == "-" and t[1:2].isdigit() and "/" in t else t for t in argv if t != "--"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
