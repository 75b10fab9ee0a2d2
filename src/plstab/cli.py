"""Command-line front end.

Exit codes: 0 success (certify: Trivial), 2 certify Obstructed,
3 certify HypothesisFailed, 64 usage error, 65 data error.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .circle import (CircleLift, detect_rational_rotation, format_circle_lift,
                     parse_circle_lift, rotation_enclosure)
from .complexes import euler_characteristic, format_complex, parse_complex, parse_surface
from .errors import ParseError, PLError
from .fixedlocus import fixed_subcomplex
from .geometry import TokenTable, fmt, fmt_hom, records
from .interval import PLMap1D, format_plmap1d, parse_plmap1d
from .overlay import overlay
from .plmap import PLMap, format_plmap, parse_plmap
from .presentation import abelianization, parse_presentation
from .stability import ActionSpec, analyze_action, certify_trivial
from .tangent import build_germ, format_germ

SCHEMA_VERSION = 1

EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def jsonable(x):
    if isinstance(x, Fraction):
        return fmt(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return {k: jsonable(getattr(x, k)) for k in x.__dataclass_fields__}
    return x


def _header(text: str):
    """Tokens of the first line that is not blank or a comment, or []."""
    return next((tok for _, tok, _ in records(text)), [])


class _Request:
    """The files one request has read: each base complex, by path, and the
    one `TokenTable` that every file of the request converts its
    coordinates through.  It lives as long as the request."""

    __slots__ = ("bases", "tokens")

    def __init__(self):
        self.bases, self.tokens = {}, TokenTable()


def _read_complex(path: str, tokens: TokenTable):
    """The complex in the `.cx` file at ``path``, its coordinates converted
    through the request's token table."""
    with open(path) as fh:
        return parse_complex(fh.read(), tokens=tokens)


def load_map(path: str, request=None):
    """Read a map file; returns (a `PLMap1D`, `CircleLift` or `PLMap`,
    the file name of its `base <file>` header or None).

    ``request`` holds what the request has read so far, so that maps
    naming one base file share one validated base, and the base and every
    map file share one token table."""
    with open(path) as fh:
        text = fh.read()
    tok = _header(text)
    header = tok[0] if tok else None
    if header == "interval":
        return parse_plmap1d(text), None
    if header == "circle":
        return parse_circle_lift(text), None
    if header == "base":
        if len(tok) < 2:
            raise ParseError("bad base header %r" % " ".join(tok))
        base_path = os.path.join(os.path.dirname(os.path.abspath(path)), tok[1])
        request = _Request() if request is None else request
        if base_path not in request.bases:
            request.bases[base_path] = _read_complex(base_path, request.tokens)
        return parse_plmap(text, request.bases[base_path], request.tokens), tok[1]
    raise PLError("cannot determine map kind of %s" % path)


def load_action(dirpath: str, presentation_path=None):
    """Directory convention: base.cx plus one map file per generator
    (.pm for complex maps, .map for interval or circle maps), generator
    name = file stem, sorted by name; presentation.txt if present, or the
    file at `presentation_path` in its place.  All of one kind and domain."""
    if not os.path.isdir(dirpath):
        raise PLError("action directory %s not found" % dirpath)
    names = sorted(os.listdir(dirpath))
    gens = []
    request = _Request()
    for n in names:
        if n.endswith(".pm") or n.endswith(".map"):
            m, _ = load_map(os.path.join(dirpath, n), request)
            gens.append((n.rsplit(".", 1)[0], m))
    if not gens:
        raise PLError("no generator files in %s" % dirpath)
    presentation = None
    ppath = presentation_path or os.path.join(dirpath, "presentation.txt")
    if presentation_path or os.path.exists(ppath):
        with open(ppath) as fh:
            presentation = parse_presentation(fh.read())
    return ActionSpec(gens, presentation=presentation)


def _print(out, s):
    out.write(s if s.endswith("\n") else s + "\n")


def _emit(args, out, command, report_text, report_obj):
    if args.json:
        _print(out, json.dumps({"schema_version": SCHEMA_VERSION,
                                "command": command,
                                "report": jsonable(report_obj)},
                               indent=2, sort_keys=True))
    else:
        _print(out, report_text)


def cmd_eval(args, out):
    m, _ = load_map(args.map)
    dim = m.base.ambient_dim if isinstance(m, PLMap) else 1
    if len(args.point) != dim:
        raise UsageError("the map's domain takes %d coordinate(s), not %d"
                         % (dim, len(args.point)))
    if isinstance(m, PLMap):
        p = m.eval(args.point)
        text, obj = " ".join(fmt(x) for x in p), list(p)
    else:
        y = m.eval(args.point[0])
        text, obj = fmt(y), y
    _emit(args, out, "eval", text, obj)


def _format_kind(m, base_name=None):
    if isinstance(m, PLMap1D):
        return format_plmap1d(m)
    if isinstance(m, CircleLift):
        return format_circle_lift(m)
    return format_plmap(m, base_name)


def cmd_compose(args, out):
    if len(args.map) < 2:
        raise UsageError("compose needs at least two --map files")
    request = _Request()
    loaded = [load_map(p, request) for p in args.map]
    if len({type(g) for g, _ in loaded}) != 1:
        raise UsageError("cannot compose maps of different kinds")
    # f1 f2 ... fn composes to f1 o f2 o ... o fn (rightmost applied first)
    m = loaded[-1][0]
    for g, _ in reversed(loaded[:-1]):
        m = g.compose(m)
    _print(out, _format_kind(m, loaded[0][1]))


def cmd_invert(args, out):
    m, base_name = load_map(args.map)
    _print(out, _format_kind(m.inverse(), base_name))


def cmd_fixset(args, out):
    m, _ = load_map(args.map)
    if not isinstance(m, PLMap):
        raise UsageError("fixset needs a complex-based map")
    fl = fixed_subcomplex(m)
    maximal = fl.cells.maximal()
    used = sorted({v for s in maximal for v in s})
    reindex = {v: i for i, v in enumerate(used)}
    lines = ["v %d %s" % (reindex[v], fmt_hom(fl.refined.hom_points()[v])) for v in used]
    lines += ["s %s" % " ".join([str(reindex[v]) for v in s]) for s in maximal]
    lines = lines or ["# empty fixed set"]
    sidecar = ["cell %s from %d" % (" ".join(map(str, s)), i)
               for s, i in sorted(fl.provenance.items())]
    # the sidecar is written first, so a file error leaves stdout empty
    if args.sidecar:
        with open(args.sidecar, "w") as fh:
            fh.write("\n".join(sidecar) + "\n")
    else:
        lines += ["# " + line for line in sidecar]
    _print(out, "\n".join(lines))


def cmd_rotno(args, out):
    m, _ = load_map(args.map)
    if not isinstance(m, CircleLift):
        raise UsageError("rotno needs a circle map")
    rational, outcome = detect_rational_rotation(m, args.qmax)
    if rational is not None:
        v = rational.value
        text = "[%s, %s]" % (fmt(v), fmt(v))
        obj = {"enclosure": [v, v], "rational": [rational.p, rational.q],
               "outcome": outcome}
    else:
        enc = rotation_enclosure(m, args.n)
        text = "[%s, %s]" % (fmt(enc.lo), fmt(enc.hi))
        obj = {"enclosure": [enc.lo, enc.hi], "rational": None,
               "outcome": outcome}
    _emit(args, out, "rotno", text, obj)


def cmd_euler(args, out):
    """A `.cx` complex, or a surface, told apart by the header as
    `load_map` tells map kinds apart."""
    with open(args.complex) as fh:
        text = fh.read()
    c = parse_surface(text) if _header(text)[:1] == ["surface"] else parse_complex(text)
    chi = euler_characteristic(c)
    _emit(args, out, "euler", str(chi), chi)


def cmd_tangent(args, out):
    m, _ = load_map(args.map)
    if not isinstance(m, PLMap) or m.base.dim != 2:
        raise UsageError("tangent needs a 2-dimensional complex-based map")
    g = build_germ(m, args.vertex)
    _print(out, format_germ(g))


def cmd_abelianize(args, out):
    with open(args.presentation) as fh:
        p = parse_presentation(fh.read())
    rep = abelianization(p)
    text = " ".join(str(f) for f in rep.invariant_factors)
    _emit(args, out, "abelianize",
          text if text else "(trivial)",
          {"invariant_factors": rep.invariant_factors,
           "free_rank": rep.free_rank})


def cmd_overlay(args, out):
    if len(args.complex) != 2:
        raise UsageError("overlay needs exactly two --complex files")
    tokens = TokenTable()
    cs = [_read_complex(p, tokens) for p in args.complex]
    ov = overlay(cs[0], cs[1])
    _print(out, format_complex(ov.cells).rstrip("\n"))
    for s in ov.cells.simplices:
        i1, i2 = ov.provenance[s]
        _print(out, "# cell %s from %d %d" % (" ".join(str(v) for v in s), i1, i2))


def cmd_certify(args, out):
    action = load_action(args.action, args.presentation)
    cert = certify_trivial(action, args.vertex)
    text_lines = ["status: %s" % cert.status, "stage: %s" % cert.stage,
                  "verified_stars: %s" % " ".join(str(v) for v in cert.verified_stars)]
    if cert.witness is not None:
        text_lines.append("witness: %s" % json.dumps(jsonable(cert.witness),
                                                     sort_keys=True))
    for a in cert.assumptions:
        text_lines.append("assumption: %s" % a)
    _emit(args, out, "certify", "\n".join(text_lines), cert)
    return {"Trivial": 0, "Obstructed": 2, "HypothesisFailed": 3}[cert.status]


def _render_report(report):
    lines = []
    for name in report:
        lines.append("generator %s" % name)
        for k, v in report[name].items():
            lines.append("  %s: %s" % (k, json.dumps(jsonable(v), sort_keys=True)))
    return "\n".join(lines)


def cmd_analyze(args, out):
    action = load_action(args.action)
    report = analyze_action(action, kmax=args.kmax, n=args.n, qmax=args.qmax)
    _emit(args, out, "analyze", _render_report(report), report)


def build_parser():
    ap = _Parser(prog="plstab", description="exact PL action toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        # only the commands that report through `_emit` have a JSON form
        if name in ("eval", "rotno", "euler", "abelianize", "certify", "analyze"):
            p.add_argument("--json", action="store_true")
        return p

    p = add("eval", cmd_eval, help="evaluate a map at a point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", nargs="+", required=True)

    p = add("compose", cmd_compose, help="compose maps (rightmost applied first)")
    p.add_argument("--map", action="append", required=True)

    p = add("invert", cmd_invert, help="invert a map")
    p.add_argument("--map", required=True)

    p = add("fixset", cmd_fixset, help="fixed-point subcomplex of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--sidecar")

    p = add("rotno", cmd_rotno, help="rotation number enclosure / detection")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--qmax", type=int, default=64)

    p = add("euler", cmd_euler, help="Euler characteristic of a complex or a surface")
    p.add_argument("--complex", required=True)

    p = add("tangent", cmd_tangent, help="tangent-sphere germ at a vertex")
    p.add_argument("--map", required=True)
    p.add_argument("--vertex", type=int, required=True)

    p = add("certify", cmd_certify, help="triviality certificate for an action")
    p.add_argument("--action", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--presentation")

    p = add("abelianize", cmd_abelianize, help="invariant factors of H1")
    p.add_argument("--presentation", required=True)

    p = add("overlay", cmd_overlay, help="common refinement of two complexes")
    p.add_argument("--complex", action="append", required=True)

    p = add("analyze", cmd_analyze, help="per-generator fixed-locus report")
    p.add_argument("--action", required=True)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--qmax", type=int, default=64)
    return ap


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
        for opt in ("n", "kmax", "qmax"):
            if getattr(args, opt, 1) < 1:
                raise UsageError("--%s must be positive" % opt)
        code = args.fn(args, out)
        return 0 if code is None else code
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (PLError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
