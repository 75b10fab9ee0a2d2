"""The three workloads: request kinds, their seeded instances and the round
each workload repeats.

A request kind writes the files one request needs and returns the argv for
``plstab.cli.main`` with a check for its output.  Instances come from a fixed
catalogue of POOL seeded instances per kind, so the SHA-256 of every
instance's output can be recorded once (``digests.json``); the run seed picks
which instances a run uses and in what order.
"""

import os
import random
from fractions import Fraction as F

import gen
import oracle

POOL = 16
QMAX = 64


class Instance:
    """One request: argv for plstab, an output check, and a known-defect tag
    for requests that fail at the seed commit for a documented reason."""

    def __init__(self, argv, check, known_defect=None):
        self.argv = argv
        self.check = check
        self.known_defect = known_defect


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _grid_files(d, n, maps):
    """Write base.cx and one NAME.pm per (name, images) into directory d."""
    os.makedirs(d, exist_ok=True)
    pts, tris = gen.grid_points(n), gen.grid_triangles(n)
    _write(os.path.join(d, "base.cx"), gen.complex_text(pts, tris))
    for name, images in maps:
        _write(os.path.join(d, name + ".pm"), gen.pm_text(pts, tris, images))


def _fixed_vertices(n, moved):
    return [p for v, p in enumerate(gen.grid_points(n)) if v not in moved]


# -- maps2d ---------------------------------------------------------------------


def compose2d(n):
    def make(rng, d):
        (fi, _), (gi, _) = gen.grid_map(rng, n), gen.grid_map(rng, n)
        _grid_files(d, n, [("f", fi), ("g", gi)])
        f, g = oracle.GridMap(n, fi), oracle.GridMap(n, gi)
        return Instance(["compose", "--map", os.path.join(d, "f.pm"), "--map", os.path.join(d, "g.pm")],
                        _ok(lambda out: oracle.check_compose2d(out, f, g)))
    return make


def invert2d(n):
    def make(rng, d):
        fi, _ = gen.grid_map(rng, n)
        _grid_files(d, n, [("f", fi)])
        f = oracle.GridMap(n, fi)
        return Instance(["invert", "--map", os.path.join(d, "f.pm")],
                        _ok(lambda out: oracle.check_invert2d(out, f)))
    return make


def fixset2d(n):
    def make(rng, d):
        fi, moved = gen.grid_map(rng, n)
        _grid_files(d, n, [("f", fi)])
        f, fixed = oracle.GridMap(n, fi), _fixed_vertices(n, moved)
        return Instance(["fixset", "--map", os.path.join(d, "f.pm")],
                        _ok(lambda out: oracle.check_fixset(out, f, fixed)))
    return make


def eval2d(n):
    def make(rng, d):
        fi, _ = gen.grid_map(rng, n)
        _grid_files(d, n, [("f", fi)])
        x = (F(rng.randrange(1000), 999), F(rng.randrange(1000), 999))
        want = oracle.GridMap(n, fi)(x)
        return Instance(["eval", "--map", os.path.join(d, "f.pm"), "--point", gen.fmt(x[0]), gen.fmt(x[1])],
                        _ok(lambda out: oracle.check_point(out, want)))
    return make


def overlay(splits):
    """Two triangulations of 2 + 2*splits triangles each, by centroid splits
    only, so that every instance costs about the same."""
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        t1, t2 = (gen.random_triangulation(rng, splits, centroid_share=1.0) for _ in range(2))
        _write(os.path.join(d, "a.cx"), gen.complex_text(*t1))
        _write(os.path.join(d, "b.cx"), gen.complex_text(*t2))
        return Instance(["overlay", "--complex", os.path.join(d, "a.cx"), "--complex", os.path.join(d, "b.cx")],
                        _ok(lambda out: oracle.check_overlay(out, t1, t2)))
    return make


def analyze2d(n):
    def make(rng, d):
        maps, must_fix = [], {}
        for name in ("a", "b"):
            images, moved = gen.grid_map(rng, n)
            maps.append((name, images))
            must_fix[name] = (n + 1) ** 2 - len(moved)
        _grid_files(d, n, maps)
        return Instance(["analyze", "--action", d],
                        _ok(lambda out: oracle.check_analyze2d(out, must_fix)))
    return make


# -- certify_actions ----------------------------------------------------------


def certify(verdict, n, ngens, as_json):
    """An action whose certificate is known by construction.

    verdict is one of Trivial, H1Gate, FixedPointGate, TangentGate,
    Propagation; it decides which vertices the generators may move.
    """
    def make(rng, d):
        names = ["g%d" % k for k in range(ngens)]
        inner = gen.interior_vertices(n)
        v = rng.randrange((n + 1) ** 2)
        if verdict == "FixedPointGate":
            v = rng.choice(inner)
        elif verdict == "TangentGate":
            v = rng.choice([w for w in range((n + 1) ** 2)
                            if set(gen.grid_neighbours(n, w)) & set(inner)])
        near = set(gen.grid_neighbours(n, v)) | {v}
        maps, moved = {}, {}
        for k, name in enumerate(names):
            if verdict == "Trivial":
                images, mv = gen.grid_points(n), set()
            elif verdict == "FixedPointGate" and k == ngens - 1:
                images, mv = gen.grid_map(rng, n)
                mv.add(v)
                images = gen.move_vertices(rng, n, mv)
            elif verdict == "TangentGate" and k == ngens - 1:
                mv = {rng.choice([w for w in gen.grid_neighbours(n, v) if w in inner])}
                images = gen.move_vertices(rng, n, mv)
            elif verdict in ("TangentGate", "Propagation"):
                images, mv = gen.grid_map(rng, n, avoid=near if verdict == "Propagation" else {v})
            else:
                images, mv = gen.grid_map(rng, n)
            maps[name], moved[name] = images, mv
        _grid_files(d, n, sorted(maps.items()))
        free_rank = 0
        if verdict == "H1Gate":
            free_rank = rng.randint(1, ngens)
            rels = ["rel %s^%d" % (names[k], k + 2) for k in range(free_rank, ngens)]
            _write(os.path.join(d, "presentation.txt"), "gens %s\n%s\n" % (" ".join(names), "\n".join(rels)))
        elif rng.random() < 0.5:
            rels = ["rel %s^%d" % (name, rng.randint(2, 5)) for name in names]
            _write(os.path.join(d, "presentation.txt"), "gens %s\n%s\n" % (" ".join(names), "\n".join(rels)))
        status = {"Trivial": "Trivial", "H1Gate": "HypothesisFailed"}.get(verdict, "Obstructed")
        stage = "Propagation" if verdict == "Trivial" else verdict
        expect = {"verdict": (status, stage), "n": n, "vertex": v, "free_rank": free_rank,
                  "maps": {k: oracle.GridMap(n, im) for k, im in maps.items()}, "moved": moved}
        argv = ["certify", "--action", d, "--vertex", str(v)] + (["--json"] if as_json else [])
        return Instance(argv, lambda code, out: oracle.check_certify(out, code, expect, as_json))
    return make


def tangent(n):
    def make(rng, d):
        v = rng.randrange((n + 1) ** 2)
        images, _ = gen.grid_map(rng, n, avoid={v})
        _grid_files(d, n, [("f", images)])
        f = oracle.GridMap(n, images)
        return Instance(["tangent", "--map", os.path.join(d, "f.pm"), "--vertex", str(v)],
                        _ok(lambda out: oracle.check_tangent(out, f, n, v)))
    return make


MALFORMED = ("bare-img", "truncated", "bad-rational", "degenerate")


def malformed(how, n):
    """A certify request whose action holds one broken map file; the CLI
    contract says exit 65 with nothing on stdout."""
    def make(rng, d):
        names = ("g0", "g1")
        maps = [(name, gen.grid_map(rng, n)[0]) for name in names]
        _grid_files(d, n, maps)
        path = os.path.join(d, names[1] + ".pm")
        with open(path) as fh:
            lines = fh.read().splitlines()
        imgs = [k for k, ln in enumerate(lines) if ln.startswith("img ")]
        k = rng.choice(imgs)
        if how == "bare-img":
            lines.insert(k, "img")
        elif how == "truncated":
            lines = lines[:k]
        elif how == "bad-rational":
            lines[k] = lines[k].rsplit(" ", 1)[0] + " 1/0"
        else:
            # give interior vertex w the image of its right-hand neighbour
            w = rng.choice(gen.interior_vertices(n))
            lines[imgs[w]] = "img %d %s" % (w, lines[imgs[w + 1]].split(" ", 2)[2])
        _write(path, "\n".join(lines) + "\n")
        return Instance(["certify", "--action", d, "--vertex", "0"], _data_error,
                        known_defect="bare img line raises IndexError in parse_plmap" if how == "bare-img" else None)
    return make


def _data_error(code, out):
    if code != 65 or out:
        raise oracle.Bad("malformed input gave exit %s and %d bytes of output" % (code, len(out)))


# -- circle1d -------------------------------------------------------------------


def rotno(qlo, qhi, kinks):
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        q = rng.randint(qlo, qhi)
        p = gen.coprime_p(rng, q)
        bps, _ = gen.circle_lift(rng, p, q, kinks)
        _write(os.path.join(d, "f.map"), gen.circle_text(bps))
        return Instance(["rotno", "--map", os.path.join(d, "f.map"), "--qmax", str(QMAX)],
                        _ok(lambda out: oracle.check_rotno(out, p, q, QMAX)))
    return make


def analyze_circle(qhi):
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        gens = {}
        for name in ("a", "b"):
            q = rng.randint(2, qhi)
            p = gen.coprime_p(rng, q)
            bps, orbit = gen.circle_lift(rng, p, q, kinks=2)
            _write(os.path.join(d, name + ".map"), gen.circle_text(bps))
            gens[name] = (p, q, orbit)
        return Instance(["analyze", "--action", d],
                        _ok(lambda out: oracle.check_analyze_circle(out, gens)))
    return make


def compose1d(lo, hi):
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        chain = [gen.interval_map(rng, rng.randint(lo, hi)) for _ in range(3)]
        argv = ["compose"]
        for k, bps in enumerate(chain):
            _write(os.path.join(d, "m%d.map" % k), gen.interval_text(bps))
            argv += ["--map", os.path.join(d, "m%d.map" % k)]
        maps = [oracle.PL1D(bps) for bps in chain]
        return Instance(argv, _ok(lambda out: oracle.check_compose1d(out, maps)))
    return make


def invert1d(lo, hi):
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        bps = gen.interval_map(rng, rng.randint(lo, hi))
        _write(os.path.join(d, "f.map"), gen.interval_text(bps))
        f = oracle.PL1D(bps)
        return Instance(["invert", "--map", os.path.join(d, "f.map")],
                        _ok(lambda out: oracle.check_invert1d(out, f)))
    return make


def eval1d(lo, hi):
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        bps = gen.interval_map(rng, rng.randint(lo, hi))
        _write(os.path.join(d, "f.map"), gen.interval_text(bps))
        x = F(rng.randrange(1000), 999)
        want = (oracle.PL1D(bps)(x),)
        return Instance(["eval", "--map", os.path.join(d, "f.map"), "--point", gen.fmt(x)],
                        _ok(lambda out: oracle.check_point(out, want)))
    return make


def abelianize():
    def make(rng, d):
        os.makedirs(d, exist_ok=True)
        text, ds = gen.presentation(rng, rng.randint(3, 5))
        _write(os.path.join(d, "p.txt"), text)
        return Instance(["abelianize", "--presentation", os.path.join(d, "p.txt")],
                        _ok(lambda out: oracle.check_abelianize(out, ds)))
    return make


def _ok(check_output):
    """Check for a command that must exit 0 and print a right answer."""
    def check(code, out):
        if code != 0:
            raise oracle.Bad("exit %s" % code)
        check_output(out)
    return check


# -- the workloads ------------------------------------------------------------


KINDS = {
    "maps2d": {
        "compose3": compose2d(3), "invert3": invert2d(3), "fixset3": fixset2d(3),
        "eval3": eval2d(3), "overlay": overlay(10), "analyze3": analyze2d(3),
        "eval6": eval2d(6), "fixset6": fixset2d(6),
        "compose6": compose2d(6), "invert6": invert2d(6),
    },
    "certify_actions": {
        "trivial3": certify("Trivial", 3, 2, False),
        "h1_3": certify("H1Gate", 3, 2, True),
        "fixed3": certify("FixedPointGate", 3, 2, False),
        "tangent_gate3": certify("TangentGate", 3, 2, True),
        "tangent3": tangent(3),
        "trivial4": certify("Trivial", 4, 2, False),
        "h1_4": certify("H1Gate", 4, 2, True),
        "fixed4": certify("FixedPointGate", 4, 2, False),
        "tangent_gate4": certify("TangentGate", 4, 2, True),
        "prop4": certify("Propagation", 4, 3, False),
        "prop4_json": certify("Propagation", 4, 2, True),
        "tangent_gate6": certify("TangentGate", 6, 2, False),
        "tangent4": tangent(4),
        **{"malformed_" + how: malformed(how, 3) for how in MALFORMED},
    },
    "circle1d": {
        "rotno_small": rotno(14, 16, 2), "rotno_mid": rotno(28, 30, 1), "rotno_over": rotno(65, 72, 1),
        "analyze_circle": analyze_circle(8),
        "compose1d": compose1d(20, 60), "invert1d": invert1d(20, 60), "eval1d": eval1d(20, 60),
        "abelianize": abelianize(),
    },
}

# One round of each workload, in order.  The order is fixed so that every run
# sees the same mix; the seed varies only which instances fill it.  A run
# sends each request of its rounds once per pass (run.PASSES) and keeps its
# fastest pass.  The mixes are shaped so that the median and the tail fall
# inside a group of requests of similar cost, not on the edge between two
# groups, which keeps both steady from seed to seed (README.md, "Workloads").
ROUNDS = {
    "maps2d": ["fixset3", "eval3", "compose3", "fixset3", "fixset3", "eval3", "invert3",
               "fixset3", "eval3", "fixset3", "overlay", "fixset3", "eval3", "fixset3",
               "compose3", "fixset3", "eval3", "fixset3", "analyze3", "fixset3", "eval3",
               "fixset3", "invert3", "eval3", "fixset3", "fixset3", "compose3", "eval3",
               "fixset3", "fixset3", "eval3", "fixset3", "fixset3"],
    "certify_actions": ["trivial3", "h1_3", "tangent3", "fixed3", "tangent_gate3", "malformed",
                        "trivial3", "h1_3", "prop4_json", "fixed3", "tangent_gate3", "tangent3",
                        "trivial3", "h1_3", "fixed3", "tangent_gate3", "trivial3", "h1_3",
                        "prop4", "fixed3", "tangent_gate3", "tangent3", "malformed", "trivial3",
                        "h1_3", "fixed3", "tangent_gate3", "tangent3"],
    "circle1d": 6 * ["rotno_small", "compose1d", "eval1d", "rotno_mid", "abelianize",
                     "invert1d", "rotno_small", "analyze_circle", "rotno_small",
                     "rotno_mid", "rotno_small"]
                + 2 * ["rotno_small", "rotno_small", "rotno_mid", "rotno_small",
                       "rotno_small", "rotno_mid"]
                + ["rotno_over"],
}

# A run does round(--seconds / ROUND_SECONDS) rounds, at least one, so that
# every commit does the same work.  At the commit that added the benchmark
# (2-core VM, Python 3.11) one round, both passes and all set-ups included,
# takes 20-35 s of wall time depending on the workload and on how busy the
# host is.
ROUND_SECONDS = 30.0

# Cheap kinds run once per set-up, so timed requests start warm.
WARMUP = {"maps2d": ["eval3"], "certify_actions": ["tangent3"],
          "circle1d": ["rotno_small", "compose1d", "abelianize"]}

# The traced pass: each kind once, plus the n=6 2D operations, so that the
# scaling slopes of compose2d and inverse2d between n=3 and n=6 are measured.
TRACE_SET = {
    "maps2d": ["compose3", "compose6", "invert3", "invert6", "fixset3", "fixset6",
               "eval3", "eval6", "overlay", "analyze3"],
    "certify_actions": ["trivial3", "h1_3", "fixed3", "tangent_gate3", "tangent3",
                        "trivial4", "h1_4", "fixed4", "tangent_gate4", "prop4", "prop4_json",
                        "tangent_gate6", "tangent4", "malformed"],
    "circle1d": ["rotno_small", "rotno_mid", "rotno_over", "analyze_circle",
                 "compose1d", "invert1d", "eval1d", "abelianize"],
}


def round_kind(kind, slot_no, offset=0):
    """The first malformed slot of a run holds the bare img line, so that
    every run carries the known defect; later malformed slots cycle through
    the other three malformations from a seeded offset."""
    if kind != "malformed":
        return kind
    if slot_no == 0:
        return "malformed_bare-img"
    return "malformed_" + MALFORMED[1 + (slot_no - 1 + offset) % 3]


def instance_rng(workload, kind, i):
    return random.Random("%s/%s/%d" % (workload, kind, i))


class Catalogue:
    """Lazily generated instances of one workload under a work directory."""

    def __init__(self, workload, root):
        self.workload = workload
        self.root = root
        self.made = {}

    def get(self, kind, i):
        key = (kind, i)
        if key not in self.made:
            d = os.path.join(self.root, kind, str(i))
            self.made[key] = KINDS[self.workload][kind](instance_rng(self.workload, kind, i), d)
        return self.made[key]
