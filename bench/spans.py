"""Outside-in tracing of plstab: wraps public functions at run time.

Nothing in ``src/`` is edited.  A function imported elsewhere with
``from .x import f`` is a separate global in every module that holds it, so
``install`` rebinds each ``plstab.*`` module attribute that *is* the
original.  Methods (``Complex.__init__``, ``PLMap.__init__``,
``PLMap.eval``) are replaced on the class.  ``uninstall`` restores every
binding.

A timed function records a span (name, start, end, parent span, request id,
input size).  A re-entrant call to a span of the same name, such as
``jsonable`` recursing or ``load_action`` calling ``load_map``, folds into
the outer span.  Hot leaves are counted, not timed.
"""

import math
import sys
import time

# (module, attribute) -> span name.  "Class.method" attributes are methods.
TIMED = {
    ("plstab.clip", "triangle_intersection"): "clip.triangle_intersection",
    ("plstab.clip", "clip_polygon_to_triangle"): "clip.clip_polygon_to_triangle",
    ("plstab.complexes", "Complex.__init__"): "complexes.Complex",
    ("plstab.complexes", "parse_complex"): "complexes.parse_complex",
    ("plstab.plmap", "PLMap.__init__"): "plmap.PLMap",
    ("plstab.plmap", "PLMap.eval"): "plmap.PLMap.eval",
    ("plstab.plmap", "compose2d"): "plmap.compose2d",
    ("plstab.plmap", "inverse2d"): "plmap.inverse2d",
    ("plstab.overlay", "overlay"): "overlay.overlay",
    ("plstab.fixedlocus", "fixed_subcomplex"): "fixedlocus.fixed_subcomplex",
    ("plstab.fixedlocus", "fuller_search"): "fixedlocus.fuller_search",
    ("plstab.tangent", "build_germ"): "tangent.build_germ",
    ("plstab.tangent", "refine_fans"): "tangent.refine_fans",
    ("plstab.stability", "certify_trivial"): "stability.certify_trivial",
    ("plstab.stability", "analyze_action"): "stability.analyze_action",
    ("plstab.presentation", "abelianization"): "presentation.abelianization",
    ("plstab.presentation", "smith_normal_form"): "presentation.smith_normal_form",
    ("plstab.interval", "compose1d"): "interval.compose1d",
    ("plstab.circle", "compose_lift"): "circle.compose_lift",
    ("plstab.circle", "detect_rational_rotation"): "circle.detect_rational_rotation",
    ("plstab.circle", "rotation_enclosure"): "circle.rotation_enclosure",
    ("plstab.cli", "load_map"): "cli.load",
    ("plstab.cli", "load_action"): "cli.load",
    ("plstab.cli", "format_plmap"): "cli.emit",
    ("plstab.cli", "format_plmap1d"): "cli.emit",
    ("plstab.cli", "format_circle_lift"): "cli.emit",
    ("plstab.cli", "format_complex"): "cli.emit",
    ("plstab.cli", "format_germ"): "cli.emit",
    ("plstab.cli", "jsonable"): "cli.emit",
    ("plstab.cli", "_emit"): "cli.emit",
}

COUNTED = {
    ("plstab.geometry", "orient2"): "geometry.orient2",
    ("plstab.circle", "eval_lift"): "circle.eval_lift",
    ("plstab.interval", "eval1d"): "interval.eval1d",
}


def _size(name, args, result):
    """Input cells of the calls whose scaling slope is reported."""
    if name == "plmap.PLMap":
        return len(args[2].simplices)
    if name == "plmap.compose2d":
        return len(args[1].refinement.simplices)
    if name == "plmap.inverse2d":
        return len(args[0].refinement.simplices)
    return None


def _facts(name, args, result, facts):
    """Counts read off a call's arguments and result."""
    if name == "clip.triangle_intersection":
        if len(result) >= 3 and _area2(result) != 0:
            facts["clip.triangle_intersection.useful"] += 1
    elif name == "plmap.compose2d":
        facts["plmap.compose2d.out_cells"] += len(result.refinement.simplices)
    elif name == "stability.certify_trivial":
        facts["stability.stars_verified"] += len(result.verified_stars)
    elif name == "circle.compose_lift":
        facts["circle.breakpoints_max"] = max(facts["circle.breakpoints_max"],
                                              len(result.breakpoints))


def _area2(poly):
    return sum(poly[k][0] * poly[k - 1][1] - poly[k - 1][0] * poly[k][1]
               for k in range(len(poly)))


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "size")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.end = name, start, start
        self.parent, self.request, self.size = parent, request, None


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED.values()}
        self.facts = {"clip.triangle_intersection.useful": 0, "plmap.compose2d.out_cells": 0,
                      "stability.stars_verified": 0, "circle.breakpoints_max": 0}
        self.stack = []
        self.request = None
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name, request=None):
        """Open a span by hand (the benchmark's per-request root span)."""
        if request is not None:
            self.request = request
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _timed(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            span.size = _size(name, args, result)
            _facts(name, args, result, tracer.facts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "plstab" or k.startswith("plstab.")) and m is not None]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for (modname, attr), name in table.items():
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original, make(original, name))
                    continue
                original = getattr(owner, attr)
                wrapped = make(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, obj, key, original, wrapped):
        setattr(obj, key, wrapped)
        self._undo.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo = []

    # -- results -------------------------------------------------------------

    def dump(self):
        """Spans as JSON-ready rows: name, start, end, parent index, request."""
        return [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  `spans` need .start, .end, .parent (index
    of the parent span or None)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def slope(points):
    """Least-squares exponent b of duration = a * size^b; 0.0 without two
    distinct sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s, sized = {}, {}, {}
    for s, t in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        if s.size is not None:
            sized.setdefault(s.name, []).append((s.size, s.end - s.start))
    f, c = tracer.facts, tracer.counts
    tri = calls.get("clip.triangle_intersection", 0)
    m = {
        "geometry.orient2.calls": c["geometry.orient2"],
        "clip.triangle_intersection.calls": tri,
        "clip.triangle_intersection.useful_ratio":
            f["clip.triangle_intersection.useful"] / tri if tri else 0.0,
        "clip.self_s": sum(v for k, v in self_s.items() if k.startswith("clip.")),
        "complexes.Complex.calls": calls.get("complexes.Complex", 0),
        "complexes.Complex.self_s": self_s.get("complexes.Complex", 0.0),
        "complexes.parse_complex.self_s": self_s.get("complexes.parse_complex", 0.0),
        "plmap.PLMap.calls": calls.get("plmap.PLMap", 0),
        "plmap.PLMap.self_s": self_s.get("plmap.PLMap", 0.0),
        "plmap.PLMap.eval.calls": calls.get("plmap.PLMap.eval", 0),
        "plmap.PLMap.eval.self_s": self_s.get("plmap.PLMap.eval", 0.0),
        "plmap.compose2d.self_s": self_s.get("plmap.compose2d", 0.0),
        "plmap.inverse2d.self_s": self_s.get("plmap.inverse2d", 0.0),
        "plmap.compose2d.slope": slope(sized.get("plmap.compose2d", [])),
        "plmap.inverse2d.slope": slope(sized.get("plmap.inverse2d", [])),
        "plmap.PLMap.slope": slope(sized.get("plmap.PLMap", [])),
        "plmap.compose2d.out_cells": f["plmap.compose2d.out_cells"],
        "overlay.overlay.calls": calls.get("overlay.overlay", 0),
        "overlay.overlay.self_s": self_s.get("overlay.overlay", 0.0),
        "fixedlocus.fixed_subcomplex.self_s": self_s.get("fixedlocus.fixed_subcomplex", 0.0),
        "fixedlocus.fuller_search.self_s": self_s.get("fixedlocus.fuller_search", 0.0),
        "tangent.build_germ.self_s": self_s.get("tangent.build_germ", 0.0),
        "tangent.refine_fans.self_s": self_s.get("tangent.refine_fans", 0.0),
        "stability.certify_trivial.self_s": self_s.get("stability.certify_trivial", 0.0),
        "stability.analyze_action.self_s": self_s.get("stability.analyze_action", 0.0),
        "stability.stars_verified": f["stability.stars_verified"],
        "presentation.abelianization.self_s": self_s.get("presentation.abelianization", 0.0),
        "presentation.smith_normal_form.calls": calls.get("presentation.smith_normal_form", 0),
        "interval.compose1d.calls": calls.get("interval.compose1d", 0),
        "interval.compose1d.self_s": self_s.get("interval.compose1d", 0.0),
        "interval.eval1d.calls": c["interval.eval1d"],
        "circle.compose_lift.calls": calls.get("circle.compose_lift", 0),
        "circle.compose_lift.self_s": self_s.get("circle.compose_lift", 0.0),
        "circle.detect_rational_rotation.self_s": self_s.get("circle.detect_rational_rotation", 0.0),
        "circle.rotation_enclosure.self_s": self_s.get("circle.rotation_enclosure", 0.0),
        "circle.eval_lift.calls": c["circle.eval_lift"],
        "circle.breakpoints_max": f["circle.breakpoints_max"],
        "cli.load.self_s": self_s.get("cli.load", 0.0),
        "cli.emit.self_s": self_s.get("cli.emit", 0.0),
    }
    return m
