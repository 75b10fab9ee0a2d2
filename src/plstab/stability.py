"""Star-by-star triviality certification for PL group actions.

certify_trivial walks a pipeline of hypothesis gates (H1, fixed point,
tangent sphere) and then propagates an identity check outward over vertex
stars, producing a certificate that either covers the whole base complex
or pins down an exact witness of nontriviality.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .circle import (CircleLift, compose_lift, detect_rational_rotation,
                     fixed_set_circle, rotation_enclosure)
from .complexes import Complex, adjacency
from .errors import (DisconnectedComplex, InternalError, SupportMismatch,
                     VertexNotInComplex)
from .fixedlocus import (canonical_invariant, fixed_subcomplex, fuller_search)
from .geometry import primitive_direction, vsub
from .interval import PLMap1D, fixed_set_1d
from .plmap import PLMap
from .presentation import Presentation, abelianization
from .tangent import build_germ, is_trivial_on_tangent_sphere, refine_fans


class ActionSpec:
    """A finitely generated action: named generators of one common kind.

    kind is one of "interval" (PLMap1D), "circle" (CircleLift) or
    "complex" (PLMap on a shared base complex).
    """

    def __init__(self, kind: str, generators: Sequence[Tuple[str, object]],
                 base: Optional[Complex] = None,
                 presentation: Optional[Presentation] = None):
        if kind not in ("interval", "circle", "complex"):
            raise ValueError("unknown action kind %r" % kind)
        gens = list(generators)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for name, g in gens:
            if kind == "interval" and not isinstance(g, PLMap1D):
                raise SupportMismatch("generator %r is not an interval map" % name)
            if kind == "circle" and not isinstance(g, CircleLift):
                raise SupportMismatch("generator %r is not a circle lift" % name)
            if kind == "complex":
                if not isinstance(g, PLMap):
                    raise SupportMismatch("generator %r is not a PL map" % name)
                if base is None:
                    base = g.base
                if g.base.points != base.points or g.base.simplices != base.simplices:
                    raise SupportMismatch("generator %r lives on a different base" % name)
        if kind == "interval" and gens:
            iv = gens[0][1].interval
            for name, g in gens[1:]:
                if g.interval != iv:
                    raise SupportMismatch("generator %r has a different interval" % name)
        if presentation is not None and presentation.generator_names != names:
            raise ValueError("presentation generator names do not match action")
        self.kind = kind
        self.generators = gens
        self.base = base
        self.presentation = presentation


@dataclass
class Certificate:
    status: str                       # Trivial | Obstructed | HypothesisFailed
    stage: str                        # H1Gate | FixedPointGate | TangentGate | Propagation
    verified_stars: List[int] = field(default_factory=list)
    witness: Optional[dict] = None
    assumptions: List[str] = field(default_factory=list)


def _word_map(a: ActionSpec, word):
    m = a.generators[0][1].identity_like()
    for letter in word:
        g = a.generators[abs(letter) - 1][1]
        if letter < 0:
            g = g.inverse()
        m = g.compose(m)
    return m


def verify_relators(a: ActionSpec):
    """Check every relator acts as the identity. Returns "pass" or a
    failure record with the relator and a sample point it moves."""
    if a.presentation is None:
        raise ValueError("no presentation supplied")
    if not a.generators:
        return "pass"  # the trivial group: every relator is the empty word
    for rel in a.presentation.relators:
        m = _word_map(a, rel)
        if not m.is_identity():
            return {"relator": rel, "sample_point": m.moved_point()}
    return "pass"


def _star_cells(base: Complex, v: int) -> List[int]:
    return [i for i, s in enumerate(base.simplices) if v in s]


def _identity_on_star(f: PLMap, star: Sequence[int]):
    """None if f is the identity on the given base cells, else a witness
    (base-cell index, refinement vertex index)."""
    wanted = set(star)
    for s, home in zip(f.refinement.simplices, f.cell_base):
        if home not in wanted:
            continue
        for v in s:
            if f.images[v] != f.refinement.points[v]:
                return home, v
    return None


def _tangent_witness_1d(f: PLMap, p: int):
    """For a 1-complex: None if every edge direction at vertex p is
    preserved, else the offending primitive direction."""
    pr = f.refinement_index_of_base_vertex(p)
    origin = f.refinement.points[pr]
    for s in f.refinement.simplices:
        if pr not in s:
            continue
        q = s[0] if s[1] == pr else s[1]
        u = primitive_direction(vsub(f.refinement.points[q], origin))
        w = primitive_direction(vsub(f.images[q], f.images[pr]))
        if u != w:
            return {"ray": u, "image_ray": w}
    return None


def certify_trivial(a: ActionSpec, p: int) -> Certificate:
    """Run the certification pipeline from base vertex p."""
    if a.kind != "complex":
        raise SupportMismatch("certify_trivial needs a complex-based action")
    base = a.base
    if base is None:
        raise ValueError("action has no generators")
    if not (0 <= p < len(base.points)):
        raise VertexNotInComplex("vertex %d not in base complex" % p)
    if not base.is_connected():
        raise DisconnectedComplex("base complex is not connected")

    assumptions = []
    if a.presentation is not None:
        rep = abelianization(a.presentation)
        assumptions.append("H1 from supplied presentation")
        if rep.free_rank != 0:
            return Certificate(
                status="HypothesisFailed", stage="H1Gate",
                witness={"invariant_factors": rep.invariant_factors,
                         "free_rank": rep.free_rank},
                assumptions=assumptions)
    else:
        assumptions.append("H1(G;R)=0 assumed by caller (no presentation)")

    pt = base.points[p]
    for name, f in a.generators:
        if f.eval(pt) != pt:
            return Certificate(
                status="Obstructed", stage="FixedPointGate",
                witness={"vertex": p, "generator": name, "point": pt,
                         "image": f.eval(pt)},
                assumptions=assumptions)

    if base.dim == 2:
        germs = [build_germ(f, p) for _, f in a.generators]
        common = refine_fans(germs) if germs else []
        for (name, _), g in zip(a.generators, common):
            if not is_trivial_on_tangent_sphere(g):
                bad = next(i for i, m in enumerate(g.matrices)
                           if not (m.is_positive_scalar()))
                u, v = g.fan.cones[bad]
                return Certificate(
                    status="Obstructed", stage="TangentGate",
                    witness={"vertex": p, "generator": name, "cone": (u, v),
                             "matrix": g.matrices[bad].rows},
                    assumptions=assumptions)
    else:
        for name, f in a.generators:
            w = _tangent_witness_1d(f, p)
            if w is not None:
                w.update({"vertex": p, "generator": name})
                return Certificate(status="Obstructed", stage="TangentGate",
                                   witness=w, assumptions=assumptions)

    # breadth-first propagation of the star-identity check
    neighbours = adjacency(base.simplices)
    verified: List[int] = []
    seen = {p}
    queue = [p]
    while queue:
        v = queue.pop(0)
        star = _star_cells(base, v)
        for name, f in a.generators:
            bad = _identity_on_star(f, star)
            if bad is not None:
                home, rv = bad
                x, y = f.refinement.points[rv], f.images[rv]
                if not (f.eval(x) == y != x):
                    raise InternalError("Propagation witness does not re-check with eval")
                return Certificate(
                    status="Obstructed", stage="Propagation",
                    verified_stars=verified,
                    witness={"vertex": v, "generator": name,
                             "cell": base.simplices[home],
                             "point": x, "image": y},
                    assumptions=assumptions)
        verified.append(v)
        for w in sorted(neighbours[v]):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(verified) != len(base.points):
        raise InternalError("propagation left base vertices unverified")
    if not all(f.is_identity() for _, f in a.generators):
        raise InternalError("a generator verified on every star is not the identity")
    return Certificate(status="Trivial", stage="Propagation",
                       verified_stars=verified, assumptions=assumptions)


def analyze_action(a: ActionSpec, kmax: int = 6, n: int = 64,
                   qmax: int = 64) -> Dict[str, dict]:
    """Per-generator fixed-locus / rotation analysis."""
    report: Dict[str, dict] = {}
    for name, g in a.generators:
        if a.kind == "circle":
            enc = rotation_enclosure(g, n)
            rat, outcome = detect_rational_rotation(g, qmax)
            entry = {"rotation_enclosure": (enc.lo, enc.hi),
                     "rational": None if rat is None else (rat.p, rat.q),
                     "rational_outcome": outcome}
            if rat is not None:
                gq = g
                for _ in range(rat.q - 1):
                    gq = compose_lift(g, gq)
                entry["fixed_set_power_q"] = fixed_set_circle(gq, rat.p)
            report[name] = entry
        elif a.kind == "interval":
            report[name] = {"fixed_set": fixed_set_1d(g),
                            "is_identity": g.is_identity()}
        else:
            fl = fixed_subcomplex(g)
            entry: dict = {
                "fix_empty": fl.is_empty(),
                "fix_everything": fl.is_everything(),
                "fix_cells_by_dim": {d: len(fl.cells.of_dim(d))
                                     for d in range(a.base.dim + 1)},
            }
            if not fl.is_empty() and not fl.is_everything():
                ci = canonical_invariant(fl)
                entry["derivation_depth"] = ci.derivation_depth
                entry["n_f_cells"] = len(ci.n_f.simplices)
            fr = fuller_search(g, kmax)
            entry["fuller_k"] = fr.k
            entry["fuller_euler"] = fr.euler_char
            report[name] = entry
    return report
