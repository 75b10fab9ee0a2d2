"""Star-by-star triviality certification for PL group actions.

certify_trivial walks a pipeline of hypothesis gates (H1, fixed point,
tangent sphere) and then propagates an identity check outward over vertex
stars, producing a certificate that either covers the whole base complex
or pins down an exact witness of nontriviality.  An interval action is
certified as the same action on the one-edge complex [a, b] in R^1 (base
vertex 0 is a, vertex 1 is b), so the one pipeline serves both; circle
actions are refused.

An action's kind is the type of its generators, all `PLMap1D`, all
`CircleLift` or all `PLMap` on one `domain`: code here tests that type.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .circle import (CircleLift, detect_rational_rotation,
                     fixed_set_circle, rotation_enclosure)
from .complexes import Complex, euler_characteristic
from .errors import (DisconnectedComplex, InternalError, SupportMismatch,
                     VertexNotInComplex)
from .fixedlocus import (canonical_invariant, fixed_subcomplex, fuller_search)
from .geometry import affine_point, hom_direction
from .interval import PLMap1D, fixed_set_1d
from .plmap import PLMap
from .presentation import Presentation, abelianization
from .tangent import build_germ, moving_cone, refine_fans


class ActionSpec:
    """A finitely generated action: named generators, all maps of one type
    (`PLMap1D`, `CircleLift` or `PLMap`) on one `domain`."""

    def __init__(self, generators: Sequence[Tuple[str, object]],
                 presentation: Optional[Presentation] = None):
        gens = list(generators)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        first = gens[0][1] if gens else None
        for name, g in gens:
            if (not isinstance(g, (PLMap1D, CircleLift, PLMap))
                    or type(g) is not type(first) or g.domain != first.domain):
                raise SupportMismatch("generator %r is not a map of the kind and domain of %r"
                                      % (name, names[0]))
        if presentation is not None and presentation.generator_names != names:
            raise ValueError("presentation generator names do not match action")
        self.generators = gens
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


def _moved_cells(f: PLMap) -> Dict[int, Tuple[int, int]]:
    """For each base cell that f moves: (index of the first refinement cell
    in it that has a moved vertex, that cell's first moved vertex), read
    off the rows of the refinement and the image."""
    moved: Dict[int, Tuple[int, int]] = {}
    points, images = f.refinement.hom_points(), f.image.hom_points()
    for i, (s, home) in enumerate(zip(f.refinement.simplices, f.cell_base)):
        if home not in moved:
            v = next((v for v in s if images[v] != points[v]), None)
            if v is not None:
                moved[home] = (i, v)
    return moved


def _tangent_witness_1d(f: PLMap, p: int):
    """For a 1-complex: None if every edge direction at vertex p, a
    `hom_direction` of rows, is preserved, else the offending one."""
    pr = f.refinement_index_of_base_vertex(p)
    homs, images = f.refinement.hom_points(), f.image.hom_points()
    for i in f.refinement.stars()[pr]:
        s = f.refinement.simplices[i]
        q = s[0] if s[1] == pr else s[1]
        u = hom_direction(homs[pr], homs[q])
        w = hom_direction(images[pr], images[q])
        if u != w:
            return {"ray": u, "image_ray": w}
    return None


def _on_one_edge(gens: Sequence[Tuple[str, PLMap1D]]) -> List[Tuple[str, PLMap]]:
    """Interval maps of [a, b] as maps of the one-edge complex [a, b] in
    R^1: base vertex 0 is a, vertex 1 is b, and each map's refinement is
    its canonical breakpoints, a row (xn, xd, yn, yd) giving the
    `homogeneous` rows (xn, xd) and (yn, yd) of a point and its image.
    The maps are valid, so all are built trusted."""
    rows = gens[0][1].rows
    base = Complex.trusted([rows[0][:2], rows[-1][:2]], [(0, 1)])
    out = []
    for name, f in gens:
        edges = [(i, i + 1) for i in range(len(f.rows) - 1)]
        refinement = Complex.trusted([r[:2] for r in f.rows], edges)
        out.append((name, PLMap.trusted(base, refinement, [r[2:] for r in f.rows],
                                        [0] * len(edges))))
    return out


def certify_trivial(a: ActionSpec, p: int) -> Certificate:
    """Run the certification pipeline from base vertex p.  An interval
    action runs on the one-edge complex [a, b]: p = 0 is a, p = 1 is b."""
    gens = a.generators
    if not gens:
        raise ValueError("action has no generators")
    if isinstance(gens[0][1], PLMap1D):
        gens = _on_one_edge(gens)
    elif not isinstance(gens[0][1], PLMap):
        raise SupportMismatch("certify_trivial needs a complex or interval action")
    base = gens[0][1].domain
    if not (0 <= p < base.vertex_count):
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

    # base vertex p is a refinement vertex, so its image row is read, not evaluated
    pt = base.hom_points()[p]
    for name, f in gens:
        image = f.image.hom_points()[f.refinement_index_of_base_vertex(p)]
        if image != pt:
            return Certificate(
                status="Obstructed", stage="FixedPointGate",
                witness={"vertex": p, "generator": name, "point": affine_point(pt),
                         "image": affine_point(image)},
                assumptions=assumptions)

    if base.dim == 2:
        germs = [build_germ(f, p) for _, f in gens]
        for (name, _), g in zip(gens, refine_fans(germs)):
            bad = moving_cone(g)
            if bad is not None:
                u, v = g.fan.cones[bad]
                return Certificate(
                    status="Obstructed", stage="TangentGate",
                    witness={"vertex": p, "generator": name, "cone": (u, v),
                             "matrix": g.matrices[bad].rows},
                    assumptions=assumptions)
    else:
        for name, f in gens:
            w = _tangent_witness_1d(f, p)
            if w is not None:
                w.update({"vertex": p, "generator": name})
                return Certificate(status="Obstructed", stage="TangentGate",
                                   witness=w, assumptions=assumptions)

    # breadth-first propagation of the star-identity check over the base's
    # star table: a star's witness is its first refinement cell, in
    # refinement order, that moves
    stars = base.stars()
    moved = [(name, f, _moved_cells(f)) for name, f in gens]
    verified: List[int] = []
    seen = {p}
    queue = deque([p])
    while queue:
        v = queue.popleft()
        for name, f, cells in moved:
            hits = [cells[c] for c in stars[v] if c in cells]
            if hits:
                i, rv = min(hits)
                x = affine_point(f.refinement.hom_points()[rv])
                y = affine_point(f.image.hom_points()[rv])
                if not (f.eval(x) == y != x):
                    raise InternalError("Propagation witness does not re-check with eval")
                return Certificate(
                    status="Obstructed", stage="Propagation",
                    verified_stars=verified,
                    witness={"vertex": v, "generator": name,
                             "cell": base.simplices[f.cell_base[i]],
                             "point": x, "image": y},
                    assumptions=assumptions)
        verified.append(v)
        for w in sorted({w for c in stars[v] for w in base.simplices[c]} - seen):
            seen.add(w)
            queue.append(w)
    if len(verified) != base.vertex_count:
        raise InternalError("propagation left base vertices unverified")
    if not all(f.is_identity() for _, f in gens):
        raise InternalError("a generator verified on every star is not the identity")
    return Certificate(status="Trivial", stage="Propagation",
                       verified_stars=verified, assumptions=assumptions)


def analyze_action(a: ActionSpec, kmax: int = 6, n: int = 64,
                   qmax: int = 64) -> Dict[str, dict]:
    """Per-generator fixed-locus / rotation analysis."""
    report: Dict[str, dict] = {}
    for name, g in a.generators:
        if isinstance(g, CircleLift):
            enc = rotation_enclosure(g, n)
            rat, outcome = detect_rational_rotation(g, qmax)
            entry = {"rotation_enclosure": (enc.lo, enc.hi),
                     "rational": None if rat is None else (rat.p, rat.q),
                     "rational_outcome": outcome}
            if rat is not None:
                entry["fixed_set_power_q"] = fixed_set_circle(rat.power, rat.p)
            report[name] = entry
        elif isinstance(g, PLMap1D):
            report[name] = {"fixed_set": fixed_set_1d(g),
                            "is_identity": g.is_identity()}
        else:
            fl = fixed_subcomplex(g)
            empty, everything = fl.is_empty(), fl.is_everything()
            entry: dict = {
                "fix_empty": empty,
                "fix_everything": everything,
                "fix_cells_by_dim": {d: len(fl.cells.of_dim(d))
                                     for d in range(g.base.dim + 1)},
            }
            if not empty and not everything:
                ci = canonical_invariant(fl)
                entry["derivation_depth"] = ci.derivation_depth
                entry["n_f_cells"] = len(ci.n_f.simplices)
            # Fix(g) is Fix(g^1): when it is nonempty, Fuller k is 1 with no search
            entry["fuller_k"] = fuller_search(g, kmax).k if empty else 1
            entry["fuller_euler"] = euler_characteristic(g.base)
            report[name] = entry
    return report
