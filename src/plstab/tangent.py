"""Tangent spheres at fixed vertices and the induced action on rays.

The star of a fixed vertex is encoded as a fan of salient rational cones;
a germ attaches to each cone the linear part of the map there.  The action
on rays stays combinatorial (cone assignment plus matrices): in angle
coordinates it would be piecewise projective, not PL, so no 1D breakpoint
representation is ever attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .complexes import Complex
from .errors import InvalidComplex, NotFixedPoint, SupportMismatch
from .geometry import Mat, Point, cross2, fmt, hom_direction, primitive_direction
from .plmap import PLMap, identity_map

Ray = Tuple[int, ...]  # primitive integer direction


def in_cone(r, u: Ray, v: Ray, strict: bool = False) -> bool:
    """Is direction r inside the salient cone spanned CCW from u to v?"""
    cu = cross2(u, r)
    cv = cross2(r, v)
    if strict:
        return cu > 0 and cv > 0
    if cu < 0 or cv < 0:
        return False
    if cu == 0 and u[0] * r[0] + u[1] * r[1] <= 0:
        return False
    if cv == 0 and v[0] * r[0] + v[1] * r[1] <= 0:
        return False
    return True


@dataclass(frozen=True)
class Fan:
    """Cyclically ordered salient cones around an apex."""

    apex: Point
    cones: Tuple[Tuple[Ray, Ray], ...]
    closed: bool  # True for interior vertices (cycle), False for boundary (arc)

    def __post_init__(self):
        if not self.cones:
            raise InvalidComplex("fan needs at least one cone")
        for u, v in self.cones:
            if cross2(u, v) <= 0:
                raise InvalidComplex("fan cones must be salient and CCW")
        for (u1, v1), (u2, v2) in zip(self.cones, self.cones[1:]):
            if v1 != u2:
                raise InvalidComplex("consecutive cones must share a ray")
        if self.closed and self.cones[-1][1] != self.cones[0][0]:
            raise InvalidComplex("closed fan must wrap around")

    @property
    def rays(self) -> Tuple[Ray, ...]:
        out = [c[0] for c in self.cones]
        if not self.closed:
            out.append(self.cones[-1][1])
        return tuple(out)

    def support_matches(self, other: "Fan") -> bool:
        return (self.apex == other.apex and self.closed == other.closed
                and (self.closed or (self.cones[0][0], self.cones[-1][1])
                     == (other.cones[0][0], other.cones[-1][1])))


@dataclass(frozen=True)
class Germ:
    """Linear parts of a PL map on the cones around a fixed vertex."""

    fan: Fan
    matrices: Tuple[Mat, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.fan.cones):
            raise InvalidComplex("one matrix per cone required")
        for m in self.matrices:
            if m.det() == 0:
                raise InvalidComplex("germ matrices must be nonsingular")
        n = len(self.fan.cones)
        for i in range(n if self.fan.closed else n - 1):
            shared = self.fan.cones[i][1]
            a = primitive_direction(self.matrices[i].apply(shared))
            b = primitive_direction(self.matrices[(i + 1) % n].apply(shared))
            if a != b:
                raise InvalidComplex("adjacent matrices disagree on a shared ray")

    @classmethod
    def trusted(cls, fan: Fan, matrices: Tuple[Mat, ...]) -> "Germ":
        """A germ that an operation read off a valid map or derived from
        valid germs, so valid by construction: built like ``Germ(...)`` but
        not checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "matrices", matrices)
        return self


@dataclass(frozen=True)
class RayMap:
    """A germ together with, per (refined) source cone, its target cone."""

    germ: Germ
    cone_assignment: Tuple[int, ...]


def fan_of_star(c: Complex, v: int) -> Fan:
    """The fan of cones of the closed star of a vertex of a 2D complex."""
    if c.dim != 2:
        raise InvalidComplex("fans are built for planar 2D complexes")
    return build_germ(identity_map(c), v).fan


def _chain_cones(apex: Point, cones: List[Tuple[Ray, Ray]]) -> Fan:
    """The cones of a star, which start at distinct rays, chained into one fan
    (`Fan` checks it): a complex pinched at the apex leaves two chains."""
    by_start = {cone[0]: cone for cone in cones}
    open_starts = sorted(set(by_start) - {c[1] for c in cones})
    cur = open_starts[0] if open_starts else min(by_start)
    ordered = []
    for _ in range(len(cones)):
        if cur not in by_start:
            raise InvalidComplex(f"the complex is pinched at ({', '.join(fmt(c) for c in apex)}):"
                                 " star cones do not chain into a fan")
        ordered.append(by_start[cur])
        cur = ordered[-1][1]
    return Fan(apex=apex, cones=tuple(ordered), closed=not open_starts)


def build_germ(f: PLMap, p: int) -> Germ:
    """Germ of f at base vertex p; requires f(p) = p.

    Each cone's matrix is the linear part of f's affine piece on its
    refinement cell (`PLMap.linear_part`): f fixes the apex, so f(apex + x)
    = apex + M x there.  The apex is checked on rows, and the ray to each
    link vertex is found once, as the `hom_direction` of the two rows."""
    pr = f.refinement_index_of_base_vertex(p)
    homs = f.refinement.hom_points()
    if f.image.hom_points()[pr] != homs[pr]:
        raise NotFixedPoint(f"vertex {p} is not fixed")
    star = [(i, [w for w in f.refinement.simplices[i] if w != pr])
            for i in f.refinement.stars()[pr]]
    rays = {w: hom_direction(homs[pr], homs[w]) for _, ends in star for w in ends}
    mats: Dict[Tuple[Ray, Ray], Mat] = {}  # cells of a valid star have distinct cones
    for i, (a, b) in star:
        da, db = rays[a], rays[b]
        if cross2(da, db) < 0:
            da, db = db, da
        mats[da, db] = f.linear_part(i)
    fan = _chain_cones(f.refinement.points[pr], list(mats))
    # f is a homeomorphism, affine on each cell: the matrices are
    # nonsingular and adjacent ones agree on their shared ray
    return Germ.trusted(fan, tuple(mats[cone] for cone in fan.cones))


def _sort_within_halfplane(rays: Iterable[Ray]) -> List[Ray]:
    return sorted(rays, key=cmp_to_key(lambda a, b: (cross2(b, a) > 0) - (cross2(a, b) > 0)))


def _refined_cones(fan: Fan, extra_rays: Collection[Ray]) -> List[Tuple[Ray, Ray]]:
    out = []
    for u, v in fan.cones:
        inside = _sort_within_halfplane({r for r in extra_rays if in_cone(r, u, v, strict=True)})
        chain = [u] + inside + [v]
        out.extend(zip(chain, chain[1:]))
    return out


def refine_fans(germs: Sequence[Germ]) -> List[Germ]:
    """Re-express germs over the coarsest common refinement of their fans.

    Germs of one support refine to one fan: the first germ's fan cut at
    every ray of every germ.  Each germ puts on a refined cone the matrix
    of its own cone that contains it."""
    if not germs:
        return []
    base = germs[0].fan
    for g in germs[1:]:
        if not base.support_matches(g.fan):
            raise SupportMismatch("germs must share apex and support")
    all_rays = {r for g in germs for r in g.fan.rays}
    cones = _refined_cones(base, all_rays)
    if base.closed:  # start at the least ray, whichever germ it came from
        least = min(all_rays)
        k = next(i for i, c in enumerate(cones) if c[0] == least)
        cones = cones[k:] + cones[:k]
    fan = Fan(apex=base.apex, cones=tuple(cones), closed=base.closed)
    # each refined cone lies in one cone of each germ: two adjacent ones
    # carry one matrix or the two across a valid germ's shared ray
    return [Germ.trusted(fan, tuple(g.matrices[_containing_cone(g.fan, u, v)] for u, v in cones))
            for g in germs]


def _containing_cone(fan: Fan, u: Ray, v: Ray) -> int:
    return _cone_of_direction(fan, (u[0] + v[0], u[1] + v[1]))


def _cone_of_direction(fan: Fan, d) -> int:
    for i, (a, b) in enumerate(fan.cones):
        if in_cone(d, a, b):
            return i
    raise SupportMismatch(f"no cone contains direction {d}")


def _preimage_chain(a: Mat, u: Ray, v: Ray, rays: Sequence[Ray]) -> List[Ray]:
    """u, then the preimages under a of the rays that fall strictly inside
    the cone (u, v), in angular order, then v."""
    ainv = a.inverse()
    cuts = {primitive_direction(ainv.apply(r)) for r in rays}
    return [u] + _sort_within_halfplane({d for d in cuts if in_cone(d, u, v, strict=True)}) + [v]


def compose_germs(f: Germ, g: Germ) -> Germ:
    """Germ of the composition x -> f(g(x)) at the shared apex."""
    if not f.fan.support_matches(g.fan):
        raise SupportMismatch("germs must share apex and support")
    cones = []
    mats = []
    for (u, v), a in zip(g.fan.cones, g.matrices):
        chain = _preimage_chain(a, u, v, f.fan.rays)
        for cu, cv in zip(chain, chain[1:]):
            probe = a.apply((cu[0] + cv[0], cu[1] + cv[1]))
            b = f.matrices[_cone_of_direction(f.fan, probe)]
            cones.append((cu, cv))
            mats.append(b * a)
    fan = Fan(apex=g.fan.apex, cones=tuple(cones), closed=g.fan.closed)
    return canonical_germ(Germ(fan=fan, matrices=tuple(mats)))


def canonical_germ(g: Germ) -> Germ:
    """Merge adjacent cones carrying equal matrices (keeping cones salient)."""
    cones = list(g.fan.cones)
    mats = list(g.matrices)
    changed = True
    while changed and len(cones) > 1:
        changed = False
        n = len(cones)
        limit = n if g.fan.closed else n - 1
        for i in range(limit):
            j = (i + 1) % n
            if mats[i] == mats[j] and cones[i][1] == cones[j][0]:
                u, v = cones[i][0], cones[j][1]
                if cross2(u, v) > 0 and in_cone(cones[i][1], u, v, strict=True):
                    cones[i] = (u, v)
                    del cones[j]
                    del mats[j]
                    changed = True
                    break
    if g.fan.closed and len(cones) > 1:
        # rotate to start at the smallest ray for a deterministic form
        k = min(range(len(cones)), key=lambda i: cones[i][0])
        cones = cones[k:] + cones[:k]
        mats = mats[k:] + mats[:k]
    return Germ(fan=Fan(apex=g.fan.apex, cones=tuple(cones), closed=g.fan.closed),
                matrices=tuple(mats))


def germs_equal(a: Germ, b: Germ) -> bool:
    """Exact pointwise equality, decided over a common refinement."""
    try:
        ra, rb = refine_fans([a, b])
    except SupportMismatch:
        return False
    return ra.matrices == rb.matrices


def identity_germ(fan: Fan) -> Germ:
    return Germ(fan=fan, matrices=tuple(Mat.identity() for _ in fan.cones))


def moving_cone(g: Germ) -> Optional[int]:
    """The first cone with a ray through the apex that g moves, or None.

    A full 2D salient cone moves no ray exactly when its matrix is a
    positive scalar multiple of the identity.
    """
    return next((i for i, m in enumerate(g.matrices) if not m.is_positive_scalar()), None)


def is_trivial_on_tangent_sphere(g: Germ) -> bool:
    """True iff every ray through the apex maps to itself."""
    return moving_cone(g) is None


def tangent_sphere_type(fan: Fan) -> str:
    """'Circle' for interior vertices, 'Arc' on the boundary."""
    return "Circle" if fan.closed else "Arc"


def ray_map(g: Germ) -> RayMap:
    """Self-action on the tangent sphere: refine so cones map into cones."""
    cones = []
    mats = []
    for (u, v), a in zip(g.fan.cones, g.matrices):
        chain = _preimage_chain(a, u, v, g.fan.rays)
        for cu, cv in zip(chain, chain[1:]):
            cones.append((cu, cv))
            mats.append(a)
    fan = Fan(apex=g.fan.apex, cones=tuple(cones), closed=g.fan.closed)
    refined = Germ(fan=fan, matrices=tuple(mats))
    assignment = []
    for (u, v), a in zip(fan.cones, refined.matrices):
        probe = primitive_direction(a.apply((u[0] + v[0], u[1] + v[1])))
        target = _cone_of_direction(g.fan, probe)
        iu = primitive_direction(a.apply(u))
        iv = primitive_direction(a.apply(v))
        tu, tv = g.fan.cones[target]
        if not (in_cone(iu, tu, tv) and in_cone(iv, tu, tv)):
            raise SupportMismatch("refined cone image escapes its target cone")
        assignment.append(target)
    return RayMap(germ=refined, cone_assignment=tuple(assignment))


def format_germ(g: Germ) -> str:
    lines = [f"ray {r[0]} {r[1]}" for r in g.fan.rays]
    lines += [f"cone {k} " + " ".join(fmt(x) for row in m.rows for x in row)
              for k, m in enumerate(g.matrices)]
    return "\n".join(lines) + "\n"
