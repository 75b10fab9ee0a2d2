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
from typing import Dict, List, Sequence, Tuple

from .complexes import Complex
from .errors import InvalidComplex, NotFixedPoint, SupportMismatch
from .geometry import (Mat, Point, cross2, dot, fmt, linear_part,
                       primitive_direction, vsub)
from .plmap import PLMap

Ray = Tuple[int, ...]  # primitive integer direction


def _angle_class(r: Ray) -> int:
    """0 for the upper half (incl. positive x-axis), 1 for the lower."""
    if r[1] > 0 or (r[1] == 0 and r[0] > 0):
        return 0
    return 1


def ray_cmp(a: Ray, b: Ray) -> int:
    """Compare directions by angle in [0, 2*pi), exactly."""
    ha, hb = _angle_class(a), _angle_class(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross2(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def in_cone(r, u: Ray, v: Ray, strict: bool = False) -> bool:
    """Is direction r inside the salient cone spanned CCW from u to v?"""
    cu = cross2(u, r)
    cv = cross2(r, v)
    if strict:
        return cu > 0 and cv > 0
    if cu < 0 or cv < 0:
        return False
    if cu == 0 and dot(u, r) <= 0:
        return False
    if cv == 0 and dot(v, r) <= 0:
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
        if self.apex != other.apex or self.closed != other.closed:
            return False
        if not self.closed:
            return (
                self.cones[0][0] == other.cones[0][0]
                and self.cones[-1][1] == other.cones[-1][1]
            )
        return True


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
        cones = self.fan.cones
        n = len(cones)
        if self.fan.closed:
            pairs = [(i, (i + 1) % n) for i in range(n)]
        else:
            pairs = [(i, i + 1) for i in range(n - 1)]
        for i, j in pairs:
            shared = cones[i][1]
            a = primitive_direction(self.matrices[i].apply(shared))
            b = primitive_direction(self.matrices[j].apply(shared))
            if a != b:
                raise InvalidComplex("adjacent matrices disagree on a shared ray")


@dataclass(frozen=True)
class RayMap:
    """A germ together with, per (refined) source cone, its target cone."""

    germ: Germ
    cone_assignment: Tuple[int, ...]


def fan_of_star(c: Complex, v: int) -> Fan:
    """The fan of cones of the closed star of a vertex of a 2D complex."""
    if c.dim != 2 or c.ambient_dim != 2:
        raise InvalidComplex("fans are built for planar 2D complexes")
    apex = c.points[v]
    cones = []
    for s in c.simplices:
        if v not in s:
            continue
        a, b = [w for w in s if w != v]
        da = primitive_direction(vsub(c.points[a], apex))
        db = primitive_direction(vsub(c.points[b], apex))
        if cross2(da, db) < 0:
            da, db = db, da
        cones.append((da, db))
    if not cones:
        raise InvalidComplex(f"vertex {v} has no incident triangle")
    return _chain_cones(apex, cones)


def _chain_cones(apex: Point, cones: List[Tuple[Ray, Ray]]) -> Fan:
    by_start: Dict[Ray, Tuple[Ray, Ray]] = {}
    for cone in cones:
        if cone[0] in by_start:
            raise InvalidComplex("two cones start at the same ray")
        by_start[cone[0]] = cone
    ends = {c[1] for c in cones}
    starts = set(by_start)
    open_starts = sorted(starts - ends)
    if open_starts:
        start = open_starts[0]
        closed = False
    else:
        start = min(starts)
        closed = True
    ordered = []
    cur = start
    for _ in range(len(cones)):
        if cur not in by_start:
            raise InvalidComplex("star cones do not chain into a fan")
        cone = by_start[cur]
        ordered.append(cone)
        cur = cone[1]
    if closed and cur != start:
        raise InvalidComplex("star cones do not close up")
    return Fan(apex=apex, cones=tuple(ordered), closed=closed)


def build_germ(f: PLMap, p: int) -> Germ:
    """Germ of f at base vertex p; requires f(p) = p."""
    pr = f.refinement_index_of_base_vertex(p)
    apex = f.refinement.points[pr]
    if f.images[pr] != apex:
        raise NotFixedPoint(f"vertex {p} is not fixed")
    cones = []
    mats = []
    for s in f.refinement.simplices:
        if pr not in s:
            continue
        a, b = [w for w in s if w != pr]
        da = vsub(f.refinement.points[a], apex)
        db = vsub(f.refinement.points[b], apex)
        if cross2(da, db) < 0:
            a, b = b, a
            da, db = db, da
        mat = linear_part(da, db, vsub(f.images[a], apex), vsub(f.images[b], apex))
        cones.append((primitive_direction(da), primitive_direction(db)))
        mats.append(mat)
    fan = _chain_cones(apex, cones)
    ordered_mats = []
    for cone in fan.cones:
        ordered_mats.append(mats[cones.index(cone)])
    return Germ(fan=fan, matrices=tuple(ordered_mats))


def _sort_within_halfplane(rays: List[Ray]) -> List[Ray]:
    return sorted(rays, key=cmp_to_key(lambda a, b: (cross2(b, a) > 0) - (cross2(a, b) > 0)))


def _refined_cones(fan: Fan, extra_rays: Sequence[Ray]) -> List[Tuple[Ray, Ray]]:
    out = []
    for u, v in fan.cones:
        inside = sorted(
            {r for r in extra_rays if in_cone(r, u, v, strict=True)},
        )
        inside = _sort_within_halfplane(list(inside))
        chain = [u] + inside + [v]
        out.extend(zip(chain, chain[1:]))
    return out


def refine_fans(germs: Sequence[Germ]) -> List[Germ]:
    """Re-express germs over the coarsest common refinement of their fans."""
    if not germs:
        return []
    base = germs[0].fan
    for g in germs[1:]:
        if not base.support_matches(g.fan):
            raise SupportMismatch("germs must share apex and support")
    all_rays = sorted({r for g in germs for r in g.fan.rays})
    out = []
    for g in germs:
        cones = _refined_cones(g.fan, all_rays)
        mats = []
        for u, v in cones:
            mats.append(g.matrices[_containing_cone(g.fan, u, v)])
        fan = Fan(apex=g.fan.apex, cones=tuple(cones), closed=g.fan.closed)
        out.append(Germ(fan=fan, matrices=tuple(mats)))
    fans = {g.fan.cones for g in out}
    if len(fans) != 1:
        raise SupportMismatch("fans do not refine to a common fan")
    return out


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
    cuts = []
    for r in rays:
        d = primitive_direction(ainv.apply(r))
        if in_cone(d, u, v, strict=True):
            cuts.append(d)
    return [u] + _sort_within_halfplane(sorted(set(cuts))) + [v]


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
            if j == i:
                break
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
    return ra.fan == rb.fan and ra.matrices == rb.matrices


def identity_germ(fan: Fan) -> Germ:
    return Germ(fan=fan, matrices=tuple(Mat.identity(2) for _ in fan.cones))


def is_trivial_on_tangent_sphere(g: Germ) -> bool:
    """True iff every ray through the apex maps to itself.

    For a full 2D salient cone this holds exactly when the cone's matrix is
    a positive scalar multiple of the identity.
    """
    return all(m.is_positive_scalar() for m in g.matrices)


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
    lines = []
    for r in g.fan.rays:
        lines.append(f"ray {r[0]} {r[1]}")
    for k, m in enumerate(g.matrices):
        a, b = m.rows[0]
        c, d = m.rows[1]
        lines.append(f"cone {k} {fmt(a)} {fmt(b)} {fmt(c)} {fmt(d)}")
    return "\n".join(lines) + "\n"
