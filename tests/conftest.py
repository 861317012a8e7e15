"""Shared fixtures: the branch-covering surface pool and independent oracles.

The pool is generated once per session from the family solver: for every
branch and level k <= 6, walk toward both interval endpoints and keep the
first members with b <= 400 that land strictly inside the branch.  The
monomial counter is the independent section-count oracle: h^0 of a degree-d
divisor on P(a,b,c) is the number of monomials x^i y^j z^l of weighted
degree d, which never touches the polytope machinery under test.

The library counts lattice points and sums fractional parts with the
floor-sum kernel; :func:`rowscan_loop` and :func:`frac_sum_direct` are the
literal loops it replaced, kept here as oracles with their own arithmetic.
:func:`polytope_fraction` builds the divisor polytopes' vertices with the
``Fraction`` arithmetic that ``surface.polytope`` replaced by integers.
:func:`jsonable` is the payload copy the CLI's JSON writer replaced: with
``json.dumps(..., indent=2, sort_keys=True)`` it is the writer's oracle.
:func:`forced_jump` is the deficit subtraction ``fracsum.calibrated_delta``
made before the jump was proved to be 0; it is that proof's oracle.
:func:`level_by_descent` is the level search ``threshold.classify`` made
before it solved for the level directly.  :func:`contains_point` is an
exact membership test for a rational triangle, with which the tests check
that the reference triangles sit inside the divisor polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from effcone import (
    BRANCHES,
    FamilyRequest,
    RationalPoint,
    branch_interval,
    classify_surface,
    deficit,
    make_surface,
    outer_bound,
    point,
    solve_family,
)


def monomial_count(a: int, b: int, c: int, degree: int) -> int:
    """#{(i, j, l) >= 0 : a*i + b*j + c*l = degree}, by direct enumeration."""
    total = 0
    for l in range(degree // c + 1):
        rem_l = degree - c * l
        for j in range(rem_l // b + 1):
            if (rem_l - b * j) % a == 0:
                total += 1
    return total


def frac_sum_direct(alpha: int, beta: int, u: int) -> Fraction:
    """sum_{j=0}^{u} {alpha*j/beta}, term by term."""
    return Fraction(sum((alpha * j) % beta for j in range(u + 1)), beta)


def canonical_partner(sigma: int, beta0: int, beta1: int) -> tuple[int, int]:
    """The unique alpha0 in [1, beta0) (with partner alpha1) realizing
    alpha1*beta0 - beta1*alpha0 = sigma; bumps representatives when the
    least one gives alpha1 = 0 (only possible for beta1 = 1, sigma = -1)."""
    alpha0 = (-sigma * pow(beta1, -1, beta0)) % beta0
    alpha1 = (sigma + beta1 * alpha0) // beta0
    if alpha1 == 0:
        alpha0 += beta0
        alpha1 += beta1
    return alpha0, alpha1


def forced_jump(sigma: int, t: int, u: int, beta0: int, beta1: int, alpha0=None) -> Fraction:
    """The jump the one-step identity forces, back-solved from two deficits:
    deficit(beta0, u0, alpha0) - deficit(beta1, u, alpha1) minus the
    Delta-free step error, with u0 = beta1*t + u.  ``alpha0`` defaults to
    the canonical partner; any alpha0 with beta1*alpha0 = -sigma mod beta0
    works, and its partner alpha1 follows from the +-1 relation."""
    if alpha0 is None:
        alpha0, alpha1 = canonical_partner(sigma, beta0, beta1)
    else:
        alpha1, rem = divmod(sigma + beta1 * alpha0, beta0)
        assert rem == 0, (sigma, alpha0, beta0, beta1)
    base = Fraction((u + 1) * (sigma * u + beta0 - beta1), 2 * beta0 * beta1) + Fraction(
        sigma * t * (beta1 * (t - sigma) + 2 * u + 1 - beta0), 2 * beta0
    )
    return deficit(beta0, beta1 * t + u, alpha0) - deficit(beta1, u, alpha1) - base


def polytope_fraction(surface, family: str, n: int):
    """The three vertices ``(x, y)`` of the section polytope of the n-th
    member of ``family``, by ``Fraction`` arithmetic on s = b/c."""
    a, b, c, p, q = surface.a, surface.b, surface.c, surface.p, surface.q
    zero = Fraction(0)
    if family == "B":
        s = Fraction(b, c)
        return [(zero, zero), (Fraction(-n), zero), (-3 * n * s, 4 * n * s)]
    if family == "C":
        return [(zero, zero), (-n / Fraction(b, c), zero), (Fraction(-3 * n), Fraction(4 * n))]
    height = Fraction(-a) * n
    return [(zero, zero), (Fraction(q) * n, height), (-p * Fraction(a, b) * n, height)]


def jsonable(obj):
    """Recursively render Fractions as exact strings; leave ints/bools alone."""
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    return obj


def _edge_record(p, q):
    """One edge in pure-integer form for :func:`rowscan_loop`.

    Returns ``(ymin_n, ymin_d, ymax_n, ymax_d, horizontal, data)`` where for a
    non-horizontal edge ``data = (A, B, D)`` encodes the intersection abscissa
    ``x(y) = (A + B*y) / D`` with ``D > 0``, and for a horizontal edge
    ``data = ((xn0, xd0), (xn1, xd1))`` holds both endpoint abscissas.
    """
    if p.y <= q.y:
        lo, hi = p.y, q.y
    else:
        lo, hi = q.y, p.y
    if p.y == q.y:
        data = ((p.x.numerator, p.x.denominator), (q.x.numerator, q.x.denominator))
        return (lo.numerator, lo.denominator, hi.numerator, hi.denominator, True, data)
    du = q.y - p.y
    dv = q.x - p.x
    c = p.x * du - dv * p.y
    scale = lcm(c.denominator, dv.denominator, du.denominator)
    a = c.numerator * (scale // c.denominator)
    b = dv.numerator * (scale // dv.denominator)
    d = du.numerator * (scale // du.denominator)
    if d < 0:
        a, b, d = -a, -b, -d
    return (lo.numerator, lo.denominator, hi.numerator, hi.denominator, False, (a, b, d))


def rowscan_loop(tri) -> int:
    """Lattice points of a rational triangle, one integer row at a time:
    each row is clipped against the edges that span it (linear in the rows)."""
    v0, v1, v2 = tri.vertices
    ymin = min(v0.y, v1.y, v2.y)
    ymax = max(v0.y, v1.y, v2.y)
    y_start = -((-ymin.numerator) // ymin.denominator)  # ceil(ymin)
    y_end = ymax.numerator // ymax.denominator  # floor(ymax)
    edges = [_edge_record(v0, v1), _edge_record(v1, v2), _edge_record(v2, v0)]
    total = 0
    for y in range(y_start, y_end + 1):
        lo_n = lo_d = hi_n = hi_d = None
        for ymin_n, ymin_d, ymax_n, ymax_d, horizontal, data in edges:
            # Edge active at this row iff ymin <= y <= ymax (cross-multiplied).
            if ymin_n > y * ymin_d or y * ymax_d > ymax_n:
                continue
            if horizontal:
                cands = data
            else:
                a, b, d = data
                cands = ((a + b * y, d),)
            for xn, xd in cands:
                if lo_n is None:
                    lo_n, lo_d, hi_n, hi_d = xn, xd, xn, xd
                    continue
                if xn * lo_d < lo_n * xd:
                    lo_n, lo_d = xn, xd
                if xn * hi_d > hi_n * xd:
                    hi_n, hi_d = xn, xd
        if lo_n is None:
            continue
        # floor(hi) - ceil(lo) + 1 integer abscissas in [lo, hi].
        row = hi_n // hi_d + ((-lo_n) // lo_d) + 1
        if row > 0:
            total += row
    return total


def brute_count(vertices) -> int:
    """Lattice points of a triangle by bounding-box sign checks (small inputs).

    The vertices are scaled by the lcm ``L`` of their denominators, so every
    sign test runs on integers: the lattice point (ix, iy) becomes (ix*L, iy*L).
    """
    scale = lcm(*(coord.denominator for v in vertices for coord in (v.x, v.y)))
    pts = [(int(v.x * scale), int(v.y * scale)) for v in vertices]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    lo_x, hi_x = min(xs) // scale, -(-max(xs) // scale)
    lo_y, hi_y = min(ys) // scale, -(-max(ys) // scale)
    (x0, y0), (x1, y1), (x2, y2) = pts

    def side(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    orient = side(x0, y0, x1, y1, x2, y2)
    count = 0
    for ix in range(lo_x, hi_x + 1):
        for iy in range(lo_y, hi_y + 1):
            sx, sy = ix * scale, iy * scale
            s0 = side(x0, y0, x1, y1, sx, sy)
            s1 = side(x1, y1, x2, y2, sx, sy)
            s2 = side(x2, y2, x0, y0, sx, sy)
            if orient > 0:
                inside = s0 >= 0 and s1 >= 0 and s2 >= 0
            elif orient < 0:
                inside = s0 <= 0 and s1 <= 0 and s2 <= 0
            else:
                # Degenerate: point collinear with the (possibly repeated)
                # vertices and within their hull's bounding box.
                if s0 != 0 or side(x0, y0, x2, y2, sx, sy) != 0:
                    continue
                inside = min(xs) <= sx <= max(xs) and min(ys) <= sy <= max(ys)
            if inside:
                count += 1
    return count


def _cross(ox, oy, ax, ay, bx, by) -> Fraction:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def contains_point(tri: RationalTriangle, pt) -> bool:
    """Exact membership test for the closed convex hull of ``tri``."""
    if not isinstance(pt, RationalPoint):
        x, y = pt
        pt = point(x, y)
    v0, v1, v2 = tri.vertices
    orient = _cross(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
    if orient != 0:
        c0 = _cross(v0.x, v0.y, v1.x, v1.y, pt.x, pt.y)
        c1 = _cross(v1.x, v1.y, v2.x, v2.y, pt.x, pt.y)
        c2 = _cross(v2.x, v2.y, v0.x, v0.y, pt.x, pt.y)
        if orient > 0:
            return c0 >= 0 and c1 >= 0 and c2 >= 0
        return c0 <= 0 and c1 <= 0 and c2 <= 0
    # Degenerate: the hull is the segment between the two extreme vertices
    # (or a single point).  Order lexicographically and test collinearity
    # plus the parameter range along the segment.
    vs = sorted(tri.vertices, key=lambda v: (v.x, v.y))
    a, b = vs[0], vs[2]
    dx, dy = b.x - a.x, b.y - a.y
    if dx == 0 and dy == 0:
        return pt.x == a.x and pt.y == a.y
    if dx * (pt.y - a.y) - dy * (pt.x - a.x) != 0:
        return False
    t_num = dx * (pt.x - a.x) + dy * (pt.y - a.y)
    return 0 <= t_num <= dx * dx + dy * dy


def level_by_descent(x: Fraction) -> int:
    """The level k of an abscissa x in (2, 16/3): the least k >= 1 with
    L(k + 1) <= x, found by walking down the level edges one at a time."""
    k = 1
    while outer_bound(k + 1) > x:
        k += 1
    return k


def build_pool():
    """(surface, branch, k) for all strict-interior family members, b <= 400."""
    pool = {}
    for k in range(1, 7):
        for branch in BRANCHES:
            lo, hi = branch_interval(k, branch)
            for tau, end in ((1, lo), (-1, hi)):
                request = FamilyRequest(
                    alpha=end.denominator, beta=end.numerator, tau=tau,
                    count=2, interval=(lo, hi),
                )
                try:
                    members = solve_family(request)
                except ValueError:
                    continue
                for surface in members:
                    if surface.b > 400 or surface.bp_ratio in (lo, hi):
                        continue
                    pool.setdefault((surface.b, surface.c), (surface, branch, k))
    return sorted(pool.values(), key=lambda item: (item[0].b, item[0].c))


@pytest.fixture(scope="session")
def pool():
    entries = build_pool()
    assert len(entries) >= 20
    for surface, branch, k in entries:
        found = classify_surface(surface)
        assert len(found) == 1
        assert (found[0].branch, found[0].k) == (branch, k)
    return entries


@pytest.fixture(scope="session")
def named_surfaces():
    """The worked examples; the first two sit exactly on branch boundaries."""
    return [make_surface(4, b, c) for b, c in ((5, 7), (7, 9), (13, 23), (7, 13))]


# Triples (S_lower, S_center, S_upper) inside one branch, ordered by the
# abscissa b/(-p), additionally satisfying c_lower >= c_center and
# b_upper >= b_center so that the two supremum comparisons carry the
# prefactors along.  See the monotonicity test for the inequalities.
MONOTONE_TRIPLES = (
    ((4, 19, 33), (4, 13, 23), (4, 49, 87)),      # interior of I'+ at k = 1
    ((4, 59, 105), (4, 23, 41), (4, 23, 45)),     # interior of I''- at k = 1
    ((4, 227, 309), (4, 83, 113), (4, 87, 121)),  # interior of I'- at k = 2
)


@pytest.fixture(scope="session")
def monotone_triples():
    out = []
    for lower, center, upper in MONOTONE_TRIPLES:
        s_lower, s_center, s_upper = (make_surface(*w) for w in (lower, center, upper))
        assert s_lower.bp_ratio < s_center.bp_ratio < s_upper.bp_ratio
        assert s_lower.c >= s_center.c
        assert s_upper.b >= s_center.b
        out.append((s_lower, s_center, s_upper))
    return out


def build_small_a_pool(per_a: int = 10):
    """Valid lower-bound surfaces with a in {1, 2, 3}: p >= 0, or
    q = a - 1 with (-p)a/b <= 1."""
    from math import gcd

    surfaces = []
    for a in (1, 2, 3):
        found = 0
        b = a + 1 if a > 1 else 2
        while found < per_a:
            if gcd(a, b) == 1:
                c = b + 1
                while True:
                    if gcd(a, c) == 1 and gcd(b, c) == 1:
                        surface = make_surface(a, b, c)
                        if surface.p >= 0 or (
                            surface.q == a - 1
                            and Fraction(-surface.p * a, surface.b) <= 1
                        ):
                            surfaces.append(surface)
                            found += 1
                            break
                    c += 1
            b += 1
    return surfaces


@pytest.fixture(scope="session")
def small_a_pool():
    surfaces = build_small_a_pool()
    assert len(surfaces) == 30
    return surfaces
