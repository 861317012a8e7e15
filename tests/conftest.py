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
:func:`calibration_loop` is the per-instance loop that
``verify.calibrate_delta`` replaced by a per-term identity check and a
closed-form report; it recomputes every forced jump from residue sums.
:func:`check_partners_by_values` is the per-term check that
``verify._check_partners`` replaced by the +-1 determinant the identity
follows from: it builds both floor sequences over every j < beta0 and
compares their values.
:func:`level_by_descent` is the level search ``threshold.classify`` made
before it solved for the level directly, and :func:`classify_by_fractions`
the ``Fraction`` comparisons it made before it cross-multiplied integers.
:func:`fraction_coefficients`, :func:`fraction_middle_terms`,
:func:`fraction_c0_tail` and :func:`fraction_value` are the ``Fraction``
expressions that ``ehrhart.coefficients``, :func:`c0_middle_terms`,
:func:`c0_upper_bound` and ``EhrhartCoeffs.value`` evaluated before each
coefficient became one numerator over one integer denominator.
:func:`contains_point` is an exact membership test for a rational triangle,
with which the tests check that the reference triangles sit inside the
divisor polytopes.
:func:`section_count` is the per-cell closed form of one family-B or
family-C count that ``surface.section_counts`` replaced by a running sum.
:func:`sweep_cells` is the per-cell margin loop that ``verify.sweep_one``
replaced by routing a column of cells at a time.
:func:`scan_family` is the per-index scan over a window of indices that
``families.solve_family`` replaced by working out the valid indices.
:func:`verify_csv` is the dict per margin row that ``verify --format csv``
built and ``csv.DictWriter`` wrote before the CLI wrote the rows' blocks, and
:func:`gamma_table` the dict per row that ``gamma`` built before its table
became column blocks.

Ten published statements that nothing in the package calls live here, as
the package stated them, and the package no longer exports them: from
``threshold``, the level edges :func:`outer_bound`, the one-family
:func:`family_supremum`, the certifying :func:`reference_triangle` and its
counts :func:`expected_count_large` and :func:`expected_count_small`; from
``ehrhart``, the family-B c0 pieces :func:`c0_middle_terms` and
:func:`c0_upper_bound`; from ``fracsum``, the full-period sums
:func:`floor_sum`, :func:`ceil_sum` and :func:`full_sum`.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import floordiv, sub

import pytest

from effcone import (
    BRANCHES,
    FAMILY_B,
    FAMILY_C,
    CalibrationError,
    Classification,
    FamilyRequest,
    RationalTriangle,
    WeightedSurface,
    branch_interval,
    classify_surface,
    deficit,
    floor_sum_linear,
    frac_sum,
    gamma_search,
    make_surface,
    margin_at_multiple,
    margin_general,
    nu_from_h0,
    paper_delta,
    solve_family,
    triangle,
)
from effcone.ehrhart import _middle, _require_hypotheses, _tail
from effcone.numerics import require_int
from effcone.surface import _family_counts
from effcone.threshold import _best, _edge, _search_families


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


def calibration_loop(beta_max: int) -> dict:
    """The calibration report as :func:`effcone.verify.calibrate_delta` built
    it before the report took closed form: every instance's forced jump from
    incremental residue sums, compared with ``paper_delta``."""
    if beta_max < 3:
        raise ValueError(f"require beta_max >= 3, got {beta_max}")
    matrix = {"agree_0": 0, "agree_1": 0, "paper_1_true_0": 0, "paper_0_true_1": 0}
    disagreements = []
    instances = 0
    for beta0 in range(2, beta_max + 1):
        for alpha0 in range(1, beta0):
            if gcd(alpha0, beta0) != 1:
                continue
            for sigma in (1, -1):
                # A unit mod beta0 >= 2, so beta1 lies in [1, beta0 - 1].
                beta1 = (-sigma * pow(alpha0, -1, beta0)) % beta0
                alpha1 = (sigma + beta1 * alpha0) // beta0
                if alpha1 == 0:
                    alpha1 = beta1  # same residue class mod beta1 (beta1 = 1 here)
                # Incremental residue sums keep the whole grid in integers:
                # d_true has denominator 2*beta0*beta1 after clearing.
                prefix1 = [0] * beta1
                acc = 0
                for j in range(beta1):
                    acc += (alpha1 * j) % beta1
                    prefix1[j] = acc
                sum0 = 0
                for u0 in range(beta0):
                    sum0 += (alpha0 * u0) % beta0
                    t, u = divmod(u0, beta1)
                    num_f0 = beta1 * ((u0 + 1) * (beta0 - 1) - 2 * sum0)
                    num_f1 = beta0 * ((u + 1) * (beta1 - 1) - 2 * prefix1[u])
                    num_base = (u + 1) * (sigma * u + beta0 - beta1) + sigma * t * beta1 * (
                        beta1 * (t - sigma) + 2 * u + 1 - beta0
                    )
                    num_true = num_f0 - num_f1 - num_base
                    den = 2 * beta0 * beta1
                    if num_true % den != 0 or num_true // den not in (0, 1):
                        raise CalibrationError(
                            f"forced jump {Fraction(num_true, den)} outside {{0, 1}} at "
                            f"(alpha0={alpha0}, beta0={beta0}, alpha1={alpha1}, "
                            f"beta1={beta1}, sigma={sigma}, u0={u0})"
                        )
                    d_true = num_true // den
                    d_paper = paper_delta(sigma, t, u, beta0, beta1)
                    instances += 1
                    if d_true == d_paper:
                        matrix["agree_1" if d_true else "agree_0"] += 1
                    else:
                        key = "paper_1_true_0" if d_paper else "paper_0_true_1"
                        matrix[key] += 1
                        disagreements.append(
                            {
                                "alpha0": alpha0, "beta0": beta0,
                                "alpha1": alpha1, "beta1": beta1,
                                "sigma": sigma, "u0": u0,
                                "delta_true": d_true, "delta_paper": d_paper,
                            }
                        )
    return {
        "beta_max": beta_max,
        "instances": instances,
        "matrix": matrix,
        "disagreement_count": len(disagreements),
        "disagreements": disagreements,
    }


def check_partners_by_values(alpha0: int, beta0: int, *partners) -> None:
    """``verify._check_partners`` as the value comparison that came before
    the determinant test: for each partner (alpha1, beta1, sigma),
    floor(alpha1*j/beta1) - [sigma = 1, beta1 | j, j > 0] must equal
    floor(alpha0*j/beta0) for every 0 <= j < beta0, or
    :class:`CalibrationError` is raised, with the same message.  Each side
    is one list of beta0 floors.  It checks the per-term identity itself, so
    it also accepts non-partners that satisfy it, such as (0, beta1, -1) for
    any beta1 >= 1 when alpha0 = 1."""
    lower = list(map(floordiv, range(0, alpha0 * beta0, alpha0), repeat(beta0)))
    for alpha1, beta1, sigma in partners:
        multiples = range(0, alpha1 * beta0, alpha1) if alpha1 else repeat(0, beta0)  # no step 0
        upper = list(map(floordiv, multiples, repeat(beta1)))
        if sigma == 1:
            # The bracket: one more at every multiple j > 0 of beta1.
            upper[beta1::beta1] = map(sub, upper[beta1::beta1], repeat(1))
        if upper != lower:
            raise CalibrationError(
                f"per-term identity fails at (alpha0={alpha0}, beta0={beta0}, sigma={sigma}) "
                f"with partner (alpha1={alpha1}, beta1={beta1}): the forced jump is not 0"
            )


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


def verify_csv(reports: list[dict]) -> str:
    """The CSV of :func:`~effcone.verify.sweep`'s ``reports``: one dict per
    margin row, led by its surface's a, b and c, through ``csv.DictWriter``."""
    rows = [
        dict({"a": rep["surface"]["a"], "b": rep["surface"]["b"], "c": rep["surface"]["c"]}, **row)
        for rep in reports
        for row in rep["rows"]
    ]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, list(rows[0]) if rows else [], lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(jsonable, rows))
    return buffer.getvalue()


def gamma_table(result) -> list[dict]:
    """The rows of a :func:`~effcone.threshold.gamma_search` result as plain
    dicts, each with its candidate value scale*nu/n."""
    return [
        {"family": family, "n": n, "h0": count, "nu": d, "value": Fraction(scale * d, n)}
        for family, scale, h0s, nus in result.columns
        for n, (count, d) in enumerate(zip(h0s, nus), 1)
    ]


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
    """Exact membership test of the point ``pt = (x, y)``, with int or
    Fraction coordinates, for the closed convex hull of ``tri``."""
    x, y = pt
    v0, v1, v2 = tri.vertices
    orient = _cross(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
    if orient != 0:
        c0 = _cross(v0.x, v0.y, v1.x, v1.y, x, y)
        c1 = _cross(v1.x, v1.y, v2.x, v2.y, x, y)
        c2 = _cross(v2.x, v2.y, v0.x, v0.y, x, y)
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
        return x == a.x and y == a.y
    if dx * (y - a.y) - dy * (x - a.x) != 0:
        return False
    t_num = dx * (x - a.x) + dy * (y - a.y)
    return 0 <= t_num <= dx * dx + dy * dy


def right_edge_sum(rows: int) -> int:
    """S(Y) = sum_{y=0}^{Y} floor(-3y/4) for rows = Y + 1: rows 4j..4j+3 add
    -12j - 6, so with rows = 4t + r, S(Y) = -(6t^2 + 3tr + (0, 0, 1, 3)[r])."""
    t, r = divmod(rows, 4)
    return -(6 * t * t + 3 * t * r + (0, 0, 1, 3)[r])


def section_count(surface, family: str, n: int) -> int:
    """h0 of the n-th family-B or family-C divisor of an a = 4, q = 3
    surface, summed over its rows in closed form.

    Both triangles rest on y = 0 under the right edge x = -3y/4; the left edge
    is x = (p*y - n*c)/b for C (rows y <= 4n) and x = -n + p*y/b for B (rows
    y <= Y = floor(4nb/c)).  Row y holds floor(-3y/4) - ceil(left) + 1 points,
    so with m = -p, h0 is S(4n) + 4n + 1 + floor_sum_linear(4n + 1, b, m, n*c)
    for C and S(Y) + (n + 1)(Y + 1) + floor_sum_linear(Y + 1, b, m, 0) for B.
    """
    assert family in ("B", "C") and n >= 1 and (surface.a, surface.q) == (4, 3)
    b, c, m = surface.b, surface.c, -surface.p
    if family == "C":
        rows = 4 * n + 1
        return right_edge_sum(rows) + floor_sum_linear(rows, b, m, n * c) + rows
    rows = 4 * n * b // c + 1
    return right_edge_sum(rows) + (n + 1) * rows + floor_sum_linear(rows, b, m, 0)


def sweep_cells(surface, n_max: int) -> dict:
    """The margin report as :func:`effcone.verify.sweep_one` built it before
    it routed a column of cells at a time: one ``divmod`` per cell, and each
    cell's best margin over the classifications kept in a dict."""
    classifications = classify_surface(surface)
    search = gamma_search(surface, n_max)
    delta = {FAMILY_B: surface.b, FAMILY_C: surface.c}
    cells = [(family, n, count) for family, _, h0s, _ in search.columns
             for n, count in enumerate(h0s, 1)]
    rows = []
    cell_best: dict[tuple[str, int], int] = {}
    for cls in classifications:
        base = cls.m0 * delta[cls.family]
        for family, n, count in cells:
            # A cell is on the attainment ray iff base divides its degree.
            degree = n * delta[family]
            step, rest = divmod(degree, base)
            if rest == 0:
                margin = margin_at_multiple(cls, step, count)
            else:
                margin = margin_general(cls, degree, base, count)
            rows.append(
                {
                    "branch": cls.branch,
                    "family": family,
                    "n": n,
                    "h0": count,
                    "rhs": margin + count,
                    "margin": margin,
                }
            )
            key = (family, n)
            if key not in cell_best or margin > cell_best[key]:
                cell_best[key] = margin
    failures = [
        {"family": family, "n": n, "margin": margin}
        for (family, n), margin in sorted(cell_best.items())
        if margin < 1
    ]
    return {
        "surface": dict(vars(surface)),
        "classifications": [dict(vars(cls)) for cls in classifications],
        "n_max": n_max,
        "rows": rows,
        "min_margin": min(cell_best.values()),
        "failures": failures,
        "gamma_best": search.best,
        "gamma_pred": search.prediction,
        "gamma_match": search.matches,
    }


# Published statements that nothing in the package calls (see the module docstring).


def outer_bound(k: int) -> Fraction:
    """L(k) = 16k^2/(8k^2 - 4k - 1), the decreasing sequence of level edges."""
    require_int("k", k, 1)
    return Fraction(*_edge(k))


def family_supremum(surface: WeightedSurface, family: str, n_max: int) -> Fraction:
    """Max over n <= n_max of the candidate values from a single family."""
    scales = dict(_search_families(surface))
    if family not in scales:
        raise ValueError(f"family {family!r} not available on {surface}")
    (h0s,) = _family_counts(surface, (family,), n_max)
    return _best(((family, scales[family], h0s, map(nu_from_h0, h0s)),))[0]


def reference_triangle(k: int, which: str) -> RationalTriangle:
    """The two fixed integral triangles certifying nu at level k.

    ``which = "large"``: Conv((0,0), (-(2k+3), 0), (-3(2k+1), 4(2k+1))),
    with 8k^2 + 18k + 11 = C(4(k+1)+1, 2) + 1 lattice points; contained in
    the predicted divisor's polytope on the I' branches.
    ``which = "small"``: Conv((0,0), (-(k+1), 0), (-3k, 4k)), with
    2k^2 + 3k + 2 = C(2k+2, 2) + 1 lattice points; contained on the I''
    branches.
    """
    require_int("k", k, 1)
    if which == "large":
        return triangle((0, 0), (-(2 * k + 3), 0), (-3 * (2 * k + 1), 4 * (2 * k + 1)))
    if which == "small":
        return triangle((0, 0), (-(k + 1), 0), (-3 * k, 4 * k))
    raise ValueError(f"which must be 'large' or 'small', got {which!r}")


def expected_count_large(k: int) -> int:
    """Closed-form lattice count of reference_triangle(k, "large")."""
    return 8 * k * k + 18 * k + 11


def expected_count_small(k: int) -> int:
    """Closed-form lattice count of reference_triangle(k, "small")."""
    return 2 * k * k + 3 * k + 2


def c0_middle_terms(surface: WeightedSurface, n: int) -> Fraction:
    """The oscillating block -(5/2){sn} + sum_{j=0}^{l} {3j/4} of the family-B c0.

    Defined for n >= 0.  Published range facts (all tested exhaustively):
    the value is at most 1/8; it is positive iff 1/4 < {sn} < 3/10; and a
    value above -1/(32s) forces {sn} < 1/2 + 1/(80s).
    """
    _require_hypotheses(surface)
    require_int("n", n, 0)
    b, c = surface.b, surface.c
    return Fraction(_middle(b, c, n, 4 * b * n // c), 4 * c)


def c0_upper_bound(surface: WeightedSurface, n: int) -> Fraction:
    """An upper bound for the family-B c0 at level n.

    Base form: 9/8 + 1/(32s) + ((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}.
    When {sn} >= 1/2 + 1/(80s) the leading 9/8 + 1/(32s) improves to 1.
    """
    _require_hypotheses(surface)
    require_int("n", n, 1)
    b, c = surface.b, surface.c
    # Over 32bc: {sn} >= 1/2 + c/(80b) iff 80b*(bn mod c) >= c(40b + c), and
    # the lead is then 1 = 32bc/32bc, else 9/8 + c/(32b) = c(36b + c)/32bc.
    lead = 32 * b * c if 80 * b * (b * n % c) >= c * (40 * b + c) else c * (36 * b + c)
    return Fraction(lead + 16 * _tail(b, c, surface.p, n, 4 * b * n // c), 32 * b * c)


def floor_sum(alpha: int, beta: int) -> int:
    """sum_{k=0}^{beta-1} floor(alpha*k/beta) = (alpha-1)(beta-1)/2 for coprime inputs."""
    require_int("alpha", alpha)
    require_int("beta", beta)
    if alpha < 1 or beta < 1:
        raise ValueError(f"require positive inputs, got ({alpha}, {beta})")
    if gcd(alpha, beta) != 1:
        raise ValueError(f"require gcd(alpha, beta) = 1, got ({alpha}, {beta})")
    return (alpha - 1) * (beta - 1) // 2


def ceil_sum(alpha: int, beta: int) -> int:
    """sum_{k=0}^{beta-1} ceil(alpha*k/beta) = (alpha+1)(beta-1)/2 for coprime inputs.

    Differs from :func:`floor_sum` by beta - 1: every k != 0 rounds up.
    """
    return floor_sum(alpha, beta) + beta - 1


def full_sum(alpha0: int, beta0: int, beta1: int, sigma: int) -> Fraction:
    """Closed form for sum_{j=0}^{beta1} {alpha0*j/beta0}.

    Requires a partner alpha1 >= 1 with alpha1*beta0 - beta1*alpha0 = sigma
    (sigma = +-1) and 1 <= beta1 < beta0; the value is then
    (1 - sigma + (beta1 + sigma)(beta0 - sigma)) / (2*beta0).

    >>> full_sum(3, 5, 2, -1)
    Fraction(4, 5)
    >>> full_sum(2, 5, 2, 1)
    Fraction(6, 5)
    """
    require_int("alpha0", alpha0)
    require_int("beta0", beta0)
    require_int("beta1", beta1)
    require_int("sigma", sigma)
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +-1, got {sigma}")
    if not 1 <= beta1 < beta0:
        raise ValueError(f"require 1 <= beta1 < beta0, got ({beta1}, {beta0})")
    if gcd(alpha0, beta0) != 1:
        raise ValueError(f"require gcd(alpha0, beta0) = 1, got ({alpha0}, {beta0})")
    if (sigma + beta1 * alpha0) % beta0 != 0:
        raise ValueError(
            f"no integer alpha1 solves alpha1*{beta0} - {beta1}*{alpha0} = {sigma}"
        )
    alpha1 = (sigma + beta1 * alpha0) // beta0
    if alpha1 < 1:
        raise ValueError(
            f"partner alpha1 = {alpha1} is not positive for "
            f"({alpha0}, {beta0}, {beta1}, sigma={sigma})"
        )
    return Fraction(1 - sigma + (beta1 + sigma) * (beta0 - sigma), 2 * beta0)


def level_by_descent(x: Fraction) -> int:
    """The level k of an abscissa x in (2, 16/3): the least k >= 1 with
    L(k + 1) <= x, found by walking down the level edges one at a time."""
    k = 1
    while outer_bound(k + 1) > x:
        k += 1
    return k


def classify_by_fractions(b: int, p: int) -> list:
    """``threshold.classify`` as it compared the abscissa x = b/(-p) with the
    published table, one ``Fraction`` comparison per bound."""
    def outer(j):
        return Fraction(16 * j * j, 8 * j * j - 4 * j - 1)

    def level_rows(k):
        mid_left = Fraction(2 * k + 1, k)
        mid_right = Fraction(4 * (2 * k + 1) ** 2, 8 * k * k + 4 * k - 1)
        three_quarter = Fraction(4 * k, 2 * k - 1)
        return (
            ("I'-", outer(k + 1), mid_left, 2 * k + 3, FAMILY_B, 4 * (k + 1)),
            ("I'+", mid_left, mid_right, 2 * k + 1, FAMILY_C, 4 * (k + 1)),
            ("I''-", mid_right, three_quarter, k + 1, FAMILY_B, 2 * k + 1),
            ("I''+", three_quarter, outer(k), k, FAMILY_C, 2 * k + 1),
        )

    if p >= 0:
        raise ValueError(f"classification requires p < 0, got {p}")
    if b < 1:
        raise ValueError(f"require b >= 1, got {b}")
    x = Fraction(b, -p)
    if not Fraction(2) < x < Fraction(16, 3):
        raise ValueError(f"abscissa b/(-p) = {x} outside the open interval (2, 16/3)")
    c = 3 * b + 4 * p
    found = []
    lead = 8 * b + 16 * p
    j = max(2, (2 * b + isqrt(4 * b * b + lead * b)) // lead)
    while lead * j * j - 4 * b * j - b < 0:
        j += 1
    k = j - 1
    for level in (k, k + 1) if x == outer(k + 1) else (k,):
        for branch, lo, hi, m0, family, nu0 in level_rows(level):
            if lo <= x <= hi:
                found.append(Classification(
                    k=level, branch=branch, m0=m0, family=family, nu0=nu0,
                    gamma_pred=Fraction(nu0 * (c if family == FAMILY_B else b), m0),
                ))
    return found


def fraction_coefficients(surface, family: str, n: int) -> tuple:
    """(c2, c1, c0) of ``ehrhart.coefficients`` as Fraction expressions of the
    published formulas, without its input checks."""
    b, c, p = surface.b, surface.c, surface.p
    s = Fraction(b, c)
    if family == FAMILY_B:
        c2 = 2 * s
        c1 = (1 + s + Fraction(4, c)) / 2
        frac_4sn = Fraction((4 * b * n) % c, c)
        c0 = (
            1
            - Fraction(c, 8 * b) * (frac_4sn * frac_4sn - frac_4sn)
            + fraction_middle_terms(surface, n)
            + fraction_c0_tail(surface, n)
        )
    elif family == FAMILY_C:
        c2 = 2 / s
        c1 = (1 + 1 / s + Fraction(4, b)) / 2
        frac_4n_b = Fraction((4 * n) % b, b)
        c0 = (
            1
            - frac_4n_b
            - Fraction(b - 1, 2) * frac_4n_b
            + frac_sum(-p, b, (4 * n) % b)
        )
    else:
        raise ValueError(f"Ehrhart coefficients exist for families B and C only, got {family!r}")
    return c2, c1, c0


def fraction_middle_terms(surface, n: int) -> Fraction:
    """-(5/2){sn} + sum_{j=0}^{l} {3j/4}, l = floor(4sn) mod 4, as Fractions."""
    b, c = surface.b, surface.c
    frac_sn = Fraction((b * n) % c, c)
    ell = ((4 * b * n) // c) % 4
    return -Fraction(5, 2) * frac_sn + frac_sum(3, 4, ell)


def fraction_c0_tail(surface, n: int) -> Fraction:
    """((b-1)/2){4n/c} - sum_{j=0}^{r} {-pj/b}, r = floor(4sn) mod b: the
    last two terms of the family-B c0."""
    b, c, p = surface.b, surface.c, surface.p
    r = ((4 * b * n) // c) % b
    return Fraction((b - 1) * ((4 * n) % c), 2 * c) - frac_sum(-p, b, r)


def fraction_value(c2: Fraction, c1: Fraction, c0: Fraction, n: int) -> Fraction:
    """c2*n^2 + c1*n + c0, one Fraction operation at a time."""
    return c2 * n * n + c1 * n + c0


def scan_family(req, limit: int) -> list:
    """``families.solve_family`` as the scan it replaced: test each of the
    ``limit`` progression indices from the first with b >= 5, comparing
    ``Fraction(b, m)`` with the interval filter, and return the first
    ``req.count`` members found, or all of them if the window holds fewer."""
    b0 = pow(req.alpha, -1, req.beta) * req.tau
    m0 = (req.alpha * b0 - req.tau) // req.beta
    t_start = -((b0 - 5) // req.beta)
    out = []
    for t in range(t_start, t_start + limit):
        b = b0 + req.beta * t
        m = m0 + req.alpha * t
        if m < 1 or b % 2 == 0:
            continue
        c = 3 * b - 4 * m
        if c <= b:
            continue
        if req.interval is not None:
            lo, hi = req.interval
            if not lo <= Fraction(b, m) <= hi:
                continue
        out.append(make_surface(4, b, c))
        if len(out) == req.count:
            break
    return out


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
