"""Upper half-plane hyperbolic geometry.

Conventions used throughout the package:

* Points of the hyperbolic plane are complex numbers z with z.imag > 0.
* Boundary points are floats; the single point at infinity is
  ``math.inf`` (negative infinity is normalized to it on input).
* Isometries are real 2x2 matrices of determinant one acting by Mobius
  transformations; the matrix and its negative act identically.
* Geodesics are given by their pair of ideal endpoints (p, q), oriented
  from p to q; a Geodesic value can drop the orientation.
* Inside the library these are the one geometry format: a matrix is a
  tuple (a, b, c, d) and a geodesic a pair of normalized endpoints, and
  the functions on them (mat_mul, mat_inverse, mat_apply_boundary,
  mat_fixed_points, two_point_mat, three_point_mat, geodesic_ends, ...)
  hold every formula.
* The value types Isometry, Geodesic and IdealTriangle are the public
  API's values: a public function that returns a matrix returns an
  Isometry of it, and the exported object functions (classify, shear,
  incircle, ...) read them.  Outside this module the library builds one
  only where a public function returns it.  They are slotted
  dataclasses, immutable by convention, compare by value and are not
  hashable; tests/test_hygiene.py checks both rules.  The object forms
  that only the tests' oracle uses live in tests/geometric_oracle.py.

The shear of two ideal triangles across a common edge is the signed
distance along the oriented edge between the tangency points of their
inscribed circles ("shear points").  Both the metric definition and the
log-cross-ratio shortcut are implemented so that each can serve as an
oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

CLASSIFY_TOL = 1e-9
GEOM_TOL = 1e-9
#: Allowed residual of the shear relations (cusp sums, curve-side sums).
RELATION_TOL = 1e-6
#: mat_fixed_points takes a hyperbolic matrix as fixing inf when |c| is
#: below this times its largest diagonal entry (and 1)
_VERTICAL_TOL = 1e-14

#: Radius of the circle inscribed in any ideal triangle.
IDEAL_INRADIUS = math.log(3.0) / 2.0

IDENTITY = (1.0, 0.0, 0.0, 1.0)


def normalize_boundary(x):
    """Collapse -inf to the single boundary point at infinity."""
    if x == -INF:
        return INF
    return float(x)


def boundary_close(x, y, tol=GEOM_TOL):
    if x == INF or y == INF:
        return x == y
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


class GeometryError(ValueError):
    """Raised when an operation receives geometrically invalid input."""


def _unit_det(a, b, c, d):
    """The matrix scaled to determinant one; a non-positive one is rejected."""
    det = a * d - b * c
    if det <= 0:
        raise GeometryError(f"matrix determinant {det} is not positive")
    s = math.sqrt(det)
    return (a / s, b / s, c / s, d / s)


def mat_mul(m, n):
    """Product of 2x2 matrices given as (a, b, c, d) rows; any number type.

    The determinant is not renormalized: products of unit-determinant
    matrices drift from det 1 only at machine precision, while the float
    determinant of a large-entry product is dominated by cancellation
    noise, so "fixing" it would inject error.
    """
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_apply(m, z: complex) -> complex:
    """The Mobius action of the matrix m on an interior point."""
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def mat_apply_boundary(m, x):
    """The Mobius action of the matrix m on a boundary point."""
    a, b, c, d = m
    if x == INF:
        if abs(c) == 0.0:
            return INF
        return a / c
    den = c * x + d
    if den == 0.0:
        return INF
    return normalize_boundary((a * x + b) / den)


def mat_inverse(m):
    """Inverse of a matrix of determinant one."""
    a, b, c, d = m
    return (d, -b, -c, a)


@dataclass(slots=True)
class Isometry:
    """Orientation-preserving isometry of the half-plane, det normalized to 1.

    The public value of a matrix tuple (a, b, c, d); the library computes
    on the tuple.
    """

    a: float
    b: float
    c: float
    d: float


def mat_classify(m) -> str:
    a, b, c, d = m
    if (abs(b) <= CLASSIFY_TOL and abs(c) <= CLASSIFY_TOL
            and abs(abs(a) - 1.0) <= CLASSIFY_TOL
            and abs(abs(d) - 1.0) <= CLASSIFY_TOL
            and a * d > 0):
        return "identity"
    t = abs(a + d)
    if t < 2.0 - CLASSIFY_TOL:
        return "elliptic"
    if t <= 2.0 + CLASSIFY_TOL:
        return "parabolic"
    return "hyperbolic"


def classify(f: Isometry) -> str:
    return mat_classify((f.a, f.b, f.c, f.d))


def mat_translation_length(m) -> float:
    """Translation length of a matrix that mat_classify calls hyperbolic."""
    return 2.0 * math.acosh(abs(m[0] + m[3]) / 2.0)


def translation_length(f: Isometry) -> float:
    m = (f.a, f.b, f.c, f.d)
    kind = mat_classify(m)
    if kind != "hyperbolic":
        raise GeometryError(f"translation length undefined for {kind} isometry")
    return mat_translation_length(m)


def mat_fixed_points(m, kind: str):
    """Fixed points on the boundary of the matrix m of the given kind.

    kind is mat_classify(m).  Hyperbolic: ordered pair (attracting,
    repelling).  Parabolic: a single point.  Elliptic and identity
    inputs are rejected.
    """
    a, b, c, d = m
    if kind == "parabolic":
        if abs(c) <= CLASSIFY_TOL * max(1.0, abs(a), abs(d)):
            return (INF,)
        return ((a - d) / (2.0 * c),)
    if kind != "hyperbolic":
        raise GeometryError(f"no boundary fixed points for {kind} isometry")
    tr = a + d
    disc = math.sqrt(tr * tr - 4.0)
    if abs(c) < _VERTICAL_TOL * max(1.0, abs(a), abs(d)):
        # one fixed point is inf; the other solves (a - d) x + b = 0
        other = b / (d - a) if a != d else INF
        # inf is attracting iff |a| > |d| (derivative at inf is (a/d)^... < 1 test)
        if abs(a) > abs(d):
            return (INF, other)
        return (other, INF)
    x1 = ((a - d) + disc) / (2.0 * c)
    x2 = ((a - d) - disc) / (2.0 * c)
    # attracting fixed point has |c x + d| > 1 (eigenvalue of modulus > 1)
    if abs(c * x1 + d) > 1.0:
        return (x1, x2)
    return (x2, x1)


def fixed_points(f: Isometry):
    """Fixed points on the boundary (mat_fixed_points of its matrix)."""
    m = (f.a, f.b, f.c, f.d)
    return mat_fixed_points(m, mat_classify(m))


def cross_ratio(p1, p2, p3, p4):
    """cr = ((p1-p3)(p2-p4)) / ((p1-p4)(p2-p3)), with inf handled by limits."""
    p1 = normalize_boundary(p1)
    p2 = normalize_boundary(p2)
    p3 = normalize_boundary(p3)
    p4 = normalize_boundary(p4)
    if (p1 == p2 or p1 == p3 or p1 == p4 or p2 == p3 or p2 == p4
            or p3 == p4):
        raise GeometryError("cross-ratio of coincident points")
    if p1 == INF:
        return (p2 - p4) / (p2 - p3)
    if p2 == INF:
        return (p1 - p3) / (p1 - p4)
    if p3 == INF:
        return (p2 - p4) / (p1 - p4)
    if p4 == INF:
        return (p1 - p3) / (p2 - p3)
    return ((p1 - p3) * (p2 - p4)) / ((p1 - p4) * (p2 - p3))


def cyclically_ordered(a, b, c) -> bool:
    """True if (a, b, c) are in positive cyclic order on the boundary circle.

    The circle is the real line plus inf, traversed in increasing direction.
    """
    a = normalize_boundary(a)
    b = normalize_boundary(b)
    c = normalize_boundary(c)
    if a == INF:
        return b < c
    if b == INF:
        return c < a
    if c == INF:
        return a < b
    return (a < b < c) or (b < c < a) or (c < a < b)


def oriented(a, b, c):
    """The triple (a, b, c) or (a, c, b), whichever is positively ordered."""
    return (a, b, c) if cyclically_ordered(a, b, c) else (a, c, b)


@dataclass(slots=True)
class Geodesic:
    """Complete geodesic with ideal endpoints p, q; oriented from p to q."""

    p: float
    q: float
    oriented: bool = True

    def __post_init__(self):
        self.p, self.q = geodesic_ends(self.p, self.q)

    def reversed(self):
        return Geodesic(self.q, self.p, self.oriented)


def geodesic_ends(p, q):
    """The normalized endpoints (p, q) of a geodesic; they must differ."""
    p = normalize_boundary(p)
    q = normalize_boundary(q)
    if p == q:
        raise GeometryError("geodesic endpoints must be distinct")
    return p, q


def two_point_mat(p, q):
    """Matrix of the orientation-preserving map sending p -> 0, q -> inf."""
    p = normalize_boundary(p)
    q = normalize_boundary(q)
    if p == q:
        raise GeometryError("points must be distinct")
    if p == INF:
        return _unit_det(0.0, -1.0, 1.0, -q)
    if q == INF:
        return _unit_det(1.0, -p, 0.0, 1.0)
    if p < q:
        return _unit_det(1.0, -p, -1.0, q)
    return _unit_det(1.0, -p, 1.0, -q)


def three_point_mat(p, q, r):
    """Matrix of the orientation-preserving map with 0 -> p, 1 -> q, inf -> r.

    Requires (p, q, r) in positive cyclic order.
    """
    if not cyclically_ordered(p, q, r):
        raise GeometryError("target triple must be positively ordered")
    p = normalize_boundary(p)
    q = normalize_boundary(q)
    r = normalize_boundary(r)
    if r == INF:
        return _unit_det(q - p, p, 0.0, 1.0)
    if p == INF:
        return _unit_det(r, q - r, 1.0, 0.0)
    if q == INF:
        return _unit_det(r, -p, 1.0, -1.0)
    return _unit_det(r * (q - p), p * (r - q), q - p, r - q)


def dist(z: complex, w: complex) -> float:
    if z.imag <= 0 or w.imag <= 0:
        raise GeometryError("points must lie in the upper half-plane")
    d2 = abs(z - w) ** 2
    return math.acosh(1.0 + d2 / (2.0 * z.imag * w.imag))


def axis_distance(m, z: complex) -> float:
    """Distance from z to the geodesic that the matrix m sends to (0, inf)."""
    w = mat_apply(m, z)
    return math.asinh(abs(w.real) / w.imag)


def dist_to_geodesic(z: complex, g: Geodesic) -> float:
    return axis_distance(two_point_mat(g.p, g.q), z)


def side_of(g: Geodesic, x) -> str:
    """Which side of the oriented geodesic a boundary point lies on."""
    if not g.oriented:
        raise GeometryError("side is only defined for oriented geodesics")
    return "left" if cyclically_ordered(g.p, g.q, x) else "right"


def perpendicular_foot(z: complex, p, q) -> complex:
    """Foot of the perpendicular from z to the geodesic from p to q."""
    m = two_point_mat(p, q)
    w = mat_apply(m, z)
    return mat_apply(mat_inverse(m), complex(0.0, abs(w)))


def geodesic_intersection(g1, g2) -> complex:
    """The crossing point of two intersecting geodesics, given by their
    pairs of normalized endpoints."""
    m = two_point_mat(*g1)
    a = mat_apply_boundary(m, g2[0])
    b = mat_apply_boundary(m, g2[1])
    if a == INF or b == INF:
        raise GeometryError("geodesics do not cross")
    if a * b >= 0:
        raise GeometryError("geodesics do not cross")
    return mat_apply(mat_inverse(m), complex(0.0, math.sqrt(-a * b)))


def common_perpendicular_ends(p1, q1, p2, q2):
    """Endpoints of the common perpendicular of the geodesics (p1, q1), (p2, q2)."""
    m = two_point_mat(p1, q1)
    a = mat_apply_boundary(m, p2)
    b = mat_apply_boundary(m, q2)
    if a == INF or b == INF or a * b <= 0:
        raise GeometryError("geodesics are not disjoint")
    r = math.sqrt(a * b)
    if a < 0:
        r = -r
    inv = mat_inverse(m)
    return geodesic_ends(mat_apply_boundary(inv, -r),
                         mat_apply_boundary(inv, r))


def ends_distance(p1, q1, p2, q2) -> float:
    """Distance between the disjoint geodesics (p1, q1) and (p2, q2)."""
    m = two_point_mat(p1, q1)
    a = mat_apply_boundary(m, p2)
    b = mat_apply_boundary(m, q2)
    if a == INF or b == INF:
        # shares an endpoint with (0, inf) after mapping: asymptotic
        return 0.0
    if a * b < 0:
        raise GeometryError("geodesics cross; distance undefined")
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == b:
        raise GeometryError("geodesic endpoints coincide in float64")
    return math.asinh(2.0 * math.sqrt(a * b) / abs(b - a))


def reflection_mat(p, q):
    """Matrix of the reflection in the geodesic with normalized ends p, q."""
    if p == INF or q == INF:
        x0 = q if p == INF else p
        return (-1.0, 2.0 * x0, 0.0, 1.0)
    c = (p + q) / 2.0
    r = abs(q - p) / 2.0
    return (c / r, (r * r - c * c) / r, 1.0 / r, -c / r)


@dataclass(slots=True)
class IdealTriangle:
    """Ideal triangle with vertices in positive cyclic order."""

    v1: float
    v2: float
    v3: float

    def __post_init__(self):
        self.v1 = v1 = normalize_boundary(self.v1)
        self.v2 = v2 = normalize_boundary(self.v2)
        self.v3 = v3 = normalize_boundary(self.v3)
        if len({v1, v2, v3}) != 3:
            raise GeometryError("ideal triangle needs three distinct vertices")
        if not cyclically_ordered(v1, v2, v3):
            raise GeometryError("vertices must be in positive cyclic order")

    def vertices(self):
        return (self.v1, self.v2, self.v3)

    def sides(self):
        """The three sides, side i joining vertex i to vertex i+1."""
        return (Geodesic(self.v1, self.v2), Geodesic(self.v2, self.v3),
                Geodesic(self.v3, self.v1))


# Incircle data of the standard triangle (0, 1, inf): center and radius.
_STD_CENTER = complex(0.5, math.sqrt(3.0) / 2.0)


def incircle_center(v1, v2, v3) -> complex:
    """Center of the circle inscribed in the ideal triangle (v1, v2, v3)."""
    return mat_apply(three_point_mat(v1, v2, v3), _STD_CENTER)


def incircle(t: IdealTriangle):
    """Center and radius of the inscribed circle; the radius is log(3)/2 always."""
    return incircle_center(t.v1, t.v2, t.v3), IDEAL_INRADIUS


def shear_points(t: IdealTriangle):
    """Tangency points of the incircle, one on each side.

    Returns (s12, s23, s31) where sij lies on the side from vi to vj.
    """
    center, _ = incircle(t)
    return tuple(perpendicular_foot(center, side.p, side.q)
                 for side in t.sides())


def _shared_edge_apexes(t_a: IdealTriangle, t_b: IdealTriangle, edge: Geodesic):
    ends = {edge.p, edge.q}
    va = set(t_a.vertices())
    vb = set(t_b.vertices())
    if not ends <= va or not ends <= vb:
        raise GeometryError("triangles do not share the given edge")
    apex_a = (va - ends).pop()
    apex_b = (vb - ends).pop()
    if side_of(edge, apex_a) == side_of(edge, apex_b):
        raise GeometryError("triangle apexes lie on the same side of the edge")
    return apex_a, apex_b


def shear(t_a: IdealTriangle, t_b: IdealTriangle, edge: Geodesic,
          method: str = "cross_ratio") -> float:
    """Signed distance along the oriented edge from t_a's shear point to t_b's.

    Sign calibration: zero for the symmetric quadrilateral (-1, 0, 1, inf)
    with edge (0, inf); positive when the apex of the triangle on the right
    of the oriented edge is pulled toward the edge's forward endpoint.
    Swapping the two triangles negates the value, as does reversing the
    edge orientation.
    """
    if not edge.oriented:
        raise GeometryError("shear requires an oriented edge")
    apex_a, apex_b = _shared_edge_apexes(t_a, t_b, edge)
    if method == "cross_ratio":
        if side_of(edge, apex_b) == "right":
            return apex_shear(edge.p, edge.q, apex_b, apex_a)
        return -apex_shear(edge.p, edge.q, apex_a, apex_b)
    if method == "shear_points":
        m = two_point_mat(edge.p, edge.q)
        coord = {}
        for name, tri in (("a", t_a), ("b", t_b)):
            pts = shear_points(tri)
            on_edge = min(pts, key=lambda s: dist_to_geodesic(s, edge))
            if dist_to_geodesic(on_edge, edge) > 1e-7:
                raise GeometryError("shear point not found on shared edge")
            w = mat_apply(m, on_edge)
            coord[name] = math.log(w.imag)
        return coord["b"] - coord["a"]
    raise ValueError(f"unknown shear method {method!r}")


def apex_shear(p, q, right, left) -> float:
    """Shear across the edge from p to q of the quadrilateral with these apexes.

    The signed distance along the oriented edge from the shear point of
    the triangle with apex ``left`` (left of the edge) to that of the
    triangle with apex ``right``: log(-cr(p, q, right, left)).
    """
    cr = cross_ratio(p, q, right, left)
    if cr >= 0:
        raise GeometryError("degenerate quadrilateral in shear computation")
    return math.log(-cr)


def quad_shear(x, y, z, w) -> float:
    """Shear of the edge (x, y) of a quadrilateral with apexes z and w, in
    the sign convention of the cusped triangulations' stored shears.

    It is -apex_shear of the edge with its right apex, then its left one,
    after the checks that a Geodesic of the edge, the two IdealTriangles
    and shear of them make, in that order and with their errors.
    """
    p, q = geodesic_ends(x, y)
    left = []
    for apex in (z, w):
        if len({p, q, normalize_boundary(apex)}) != 3:
            raise GeometryError("ideal triangle needs three distinct vertices")
        left.append(cyclically_ordered(p, q, apex))
        if not (left[-1] or cyclically_ordered(p, apex, q)):
            raise GeometryError("vertices must be in positive cyclic order")
    if left[0] == left[1]:
        raise GeometryError("triangle apexes lie on the same side of the edge")
    if left[0]:
        return -apex_shear(p, q, w, z)
    return -apex_shear(p, q, z, w)


def horocycle_length_at_radius(r: float) -> float:
    """Length of the horocycle through a cusp point of injectivity radius r."""
    if r <= 0:
        raise GeometryError("injectivity radius must be positive")
    return 2.0 * math.sinh(r)


def parabolic_fixing(q, x, y):
    """Matrix of the parabolic fixing the boundary point q that maps x to y."""
    q = normalize_boundary(q)
    x = normalize_boundary(x)
    y = normalize_boundary(y)
    if q == INF:
        return (1.0, y - x, 0.0, 1.0)
    if x == INF or y == INF:
        raise GeometryError("only finite points are supported away from q")
    den = (x - q) * (q - y)
    if den == 0.0:
        raise GeometryError("degenerate parabolic constraint")
    c = (y - x) / den
    return (1.0 + c * q, -c * q * q, c, 1.0 - c * q)


def parabolic_shift_mat(parabolic, fix):
    """The cusp frame (m, shift) of a parabolic matrix fixing fix.

    m is the matrix that sends fix to inf (the identity when fix is inf),
    and shift is |g_a g_b| for g = m parabolic m^-1 = (g_a, g_b, g_c, g_d),
    which fixes inf: with |g_a| = 1 it moves every point by |g_b|.
    """
    if fix == INF:
        m = IDENTITY
    else:
        m = _unit_det(0.0, -1.0, 1.0, -fix)
    g = mat_mul(mat_mul(m, parabolic), mat_inverse(m))
    return m, abs(g[0] * g[1])


def horocycle_frame(parabolic):
    """The cusp frame (m, shift) of a parabolic matrix (parabolic_shift_mat).

    A hyperbolic input, such as a cusp stabilizer that rounding pushed
    past the parabolic tolerance, is rejected by name.
    """
    points = mat_fixed_points(parabolic, mat_classify(parabolic))
    if len(points) != 1:
        raise GeometryError("no horocycle for hyperbolic isometry")
    (fix,) = points
    return parabolic_shift_mat(parabolic, fix)


def horocycle_length(frame, z: complex) -> float:
    """Length of the horocycle through z in the cusp frame (m, shift)."""
    m, shift = frame
    return shift / mat_apply(m, z).imag


