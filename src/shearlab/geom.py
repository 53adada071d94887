"""Upper half-plane hyperbolic geometry.

Conventions used throughout the package:

* Points of the hyperbolic plane are complex numbers z with z.imag > 0.
* Boundary points are floats; the single point at infinity is
  ``math.inf`` (negative infinity is normalized to it on input).
* Isometries are real 2x2 matrices of determinant one acting by Mobius
  transformations; the matrix and its negative act identically.
* Geodesics are stored by their pair of ideal endpoints and are oriented
  from ``p`` to ``q`` when the orientation flag is set.
* The value types (Isometry, Reflection, Geodesic, IdealTriangle) are
  slotted dataclasses, which are much cheaper to build than frozen
  ones.  They are immutable by convention, and tests/test_hygiene.py
  rejects any store to one of their fields outside the class's own
  methods: the pants cache shares them across records.  They compare
  by value, an Isometry never equal to a Reflection, and are not
  hashable.

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

#: Radius of the circle inscribed in any ideal triangle.
IDEAL_INRADIUS = math.log(3.0) / 2.0


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


@dataclass(slots=True)
class Isometry:
    """Orientation-preserving isometry of the half-plane, det normalized to 1."""

    a: float
    b: float
    c: float
    d: float

    @classmethod
    def from_matrix(cls, a, b, c, d):
        det = a * d - b * c
        if det <= 0:
            raise GeometryError(f"matrix determinant {det} is not positive")
        s = math.sqrt(det)
        return cls(a / s, b / s, c / s, d / s)

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t):
        """Hyperbolic translation by length t along the imaginary axis (0 -> inf)."""
        e = math.exp(t / 2.0)
        return cls(e, 0.0, 0.0, 1.0 / e)

    @classmethod
    def half_turn(cls):
        """z -> -1/z: swaps the two sides of the imaginary axis, reversing it."""
        return cls(0.0, -1.0, 1.0, 0.0)

    def trace(self):
        return self.a + self.d

    def inverse(self):
        return Isometry(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other):
        # No determinant renormalization here: products of unit-determinant
        # matrices drift from det 1 only at machine precision, while the
        # float determinant of a large-entry product is dominated by
        # cancellation noise, so "fixing" it would inject error.
        return Isometry(*_mat_mul((self.a, self.b, self.c, self.d),
                                  (other.a, other.b, other.c, other.d)))

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply_boundary(self, x):
        if x == INF:
            if abs(self.c) == 0.0:
                return INF
            return self.a / self.c
        den = self.c * x + self.d
        if den == 0.0:
            return INF
        return normalize_boundary((self.a * x + self.b) / den)

    def __call__(self, z):
        if isinstance(z, complex):
            return self.apply(z)
        return self.apply_boundary(z)


@dataclass(slots=True)
class Reflection:
    """Orientation-reversing isometry z -> (a conj(z) + b)/(c conj(z) + d), det -1."""

    a: float
    b: float
    c: float
    d: float

    def apply(self, z: complex) -> complex:
        w = z.conjugate()
        return (self.a * w + self.b) / (self.c * w + self.d)

    def apply_boundary(self, x):
        if x == INF:
            if abs(self.c) == 0.0:
                return INF
            return self.a / self.c
        den = self.c * x + self.d
        if den == 0.0:
            return INF
        return normalize_boundary((self.a * x + self.b) / den)

    def conjugate_isometry(self, f: Isometry) -> Isometry:
        """Return R f R (again orientation preserving)."""
        m = _mat_mul(_mat_mul((self.a, self.b, self.c, self.d), (f.a, f.b, f.c, f.d)),
                     (self.a, self.b, self.c, self.d))
        return Isometry(*m)


def _mat_mul(m, n):
    """Product of 2x2 matrices given as (a, b, c, d) rows; any number type."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def compose_reflections(r1: Reflection, r2: Reflection) -> Isometry:
    """The product of two reflections is orientation preserving."""
    m = _mat_mul((r1.a, r1.b, r1.c, r1.d), (r2.a, r2.b, r2.c, r2.d))
    return Isometry(*m)


def classify(f: Isometry) -> str:
    if (abs(f.b) <= CLASSIFY_TOL and abs(f.c) <= CLASSIFY_TOL
            and abs(abs(f.a) - 1.0) <= CLASSIFY_TOL
            and abs(abs(f.d) - 1.0) <= CLASSIFY_TOL
            and f.a * f.d > 0):
        return "identity"
    t = abs(f.trace())
    if t < 2.0 - CLASSIFY_TOL:
        return "elliptic"
    if t <= 2.0 + CLASSIFY_TOL:
        return "parabolic"
    return "hyperbolic"


def translation_length(f: Isometry) -> float:
    kind = classify(f)
    if kind != "hyperbolic":
        raise GeometryError(f"translation length undefined for {kind} isometry")
    return 2.0 * math.acosh(abs(f.trace()) / 2.0)


def fixed_points(f: Isometry):
    """Fixed points on the boundary.

    Hyperbolic: ordered pair (attracting, repelling).  Parabolic: a single
    point.  Elliptic and identity inputs are rejected.
    """
    kind = classify(f)
    if kind == "parabolic":
        if abs(f.c) <= CLASSIFY_TOL * max(1.0, abs(f.a), abs(f.d)):
            return (INF,)
        return ((f.a - f.d) / (2.0 * f.c),)
    if kind != "hyperbolic":
        raise GeometryError(f"no boundary fixed points for {kind} isometry")
    tr = f.trace()
    disc = math.sqrt(tr * tr - 4.0)
    if abs(f.c) < 1e-14 * max(1.0, abs(f.a), abs(f.d)):
        # one fixed point is inf; the other solves (a - d) x + b = 0
        other = f.b / (f.d - f.a) if f.a != f.d else INF
        # inf is attracting iff |a| > |d| (derivative at inf is (a/d)^... < 1 test)
        if abs(f.a) > abs(f.d):
            return (INF, other)
        return (other, INF)
    x1 = ((f.a - f.d) + disc) / (2.0 * f.c)
    x2 = ((f.a - f.d) - disc) / (2.0 * f.c)
    # attracting fixed point has |c x + d| > 1 (eigenvalue of modulus > 1)
    if abs(f.c * x1 + f.d) > 1.0:
        return (x1, x2)
    return (x2, x1)


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
        self.p = normalize_boundary(self.p)
        self.q = normalize_boundary(self.q)
        if self.p == self.q:
            raise GeometryError("geodesic endpoints must be distinct")

    def reversed(self):
        return Geodesic(self.q, self.p, self.oriented)


def mobius_two_point(p, q) -> Isometry:
    """Orientation-preserving map sending p -> 0 and q -> inf."""
    p = normalize_boundary(p)
    q = normalize_boundary(q)
    if p == q:
        raise GeometryError("points must be distinct")
    if p == INF:
        return Isometry.from_matrix(0.0, -1.0, 1.0, -q)
    if q == INF:
        return Isometry.from_matrix(1.0, -p, 0.0, 1.0)
    if p < q:
        return Isometry.from_matrix(1.0, -p, -1.0, q)
    return Isometry.from_matrix(1.0, -p, 1.0, -q)


def mobius_three_point(p, q, r) -> Isometry:
    """Orientation-preserving map with 0 -> p, 1 -> q, inf -> r.

    Requires (p, q, r) in positive cyclic order.
    """
    if not cyclically_ordered(p, q, r):
        raise GeometryError("target triple must be positively ordered")
    p = normalize_boundary(p)
    q = normalize_boundary(q)
    r = normalize_boundary(r)
    if r == INF:
        return Isometry.from_matrix(q - p, p, 0.0, 1.0)
    if p == INF:
        return Isometry.from_matrix(r, q - r, 1.0, 0.0)
    if q == INF:
        return Isometry.from_matrix(r, -p, 1.0, -1.0)
    return Isometry.from_matrix(r * (q - p), p * (r - q), q - p, r - q)


def dist(z: complex, w: complex) -> float:
    if z.imag <= 0 or w.imag <= 0:
        raise GeometryError("points must lie in the upper half-plane")
    d2 = abs(z - w) ** 2
    return math.acosh(1.0 + d2 / (2.0 * z.imag * w.imag))


def dist_to_geodesic(z: complex, g: Geodesic) -> float:
    m = mobius_two_point(g.p, g.q)
    w = m(z)
    return math.asinh(abs(w.real) / w.imag)


def side_of(g: Geodesic, x) -> str:
    """Which side of the oriented geodesic a boundary point lies on."""
    if not g.oriented:
        raise GeometryError("side is only defined for oriented geodesics")
    return "left" if cyclically_ordered(g.p, g.q, x) else "right"


def side_of_point(g: Geodesic, z: complex) -> str:
    """Which side of the oriented geodesic an interior point lies on."""
    m = mobius_two_point(g.p, g.q)
    w = m(z)
    # travelling upward along the imaginary axis, the left side is Re < 0
    return "left" if w.real < 0 else "right"


def foot_of_perpendicular(z: complex, g: Geodesic) -> complex:
    m = mobius_two_point(g.p, g.q)
    w = m(z)
    return m.inverse()(complex(0.0, abs(w)))


def geodesic_intersection(g1: Geodesic, g2: Geodesic) -> complex:
    """The crossing point of two intersecting geodesics."""
    m = mobius_two_point(g1.p, g1.q)
    a = m.apply_boundary(g2.p)
    b = m.apply_boundary(g2.q)
    if a == INF or b == INF:
        raise GeometryError("geodesics do not cross")
    if a * b >= 0:
        raise GeometryError("geodesics do not cross")
    return m.inverse()(complex(0.0, math.sqrt(-a * b)))


def common_perpendicular(g1: Geodesic, g2: Geodesic) -> Geodesic:
    """Common perpendicular of two disjoint geodesics."""
    m = mobius_two_point(g1.p, g1.q)
    a = m.apply_boundary(g2.p)
    b = m.apply_boundary(g2.q)
    if a == INF or b == INF or a * b <= 0:
        raise GeometryError("geodesics are not disjoint")
    r = math.sqrt(a * b)
    if a < 0:
        r = -r
    inv = m.inverse()
    return Geodesic(inv.apply_boundary(-r), inv.apply_boundary(r))


def dist_between_geodesics(g1: Geodesic, g2: Geodesic) -> float:
    m = mobius_two_point(g1.p, g1.q)
    a = m.apply_boundary(g2.p)
    b = m.apply_boundary(g2.q)
    if a == INF or b == INF:
        # shares an endpoint with (0, inf) after mapping: asymptotic
        return 0.0
    if a * b < 0:
        raise GeometryError("geodesics cross; distance undefined")
    if a == 0.0 or b == 0.0:
        return 0.0
    return math.asinh(2.0 * math.sqrt(a * b) / abs(b - a))


def geodesic_reflection(g: Geodesic) -> Reflection:
    if g.p == INF or g.q == INF:
        x0 = g.q if g.p == INF else g.p
        return Reflection(-1.0, 2.0 * x0, 0.0, 1.0)
    c = (g.p + g.q) / 2.0
    r = abs(g.q - g.p) / 2.0
    return Reflection(c / r, (r * r - c * c) / r, 1.0 / r, -c / r)


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


def incircle(t: IdealTriangle):
    """Center and radius of the inscribed circle; the radius is log(3)/2 always."""
    m = mobius_three_point(t.v1, t.v2, t.v3)
    return m(_STD_CENTER), IDEAL_INRADIUS


def shear_points(t: IdealTriangle):
    """Tangency points of the incircle, one on each side.

    Returns (s12, s23, s31) where sij lies on the side from vi to vj.
    """
    center, _ = incircle(t)
    return tuple(foot_of_perpendicular(center, side) for side in t.sides())


def shear_point_on(t: IdealTriangle, edge: Geodesic) -> complex:
    """Tangency point of the incircle on the side of t along the edge.

    The side is taken with the orientation ``t.sides()`` gives it, so the
    point equals the matching entry of ``shear_points(t)`` to the bit.
    """
    center, _ = incircle(t)
    ends = {edge.p, edge.q}
    for a, b in ((t.v1, t.v2), (t.v2, t.v3), (t.v3, t.v1)):
        if {a, b} == ends:
            return foot_of_perpendicular(center, Geodesic(a, b))
    raise GeometryError("edge is not a side of the triangle")


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
            return apex_shear(edge, apex_b, apex_a)
        return -apex_shear(edge, apex_a, apex_b)
    if method == "shear_points":
        m = mobius_two_point(edge.p, edge.q)
        coord = {}
        for name, tri in (("a", t_a), ("b", t_b)):
            pts = shear_points(tri)
            on_edge = min(pts, key=lambda s: dist_to_geodesic(s, edge))
            if dist_to_geodesic(on_edge, edge) > 1e-7:
                raise GeometryError("shear point not found on shared edge")
            w = m(on_edge)
            coord[name] = math.log(w.imag)
        return coord["b"] - coord["a"]
    raise ValueError(f"unknown shear method {method!r}")


def apex_shear(edge: Geodesic, right, left) -> float:
    """Shear across the edge of the quadrilateral with these two apexes.

    The signed distance along the oriented edge from the shear point of
    the triangle with apex ``left`` (left of the edge) to that of the
    triangle with apex ``right``: log(-cr(p, q, right, left)).
    """
    cr = cross_ratio(edge.p, edge.q, right, left)
    if cr >= 0:
        raise GeometryError("degenerate quadrilateral in shear computation")
    return math.log(-cr)


def horocycle_length_at_radius(r: float) -> float:
    """Length of the horocycle through a cusp point of injectivity radius r."""
    if r <= 0:
        raise GeometryError("injectivity radius must be positive")
    return 2.0 * math.sinh(r)


def parabolic_fixing(q, x, y) -> Isometry:
    """The parabolic fixing the boundary point q that maps x to y."""
    q = normalize_boundary(q)
    x = normalize_boundary(x)
    y = normalize_boundary(y)
    if q == INF:
        return Isometry(1.0, y - x, 0.0, 1.0)
    if x == INF or y == INF:
        raise GeometryError("only finite points are supported away from q")
    den = (x - q) * (q - y)
    if den == 0.0:
        raise GeometryError("degenerate parabolic constraint")
    c = (y - x) / den
    return Isometry(1.0 + c * q, -c * q * q, c, 1.0 - c * q)


def parabolic_shift(parabolic: Isometry, fix):
    """Conjugate a parabolic so that its fixed point fix goes to infinity.

    Returns (m, shift): m sends fix to infinity, and m parabolic m^-1 is
    z -> z +- shift.  For (a, b; 0, d) with ad = 1 the action is
    z -> (a/d) z + b/d with a/d = 1, so shift = |a b|.
    """
    if fix == INF:
        m = Isometry.identity()
    else:
        m = Isometry.from_matrix(0.0, -1.0, 1.0, -fix)
    g = m @ parabolic @ m.inverse()
    return m, abs(g.a * g.b)


def horocycle_length_through(parabolic: Isometry, z: complex) -> float:
    """Length, in the cusp cylinder of a parabolic, of the horocycle through z.

    A hyperbolic input, such as a cusp stabilizer that rounding pushed
    past the parabolic tolerance, is rejected by name.
    """
    points = fixed_points(parabolic)
    if len(points) != 1:
        raise GeometryError("no horocycle for hyperbolic isometry")
    (fix,) = points
    m, shift = parabolic_shift(parabolic, fix)
    return shift / m(z).imag
