"""Core half-plane geometry: conventions, oracles, invariances."""

import math

import numpy as np
import pytest

import geometric_oracle as O
from shearlab import geom as G

INF = G.INF


def translation(t):
    """Matrix of the translation by t along the imaginary axis (0 -> inf)."""
    e = math.exp(t / 2.0)
    return (e, 0.0, 0.0, 1.0 / e)


def iso(a, b, c, d):
    """The public value of the matrix scaled to determinant one."""
    return G.Isometry(*G._unit_det(a, b, c, d))


def conjugate(g, f):
    """The matrix g f g^-1."""
    return G.mat_mul(G.mat_mul(g, f), G.mat_inverse(g))


def random_isometry(rng):
    while True:
        a, b, c, d = rng.uniform(-3, 3, size=4)
        det = a * d - b * c
        if det > 0.1:
            return G._unit_det(a, b, c, d)


class TestCompose:
    def test_identity(self):
        a = G._unit_det(2.0, 0.3, 0.1, 0.6)
        out = G.mat_mul(G.IDENTITY, a)
        assert abs(out[0] - a[0]) < 1e-15 and abs(out[3] - a[3]) < 1e-15

    def test_diagonal_product(self):
        t = translation(1.0)
        out = G.mat_mul(t, t)
        assert math.isclose(out[0], math.e, rel_tol=1e-14)
        assert math.isclose(out[3], 1.0 / math.e, rel_tol=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b, c = (random_isometry(rng) for _ in range(3))
            lhs = G.mat_mul(G.mat_mul(a, b), c)
            rhs = G.mat_mul(a, G.mat_mul(b, c))
            for u, v in zip(lhs, rhs):
                assert abs(u - v) <= 1e-12 * max(1.0, abs(u))

    def test_inverse(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            g = random_isometry(rng)
            for u, v in zip(G.mat_mul(g, G.mat_inverse(g)), G.IDENTITY):
                assert abs(u - v) <= 1e-12

    def test_action_composition(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f, g = random_isometry(rng), random_isometry(rng)
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            lhs = G.mat_apply(G.mat_mul(f, g), z)
            rhs = G.mat_apply(f, G.mat_apply(g, z))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestClassify:
    def test_unipotent_is_parabolic(self):
        assert G.classify(iso(1, 1, 0, 1)) == "parabolic"

    def test_large_trace_is_hyperbolic(self):
        assert G.classify(iso(2, 0, 0, 0.5)) == "hyperbolic"

    def test_rotation_is_elliptic(self):
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rot = iso(c, -s, s, c)
        assert G.classify(rot) == "elliptic"
        assert abs(rot.a + rot.d - math.sqrt(2)) < 1e-12

    def test_identity(self):
        assert G.classify(G.Isometry(*G.IDENTITY)) == "identity"
        assert G.classify(G.Isometry(-1.0, 0.0, 0.0, -1.0)) == "identity"

    def test_near_parabolic_classified_parabolic(self):
        f = iso(1.0 + 1e-12, 1.0, 0.0, 1.0 / (1.0 + 1e-12))
        assert G.classify(f) == "parabolic"


class TestTranslationLength:
    def test_eigenvalue_readout(self):
        f = G.Isometry(*translation(1.0))
        assert math.isclose(G.translation_length(f), 1.0, rel_tol=1e-14)

    def test_two_log_two(self):
        f = iso(2, 0, 0, 0.5)
        assert math.isclose(G.translation_length(f), 2 * math.log(2),
                            rel_tol=1e-14)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        f = G._unit_det(2, 0, 0, 0.5)
        want = 2 * math.log(2)
        for _ in range(200):
            conj = G.Isometry(*conjugate(random_isometry(rng), f))
            assert abs(G.translation_length(conj) - want) <= 1e-12 * want

    def test_rejects_parabolic(self):
        with pytest.raises(G.GeometryError):
            G.translation_length(iso(1, 1, 0, 1))

    def test_rejects_near_parabolic(self):
        f = iso(1.0 + 1e-12, 1.0, 0.0, 1.0 / (1.0 + 1e-12))
        with pytest.raises(G.GeometryError):
            G.translation_length(f)


class TestFixedPoints:
    def test_diagonal(self):
        att, rep = G.fixed_points(iso(2, 0, 0, 0.5))
        assert att == INF and abs(rep) < 1e-15

    def test_unipotent(self):
        (p,) = G.fixed_points(iso(1, 1, 0, 1))
        assert p == INF

    def test_attracting_residual(self):
        rng = np.random.default_rng(4)
        base = translation(0.8)
        for _ in range(300):
            f = conjugate(random_isometry(rng), base)
            att, rep = G.fixed_points(G.Isometry(*f))
            for p in (att, rep):
                img = G.mat_apply_boundary(f, p)
                if p == INF or img == INF:
                    assert img == p
                else:
                    assert abs(img - p) <= 1e-9 * max(1.0, abs(p))

    def test_attracting_really_attracts(self):
        f = G.mat_mul(G.mat_mul((1.0, 0.0, 1.0, 1.0), translation(1.0)),
                      (1.0, 0.0, -1.0, 1.0))
        att, rep = G.fixed_points(G.Isometry(*f))
        z = 0.25 * (att + rep) + 0.5 * rep  # somewhere between
        for _ in range(60):
            z = G.mat_apply_boundary(f, z)
        assert abs(z - att) < 1e-6


class TestCrossRatio:
    def test_arithmetic(self):
        assert math.isclose(G.cross_ratio(0, 1, 2, 3), 4.0 / 3.0,
                            rel_tol=1e-15)

    def test_infinity_limit(self):
        b, c, d = 5.0, 2.0, 3.0
        assert math.isclose(G.cross_ratio(INF, b, c, d), (b - d) / (b - c),
                            rel_tol=1e-15)

    def test_rejects_coincident(self):
        with pytest.raises(G.GeometryError):
            G.cross_ratio(0, 0, 1, 2)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pts = rng.uniform(-20, 20, size=4)
            if len({round(p, 6) for p in pts}) < 4:
                continue
            g = random_isometry(rng)
            c1 = G.cross_ratio(*pts)
            c2 = G.cross_ratio(*(G.mat_apply_boundary(g, p) for p in pts))
            assert abs(c1 - c2) <= 1e-10 * max(1.0, abs(c1))


class TestDistances:
    def test_vertical(self):
        assert math.isclose(G.dist(1j, math.e * 1j), 1.0, rel_tol=1e-14)

    def test_dist_to_vertical_line(self):
        d = G.dist_to_geodesic(1j, G.Geodesic(1.0, INF))
        assert math.isclose(d, math.asinh(1.0), rel_tol=1e-14)

    def test_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            g = random_isometry(rng)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            assert abs(G.dist(z, w) - G.dist(G.mat_apply(g, z),
                                             G.mat_apply(g, w))) <= 1e-10

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z, w, u = (complex(rng.uniform(-3, 3), rng.uniform(0.2, 4))
                       for _ in range(3))
            assert abs(G.dist(z, w) - G.dist(w, z)) < 1e-12
            assert G.dist(z, u) <= G.dist(z, w) + G.dist(w, u) + 1e-12


def _min_dist_to_side(center, side):
    """Independent oracle: minimize the distance to points of the geodesic
    by iterated grid refinement on its arclength parameter."""
    inv = G.mat_inverse(G.two_point_mat(side.p, side.q))

    def f(t):
        return G.dist(center, G.mat_apply(inv, complex(0.0, math.exp(t))))

    lo, hi = -12.0, 12.0
    best_t = 0.0
    for _ in range(8):
        ts = np.linspace(lo, hi, 80)
        vals = [f(t) for t in ts]
        k = int(np.argmin(vals))
        best_t = ts[k]
        step = ts[1] - ts[0]
        lo, hi = best_t - step, best_t + step
    return f(best_t), G.mat_apply(inv, complex(0.0, math.exp(best_t)))


class TestIncircle:
    def test_standard_symmetric_triangle(self):
        t = G.IdealTriangle(-1.0, 1.0, INF)
        center, radius = G.incircle(t)
        assert abs(center - complex(0, math.sqrt(3))) < 1e-12
        assert radius == G.IDEAL_INRADIUS
        assert math.isclose(radius, math.log(3) / 2, rel_tol=1e-15)

    def test_center_equidistant_from_sides(self):
        t = G.IdealTriangle(-1.0, 1.0, INF)
        center, radius = G.incircle(t)
        for side in t.sides():
            assert abs(G.dist_to_geodesic(center, side) - radius) <= 1e-9

    def test_radius_constant_over_random_triangles(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pts = sorted(rng.uniform(-30, 30, size=3))
            if pts[1] - pts[0] < 1e-3 or pts[2] - pts[1] < 1e-3:
                continue
            t = G.IdealTriangle(*pts)
            center, radius = G.incircle(t)
            assert radius == G.IDEAL_INRADIUS
            for side in t.sides():
                assert abs(G.dist_to_geodesic(center, side)
                           - G.IDEAL_INRADIUS) <= 1e-9

    def test_center_fixed_by_order_three_symmetry(self):
        t = G.IdealTriangle(0.0, 1.0, INF)
        rot = G.three_point_mat(1.0, INF, 0.0)  # cycles the vertices
        center, _ = G.incircle(t)
        assert abs(G.mat_apply(rot, center) - center) < 1e-12


def horocycle_through(center, z: complex):
    """Horocycle centered at the ideal point through z.

    Returned as (euclidean_center, euclidean_radius) for a finite center,
    or ("height", y) for the horocycle at infinity.
    """
    center = G.normalize_boundary(center)
    if center == INF:
        return ("height", z.imag)
    r = (abs(z - center) ** 2) / (2.0 * z.imag)
    return (complex(center, r), r)


def horocycles_tangent(center1, z1: complex, center2, z2: complex,
                       tol=G.GEOM_TOL) -> bool:
    """Whether the horocycles at two distinct ideal centers are tangent.

    Shear points are where the horocycles at the two ends of a side touch,
    which makes this an oracle for ``shear_points`` independent of the
    incircle construction.
    """
    h1 = horocycle_through(center1, z1)
    h2 = horocycle_through(center2, z2)
    if h1[0] == "height" and h2[0] == "height":
        return False
    if h1[0] == "height" or h2[0] == "height":
        line, circ = (h1, h2) if h1[0] == "height" else (h2, h1)
        return abs(2.0 * circ[1] - line[1]) <= tol * max(1.0, line[1])
    c1, r1 = h1
    c2, r2 = h2
    gap = (c1.real - c2.real) ** 2 - 4.0 * r1 * r2
    return abs(gap) <= tol * max(1.0, 4.0 * r1 * r2)


class TestShearPoints:
    def test_standard_triangle_values(self):
        t = G.IdealTriangle(-1.0, 1.0, INF)
        pts = G.shear_points(t)
        expect = (complex(0, 1), complex(1, 2), complex(-1, 2))
        for got, want in zip(pts, expect):
            assert abs(got - want) < 1e-12

    def test_against_minimization_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pts = sorted(rng.uniform(-10, 10, size=3))
            if pts[1] - pts[0] < 0.1 or pts[2] - pts[1] < 0.1:
                continue
            t = G.IdealTriangle(*pts)
            center, _ = G.incircle(t)
            for side, sp in zip(t.sides(), G.shear_points(t)):
                best, arg = _min_dist_to_side(center, side)
                assert abs(best - G.IDEAL_INRADIUS) < 1e-6
                assert G.dist(arg, sp) < 1e-2  # oracle grid is coarse

    def test_on_side_and_at_inradius(self):
        t = G.IdealTriangle(-2.0, 0.5, 7.0)
        center, _ = G.incircle(t)
        for side, sp in zip(t.sides(), G.shear_points(t)):
            assert G.dist_to_geodesic(sp, side) <= 1e-9
            assert abs(G.dist(center, sp) - G.IDEAL_INRADIUS) <= 1e-9

    def test_horocycle_tangency(self):
        t = G.IdealTriangle(-1.0, 1.0, INF)
        for (u, v), sp in zip(((-1.0, 1.0), (1.0, INF), (INF, -1.0)),
                              G.shear_points(t)):
            assert horocycles_tangent(u, sp, v, sp)

    def test_vertex_rotation_permutes_points(self):
        t1 = G.IdealTriangle(-1.0, 1.0, INF)
        t2 = G.IdealTriangle(1.0, INF, -1.0)
        p1 = G.shear_points(t1)
        p2 = G.shear_points(t2)
        assert abs(p1[0] - p2[2]) < 1e-12
        assert abs(p1[1] - p2[0]) < 1e-12
        assert abs(p1[2] - p2[1]) < 1e-12


def _random_adjacent_pair(rng):
    vals = np.sort(rng.uniform(-40, 40, size=4))
    if min(np.diff(vals)) < 1e-2:
        return None
    a, p, b, q = vals
    edge = G.Geodesic(p, q)
    t_left = G.IdealTriangle(a, p, q)
    t_right = G.IdealTriangle(p, b, q)
    return t_left, t_right, edge


class TestShear:
    def test_square_is_zero(self):
        t_a = G.IdealTriangle(-1.0, 0.0, INF)
        t_b = G.IdealTriangle(0.0, 1.0, INF)
        e = G.Geodesic(0.0, INF)
        assert abs(G.shear(t_a, t_b, e)) < 1e-15
        assert abs(G.shear(t_a, t_b, e, method="shear_points")) < 1e-12

    def test_log_three_magnitude(self):
        t_a = G.IdealTriangle(-3.0, 0.0, INF)
        t_b = G.IdealTriangle(0.0, 1.0, INF)
        e = G.Geodesic(0.0, INF)
        s_cr = G.shear(t_a, t_b, e)
        s_sp = G.shear(t_a, t_b, e, method="shear_points")
        assert abs(abs(s_cr) - math.log(3)) < 1e-12
        assert abs(s_cr - s_sp) < 1e-9

    def test_positive_toward_attracting_end(self):
        # pulling the right-hand apex toward the forward endpoint of the
        # edge increases the shear through zero
        e = G.Geodesic(0.0, INF)
        t_a = G.IdealTriangle(-1.0, 0.0, INF)
        prev = None
        for v in (0.5, 1.0, 2.0, 4.0):
            s = G.shear(t_a, G.IdealTriangle(0.0, v, INF), e)
            if prev is not None:
                assert s > prev
            prev = s
        assert G.shear(t_a, G.IdealTriangle(0.0, 4.0, INF), e) > 0

    def test_dual_oracle_thousand_pairs(self):
        rng = np.random.default_rng(10)
        done = 0
        while done < 1000:
            pair = _random_adjacent_pair(rng)
            if pair is None:
                continue
            t_l, t_r, e = pair
            s1 = G.shear(t_l, t_r, e)
            s2 = G.shear(t_l, t_r, e, method="shear_points")
            assert abs(s1 - s2) <= 1e-9
            done += 1

    def test_relabel_negates(self):
        pair = _random_adjacent_pair(np.random.default_rng(11))
        t_l, t_r, e = pair
        assert abs(G.shear(t_l, t_r, e) + G.shear(t_r, t_l, e)) <= 1e-12

    def test_orientation_flip_negates(self):
        pair = _random_adjacent_pair(np.random.default_rng(12))
        t_l, t_r, e = pair
        assert abs(G.shear(t_l, t_r, e)
                   + G.shear(t_l, t_r, e.reversed())) <= 1e-12

    def test_mobius_invariance(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 200:
            pair = _random_adjacent_pair(rng)
            if pair is None:
                continue
            t_l, t_r, e = pair
            g = random_isometry(rng)
            s1 = G.shear(t_l, t_r, e)
            moved = [G.mat_apply_boundary(g, x) for x in
                     (t_l.v1, t_l.v2, t_l.v3, t_r.v1, t_r.v2, t_r.v3,
                      e.p, e.q)]
            t_l2 = _as_triangle(*moved[0:3])
            t_r2 = _as_triangle(*moved[3:6])
            s2 = G.shear(t_l2, t_r2, G.Geodesic(moved[6], moved[7]))
            assert abs(s1 - s2) <= 1e-9 * max(1.0, abs(s1))
            done += 1

    def test_rejects_non_adjacent(self):
        t_a = G.IdealTriangle(-1.0, 0.0, INF)
        t_b = G.IdealTriangle(1.0, 2.0, 3.0)
        with pytest.raises(G.GeometryError):
            G.shear(t_a, t_b, G.Geodesic(0.0, INF))

    def test_rejects_unoriented_edge(self):
        t_a = G.IdealTriangle(-1.0, 0.0, INF)
        t_b = G.IdealTriangle(0.0, 1.0, INF)
        with pytest.raises(G.GeometryError):
            G.shear(t_a, t_b, G.Geodesic(0.0, INF, oriented=False))


def _as_triangle(a, b, c):
    if G.cyclically_ordered(a, b, c):
        return G.IdealTriangle(a, b, c)
    return G.IdealTriangle(a, c, b)


class TestHorocycles:
    def test_length_two_at_arcsinh_one(self):
        assert math.isclose(G.horocycle_length_at_radius(math.asinh(1.0)),
                            2.0, rel_tol=1e-15)

    def test_value_at_quarter_log_three(self):
        r = math.log(3) / 4
        want = 2 * math.sinh(r)
        assert math.isclose(G.horocycle_length_at_radius(r), want,
                            rel_tol=1e-15)
        assert abs(want - 0.5562383) < 1e-6

    def test_monotone(self):
        rs = np.linspace(0.01, 5, 50)
        vals = [G.horocycle_length_at_radius(r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(G.GeometryError):
            G.horocycle_length_at_radius(0.0)

    def test_injectivity_radius_geometry(self):
        # a point at height y under z -> z+1: half the distance between
        # the lifts (0,y) and (1,y) is r with 2 sinh(r) = 1/y
        for y in np.geomspace(0.1, 100, 40):
            r = 0.5 * G.dist(complex(0, y), complex(1, y))
            assert abs(2 * math.sinh(r) - 1.0 / y) <= 1e-9 * max(1.0, 1 / y)

    def test_horocycle_length_through(self):
        shift = O.Mobius.from_matrix(1.0, 1.0, 0.0, 1.0)
        assert math.isclose(
            O.horocycle_length_through(shift, complex(0.3, 2.0)), 0.5,
            rel_tol=1e-12)

    def test_horocycle_length_through_rejects_hyperbolic(self):
        # a cusp stabilizer that rounding made hyperbolic has two fixed
        # points: the error names its kind instead of failing to unpack
        near = O.Mobius.from_matrix(1.001, 1.0, 0.0, 1.0 / 1.001)
        assert G.classify(near) == "hyperbolic"
        with pytest.raises(G.GeometryError, match="hyperbolic isometry"):
            O.horocycle_length_through(near, complex(0.3, 2.0))


class TestParabolicFixing:
    def test_constructs_requested_map(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            q, x, y = rng.uniform(-5, 5, size=3)
            if abs(x - q) < 0.1 or abs(y - q) < 0.1 or abs(x - y) < 1e-3:
                continue
            g = G.parabolic_fixing(q, x, y)
            assert G.mat_classify(g) == "parabolic"
            assert abs(G.mat_apply_boundary(g, q) - q) < 1e-9
            assert abs(G.mat_apply_boundary(g, x) - y) < 1e-9 * max(1, abs(y))
