"""The exact frames of surface.py in Fraction arithmetic.

surface.py keeps each pants frame exact, as integer matrices (a, b, c,
d, den), and its frame_apply, frame_conj, exact_product and
Holonomy.frames_about compute on them, each entry rounded once to
float; the chain builder places its pants and evaluates the fan
search's candidate words with them.  These are the same operations on
Fractions: the test oracle that the integer versions must match bit for
bit (tests/test_cusped.py::TestExactFrames, and
tests/test_surface.py::TestConnector for Holonomy._connector).  The
tree paths are rebuilt here from the gluing maps, not read from the
holonomy under test.
"""

from __future__ import annotations

from fractions import Fraction

from shearlab import geom
from shearlab.geom import IDENTITY, INF
from shearlab.surface import _gluing_map


def exact(m):
    """The entries of a float matrix as exact Fractions (a, b, c, d)."""
    return tuple(Fraction(v) for v in m)


def exact_inverse(m):
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def tree_paths(hol):
    """Per pants, the float gluing maps along the spanning tree from
    pants 0, found breadth first in holonomy_from_fn's order."""
    ends = sorted(hol.graph.curve_ends().items())
    paths = {0: []}
    frontier = [0]
    while frontier:
        nxt = []
        for p in frontier:
            for cid, refs in ends:
                for ref in refs:
                    if ref[0] != p:
                        continue
                    (q, t) = refs[0] if refs[1] == ref else refs[1]
                    if q in paths:
                        continue
                    paths[q] = paths[p] + [_gluing_map(
                        hol.std[p], ref[1], hol.std[q], t, cid,
                        hol.fn.twist(cid))]
                    nxt.append(q)
        frontier = nxt
    return [paths[p] for p in range(hol.graph.num_pants)]


def tree_frame(path):
    """The exact product of the float matrices of a path, such as the
    gluing maps of a tree path."""
    out = exact(IDENTITY)
    for e in path:
        out = geom.mat_mul(out, exact(e))
    return out


def connector(paths, p, q):
    """The exact map from the frame of pants q to that of pants p."""
    return geom.mat_mul(exact_inverse(tree_frame(paths[p])),
                        tree_frame(paths[q]))


def frames_about(hol, p):
    """Exact placement of every pants relative to pants p."""
    paths = tree_paths(hol)
    return [connector(paths, p, q) for q in range(len(paths))]


def frame_apply(frame, pt):
    """Boundary action of an exact frame, rounded once to float."""
    a, b, c, d = frame
    if pt == INF:
        return INF if c == 0 else float(a / c)
    x = Fraction(pt)
    den = c * x + d
    if den == 0:
        return INF
    return float((a * x + b) / den)


def frame_conj(frame, m):
    """frame m frame^-1 in exact rationals, rounded once to float."""
    out = geom.mat_mul(geom.mat_mul(frame, exact(m)), exact_inverse(frame))
    return tuple(float(v) for v in out)


def as_fractions(frame):
    """An integer frame (a, b, c, d, den) as the Fraction frame it is."""
    *entries, den = frame
    return tuple(Fraction(v, den) for v in entries)
