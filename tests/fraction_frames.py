"""The chain builder's exact frames in Fraction arithmetic.

chains.py places every pants relative to the middle one, and evaluates
the fan search's candidate words, in exact arithmetic on integer
matrices (a, b, c, d, den), each entry rounded once to float.  These are
the same four helpers on Fractions, the form they had before: the test
oracle that the integer versions must match bit for bit
(tests/test_cusped.py::TestExactFrames).
"""

from __future__ import annotations

from fractions import Fraction

from shearlab import geom
from shearlab.geom import IDENTITY, INF


def exact(m):
    """The entries of a float matrix as exact Fractions (a, b, c, d)."""
    return tuple(Fraction(v) for v in m)


def exact_inverse(m):
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def centered_frames(hol):
    """Exact placement of every pants relative to the middle one."""
    center = (hol.graph.num_pants - 1) // 2
    to_center = exact(IDENTITY)
    for e in hol.root_paths[center]:
        to_center = geom.mat_mul(to_center, exact(e))
    base = exact_inverse(to_center)
    frames = []
    for p in range(hol.graph.num_pants):
        out = base
        for e in hol.root_paths[p]:
            out = geom.mat_mul(out, exact(e))
        frames.append(out)
    return frames


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


def evaluate_exact(gens, seq, base_point, base_parab):
    """Exact-rational point and conjugated parabolic of a generator word."""
    word = exact(IDENTITY)
    for gi in reversed(seq):
        word = geom.mat_mul(exact(gens[gi]), word)
    return frame_apply(word, base_point), frame_conj(word, base_parab)


def as_fractions(frame):
    """An integer frame (a, b, c, d, den) as the Fraction frame it is."""
    *entries, den = frame
    return tuple(Fraction(v, den) for v in entries)
