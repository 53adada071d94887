# From Fenchel-Nielsen coordinates to a shear vector
#
# A surface is specified by a pants gluing pattern plus a length and a
# twist per internal curve.  The pipeline develops each pair of pants in
# the half-plane, cuts the surface into right-angled hexagons along the
# seams, spins the seams into a spiralling ideal triangulation, and reads
# off the shear of every edge.  Two families of identities certify the
# construction: shears at each cusp sum to zero, and shears spiralling
# on one side of a closed curve sum to its length.

from shearlab import (FNCoordinates, Signature, canonical_pants_graph,
                      certify_short, develop, holonomy_from_fn, main_bound,
                      seam_decomposition, shear_free_params,
                      shear_point_free_audit, shear_relations, shear_vector,
                      spiral)

sig = Signature(1, 1)
graph = canonical_pants_graph(sig)
print("pants graph:", graph.pants)

fn = FNCoordinates({0: 1.0}, {0: 0.3})
hol = holonomy_from_fn(graph, fn)
hd = seam_decomposition(hol)
print("curves:", hd.curves)
print("arcs:", [(a.ident, a.length) for a in hd.arcs])

st = spiral(hd)
dc = develop(hol, st)
sv = shear_vector(dc)
print("shears:", {k: round(v, 9) for k, v in sv.values.items()})
print("max |shear|:", sv.max_abs(), " bound:", main_bound(sig))

rel = shear_relations(sv, hd)
print("cusp-sum residuals:", rel.cusp_residuals)
print("side-sum residuals:", rel.side_residuals)

# The once-punctured torus is rigid here: the relations force the two
# cusp-ended arcs to zero shear and the third arc to the curve length,
# whatever the twist.  Bigger surfaces have genuinely varying vectors.
big = Signature(2, 1)
from shearlab import sample_fn
graph2, fn2 = sample_fn(big, seed=7)
hol2 = holonomy_from_fn(graph2, fn2)
hd2 = seam_decomposition(hol2)
dc2 = develop(hol2, spiral(hd2))
sv2 = shear_vector(dc2)
print("\n(2,1) sample lengths:", {k: round(v, 3) for k, v in fn2.lengths.items()})
print("(2,1) shears:", {k: round(v, 4) for k, v in sv2.values.items()})
print("(2,1) max |shear|:", round(sv2.max_abs(), 4),
      "vs bound", round(main_bound(big), 2))

report = certify_short(hd2, big)
print("short-decomposition certificate:", report.certified)

audit = shear_point_free_audit(dc2, shear_free_params())
print("shear-point-free minimum margin:", round(audit.min_margin, 6))
