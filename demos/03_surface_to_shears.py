# From Fenchel-Nielsen coordinates to a shear vector
#
# A surface is specified by a pants gluing pattern plus a length and a
# twist per internal curve.  Each pair of pants is built in the
# half-plane from its three boundary lengths alone and developed in its
# own frame: its seams cut it into two right-angled hexagons, and
# spinning the seams onto the boundary curves (or out the cusps) turns
# the hexagons into two ideal triangles.  The shear across each arc is
# read off there.  Two families of identities certify the construction:
# shears at each cusp sum to zero, and shears spiralling on one side of
# a closed curve sum to its length.

from shearlab import FNCoordinates, Signature, canonical_pants_graph, sample_fn
from shearlab.pants import build_pants, seam_lengths
from shearlab.constants import shear_free_params
from shearlab.report import run_surface
from shearlab.spiralling import pants_kernel
from shearlab.surface import slot_lengths

sig = Signature(1, 1)
graph = canonical_pants_graph(sig)
print("pants graph:", graph.pants)

fn = FNCoordinates({0: 1.0}, {0: 0.3})
lengths = slot_lengths(graph, fn, 0)
print("boundary lengths:", lengths, " seam lengths:", seam_lengths(*lengths))
kern = pants_kernel(build_pants(*lengths), shear_free_params())
for k, (quad, shear) in enumerate(zip(kern.quadrilaterals, kern.shears)):
    quad = ", ".join(f"{x:.4f}" for x in quad)
    print(f"arc {(0, k)}: quadrilateral ({quad}), shear {shear:.9f}")

rec = run_surface(sig, graph, fn)
print("max |shear|:", rec["max_shear"], " bound:", rec["bound"])
print("cusp-sum residual:", rec["cusp_residual"],
      " side-sum residual:", rec["spiral_residual"])

# The once-punctured torus is rigid here: the relations force the two
# cusp-ended arcs to zero shear and the third arc to the curve length,
# whatever the twist.  In general the shear of the arc joining boundaries
# i and j of a pants is (l_i + l_j - l_k)/2 (a cusp counts as length 0),
# so twists never move a shear.
big = Signature(2, 1)
graph2, fn2 = sample_fn(big, seed=7)
rec2 = run_surface(big, graph2, fn2)
print("\n(2,1) sample lengths:", {k: round(v, 3) for k, v in fn2.lengths.items()})
print("(2,1) shears:", {k: round(v, 4) for k, v in rec2["shears"].items()})
worst = 0.0
for p in range(graph2.num_pants):
    ls = slot_lengths(graph2, fn2, p)
    for k in range(3):
        i, j = (s for s in range(3) if s != k)
        closed = (ls[i] + ls[j] - ls[k]) / 2.0
        worst = max(worst, abs(rec2["shears"][str((p, k))] - closed))
print("(2,1) largest gap to (l_i + l_j - l_k)/2:", f"{worst:.1e}")
print("(2,1) max |shear|:", round(rec2["max_shear"], 4),
      "vs bound", round(rec2["bound"], 2))
print("short-decomposition certificate:", rec2["certified"])
print("shear-point-free minimum margin:", round(rec2["min_margin"], 6))
