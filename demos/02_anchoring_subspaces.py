"""Anchoring subspaces of U (x) W: verification, rigidity, duality.

A subspace L anchors U when the only endomorphisms phi of U with
(phi (x) 1)(L) inside L are scalars.  Quotienting a free module by an
anchoring subspace is what makes the constructed bundles simple.

Run with: python3 demos/02_anchoring_subspaces.py
"""

import random
import sys
from pathlib import Path

from bggbundles import (GF, AnchorProblem, DenseMatrix, Subspace, annihilator,
                        general_position_range, is_anchoring, sample_anchoring)

# The explicit tensor anchors but need not be faithful, so the package does not
# ship it; its reference construction lives beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from explicit_anchor import (anchoring_tensor, burnside_pair, commutant_dim,
                             tensor_to_subspace)

F = GF(32003)
u, w = 2, 4

print(f"U (x) W with dim U = {u}, dim W = {w}")
lo, hi = general_position_range(u, w)
print(f"general subspaces anchor for dim L strictly inside ({lo}, {hi})\n")

# A decomposable basis fails: diagonal phi preserve span(u1 (x) w1, u2 (x) w2).
rows = [[1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0]]
bad = AnchorProblem(u, w, Subspace(DenseMatrix(F, rows, u * w)))
verdict = is_anchoring(bad)
print(f"decomposable L: anchors={verdict.anchors} "
      f"(invariant-endomorphism dimension {verdict.solution_dim})")

# A random 2-dimensional subspace in general position anchors.
good = sample_anchoring(F, u, w, 2, seed=1)
print(f"random L (seed 1): anchors={is_anchoring(good).anchors}")

# Duality: L anchors iff its annihilator does.
dual = annihilator(good)
print(f"annihilator (dim {dual.d}): anchors={is_anchoring(dual).anchors}\n")

# The deterministic route: a Burnside pair (two matrices whose joint
# commutant is scalar) embedded in an explicit slice tensor.
b1, b2 = burnside_pair(F, 2)
print(f"Burnside pair commutant dimension: {commutant_dim(F, [b1, b2])}")
T = anchoring_tensor(F, u, 2, 3)
prob = tensor_to_subspace(T)
print(f"explicit tensor subspace: anchors={is_anchoring(prob).anchors}")

# Empirical genericity rate over one batch of seeds.
rng = random.Random(0)
hits = 0
trials = 200
for _ in range(trials):
    while True:
        rows = [[F.random_element(rng) for _ in range(u * w)] for _ in range(3)]
        basis = DenseMatrix(F, rows, u * w)
        if basis.rank() == 3:
            break
    hits += bool(is_anchoring(AnchorProblem(u, w, Subspace(basis))))
print(f"\nrandom d=3 subspaces anchoring: {hits}/{trials}")
