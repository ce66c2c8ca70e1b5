"""Walk through the exterior-algebra layer: bases, signs, Koszul exactness.

Run with: python3 demos/01_exterior_algebra.py
"""

from math import comb

from bggbundles import GF, QQ, DenseMatrix, basis_subsets, generator_action, left_mult_sign

n = 3  # dim V = 4, the setting of P^3

print(f"Exterior algebra on V with dim V = {n + 1}")
for i in range(n + 2):
    print(f"  wedge^{i}: dim {comb(n + 1, i)}  basis {basis_subsets(n, i)}")

# Signs of wedging a generator onto a basis subset: count the elements below.
print("\nleft multiplication signs:")
for j, S in [(1, (0,)), (0, (1,)), (2, (0, 1)), (1, (0, 2)), (0, (0,))]:
    hit = left_mult_sign(j, S)
    print(f"  e_{j} ^ e_{S} -> {hit if hit else 'zero'}")

# The matrix of e_2 on degree 1 (columns indexed by {0},{1},{2},{3}).
m = generator_action(2, 1, n, QQ)
print(f"\nmatrix of e_2 : wedge^1 -> wedge^2  (shape {m.shape})")
for row, T in zip(m.to_lists(), basis_subsets(n, 2)):
    print(f"  {T}: {[int(x) for x in row]}")

# Multiplication by any fixed vector v = sum v_j e_j, the generator matrices
# weighted by the coordinates of v, squares to zero and is exact away from 0:
# the classical Koszul complex, checked here by exact rank arithmetic.
F = GF(32003)
v = (3, 1, 4, 1)
prev = 0
print(f"\nKoszul exactness at v = {v} over {F!r}:")
for i in range(n + 1):
    v_wedge = sum(x * generator_action(j, i, n, F).to_numpy() for j, x in enumerate(v))
    r = DenseMatrix.from_numpy(F, v_wedge).rank()
    dim = comb(n + 1, i)
    status = "exact" if prev + r == dim else "NOT exact"
    print(f"  degree {i}: rank(in) + rank(out) = {prev} + {r} = {dim}  [{status}]")
    prev = r
