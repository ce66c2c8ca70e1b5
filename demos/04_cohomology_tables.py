"""Cohomology tables from linear resolutions, without computing classes.

Line bundles on P^n only have cohomology in degrees 0 and n, so a resolution
by sums of line bundles lets every dim H^q(F(t)) be read off from two rows:
the H^n row from the ranks of multiplication ("strand") maps, which for the
complex of a module P/L are Koszul binomials less the Hilbert function of
the faithfulness certificate, and the H^0 row, exact but at its last
position, from the dimensions of its terms.

Run with: python3 demos/04_cohomology_tables.py
"""

import sys
from pathlib import Path

from bggbundles import (GF, CohomologyCalculator, LinearComplex, bgg_complex,
                        certify_hd, cohomology_table, euler_line, free_truncated)

# The closed-form line-bundle cohomology is a test oracle, kept beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from strand_oracle import line_coh

F = GF(32003)
n = 3

# Sanity: a single-term complex is just a twisted trivial bundle, and the
# table must reproduce the closed-form line-bundle cohomology.
C0 = LinearComplex(n, ((0, 2),), ())
table = cohomology_table(C0, -6, 2)
print("O(0)^2 on P^3 (rows q = 3..0, columns t = -6..2):")
print(table.to_text())
assert all(table.entry(q, t) == 2 * line_coh(n, t, q)
           for q in range(n + 1) for t in range(-6, 3))

# The truncated Koszul quotient: free module truncated at degree l gives a
# bundle of homological dimension exactly l.
for l in (1, 2):
    P = free_truncated(1, l, n, F)
    C = bgg_complex(P)
    calc = CohomologyCalculator(C)
    cert = certify_hd(P, C, calc=calc)
    print(f"\ntruncation at l = {l}: certified hd = {cert.value}, "
          f"witness H^{cert.nonvanishing[0]}"
          f"(F({cert.nonvanishing[1]})) = {cert.nonvanishing[2]}")
    print(cohomology_table(C, -8, 1, calc).to_text())

# Every table column is cross-checked against the Euler characteristic of
# the resolution; here is the identity spelled out for one column.
P = free_truncated(1, 2, n, F)
C = bgg_complex(P)
calc = CohomologyCalculator(C)
t = -5
col = [calc.dim_h(q, t) for q in range(n + 1)]
alt = sum((-1) ** q * h for q, h in enumerate(col))
ref = sum((-1) ** (C.length - i) * dim * euler_line(n, i + t)
          for i, (_, dim) in enumerate(C.terms))
print(f"\nEuler check at t = {t}: alternating sum {alt} = resolution side {ref}")
