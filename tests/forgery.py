"""Report mutations for the tests: copies of a serialized report with one
input replaced, and everything construct derives from it rebuilt."""

import json
from math import comb

from bggbundles import AnchorProblem, DenseMatrix, Subspace, chi
from bggbundles.pipeline import _anchor_to_json, _module_to_json, _params_from_json, _rebuild


def with_replaced_anchor(report: dict, new_basis_rows) -> dict:
    """A consistent-but-unverified copy of a report with a different L.

    Rebuilds the module, complex and chi from the new subspace while leaving
    the recorded verdicts untouched; feeding the result to ``verify`` shows
    which checks the new subspace breaks.
    """
    out = json.loads(json.dumps(report))
    params = _params_from_json(out["params"])
    w = comb(params.n + 1, params.l)
    basis = DenseMatrix(params.field(), new_basis_rows, out["multiplicity"] * w)
    L = AnchorProblem(out["multiplicity"], w, Subspace(basis))
    M = _rebuild(params, L)
    out["anchor"] = _anchor_to_json(L)
    out["anchor_dim"] = L.d
    out["module"] = _module_to_json(M)
    out["chi"] = list(chi(M))
    out["rank"] = chi(M)[-1]
    return out
