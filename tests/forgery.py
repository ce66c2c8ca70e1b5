"""Report mutations for the tests: copies of a serialized report with one
input replaced, and everything construct derives from it rebuilt."""

import json
from math import comb

from bggbundles import AnchorProblem, DenseMatrix, Subspace, chi
from bggbundles.pipeline import (_anchor_to_json, _matrix_to_json, _params_from_json,
                                 anchored_module)


def with_replaced_anchor(report: dict, new_basis_rows) -> dict:
    """A consistent-but-unverified copy of a report with a different L.

    Rebuilds chi and the rank from the module the new subspace defines while
    leaving the recorded verdicts untouched; feeding the result to ``verify``
    shows which checks the new subspace breaks.
    """
    out = json.loads(json.dumps(report))
    params = _params_from_json(out["params"])
    w = comb(params.n + 1, params.l)
    basis = DenseMatrix(params.field(), new_basis_rows, out["multiplicity"] * w)
    L = AnchorProblem(out["multiplicity"], w, Subspace(basis))
    ch = chi(anchored_module(L, params.n, params.l))
    out["anchor"] = _anchor_to_json(L)
    out["anchor_dim"] = L.d
    out["chi"] = list(ch)
    out["rank"] = ch[-1]
    return out


def module_record(M) -> dict:
    """A module as reports up to schema 8 recorded it."""
    return {"n": M.n, "piece_dims": list(M.piece_dims),
            "actions": [[_matrix_to_json(a) for a in level] for level in M.actions]}
