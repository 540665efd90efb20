"""Golden records: the sweep's records for eight engine cases, pinned.

test_eta_sweep_matches_eta_major_oracle compares the sweep with an oracle
that shares the library's selection and inference code, so a change that
moves both sides passes it. This test compares with records written to
tests/data/golden_records.json instead. Models, coverage and flag reasons
must match exactly; K, FDR, risk, the certificate used and the widths to
a relative 1e-9, as numpy versions differ in the last bits.

A change that moves records on purpose regenerates the file, from the
root of the repository, and says so:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import os
import sys

import numpy as np
import pytest

from stableci.experiments import eta_sweep

from test_experiments import ENGINE_CASES

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_records.json")
CASES = ("fixed", "screen", "fs", "lasso-c1", "lasso-lam-estimate", "flagged", "fs-n<k",
         "fixed-rank-deficient")
RTOL = 1e-9


def records(case: str) -> list[dict]:
    """One row per eta of the case's sweep: its records as JSON values."""
    cfg, grid = ENGINE_CASES[case]
    return [{"eta": eta, "records": [{
        "model": list(r.model.indices),
        "covered": r.covered,
        "flag": None if r.flagged is None else r.flagged.split(":", 1)[0],
        "K": r.K,
        "fdr": r.fdr,
        "risk": r.risk,
        "budget": [r.budget_used.eta, r.budget_used.tau, r.budget_used.nu],
        "widths": r.widths.tolist(),
    } for r in rows]} for eta, rows, _ in eta_sweep(cfg, grid)]


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_golden_records(case):
    with open(GOLDEN) as fh:
        want = json.load(fh)[case]
    got = records(case)
    assert [row["eta"] for row in got] == [row["eta"] for row in want]
    for row, want_row in zip(got, want):
        assert len(row["records"]) == len(want_row["records"])
        for a, b in zip(row["records"], want_row["records"]):
            for exact in ("model", "covered", "flag"):
                assert a[exact] == b[exact], exact
            assert (a["risk"] is None) == (b["risk"] is None)
            for close in ("K", "fdr", "budget", "widths", "risk"):
                if b[close] is None:
                    continue
                assert np.shape(a[close]) == np.shape(b[close]), close
                np.testing.assert_allclose(a[close], b[close], rtol=RTOL, atol=0, err_msg=close)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({case: records(case) for case in CASES}, fh, indent=1)
        fh.write("\n")
