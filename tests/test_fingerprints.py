"""The fingerprints of the nine acceptance learning runs: membership
queries / equivalence queries / final l.  A change that leaves the
learner's behaviour alone leaves every one of them as it is.  The runs
are the acceptance fixtures', so this adds no learning run."""

import pytest

RESIDUAL = {
    "Ld": (39, 2, 2),
    "Lngr": (39, 2, 2),
    "Lr": (291, 2, 2),
    "Compress": (24, 1, 2),
    "Ak:1": (171, 1, 2),
    "Ak:2": (467, 1, 2),
    "Ak:3": (3539, 1, 3),
}
DIVERGENT = {"Ln": (2033, 1, 5), "Lng": (11822, 1, 5)}


def fingerprint(result):
    s = result.stats
    return s.membership_queries, s.equivalence_queries, s.final_l


@pytest.mark.parametrize("name", RESIDUAL)
def test_residual_run(learning_runs, name):
    result, _ = learning_runs[name]
    assert fingerprint(result) == RESIDUAL[name]


@pytest.mark.parametrize("name", DIVERGENT)
def test_divergent_run(divergence_runs, name):
    assert fingerprint(divergence_runs[name]) == DIVERGENT[name]
