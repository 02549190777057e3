"""The fingerprints of the nine acceptance learning runs: membership
queries / equivalence queries / final l, and the SHA-256 of each
residual run's rendered hypothesis.  A change that leaves the learner's
behaviour alone leaves every one of them as it is.  The runs are the
acceptance fixtures', so this adds no learning run."""

import hashlib

import pytest

from nomres.automaton import render

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
# the same under every hash seed tried (0, 1, 12345)
RENDERED = {
    "Ld": "219cb07149ec5d7c0609b788f4eef5ed1d9d56b358fb166a2c06dfc167ca48d9",
    "Lngr": "4ba7c0a7c9a863346938e542e63ae7fc0cac166c2b17251dbf52a72d63d358b3",
    "Lr": "052d20eb54ae2a0d4de0c82ef98a6d289c6572000843be7de981b9af02191e01",
    "Compress": "234d7f9914762d1ba4b825570a1a8dc87a413d6618d4fa178fa29395c0e76647",
    "Ak:1": "f8abdb43496c19530e7db3984105f69b510922849b72a90dc5eb8bbf2e2bcc60",
    "Ak:2": "8e914ffd633ec9f1e06715560e7e52bcbc8c2d57023c146fd476b1a8f864e9de",
    "Ak:3": "2aae729f0f4173a4df3300c5e577966827026ac68f6ed4fb5ca1c6e06a2aea6d",
}


def fingerprint(result):
    s = result.stats
    return s.membership_queries, s.equivalence_queries, s.final_l


@pytest.mark.parametrize("name", RESIDUAL)
def test_residual_run(learning_runs, name):
    result, _ = learning_runs[name]
    assert fingerprint(result) == RESIDUAL[name]


@pytest.mark.parametrize("name", RENDERED)
def test_residual_hypothesis(learning_runs, name):
    result, _ = learning_runs[name]
    text = render(result.hypothesis.automaton)
    assert hashlib.sha256(text.encode()).hexdigest() == RENDERED[name]


@pytest.mark.parametrize("name", DIVERGENT)
def test_divergent_run(divergence_runs, name):
    assert fingerprint(divergence_runs[name]) == DIVERGENT[name]
