"""Learner trajectories pinned line for line.

Each list is the ``log=`` output of one ``learn()`` run, recorded before
rows became bit masks compared through placement maps.  Every closedness
defect (with its row), every consistency defect (s1, s2, letter, column;
five of them across these runs), every hypothesis size and every
counterexample must come out the same.
"""

import pytest

from nomres.learner import LearnBudget, learn
from nomres.teacher import for_corpus

# (target, eq_depth, max_equivalence, max_length) -> log lines
TRAJECTORIES = {
    ("Ln", 6, 20, 4): [
        "hypothesis with 1 state orbits",
        "counterexample a(0) a(0)",
        "not-closed a(0) row={eps: 1, a(0): 0, a(1): 1, a(0) a(0): 0, "
        "a(1) a(1): 0}; growing S to length 1",
        "not-closed a(0) a(0) row={eps: 0, a(0): 0, a(1): 1, a(0) a(0): "
        "0, a(1) a(1): 0}; growing S to length 2",
        "not-closed a(0) a(1) a(0) row={eps: 0, a(0): 0, a(1): 0, a(2): "
        "1, a(0) a(0): 0, a(1) a(1): 0, a(2) a(2): 0}; growing S to "
        "length 3",
        "not-closed a(0) a(1) a(2) a(0) row={eps: 0, a(0): 0, a(1): 0, "
        "a(2): 0, a(3): 1, a(0) a(0): 0, a(1) a(1): 0, a(2) a(2): 0, "
        "a(3) a(3): 0}; growing S to length 4",
        "not-closed a(0) a(1) a(2) a(3) a(0) exceeds length budget",
        "diverged",
    ],
    ("Lng", 6, 20, 3): [
        "hypothesis with 0 state orbits",
        "counterexample a(0) a(0) a(0) a(1)",
        "not-closed a(0) row={eps: 0, a(0): 0, a(1): 0, a(0) a(1): 0, "
        "a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) a(1) a(0): "
        "0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) a(1) a(1) "
        "a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to length 1",
        "not-closed a(0) a(0) row={eps: 0, a(0): 0, a(1): 0, a(0) a(1): "
        "1, a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) a(1) "
        "a(0): 0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) a(1) "
        "a(1) a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to length 2",
        "not-closed a(0) a(0) a(0) row={eps: 0, a(0): 0, a(1): 1, a(0) "
        "a(1): 1, a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) "
        "a(1) a(0): 0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) "
        "a(1) a(1) a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to "
        "length 3",
        "not-closed a(0) a(0) a(0) a(1) exceeds length budget",
        "diverged",
    ],
    ("Lng", 6, 20, 4): [
        "hypothesis with 0 state orbits",
        "counterexample a(0) a(0) a(0) a(1)",
        "not-closed a(0) row={eps: 0, a(0): 0, a(1): 0, a(0) a(1): 0, "
        "a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) a(1) a(0): "
        "0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) a(1) a(1) "
        "a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to length 1",
        "not-closed a(0) a(0) row={eps: 0, a(0): 0, a(1): 0, a(0) a(1): "
        "1, a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) a(1) "
        "a(0): 0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) a(1) "
        "a(1) a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to length 2",
        "not-closed a(0) a(0) a(0) row={eps: 0, a(0): 0, a(1): 1, a(0) "
        "a(1): 1, a(1) a(0): 0, a(1) a(2): 0, a(0) a(0) a(1): 1, a(1) "
        "a(1) a(0): 0, a(1) a(1) a(2): 0, a(0) a(0) a(0) a(1): 1, a(1) "
        "a(1) a(1) a(0): 1, a(1) a(1) a(1) a(2): 1}; growing S to "
        "length 3",
        "not-closed a(0) a(0) a(0) a(1) row={eps: 1, a(0): 0, a(1): 0, "
        "a(2): 0, a(0) a(1): 1, a(0) a(2): 1, a(1) a(0): 0, a(1) a(2): "
        "0, a(2) a(0): 0, a(2) a(1): 0, a(2) a(3): 0, a(0) a(0) a(1): "
        "1, a(0) a(0) a(2): 1, a(1) a(1) a(0): 1, a(1) a(1) a(2): 1, "
        "a(2) a(2) a(0): 0, a(2) a(2) a(1): 0, a(2) a(2) a(3): 0, a(0) "
        "a(0) a(0) a(1): 1, a(0) a(0) a(0) a(2): 1, a(1) a(1) a(1) "
        "a(0): 1, a(1) a(1) a(1) a(2): 1, a(2) a(2) a(2) a(0): 1, a(2) "
        "a(2) a(2) a(1): 1, a(2) a(2) a(2) a(3): 1}; growing S to "
        "length 4",
        "not-consistent (a(0) a(1), a(1) a(1) a(0) a(0)) split by "
        "a(0).a(0); growing E",
        "not-closed a(0) a(1) a(2) a(0) a(0) exceeds length budget",
        "diverged",
    ],
    ("Compress", 6, 40, 4): [
        "not-closed a(0) row={eps: 1}; growing S to length 1",
        "not-consistent (eps, a(1)) split by a(1).eps; growing E",
        "not-closed a(0) a(1) row={eps: 1, a(0): 0, a(1): 1, a(2): 0}; "
        "growing S to length 2",
        "hypothesis with 2 state orbits",
        "accepted",
    ],
    ("Ak:1", 3, 40, 3): [
        "not-closed a(0) row={eps: 1}; growing S to length 1",
        "not-consistent (eps, a(1)) split by a(1).eps; growing E",
        "not-closed anc(0) a(0) row={eps: 1, a(0): 0, a(1): 0}; growing "
        "S to length 2",
        "hypothesis with 2 state orbits",
        "accepted",
    ],
    ("Ak:2", 5, 40, 4): [
        "not-closed a(0) row={eps: 1}; growing S to length 1",
        "not-consistent (eps, a(1)) split by a(1).eps; growing E",
        "not-closed anc(0) a(0) row={eps: 1, a(0): 0, a(1): 0}; growing "
        "S to length 2",
        "not-consistent (eps, anc(1)) split by a(1).a(2); growing E",
        "hypothesis with 2 state orbits",
        "accepted",
    ],
}


@pytest.mark.parametrize(
    "run", list(TRAJECTORIES), ids=lambda r: f"{r[0]}-l{r[3]}"
)
def test_trajectory_is_pinned(run):
    name, eq_depth, max_equivalence, max_length = run
    lines = []
    learn(
        for_corpus(name, eq_depth=eq_depth),
        LearnBudget(max_equivalence=max_equivalence, max_length=max_length),
        log=lines.append,
    )
    assert lines == TRAJECTORIES[run]
