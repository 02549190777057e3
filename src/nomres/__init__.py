"""Residual nominal (register) automata over equality atoms.

Simulation of nondeterministic nominal automata with guessing, the
join-semilattice of finitely supported observation rows, a universality
decision procedure for residual automata, anchoring constructions, and
an active-learning loop that converges exactly on residual languages.
"""

from .orbits import (
    AlphabetSpec,
    DEFAULT_ALPHABET,
    Letter,
    Word,
    EMPTY_WORD,
    canonicalize,
    count_partial_permutations,
    enumerate_word_orbits,
    parse_word,
    split_into_a_orbits,
)
from .automaton import (
    SymbolicAutomaton,
    StateOrbit,
    TransitionLine,
    UniversalityResult,
    accepts,
    anchor,
    anchor_top,
    is_universal_residual,
    parse,
    render,
    run_frontier,
    universal_automaton,
)
from .rows import (
    ColumnSet,
    Row,
    is_generated_by,
    is_join_irreducible,
    join_below,
    row_leq,
)
from .learner import (
    Hypothesis,
    LearnBudget,
    LearnResult,
    LearnStats,
    ObservationTable,
    TableNotClosed,
    TableNotConsistent,
    hypothesis_agreement_violations,
    learn,
)
from .teacher import (
    EquivalenceOracle,
    MembershipOracle,
    Teacher,
    for_corpus,
    for_language,
)
from . import corpus

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
