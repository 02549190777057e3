import ast
from pathlib import Path

import nomres

ROOT = Path(__file__).resolve().parent.parent


def test_public_surface():
    assert nomres.__all__ == [
        "AlphabetSpec",
        "ColumnSet",
        "DEFAULT_ALPHABET",
        "EMPTY_WORD",
        "EquivalenceOracle",
        "Hypothesis",
        "LearnBudget",
        "LearnResult",
        "LearnStats",
        "Letter",
        "MembershipOracle",
        "ObservationTable",
        "Row",
        "StateOrbit",
        "SymbolicAutomaton",
        "TableNotClosed",
        "TableNotConsistent",
        "Teacher",
        "TransitionLine",
        "UniversalityResult",
        "Word",
        "accepts",
        "anchor",
        "anchor_top",
        "automaton",
        "canonicalize",
        "corpus",
        "count_partial_permutations",
        "enumerate_word_orbits",
        "for_corpus",
        "for_language",
        "hypothesis_agreement_violations",
        "is_generated_by",
        "is_join_irreducible",
        "is_non_guessing",
        "is_universal_residual",
        "join_below",
        "learn",
        "learner",
        "orbits",
        "parse",
        "parse_word",
        "render",
        "row_leq",
        "rows",
        "run_frontier",
        "split_into_a_orbits",
        "teacher",
        "universal_automaton",
    ]


def _unused_imports(path):
    """Module-level imported names that the file never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # the package's __init__ imports names to re-export them
    unused = {
        str(path.relative_to(ROOT)): names
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}
