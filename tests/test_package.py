import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

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


def _names_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_public_names_are_used():
    """Every exported name is read by the system, outside the package's
    re-exports, or by an acceptance criterion."""
    readers = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    readers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_names_read, readers))
    unread = [
        name
        for name in nomres.__all__
        if not isinstance(getattr(nomres, name), ModuleType) and name not in read
    ]
    assert unread == []


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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dead_private_code(paths):
    """Private functions, methods and classes that no file references
    outside their own body, private attributes stored but never loaded,
    and attributes a private class stores on ``self`` that no file
    loads (as ``Class.attr``), over all of ``paths`` together."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    nodes = [node for tree in trees for node in ast.walk(tree)]

    def references(within):
        refs = Counter()
        for node in within:
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
        return refs

    everywhere = references(nodes)
    own = Counter()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                own[node.name] += references(ast.walk(node))[node.name]
    dead = {name for name, n in own.items() if everywhere[name] == n}
    dead |= {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and _private(node.attr)
        and not everywhere[node.attr]
    }
    loaded = Counter(
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    dead |= {
        f"{node.name}.{inner.attr}"
        for node in nodes
        if isinstance(node, ast.ClassDef) and _private(node.name)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute)
        and isinstance(inner.ctx, ast.Store)
        and isinstance(inner.value, ast.Name)
        and inner.value.id == "self"
        and not loaded[inner.attr]
    }
    return sorted(dead)


def test_no_dead_private_code():
    # a memo whose reads went but whose reset stayed is dead code too
    assert _dead_private_code(sorted((ROOT / "src").rglob("*.py"))) == []


def _cache_decorators(tree):
    """(function, decorator name, decorator node) for every decorator
    of a function that is named ``lru_cache`` or ``cache``, bare or from
    ``functools``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in ("lru_cache", "cache"):
                yield node, name, deco


def _unbounded_caches(path):
    """Functions of one file whose cache can grow for the whole life of
    the process: an ``lru_cache`` without an integer ``maxsize``, or a
    ``cache`` on a function that takes parameters."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func, name, deco in _cache_decorators(tree):
        if name == "lru_cache":
            sizes = [kw.value for kw in getattr(deco, "keywords", ()) if kw.arg == "maxsize"]
            sizes += getattr(deco, "args", [])[:1]
            bounded = any(
                isinstance(size, ast.Constant) and type(size.value) is int
                for size in sizes
            )
        else:
            a = func.args
            bounded = not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)
        if not bounded:
            found.append(func.name)
    return found


def test_module_caches_are_bounded():
    # a module-level cache outlives every table and teacher that filled it
    unbounded = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src" / "nomres").glob("*.py"))
        if (names := _unbounded_caches(path))
    }
    assert unbounded == {}
