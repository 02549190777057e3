"""Command-line surface for scripted experiments.

Exit codes: 0 = accept/true/success, 1 = reject/false/diverged,
2 = usage or format error.  A call whose work cannot stay bounded is
refused with exit 2 before it starts: `orbits` when its numbers could
not be printed, `learn` when its equivalence depth needs more than
MAX_EQUIVALENCE_ORBITS word orbits.  Files and built-in names are
bounded by MAX_DIMENSION (see `automaton.parse`).

`main(argv)` may be called any number of times in one process; the
argument parser is built on the first call and reused after it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .orbits import (
    DEFAULT_ALPHABET,
    count_word_orbits,
    parse_word,
)
from .automaton import (
    AutomatonFormatError,
    accepts,
    anchor,
    anchor_top,
    is_universal_residual,
    parse,
    render,
)
from .learner import LearnBudget, learn
from .teacher import for_corpus, for_language
from . import corpus


class UsageError(Exception):
    pass


# The most word orbits `learn` enumerates for one equivalence query:
# about twice the largest query of the acceptance runs (Ak:3 at depth 7,
# 127,203 orbits, about 1 s on a 2-vCPU machine).  The default depth for
# a file target, --max-l + 1 = 9, needs 12,014,307 on Ak's alphabet.
MAX_EQUIVALENCE_ORBITS = 250_000


def _load_target(spec: str):
    """'builtin:NAME' -> corpus entry, anything else -> automaton file."""
    if spec.startswith("builtin:"):
        try:
            return corpus.get(spec[len("builtin:"):])
        except KeyError as e:
            raise UsageError(e.args[0]) from None
    return _read_automaton(spec)


def _read_automaton(path: str):
    with open(path) as fh:
        return parse(fh.read())


def _target_automaton(spec: str):
    target = _load_target(spec)
    return target.automaton if isinstance(target, corpus.CorpusEntry) else target


def _write(text: str, path):
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_member(args) -> int:
    aut = _target_automaton(args.target)
    word = parse_word(args.word, aut.alphabet)
    if accepts(aut, word):
        print("accept")
        return 0
    print("reject")
    return 1


def _cmd_universal(args) -> int:
    if not args.assume_residual:
        print(
            "universal requires --assume-residual: the procedure is only "
            "correct for residual automata, and residuality of a given "
            "automaton is undecidable.",
            file=sys.stderr,
        )
        return 2
    aut = _target_automaton(args.target)
    verdict = is_universal_residual(aut)
    print(verdict.describe())
    return 0 if verdict.universal else 1


def _cmd_anchor(args) -> int:
    aut = _target_automaton(args.target)
    out = anchor_top(aut) if args.top else anchor(aut)
    _write(render(out), args.output)
    return 0


def _digits_bound(alphabet, max_len):
    """An upper bound on log10 of every number `orbits` prints, from
    floats alone.

    With k = max_len * dimension, the largest is the count or p(k).
    p(k) = k! * sum_j C(k, j) / j! <= k! * sum_j k^j / j!^2, which is at
    most k! * (sum_j sqrt(k)^j / j!)^2 = k! * e^(2 sqrt k).  The count is
    at most (max_len + 1) * tags^max_len tag sequences times Bell(k), and
    Bell(k) < (0.792 k / ln(k + 1))^k for k >= 1 (Berend and Tassa, 2010).
    """
    k = max_len * alphabet.dimension
    log_p = (math.lgamma(k + 1) + 2 * math.sqrt(k)) / math.log(10)
    log_bell = k * math.log10(0.792 * k / math.log(k + 1)) if k else 0.0
    log_count = (
        math.log10(max_len + 1)
        + max_len * math.log10(len(alphabet.constructors))
        + log_bell
    )
    return max(log_p, log_count)


def _cmd_orbits(args) -> int:
    if args.alphabet:
        alphabet = _read_automaton(args.alphabet).alphabet
    else:
        alphabet = DEFAULT_ALPHABET
    # Refuse before any big-int arithmetic: a number N prints with
    # floor(log10 N) + 1 digits, and 0 digits means no maximum (as on
    # interpreters that predate it).  A length above the maximum is
    # refused outright: with an atom in the alphabet p(max_len) alone is
    # longer, and without one counting still takes a step per length.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and args.max_len >= 0 and (
        args.max_len > digits or _digits_bound(alphabet, args.max_len) >= digits
    ):
        raise UsageError(
            f"--max-len {args.max_len} is too large: the output could exceed "
            f"the interpreter's maximum of {digits} digits per printed number"
        )
    print(count_word_orbits(alphabet, args.max_len))
    print("k p(k)")
    # p(k) = 2k p(k-1) - (k-1)^2 p(k-2): one step per row, from p(-1) = 0
    p, before = 1, 0
    for k in range(args.max_len * alphabet.dimension + 1):
        print(f"{k} {p}")
        p, before = 2 * (k + 1) * p - k * k * before, p
    return 0


def _cmd_learn(args) -> int:
    for flag, value in (("--max-l", args.max_l), ("--max-eq", args.max_eq)):
        if value < 0:
            raise UsageError(f"{flag} must be non-negative, got {value}")
    target = _load_target(args.target)
    eq_depth = args.eq_depth
    if eq_depth is None and getattr(target, "char_length", None) is None:
        # no known characterising length for for_corpus to default from:
        # check just past the row-length budget
        eq_depth = args.max_l + 1
    if isinstance(target, corpus.CorpusEntry):
        teacher = for_corpus(target.name, eq_depth)
    else:
        teacher = for_language(
            target.alphabet, automaton=target, eq_depth=eq_depth
        )
    depth = teacher.equivalence.depth
    orbits = count_word_orbits(teacher.alphabet, depth, MAX_EQUIVALENCE_ORBITS)
    if orbits > MAX_EQUIVALENCE_ORBITS:
        raise UsageError(
            f"equivalence depth {depth} needs more than "
            f"{MAX_EQUIVALENCE_ORBITS:,} word orbits; pass a smaller --eq-depth"
        )
    budget = LearnBudget(max_equivalence=args.max_eq, max_length=args.max_l)
    if args.trace:
        with open(args.trace, "w") as fh:
            result = learn(teacher, budget, log=lambda line: print(line, file=fh))
    else:
        result = learn(teacher, budget)
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(result.stats.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if result.diverged:
        print("DIVERGED")
        return 1
    _write(render(result.hypothesis.automaton), args.output)
    return 0


def _cmd_corpus(args) -> int:
    if args.action != "export":
        raise UsageError("corpus supports: export <name>")
    try:
        entry = corpus.get(args.name)
    except KeyError as e:
        raise UsageError(e.args[0]) from None
    _write(render(entry.automaton), args.output)
    return 0


@functools.cache
def _build_parser():
    # Built once per process and shared by every main() call.  Reuse is
    # safe because parse_args starts a fresh Namespace each call and never
    # mutates the parser; keep every default immutable (no
    # action="append", no list defaults) so that it stays that way.
    parser = argparse.ArgumentParser(
        prog="nomres",
        description="Nominal automata over equality atoms: simulate, anchor, learn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="decide membership of a word")
    p.add_argument("target", help="automaton file or builtin:NAME")
    p.add_argument("word", help="word, e.g. 'a(1) a(2) a(1)' or 'eps'")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("universal", help="universality of a residual automaton")
    p.add_argument("target")
    p.add_argument("--assume-residual", action="store_true")
    p.set_defaults(fn=_cmd_universal)

    p = sub.add_parser("anchor", help="write the anchored construction")
    p.add_argument("target")
    p.add_argument("--top", action="store_true", help="the universal-on-Sigma variant")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_anchor)

    p = sub.add_parser("orbits", help="word-orbit count and p(k) table")
    p.add_argument("--alphabet", help="file whose alphabet lines to use")
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("learn", help="learn a target language")
    p.add_argument("--target", required=True)
    p.add_argument(
        "--eq-depth", type=int,
        help="equivalence-check depth; defaults to twice the target's known "
             "characterising length plus one, else max-l + 1",
    )
    p.add_argument("--max-eq", type=int, default=50)
    p.add_argument("--max-l", type=int, default=8)
    p.add_argument("-o", "--output")
    p.add_argument("--stats")
    p.add_argument("--trace", help="write one line per learner loop event")
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("corpus", help="corpus export <name>")
    p.add_argument("action")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, AutomatonFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
