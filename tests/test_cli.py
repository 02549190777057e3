import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nomres import cli
from nomres.cli import main
from nomres.automaton import MAX_DIMENSION, parse, accepts, render
from nomres.orbits import (
    AlphabetSpec,
    count_partial_permutations,
    count_word_orbits,
    enumerate_word_orbits,
)
from nomres import corpus

from conftest import SUCCESS_TARGETS, random_automaton

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def is_usage_error(code, out, err):
    """Exit 2, nothing on stdout, and one `error:` line on stderr."""
    lines = err.splitlines()
    return code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error: ")


class TestMember:
    def test_accept(self, capsys):
        code, out, _ = run(capsys, "member", "builtin:Ld", "a(1) a(2) a(1)")
        assert code == 0 and out.strip() == "accept"

    def test_reject(self, capsys):
        code, out, _ = run(capsys, "member", "builtin:Ld", "a(1) a(2)")
        assert code == 1 and out.strip() == "reject"

    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "ld.aut"
        path.write_text(render(corpus.get("Ld").automaton))
        code, out, _ = run(capsys, "member", str(path), "a(5) a(5)")
        assert code == 0

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run(capsys, "member", "builtin:Ld", "b(1)")
        assert code == 2 and "error" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "member", "builtin:Nope", "eps")
        assert code == 2
        # the message is printed as raised, not as a quoted KeyError
        assert err == "error: unknown corpus entry 'Nope'\n"
        code, _, err = run(capsys, "learn", "--target", "builtin:Ak:9")
        assert code == 2
        assert err == "error: Ak requires 1 <= k <= 8\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "member", "/nonexistent.aut", "eps")
        assert code == 2


class TestUniversal:
    def test_requires_acknowledgement(self, capsys):
        code, _, err = run(capsys, "universal", "builtin:Ld")
        assert code == 2
        assert "undecidable" in err

    def test_negative_with_reason(self, capsys):
        code, out, _ = run(capsys, "universal", "builtin:Ld", "--assume-residual")
        assert code == 1
        assert "non-final state" in out

    def test_positive(self, tmp_path, capsys):
        from nomres.automaton import universal_automaton
        from nomres.orbits import AlphabetSpec

        path = tmp_path / "all.aut"
        path.write_text(render(universal_automaton(AlphabetSpec([("a", 1)]))))
        code, out, _ = run(capsys, "universal", str(path), "--assume-residual")
        assert code == 0 and out.strip() == "universal"


class TestAnchor:
    def test_writes_parseable_output(self, tmp_path, capsys):
        out_path = tmp_path / "anc.aut"
        code, _, _ = run(capsys, "anchor", "builtin:Ld", "-o", str(out_path))
        assert code == 0
        anc = parse(out_path.read_text())
        for w in enumerate_word_orbits(corpus.get("Ld").automaton.alphabet, 3):
            assert accepts(anc, w) == corpus.get("Ld").predicate(w)

    def test_top_variant(self, tmp_path, capsys):
        out_path = tmp_path / "top.aut"
        code, _, _ = run(capsys, "anchor", "builtin:Ld", "--top", "-o", str(out_path))
        assert code == 0
        top = parse(out_path.read_text())
        for w in enumerate_word_orbits(corpus.get("Ld").automaton.alphabet, 3):
            assert accepts(top, w)

    def test_top_variant_when_top_is_taken(self, tmp_path, capsys):
        out_path = tmp_path / "top.aut"
        code, _, _ = run(capsys, "anchor", "builtin:Ak:2", "--top", "-o", str(out_path))
        assert code == 0
        top = parse(out_path.read_text())
        for w in enumerate_word_orbits(corpus.get("Ak:2").automaton.alphabet, 3):
            assert accepts(top, w)

    def test_unwritable_output(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.aut"
        code, _, err = run(capsys, "anchor", "builtin:Ld", "-o", str(out_path))
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestOrbits:
    def test_default_alphabet_count(self, capsys):
        code, out, _ = run(capsys, "orbits", "--max-len", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "9"
        assert "k p(k)" in lines[1]
        assert lines[2] == "0 1"
        assert lines[-1] == "3 34"

    def test_long_words_are_counted(self, capsys):
        # Bell numbers by B(n+1) = sum_k C(n, k) B(k); far too many
        # words to enumerate
        bell = [1]
        for n in range(30):
            bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
        code, out, _ = run(capsys, "orbits", "--max-len", "30")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == str(sum(bell))
        assert lines[-1].startswith("30 ")

    def test_missing_alphabet_file(self, tmp_path, capsys):
        path = tmp_path / "missing.aut"
        code, _, err = run(capsys, "orbits", "--alphabet", str(path))
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "orbits", "--max-len", "4")
        _, out2, _ = run(capsys, "orbits", "--max-len", "4")
        assert out1 == out2

    def test_table_is_p_of_k(self, tmp_path, capsys):
        # an arity-2 tag: the table runs to k = 2 * max-len
        path = tmp_path / "ab.aut"
        path.write_text("alphabet a 1\nalphabet b 2\nstate q 0\n")
        code, out, _ = run(capsys, "orbits", "--alphabet", str(path), "--max-len", "40")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "k p(k)"
        assert lines[2:] == [f"{k} {count_partial_permutations(k)}" for k in range(81)]


STATS_KEYS = {
    "membership_queries", "equivalence_queries", "closedness_rounds",
    "consistency_rounds", "final_l", "divergence_reason", "wall_time",
    "agreement_violations",
}


class TestLearn:
    def test_ld_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "hyp.aut"
        stats_path = tmp_path / "stats.json"
        code, _, _ = run(
            capsys,
            "learn", "--target", "builtin:Ld", "--eq-depth", "6",
            "--max-eq", "20", "--max-l", "4",
            "-o", str(out_path), "--stats", str(stats_path),
        )
        assert code == 0
        hyp = parse(out_path.read_text())
        assert len(hyp.states) == 3
        stats = json.loads(stats_path.read_text())
        assert set(stats) == STATS_KEYS
        assert stats["divergence_reason"] is None

    def test_eq_depth_defaults(self, tmp_path, capsys):
        # no --eq-depth: known characterising length doubles plus one,
        # non-residual targets fall back to max-l + 1
        code, _, _ = run(
            capsys,
            "learn", "--target", "builtin:Compress",
            "--max-eq", "20", "--max-l", "4", "-o", str(tmp_path / "h.aut"),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "learn", "--target", "builtin:Compress", "--eq-depth", "5",
            "--max-eq", "20", "--max-l", "4", "-o", str(tmp_path / "h5.aut"),
        )
        assert code == 0
        assert (tmp_path / "h.aut").read_text() == (tmp_path / "h5.aut").read_text()
        code, out, _ = run(
            capsys,
            "learn", "--target", "builtin:Ln", "--max-eq", "10", "--max-l", "3",
        )
        assert code == 1 and out.strip() == "DIVERGED"

    def test_divergence_prints_and_fails(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code, out, _ = run(
            capsys,
            "learn", "--target", "builtin:Ln", "--eq-depth", "5",
            "--max-eq", "10", "--max-l", "3", "--stats", str(stats_path),
        )
        assert code == 1
        assert out.strip() == "DIVERGED"
        stats = json.loads(stats_path.read_text())
        assert set(stats) == STATS_KEYS
        assert stats["divergence_reason"] == "length"

    def test_learn_output_is_deterministic(self, tmp_path, capsys):
        outs = []
        for i in (1, 2):
            out_path = tmp_path / f"hyp{i}.aut"
            code, _, _ = run(
                capsys,
                "learn", "--target", "builtin:Compress", "--eq-depth", "5",
                "--max-eq", "20", "--max-l", "4", "-o", str(out_path),
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_trace_log(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.log"
        run(
            capsys,
            "learn", "--target", "builtin:Ld", "--eq-depth", "6",
            "--max-eq", "20", "--max-l", "4", "--trace", str(trace_path),
            "-o", str(tmp_path / "h.aut"),
        )
        lines = trace_path.read_text().strip().splitlines()
        assert lines[-1] == "accepted"
        assert any(line.startswith("not-closed") for line in lines)

    def test_learn_from_automaton_file(self, tmp_path, capsys):
        path = tmp_path / "compress.aut"
        path.write_text(render(corpus.get("Compress").automaton))
        out_path = tmp_path / "hyp.aut"
        code, _, _ = run(
            capsys,
            "learn", "--target", str(path), "--eq-depth", "5",
            "--max-eq", "20", "--max-l", "4", "-o", str(out_path),
        )
        assert code == 0
        assert len(parse(out_path.read_text()).states) == 2


class TestLearnBudgets:
    """A negative learn budget is a usage error, refused before any work;
    a budget of 0 is a budget, and the run diverges on it."""

    @pytest.mark.parametrize(
        "argv", [("--max-l", "-1"), ("--max-eq", "-3"), ("--max-l", "-1", "--max-eq", "-1")],
        ids=["max-l", "max-eq", "both"],
    )
    def test_negative_budget_is_refused(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("target loaded")

        monkeypatch.setattr(cli, "_load_target", never)
        code, out, err = run(capsys, "learn", "--target", "builtin:Ld", *argv)
        assert is_usage_error(code, out, err)
        assert argv[0] in err

    @pytest.mark.parametrize(
        "flag,reason", [("--max-eq", "equivalence"), ("--max-l", "length")]
    )
    def test_zero_budget_diverges(self, tmp_path, capsys, flag, reason):
        stats_path = tmp_path / "stats.json"
        code, out, _ = run(
            capsys, "learn", "--target", "builtin:Ld", flag, "0",
            "--stats", str(stats_path),
        )
        assert code == 1 and out.strip() == "DIVERGED"
        assert json.loads(stats_path.read_text())["divergence_reason"] == reason


class TestCorpusExport:
    def test_export(self, tmp_path, capsys):
        out_path = tmp_path / "ak2.aut"
        code, _, _ = run(capsys, "corpus", "export", "Ak:2", "-o", str(out_path))
        assert code == 0
        assert parse(out_path.read_text()) == corpus.get("Ak:2").automaton

    def test_export_to_stdout(self, capsys):
        code, out, _ = run(capsys, "corpus", "export", "Ld")
        assert code == 0
        assert parse(out) == corpus.get("Ld").automaton

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "corpus", "export", "Nope")
        assert code == 2
        assert err == "error: unknown corpus entry 'Nope'\n"

    def test_unknown_action(self, capsys):
        code, _, _ = run(capsys, "corpus", "import", "Ld")
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    """main() builds its parser once per process and reuses it."""

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        run(capsys, "member", "builtin:Ld", "eps")
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert run(capsys, "member", "builtin:Ld", "a(1) a(1)")[0] == 0
        assert run(capsys, "anchor", "builtin:Ld", "-o", str(tmp_path / "a.aut"))[0] == 0
        assert run(capsys, "orbits", "--max-len", "2")[0] == 0
        assert built == []
        assert cli._build_parser.cache_info().currsize == 1

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        learn = ("learn", "--target", "builtin:Ld", "--eq-depth", "6",
                 "--max-eq", "20", "--max-l", "4")
        s1 = tmp_path / "s1.json"
        assert run(capsys, *learn, "--stats", str(s1), "-o", str(tmp_path / "h1"))[0] == 0
        s1.unlink()
        assert run(capsys, *learn, "-o", str(tmp_path / "h2"))[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h1", "h2"]

        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "anchor", "builtin:Ld", "--top", "-o", str(a))[0] == 0
        assert run(capsys, "anchor", "builtin:Ld", "-o", str(b))[0] == 0
        assert "top" in {q.name for q in parse(a.read_text()).states}
        assert "top" not in {q.name for q in parse(b.read_text()).states}

    def test_calls_after_usage_error_and_help(self, capsys):
        assert run(capsys, "member")[0] == 2
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: nomres")
        code, out, _ = run(capsys, "member", "builtin:Ld", "a(1) a(1)")
        assert code == 0 and out.strip() == "accept"


class TestBoundedWork:
    """A call whose work would not stay bounded exits 2 before it starts."""

    @pytest.mark.parametrize(
        "text,argv",
        [
            ("alphabet a 1\nstate q0 1000000000000\ninitial q0\n",
             ("member", "{file}", "a(1)")),
            ("alphabet a 1000000000000\nstate q 0\ninitial q\nfinal q\n",
             ("universal", "{file}", "--assume-residual")),
            ("alphabet a 1000000000000\n", ("orbits", "--alphabet", "{file}")),
            ("", ("member", "builtin:Ak:1000000000", "eps")),
            ("", ("learn", "--target", "builtin:Ak:2", "--eq-depth", str(10**30))),
        ],
        ids=["dimension", "arity-universal", "arity-orbits", "builtin-Ak", "eq-depth"],
    )
    def test_huge_values_are_refused(self, tmp_path, text, argv):
        # in a child process, so that a regression fails on the timeout
        # instead of hanging the suite
        path = tmp_path / "huge.aut"
        path.write_text(text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "nomres.cli",
             *(a.format(file=path) for a in argv)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert is_usage_error(proc.returncode, proc.stdout, proc.stderr), proc.stderr

    def test_learn_refuses_deep_equivalence_checks(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("learn started")

        monkeypatch.setattr(cli, "learn", never)
        path = tmp_path / "ak2.aut"
        path.write_text(render(corpus.get("Ak:2").automaton))
        # without --eq-depth a file target is checked to --max-l + 1 = 9
        assert count_word_orbits(corpus.get("Ak:2").automaton.alphabet, 9) == 12_014_307
        for extra in ((), ("--eq-depth", "8")):
            assert is_usage_error(*run(capsys, "learn", "--target", str(path), *extra))
        # a built-in target's default depth, 2k + 1 = 11
        assert is_usage_error(*run(capsys, "learn", "--target", "builtin:Ak:5"))

    def test_learn_admits_the_acceptance_depths(self, monkeypatch):
        class Started(Exception):
            pass

        def started(teacher, budget, **kwargs):
            raise Started(teacher.equivalence.depth)

        monkeypatch.setattr(cli, "learn", started)
        alphabet = corpus.get("Ak:3").automaton.alphabet
        assert count_word_orbits(alphabet, 7) == 127_203 <= cli.MAX_EQUIVALENCE_ORBITS
        for name, depth, max_l in SUCCESS_TARGETS:
            argv = ["learn", "--target", f"builtin:{name}", "--eq-depth", str(depth),
                    "--max-l", str(max_l)]
            with pytest.raises(Started) as reached:
                main(argv)
            assert reached.value.args == (depth,)

    def test_orbits_refuses_before_counting(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("counted")

        monkeypatch.setattr(cli, "count_word_orbits", never)
        for n in ("1600", str(10**30)):
            assert is_usage_error(*run(capsys, "orbits", "--max-len", n))

    def test_orbits_refuses_from_the_first_unprintable_length(self, capsys):
        # at the least digit limit the interpreter allows, p(305) is the
        # first number of the output with more digits than the limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "orbits", "--max-len", "304")
            assert code == 0 and out.splitlines()[-1].startswith("304 ")
            assert is_usage_error(*run(capsys, "orbits", "--max-len", "305"))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(str(count_partial_permutations(305))) == 641

    @pytest.mark.parametrize(
        "constructors",
        [[("a", 1)], [("a", 1), ("anc", 1)], [("a", 1), ("b", 2)], [("c", 0)],
         [("c", 0), ("d", 0), ("e", 0)], [("f", 3), ("c", 0)]],
    )
    def test_digit_bound_holds(self, constructors):
        alphabet = AlphabetSpec(constructors)
        for n in range(40):
            largest = max(
                count_word_orbits(alphabet, n),
                count_partial_permutations(n * alphabet.dimension),
            )
            assert math.log10(largest) <= cli._digits_bound(alphabet, n)

    def test_bench_orbits_call_is_unaffected(self, tmp_path, capsys):
        path = tmp_path / "ak3.aut"
        path.write_text(render(corpus.get("Ak:3").automaton))
        code, out, _ = run(capsys, "orbits", "--max-len", "7", "--alphabet", str(path))
        assert code == 0 and out.splitlines()[0] == "127203"


HUGE = "9" * 5000  # past the interpreter's int-to-str digit limit
# the refusal of values far above MAX_DIMENSION is tested in a child
# process (TestBoundedWork), where a regression cannot hang the suite
BAD_COUNTS = ("-1", "x", "1.5", "0x1", "1_0", str(MAX_DIMENSION + 1), HUGE)


def _malformed(rng, text, aut):
    """One malformed variant of a rendered automaton."""
    lines = text.splitlines()
    q = aut.states[0]
    regs = f"({','.join(f'r{i}' for i in range(q.dimension))})" if q.dimension else ""
    kind = rng.choice(
        ["truncate", "count", "tag", "letter-arity", "directive", "state",
         "fields", "duplicate", "no-alphabet"]
    )
    if kind == "truncate":
        # every proper prefix of these lines, as random_automaton names
        # states and tags, is malformed: a field goes missing, a
        # parenthesis stays open, or a name no longer resolves
        i = rng.choice([i for i, l in enumerate(lines)
                        if l.split()[0] in ("alphabet", "state", "trans")])
        lines[i] = lines[i][: rng.randrange(1, len(lines[i]))]
    elif kind == "count":
        i = rng.choice([i for i, l in enumerate(lines)
                        if l.split()[0] in ("alphabet", "state")])
        lines[i] = " ".join(lines[i].split()[:2] + [rng.choice(BAD_COUNTS)])
    elif kind == "tag":
        lines.append(f"trans {q.name}{regs} zz {q.name}{regs}")
    elif kind == "letter-arity":
        lines.append(f"trans {q.name}{regs} a(y,z) {q.name}{regs}")
    elif kind == "directive":
        lines.insert(rng.randrange(len(lines) + 1), "frobnicate 1")
    elif kind == "state":
        lines.append(rng.choice(["initial", "final"]) + " nowhere")
    elif kind == "fields":
        lines.append(
            rng.choice(["trans q0", "state q9", "alphabet zz", f"alphabet zz 1 {HUGE}"])
        )
    elif kind == "duplicate":
        lines.append(rng.choice([l for l in lines if l.split()[0] in ("alphabet", "state")]))
    else:
        lines = [l for l in lines if not l.startswith("alphabet")]
    return "\n".join(lines) + "\n"


BAD_LETTERS = ("a(1", "a(", "a(1,", "zz(1)", "a(1,2)", "a", f"a({HUGE})", "a(-1)",
               "a(x)", "!!", "a)1(", "a(1_0)", "a(+3)", "a(\u0663)", "a(01)")


class TestUnwritableTags:
    """A tag that no word can write is refused when the alphabet is built:
    `eps` reads as the empty word, and `parse_word` reads a tag as
    [A-Za-z_][A-Za-z0-9_]*."""

    @pytest.mark.parametrize("line", ["alphabet eps 0", "alphabet a(1) 1"])
    def test_file_alphabet(self, tmp_path, capsys, line):
        path = tmp_path / "bad.aut"
        path.write_text(f"{line}\nstate q 0\ninitial q\nfinal q\n")
        assert is_usage_error(*run(capsys, "member", str(path), "eps"))

    @pytest.mark.parametrize("top", [(), ("--top",)], ids=["anchor", "top"])
    def test_anchor_tag_from_a_state_name(self, tmp_path, capsys, top):
        path = tmp_path / "q.aut"
        path.write_text("alphabet a 1\nstate q-1 0\ninitial q-1\n")
        out_path = tmp_path / "out.aut"
        assert is_usage_error(*run(capsys, "anchor", str(path), *top, "-o", str(out_path)))
        assert not out_path.exists()


class TestExitCodeContract:
    """Seeded fuzzing: a malformed file or word exits 2 with one `error:`
    line and no traceback."""

    def test_random_automata_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            aut = random_automaton(rng)
            assert parse(render(aut)) == aut

    def test_malformed_files(self, tmp_path, capsys):
        rng = random.Random(11)
        path = tmp_path / "bad.aut"
        commands = [
            ("member", str(path), "eps"),
            ("universal", str(path), "--assume-residual"),
            ("anchor", str(path), "-o", str(tmp_path / "out.aut")),
            ("orbits", "--alphabet", str(path)),
            ("learn", "--target", str(path), "--eq-depth", "2"),
        ]
        for _ in range(60):
            aut = random_automaton(rng)
            text = render(aut)
            for _ in range(3):
                bad = _malformed(rng, text, aut)
                path.write_text(bad)
                assert is_usage_error(*run(capsys, *rng.choice(commands))), bad
        path.write_bytes(text.encode() + b"\xff\xfe")
        assert is_usage_error(*run(capsys, "member", str(path), "eps"))
        assert not (tmp_path / "out.aut").exists()

    def test_malformed_words(self, tmp_path, capsys):
        rng = random.Random(13)
        path = tmp_path / "aut.aut"
        for _ in range(20):
            aut = random_automaton(rng)
            path.write_text(render(aut))
            for _ in range(3):
                word = [f"a({rng.randrange(4)})" for _ in range(rng.randrange(4))]
                word.insert(rng.randrange(len(word) + 1), rng.choice(BAD_LETTERS))
                assert is_usage_error(*run(capsys, "member", str(path), " ".join(word)))
