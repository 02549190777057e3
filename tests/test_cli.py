import argparse
import json
import math

from nomres import cli
from nomres.cli import main
from nomres.automaton import SimulationLimitError, parse, accepts, render
from nomres.orbits import enumerate_word_orbits
from nomres import corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "member", "/nonexistent.aut", "eps")
        assert code == 2

    def test_simulation_limit_is_an_error(self, capsys, monkeypatch):
        def over_limit(aut, w):
            raise SimulationLimitError("configuration frontier exceeded 1 entries")

        monkeypatch.setattr(cli, "accepts", over_limit)
        code, _, err = run(capsys, "member", "builtin:Ld", "eps")
        assert code == 2
        assert err.strip() == "error: configuration frontier exceeded 1 entries"


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
