"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, run


@pytest.fixture
def csv_relations(tmp_path):
    r_path = tmp_path / "r.csv"
    r_path.write_text("a\nb\n", encoding="utf-8")
    s_path = tmp_path / "s.csv"
    s_path.write_text("a,1\na,2\nb,1\n\n", encoding="utf-8")
    return str(r_path), str(s_path)


class TestParser:
    def test_facts_argument_format(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--facts", "nopath", "--query", "Q() :- R(X)"])

    def test_query_is_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--facts", "R=r.csv"])


class TestRun:
    def test_exact_attribution_output(self, csv_relations):
        r_path, s_path = csv_relations
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"S={s_path}",
            "--query", "Q(X) :- R(X), S(X, Y)",
        ], output=output)
        text = output.getvalue()
        assert code == 0
        assert "loaded 2 facts into R" in text
        assert "loaded 3 facts into S" in text
        assert "answer ('a',)" in text
        assert "answer ('b',)" in text

    def test_exogenous_and_top(self, csv_relations):
        r_path, s_path = csv_relations
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"S={s_path}",
            "--exogenous", "S", "--top", "1",
            "--query", "Q() :- R(X), S(X, Y)",
        ], output=output)
        text = output.getvalue()
        assert code == 0
        assert "(exogenous)" in text
        # With S exogenous only the two R facts carry scores; top-1 prints one.
        assert text.count("R(") >= 1

    def test_approximate_method(self, csv_relations):
        r_path, s_path = csv_relations
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"S={s_path}",
            "--method", "approximate", "--epsilon", "0.2",
            "--query", "Q(X) :- R(X), S(X, Y)",
        ], output=output)
        assert code == 0
        assert "in [" in output.getvalue()

    def test_query_without_answers(self, csv_relations, tmp_path):
        r_path, _ = csv_relations
        empty = tmp_path / "t.csv"
        empty.write_text("zzz\n", encoding="utf-8")
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"T={empty}",
            "--query", "Q() :- R(X), T(X)",
        ], output=output)
        assert code == 1
        assert "no answers" in output.getvalue()

    def test_missing_facts_errors(self):
        with pytest.raises(SystemExit):
            run(["--query", "Q() :- R(X)"])

    def test_rank_output(self, csv_relations):
        r_path, s_path = csv_relations
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"S={s_path}",
            "--rank",
            "--query", "Q(X) :- R(X), S(X, Y)",
        ], output=output)
        text = output.getvalue()
        assert code == 0
        # Ranked entries are numbered and carry certified intervals.
        assert "1. R('a'): 3 in [3, 3]" in text
        assert "2. S(" in text

    def test_top_k_output(self, csv_relations):
        r_path, s_path = csv_relations
        output = io.StringIO()
        code = run([
            "--facts", f"R={r_path}", "--facts", f"S={s_path}",
            "--top-k", "1",
            "--query", "Q(X) :- R(X), S(X, Y)",
        ], output=output)
        text = output.getvalue()
        assert code == 0
        assert "1. R('a')" in text
        assert "2." not in text  # truncated to the top 1 per answer

    def test_negative_top_rejected(self, csv_relations):
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["--facts", f"R={r_path}", "--top", "-1",
                 "--query", "Q(X) :- R(X)"], output=io.StringIO())

    def test_non_positive_top_k_rejected(self, csv_relations):
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["--facts", f"R={r_path}", "--top-k", "0",
                 "--query", "Q(X) :- R(X)"], output=io.StringIO())

    def test_rank_and_top_k_conflict(self, csv_relations):
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["--facts", f"R={r_path}", "--rank", "--top-k", "2",
                 "--query", "Q(X) :- R(X)"], output=io.StringIO())

    def test_method_and_rank_conflict(self, csv_relations):
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["--facts", f"R={r_path}", "--method", "exact", "--rank",
                 "--query", "Q(X) :- R(X)"], output=io.StringIO())

    def test_top_and_rank_conflict(self, csv_relations):
        # --top would be silently ignored by the ranking output path.
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["--facts", f"R={r_path}", "--rank", "--top", "2",
                 "--query", "Q(X) :- R(X)"], output=io.StringIO())

    def test_jobs_flag_is_a_usage_error(self, csv_relations):
        """``--jobs`` is gone with the process pool: exit 2."""
        r_path, s_path = csv_relations
        with pytest.raises(SystemExit) as excinfo:
            run(["--facts", f"R={r_path}", "--facts", f"S={s_path}",
                 "--query", "Q(X) :- R(X), S(X, Y)", "--jobs", "2"],
                output=io.StringIO())
        assert excinfo.value.code == 2

    def test_epsilon_warns_for_exact(self, csv_relations):
        r_path, _ = csv_relations
        output = io.StringIO()
        code = run(["--facts", f"R={r_path}", "--epsilon", "0.2",
                    "--query", "Q(X) :- R(X)"], output=output)
        assert code == 0
        assert "warning: --epsilon is ignored" in output.getvalue()

    def test_epsilon_does_not_warn_for_approximate(self, csv_relations):
        r_path, _ = csv_relations
        output = io.StringIO()
        code = run(["--facts", f"R={r_path}", "--epsilon", "0.2",
                    "--method", "approximate",
                    "--query", "Q(X) :- R(X)"], output=output)
        assert code == 0
        assert "warning" not in output.getvalue()

    def test_integer_coercion(self, tmp_path):
        path = tmp_path / "nums.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        output = io.StringIO()
        code = run([
            "--facts", f"N={path}",
            "--query", "Q(X) :- N(X, Y), Y >= 3",
        ], output=output)
        assert code == 0
        assert "answer (3,)" in output.getvalue()
        assert "(1,)" not in output.getvalue()


class TestServeCommand:
    def _requests_file(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_serve_mixed_requests(self, csv_relations, tmp_path, capsys):
        r_path, s_path = csv_relations
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)"}),
            json.dumps({"op": "topk", "query": "Q(X) :- R(X), S(X, Y)",
                        "k": 1}),
        ])
        output = io.StringIO()
        code = run(["serve", "--facts", f"R={r_path}",
                    "--facts", f"S={s_path}", "--requests", requests,
                    "--stats"], output=output)
        assert code == 0
        # stdout is strictly one JSON response per line; every diagnostic
        # (facts loaded, stats) goes to stderr.
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [True, True]
        assert "tier_hit_rates" in capsys.readouterr().err

    def test_serve_bad_request_sets_exit_code(self, csv_relations, tmp_path):
        r_path, _ = csv_relations
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "nope", "query": "Q(X) :- R(X)"}),
        ])
        output = io.StringIO()
        code = run(["serve", "--facts", f"R={r_path}",
                    "--requests", requests], output=output)
        assert code == 1

    def test_serve_with_store_and_warm_start(self, csv_relations, tmp_path,
                                             capsys):
        r_path, s_path = csv_relations
        store_dir = str(tmp_path / "store")
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)"}),
        ])
        base = ["serve", "--facts", f"R={r_path}", "--facts", f"S={s_path}",
                "--requests", requests, "--store", store_dir]
        assert run(base, output=io.StringIO()) == 0
        output = io.StringIO()
        code = run(base + ["--warm-start", "--stats"], output=output)
        assert code == 0
        diagnostics = capsys.readouterr().err
        assert "warm start:" in diagnostics
        assert '"cache_misses": 0' in diagnostics

    def test_serve_concurrent_workers(self, csv_relations, tmp_path, capsys):
        r_path, s_path = csv_relations
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)",
                        "id": index})
            for index in range(6)
        ] + [
            json.dumps({"op": "rank", "query": "Q(X) :- R(X), S(X, Y)",
                        "id": 6}),
        ])
        output = io.StringIO()
        code = run(["serve", "--facts", f"R={r_path}",
                    "--facts", f"S={s_path}", "--requests", requests,
                    "--workers", "4", "--stats"], output=output)
        assert code == 0
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        # Responses come back in input order despite the worker fan-out.
        assert [r["id"] for r in responses] == list(range(7))
        assert all(r["ok"] for r in responses)
        assert "coalesced_requests" in capsys.readouterr().err

    def test_serve_no_coalesce_flag(self, csv_relations, tmp_path):
        """``--no-coalesce`` is gone: the engine always shares identical
        concurrent work, so the flag is a usage error."""
        r_path, s_path = csv_relations
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)"}),
        ])
        with pytest.raises(SystemExit) as excinfo:
            run(["serve", "--facts", f"R={r_path}",
                 "--facts", f"S={s_path}", "--requests", requests,
                 "--workers", "2", "--no-coalesce"], output=io.StringIO())
        assert excinfo.value.code == 2

    def test_serve_deadline_ms_flag(self, csv_relations, tmp_path):
        r_path, s_path = csv_relations
        requests = self._requests_file(tmp_path, [
            json.dumps({"op": "attribute", "query": "Q(X) :- R(X), S(X, Y)"}),
        ])
        output = io.StringIO()
        code = run(["serve", "--facts", f"R={r_path}",
                    "--facts", f"S={s_path}", "--requests", requests,
                    "--workers", "2", "--deadline-ms", "60000"],
                   output=output)
        assert code == 0
        (response,) = [json.loads(line)
                       for line in output.getvalue().splitlines()]
        assert response["ok"] is True

    def test_concurrency_flags_need_workers(self, csv_relations, tmp_path):
        r_path, _ = csv_relations
        requests = self._requests_file(tmp_path, [])
        with pytest.raises(SystemExit):
            run(["serve", "--facts", f"R={r_path}",
                 "--requests", requests, "--deadline-ms", "100"],
                output=io.StringIO())

    def test_serve_requires_facts(self, tmp_path):
        requests = self._requests_file(tmp_path, [])
        with pytest.raises(SystemExit):
            run(["serve", "--requests", requests], output=io.StringIO())

    def test_warm_start_requires_store(self, csv_relations, tmp_path):
        r_path, _ = csv_relations
        requests = self._requests_file(tmp_path, [])
        with pytest.raises(SystemExit):
            run(["serve", "--facts", f"R={r_path}", "--requests", requests,
                 "--warm-start"], output=io.StringIO())


class TestCacheCommand:
    def test_save_load_stats_roundtrip(self, csv_relations, tmp_path):
        r_path, s_path = csv_relations
        store_dir = str(tmp_path / "store")
        output = io.StringIO()
        code = run(["cache", "save", "--store", store_dir,
                    "--facts", f"R={r_path}", "--facts", f"S={s_path}",
                    "--query", "Q(X) :- R(X), S(X, Y)"], output=output)
        assert code == 0
        assert "saved" in output.getvalue()

        output = io.StringIO()
        assert run(["cache", "stats", "--store", store_dir],
                   output=output) == 0
        stats = json.loads(output.getvalue())
        assert stats["entries"] >= 1

        output = io.StringIO()
        assert run(["cache", "load", "--store", store_dir],
                   output=output) == 0
        assert "loaded" in output.getvalue()

    def test_every_action_releases_the_store(self, csv_relations, tmp_path):
        # One process, one directory: an action that kept the writer lock
        # would make the next one exit 2 with StoreLockedError.
        r_path, s_path = csv_relations
        store_dir = str(tmp_path / "store")
        save = ["cache", "save", "--store", store_dir,
                "--facts", f"R={r_path}", "--facts", f"S={s_path}",
                "--query", "Q(X) :- R(X), S(X, Y)"]
        for argv in (save, ["cache", "stats", "--store", store_dir],
                     ["cache", "load", "--store", store_dir],
                     ["cache", "warm", "--store", store_dir],
                     ["cache", "compact", "--store", store_dir],
                     ["cache", "stats", "--store", store_dir]):
            output = io.StringIO()
            assert run(argv, output=output) == 0, (argv, output.getvalue())
        assert json.loads(output.getvalue())["mode"] == "rw"

    def test_save_topk_requires_k(self, csv_relations, tmp_path):
        r_path, _ = csv_relations
        with pytest.raises(SystemExit):
            run(["cache", "save", "--store", str(tmp_path / "s"),
                 "--facts", f"R={r_path}", "--query", "Q(X) :- R(X)",
                 "--method", "topk"], output=io.StringIO())

    def test_save_topk_method(self, csv_relations, tmp_path):
        r_path, s_path = csv_relations
        store_dir = str(tmp_path / "store")
        output = io.StringIO()
        code = run(["cache", "save", "--store", store_dir,
                    "--facts", f"R={r_path}", "--facts", f"S={s_path}",
                    "--query", "Q(X) :- R(X), S(X, Y)",
                    "--method", "topk", "--k", "1"], output=output)
        assert code == 0
        assert "saved" in output.getvalue()

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            run(["cache"], output=io.StringIO())

    def test_saved_store_warm_starts_attribution(self, csv_relations,
                                                 tmp_path, capsys):
        """The full explicit warm-start flow: cache save, then serve."""
        r_path, s_path = csv_relations
        store_dir = str(tmp_path / "store")
        assert run(["cache", "save", "--store", store_dir,
                    "--facts", f"R={r_path}", "--facts", f"S={s_path}",
                    "--query", "Q(X) :- R(X), S(X, Y)",
                    "--method", "auto"], output=io.StringIO()) == 0
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "attribute",
                        "query": "Q(X) :- R(X), S(X, Y)"}) + "\n",
            encoding="utf-8")
        output = io.StringIO()
        code = run(["serve", "--facts", f"R={r_path}",
                    "--facts", f"S={s_path}",
                    "--requests", str(requests), "--store", store_dir,
                    "--stats"], output=output)
        assert code == 0
        assert '"cache_misses": 0' in capsys.readouterr().err
