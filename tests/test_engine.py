"""Tests for the batched attribution engine (repro.engine)."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro import Database, attribute_facts, parse_query
from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.dnf import DNF
from repro.core.ichiban import ichiban_topk
from repro.dtree.arena import (
    DTreeArena,
    arena_banzhaf,
    arena_counts,
    banzhaf_pass,
    counts_pass,
)
from repro.dtree.compile import CompilationLimitReached, compile_dnf
from repro.engine import (
    CompiledLineage,
    Engine,
    EngineConfig,
    MemoryStore,
    canonicalize,
)
from repro.engine.cache import LineageCache, LRUCache
from repro.engine.ranking import compute_ranking
from repro.engine.stats import EngineStats
from repro.experiments.runner import ExperimentConfig, run_workload_batched
from repro.workloads.generators import (
    bipartite_lineage,
    random_positive_dnf,
    star_join_lineage,
)
from repro.workloads.suite import build_workload

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _permuted(function: DNF, mapping) -> DNF:
    return DNF([[mapping[v] for v in clause] for clause in function.clauses],
               domain=[mapping[v] for v in function.domain])


class TestCanonicalize:
    def test_isomorphic_dnfs_share_key(self):
        function = DNF([[0, 1], [0, 2], [3, 4]])
        mapping = {0: 42, 1: 7, 2: 99, 3: 5, 4: 13}
        assert (canonicalize(function).key
                == canonicalize(_permuted(function, mapping)).key)

    def test_clause_order_is_irrelevant(self):
        a = DNF([[0, 1], [2, 3], [0, 3]])
        b = DNF([[0, 3], [0, 1], [2, 3]])
        assert canonicalize(a).key == canonicalize(b).key

    def test_non_isomorphic_dnfs_differ(self):
        path = DNF([[0, 1], [1, 2], [2, 3]])
        star = DNF([[0, 1], [0, 2], [0, 3]])
        assert canonicalize(path).key != canonicalize(star).key

    def test_silent_domain_variables_count(self):
        bare = DNF([[0, 1]])
        widened = DNF([[0, 1]], domain=[0, 1, 2])
        assert canonicalize(bare).key != canonicalize(widened).key

    def test_mapping_roundtrip(self):
        function = DNF([[3, 8], [3, 9], [11]])
        canonical = canonicalize(function)
        for original, renamed in canonical.to_canonical.items():
            assert canonical.from_canonical[renamed] == original


class TestCacheReuse:
    def test_isomorphic_lineages_hit_cache_with_correct_values(self):
        function = DNF([[0, 1], [0, 2], [3]])
        mapping = {0: 20, 1: 11, 2: 12, 3: 30}
        permuted = _permuted(function, mapping)
        engine = Engine(EngineConfig(method="exact"))
        first, second = engine.attribute_lineages([function, permuted])

        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.compilations == 1

        expected = banzhaf_all_brute_force(function)
        assert first.values == {v: Fraction(x) for v, x in expected.items()}
        # The permuted lineage's values come from the cached canonical
        # result, mapped back through its own renaming.
        for variable, value in expected.items():
            assert second.values[mapping[variable]] == value

    def test_cache_persists_across_calls(self):
        function = DNF([[0, 1], [1, 2]])
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute_lineages([function])
        engine.attribute_lineages([function])
        assert engine.stats.cache_hits == 1
        assert engine.stats.compilations == 1

    def test_repeated_query_hits_cache(self):
        database = Database()
        database.add_fact("R", (1, 2, 3))
        database.add_fact("S", (1, 2, 4))
        database.add_fact("S", (1, 2, 5))
        database.add_fact("T", (1, 6))
        query = parse_query("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U)")
        engine = Engine(EngineConfig(method="exact"))
        results = list(engine.attribute_many([query, query], database))
        assert len(results) == 2
        assert engine.stats.queries == 2
        assert engine.stats.cache_hits == 1
        first, second = (r for _, r in results)
        assert [a.attributions for a in first] == [a.attributions for a in second]


class TestAutoFallback:
    # Non-hierarchical cycle: compilation must Shannon-expand, so a
    # zero-step budget forces the exact path to give up.
    CYCLE = DNF([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])

    def test_auto_falls_back_to_approximate(self):
        engine = Engine(EngineConfig(method="auto", max_shannon_steps=0,
                                     epsilon=0.2))
        (attribution,) = engine.attribute_lineages([self.CYCLE])
        assert attribution.method_used == "approximate"
        assert engine.stats.fallbacks == 1
        exact = banzhaf_all_brute_force(self.CYCLE)
        for variable, value in exact.items():
            lower, upper = attribution.bounds[variable]
            assert lower <= value <= upper

    def test_exact_method_raises_instead_of_falling_back(self):
        engine = Engine(EngineConfig(method="exact", max_shannon_steps=0))
        with pytest.raises(CompilationLimitReached):
            engine.attribute_lineages([self.CYCLE])

    def test_auto_stays_exact_within_budget(self):
        engine = Engine(EngineConfig(method="auto"))
        (attribution,) = engine.attribute_lineages([self.CYCLE])
        assert attribution.method_used == "exact"
        assert engine.stats.fallbacks == 0
        expected = banzhaf_all_brute_force(self.CYCLE)
        assert attribution.values == {v: Fraction(x)
                                      for v, x in expected.items()}


class TestExhaustedFreshCompilation:
    """A fresh compilation that exhausts its budget keeps its partial
    tree: a retry resumes it and the ``auto`` fallback continues it."""

    # Needs 13 Shannon expansions; a budget of 5 leaves a partial tree.
    FUNCTION = bipartite_lineage(random.Random(3), left=8, right=12,
                                 density=0.35)

    def test_failed_exact_compilation_is_resumed_by_the_retry(self):
        store = MemoryStore()
        budgeted = Engine(EngineConfig(method="exact", max_shannon_steps=5,
                                       store=store))
        with pytest.raises(CompilationLimitReached):
            budgeted.attribute_lineages([self.FUNCTION])
        ((_, partial),) = budgeted.cache.artifacts.snapshot()
        assert not partial.complete
        assert partial.shannon_steps == 5
        ((_, stored),) = store.artifact_items()
        assert stored is partial
        retry = Engine(EngineConfig(method="exact"))
        retry.cache = budgeted.cache
        (attribution,) = retry.attribute_lineages([self.FUNCTION])
        assert retry.stats.artifact_resumes == 1
        assert retry.stats.tree_compilations == 0
        (fresh,) = Engine(EngineConfig(method="exact")).attribute_lineages(
            [self.FUNCTION])
        assert attribution.values == fresh.values
        assert attribution.bounds == fresh.bounds

    def test_auto_fallback_continues_the_exhausted_compiler(
            self, monkeypatch):
        import repro.engine.engine as engine_module

        received = []
        original = engine_module.shared_state

        def spy(function, *args, compiler=None, **kwargs):
            received.append(None if compiler is None
                            else compiler.shannon_steps)
            return original(function, *args, compiler=compiler, **kwargs)

        monkeypatch.setattr(engine_module, "shared_state", spy)
        engine = Engine(EngineConfig(method="auto", max_shannon_steps=5))
        (attribution,) = engine.attribute_lineages([self.FUNCTION])
        assert attribution.method_used == "approximate"
        assert received == [5]


class TestStats:
    def test_stats_report_all_stages(self):
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute_lineages([DNF([[0, 1], [1, 2]])])
        report = engine.stats.as_dict()
        assert report["answers"] == 1
        assert report["compilations"] == 1
        for stage in ("canonicalize", "compute", "assemble"):
            assert stage in report["stage_seconds"]
        assert report["total_seconds"] >= 0

    def test_reset_keeps_cache(self):
        function = DNF([[0, 1]])
        engine = Engine(EngineConfig(method="exact"))
        engine.attribute_lineages([function])
        engine.reset_stats()
        assert engine.stats.answers == 0
        engine.attribute_lineages([function])
        assert engine.stats.cache_hits == 1

    def test_hit_rate(self):
        engine = Engine(EngineConfig(method="exact"))
        assert engine.stats.hit_rate() == 0.0
        engine.attribute_lineages([DNF([[0, 1]]), DNF([[5, 6]])])
        assert engine.stats.hit_rate() == 0.5

    def test_count_memo_hits_read_the_shared_arena_counts(self):
        # Five engines share one store: the exact engine compiles the
        # lineage and fills its arena counts column; every later engine
        # evaluates that same artifact without recounting a subtree.
        store = MemoryStore()
        function = DNF([[0, 1], [1, 2], [2, 3]])
        readings = []
        for method, k in (("exact", None), ("rank", None), ("topk", 2),
                          ("shapley", None), ("approximate", None)):
            engine = Engine(EngineConfig(method=method, k=k, store=store))
            engine.attribute_lineages([function])
            readings.append((method, engine.stats.count_memo_hits,
                             engine.stats.tree_compilations))
        assert readings == [("exact", 0, 1), ("rank", 1, 0), ("topk", 1, 0),
                            ("shapley", 1, 0), ("approximate", 1, 0)]


class TestPassEntryPoints:
    def test_pass_entry_points_match_arena_passes(self):
        rng = random.Random(11)
        tree = compile_dnf(star_join_lineage(rng, 4, 3))
        arena = DTreeArena.from_tree(tree)
        reference = DTreeArena.from_tree(tree)
        stats = EngineStats()
        exact_banzhaf = arena_banzhaf(reference)
        exact_counts = arena_counts(reference)
        assert banzhaf_pass(arena, stats=stats) == exact_banzhaf
        # The fused pass filled the count column counts_pass reads.
        assert counts_pass(arena, stats=stats) == exact_counts

    def test_exact_passes_are_bit_identical_across_profiles(self):
        rng = random.Random(12)
        for profile in ((3, 4), (5, 2)):
            tree = compile_dnf(star_join_lineage(rng, *profile))
            arena = DTreeArena.from_tree(tree)
            reference = DTreeArena.from_tree(tree)
            assert banzhaf_pass(arena) == arena_banzhaf(reference)
            assert counts_pass(arena) == arena_counts(reference)

    def test_pass_payload_hits_are_counted(self):
        tree = compile_dnf(random_positive_dnf(random.Random(13), 8, 6))
        arena = DTreeArena.from_tree(tree)
        stats = EngineStats()
        first = banzhaf_pass(arena, stats=stats)
        assert stats.payload_hits == 0
        again = banzhaf_pass(arena, stats=stats)
        assert again == first
        assert stats.payload_hits == 1

    def test_pass_timings_are_labelled(self):
        tree = compile_dnf(random_positive_dnf(random.Random(14), 8, 6))
        stats = EngineStats()
        banzhaf_pass(DTreeArena.from_tree(tree), stats=stats)
        assert "banzhaf" in stats.as_dict()["passes"]


def test_import_repro_does_not_load_numpy():
    """The library is pure Python with one compute path: no import may
    pull numpy's or a process pool's start-up cost into every process
    that uses it."""
    modules = ("numpy", "multiprocessing", "concurrent.futures")
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, repro; print([m for m in {modules!r} "
         "if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


class TestResultKey:
    KEY = canonicalize(DNF([[0, 1], [1, 2]])).key

    def test_auto_keys_include_epsilon(self):
        # Regression: epsilon used to be dropped for "auto" although the
        # fallback values are epsilon-dependent.
        assert (LineageCache.result_key(self.KEY, "auto", 0.1)
                != LineageCache.result_key(self.KEY, "auto", 0.2))

    def test_exact_methods_ignore_epsilon(self):
        for method in ("exact", "shapley"):
            assert (LineageCache.result_key(self.KEY, method, 0.1)
                    == LineageCache.result_key(self.KEY, method, 0.2))

    def test_ranking_keys_include_epsilon_and_k(self):
        assert (LineageCache.result_key(self.KEY, "rank", 0.1)
                != LineageCache.result_key(self.KEY, "rank", None))
        assert (LineageCache.result_key(self.KEY, "topk", 0.1, 3)
                != LineageCache.result_key(self.KEY, "topk", 0.1, 5))

    def test_k_is_dropped_for_non_topk(self):
        assert (LineageCache.result_key(self.KEY, "exact", 0.1, 3)
                == LineageCache.result_key(self.KEY, "exact", 0.1, 5))


class TestRankingConfig:
    def test_topk_requires_k(self):
        with pytest.raises(ValueError):
            EngineConfig(method="topk", k=0)
        # k may be deferred to the per-call override, but a topk batch
        # without any k must fail fast.
        deferred = Engine(EngineConfig(method="topk"))
        with pytest.raises(ValueError):
            deferred.attribute_lineages([DNF([[0, 1]])])

    def test_k_rejected_for_other_methods(self):
        with pytest.raises(ValueError):
            EngineConfig(method="exact", k=3)

    def test_epsilon_none_only_for_ranking(self):
        with pytest.raises(ValueError):
            EngineConfig(method="approximate", epsilon=None)
        with pytest.raises(ValueError):
            EngineConfig(method="auto", epsilon=None)
        assert EngineConfig(method="rank", epsilon=None).epsilon is None
        assert EngineConfig(method="topk", epsilon=None, k=2).k == 2

    def test_rank_api_requires_ranking_method(self):
        database = Database()
        database.add_fact("R", (1,))
        query = parse_query("Q() :- R(X)")
        engine = Engine(EngineConfig(method="exact"))
        with pytest.raises(ValueError):
            engine.rank(query, database)


class TestRankingEngine:
    # Clear winner (variable 0 in every clause) plus a clear loser; no
    # exact-value ties anywhere near the boundary, so the top-k set is
    # unique and must match the per-answer path exactly.
    FUNCTION = DNF([[0, 1], [0, 2], [0, 3], [3]])
    MAPPING = {0: 40, 1: 21, 2: 22, 3: 13}

    def _permuted(self):
        return _permuted(self.FUNCTION, self.MAPPING)

    def test_isomorphic_topk_shares_one_run(self):
        engine = Engine(EngineConfig(method="topk", k=2, epsilon=0.1))
        first, second = engine.attribute_lineages(
            [self.FUNCTION, self._permuted()])
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.compilations == 1
        assert engine.stats.refinement_rounds >= 1
        # The cached canonical intervals must map back through each
        # answer's own renaming.
        for variable, value in first.values.items():
            assert second.values[self.MAPPING[variable]] == value

    def test_topk_matches_per_answer_ichiban(self):
        engine = Engine(EngineConfig(method="topk", k=2, epsilon=0.1))
        (attribution,) = engine.attribute_lineages([self.FUNCTION])
        exact = banzhaf_all_brute_force(self.FUNCTION)
        per_answer = {entry.variable
                      for entry in ichiban_topk(self.FUNCTION, 2, epsilon=0.1)}
        ordered = sorted(attribution.values,
                         key=lambda v: (-attribution.values[v], v))
        assert set(ordered[:2]) == per_answer
        # Intervals must contain the exact values.
        for variable, value in exact.items():
            lower, upper = attribution.bounds[variable]
            assert lower <= value <= upper

    def test_rank_query_end_to_end(self):
        database = Database()
        r = database.add_fact("R", (1, 2, 3))
        s1 = database.add_fact("S", (1, 2, 4))
        s2 = database.add_fact("S", (1, 2, 5))
        t = database.add_fact("T", (1, 6))
        query = parse_query("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U)")
        engine = Engine(EngineConfig(method="rank", epsilon=None))
        rankings = engine.rank(query, database)
        assert len(rankings) == 1
        _, entries = rankings[0]
        assert {fact for fact, _ in entries} == {r, s1, s2, t}
        assert {fact for fact, _ in entries[:2]} == {r, t}
        estimates = [entry.estimate for _, entry in entries]
        assert estimates == sorted(estimates, reverse=True)

    def test_cached_artifact_yields_exact_ranking(self):
        engine = Engine(EngineConfig(method="topk", k=2, epsilon=0.1))
        canonical = canonicalize(self.FUNCTION)
        engine.cache.artifacts.put(
            canonical.key,
            CompiledLineage(root=compile_dnf(canonical.dnf), complete=True))
        (attribution,) = engine.attribute_lineages([self.FUNCTION])
        assert attribution.method_used == "exact"
        assert engine.stats.refinement_rounds == 0
        assert engine.stats.artifact_hits == 1
        assert engine.stats.tree_compilations == 0
        exact = banzhaf_all_brute_force(self.FUNCTION)
        assert attribution.values == {v: Fraction(x)
                                      for v, x in exact.items()}

    def test_completed_run_caches_tree_for_other_k(self):
        # Separating the middle variable of this chain with certainty
        # requires expanding the whole d-tree; the completed tree is then
        # cached as a complete artifact and serves a different k exactly,
        # with zero further refinement rounds.
        chain = DNF([[0, 1], [1, 2]])
        engine = Engine(EngineConfig(method="topk", k=2, epsilon=None))
        engine.attribute_lineages([chain])
        canonical = canonicalize(chain)
        artifact = engine.cache.artifacts.get(canonical.key)
        assert artifact is not None and artifact.complete
        rounds_before = engine.stats.refinement_rounds
        outcomes = engine._attribute_batch([chain], k=1)
        assert outcomes[0][1].method_used == "exact"
        assert engine.stats.refinement_rounds == rounds_before

    def test_per_call_k_override(self):
        database = Database()
        database.add_fact("R", (1, 2, 3))
        database.add_fact("S", (1, 2, 4))
        database.add_fact("S", (1, 2, 5))
        database.add_fact("T", (1, 6))
        query = parse_query("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U)")
        engine = Engine(EngineConfig(method="topk", k=3))
        (answer_default, entries_default), = engine.rank(query, database)
        (answer_one, entries_one), = engine.rank(query, database, k=1)
        assert len(entries_default) == 3
        assert len(entries_one) == 1

    def test_step_budget_bounds_ranking(self):
        # max_shannon_steps doubles as the IchiBan bound-evaluation budget
        # for the ranking methods: without a wall-clock budget the run must
        # still stop (degraded) instead of expanding unbounded.
        import random

        from repro.workloads.generators import random_positive_dnf

        hard = random_positive_dnf(random.Random(5), num_variables=20,
                                   num_clauses=36)
        engine = Engine(EngineConfig(method="rank", epsilon=0.001,
                                     max_shannon_steps=20))
        (attribution,) = engine.attribute_lineages([hard])
        assert attribution.method_used == "rank-partial"
        assert engine.stats.partial_results == 1

    def test_partial_result_not_cached(self):
        # A wide lineage under a zero wall-clock budget cannot converge:
        # the engine must degrade to best-so-far intervals, flag them, and
        # recompute on the next call instead of serving the partial entry.
        import random

        from repro.workloads.generators import random_positive_dnf

        hard = random_positive_dnf(random.Random(7), num_variables=24,
                                   num_clauses=40)
        engine = Engine(EngineConfig(method="topk", k=3, epsilon=0.01,
                                     timeout_seconds=0.0))
        (attribution,) = engine.attribute_lineages([hard])
        assert attribution.method_used == "topk-partial"
        assert engine.stats.partial_results == 1
        assert attribution.values  # best-so-far intervals, not data loss
        exact_like_bounds = attribution.bounds
        assert set(exact_like_bounds) == set(hard.variables)
        engine.attribute_lineages([hard])
        assert engine.stats.cache_misses == 2  # partials never cached

    def test_removed_float_tier_knobs_raise_type_error(self):
        # The ranking methods have one tier and the engine one compute
        # path; their old knobs are not silently accepted anywhere.
        for knob in ({"numeric": "float"}, {"float_ulp_margin": 8},
                     {"max_workers": 2}, {"chunk_size": 8},
                     {"parallel_min_tasks": 4}, {"pool_restarts": 2},
                     {"pool_task_timeout": 1.0}):
            with pytest.raises(TypeError):
                EngineConfig(method="rank", **knob)
            with pytest.raises(TypeError):
                compute_ranking(self.FUNCTION, "rank", None, None, None,
                                **knob)
        database = Database()
        database.add_fact("R", (1,))
        query = parse_query("Q() :- R(X)")
        engine = Engine(EngineConfig(method="rank"))
        with pytest.raises(TypeError):
            engine.rank(query, database, numeric="float")
        with pytest.raises(TypeError):
            next(engine.rank_many([query], database, numeric="float"))


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestEngineAgainstSeedPath:
    def test_engine_matches_attribute_facts(self):
        database = Database()
        r = database.add_fact("R", (1, 2, 3))
        database.add_fact("S", (1, 2, 4))
        database.add_fact("S", (1, 2, 5))
        database.add_fact("T", (1, 6))
        query = parse_query("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U)")

        wrapper = attribute_facts(query, database, method="exact")
        engine = Engine(EngineConfig(method="exact"))
        direct = engine.attribute(query, database)
        assert len(wrapper) == len(direct) == 1
        assert wrapper[0].attributions == direct[0].attributions
        assert direct[0].score_of(r) == 3


class TestRunnerIntegration:
    def test_run_workload_batched(self):
        workload = build_workload("academic", include_hard=False)
        config = ExperimentConfig(timeout_seconds=10.0)
        results, stats = run_workload_batched(workload, config)
        assert len(results) == len(workload.instances)
        assert all(result.success for result in results)
        assert stats["cache_hits"] > 0
        # Spot-check one instance against brute force where feasible.
        small = next(r for r in results
                     if r.instance.num_variables <= 10)
        expected = banzhaf_all_brute_force(small.instance.lineage)
        assert small.values == {v: Fraction(x) for v, x in expected.items()}

    def test_run_workload_batched_is_reproducible(self):
        workload = build_workload("academic", include_hard=False)
        config = ExperimentConfig(timeout_seconds=10.0)
        _, first = run_workload_batched(workload, config)
        _, second = run_workload_batched(workload, config)
        # A fresh engine per call: the second run must not be served from a
        # warm cache left behind by the first.
        assert second["cache_misses"] == first["cache_misses"]
        assert second["compilations"] == first["compilations"]

    def test_run_workload_batched_records_failures(self):
        from repro.workloads.generators import LineageInstance
        from repro.workloads.suite import Workload

        import random

        from repro.workloads.generators import random_positive_dnf

        easy = LineageInstance(dataset="t", query="q", answer=(1,),
                               lineage=DNF([[0, 1], [0, 2]]))
        # A wide random DNF under a zero Shannon budget and a tight
        # wall-clock: exact compilation fails immediately and the AdaBan
        # fallback times out, so this instance must be recorded as a
        # failure -- without taking the easy instance down with it.
        hard = LineageInstance(
            dataset="t", query="q", answer=(2,),
            lineage=random_positive_dnf(random.Random(99),
                                        num_variables=52, num_clauses=76))
        workload = Workload(name="t", instances=(easy, hard))
        config = ExperimentConfig(timeout_seconds=0.2, max_shannon_steps=0)
        results, _ = run_workload_batched(workload, config)
        by_answer = {r.instance.answer: r for r in results}
        assert by_answer[(1,)].success
        assert not by_answer[(2,)].success
        assert "Timeout" in by_answer[(2,)].failure_reason
