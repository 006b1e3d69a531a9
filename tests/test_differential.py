"""Differential fuzzing: every algorithm against brute force and each other.

Random positive DNFs are attributed by every path in the library -- brute
force, ExaBan over compiled d-trees, AdaBan intervals, IchiBan rankings and
top-k, and the batched engine under all of its methods (including the
engine-native ``rank``/``topk`` path) -- and the results are cross-checked:
exact paths must agree bit-for-bit, anytime paths must produce intervals
containing the exact value, and reported top-k sets must be legitimate
under the exact values (every reported variable's value at least the k-th
largest, which handles ties).

This promotes the ad-hoc fuzz loops historically run by hand into the
tier-1 suite; seeds are fixed so failures reproduce.
"""

import random

from fractions import Fraction

import pytest

from repro.baselines.brute_force import banzhaf_all_brute_force
from repro.boolean.dnf import DNF
from repro.core.adaban import adaban_all
from repro.core.exaban import exaban_all
from repro.core.ichiban import ichiban_rank, ichiban_topk, ichiban_topk_certain
from repro.dtree.compile import compile_dnf
from repro.engine import Engine, EngineConfig
from repro.engine.canonical import canonicalize
from repro.experiments.metrics import ground_truth_topk
from repro.workloads.generators import random_positive_dnf

#: Number of random instances per differential test.  Instances are small
#: (<= 7 variables) so brute force stays instant and the whole module adds
#: only a few seconds to the tier-1 suite.
_INSTANCES = 25


def _instances(seed: int, count: int = _INSTANCES):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_positive_dnf(rng, rng.randint(3, 7),
                                  rng.randint(2, 7), (1, 3))


def _legitimate_topk(reported, exact, k):
    """The reported set lies within the tie-extended ground-truth top-k."""
    return set(reported) <= ground_truth_topk(exact, k)


class TestExactPaths:
    def test_exaban_matches_brute_force(self):
        for function in _instances(seed=11):
            exact = banzhaf_all_brute_force(function)
            assert exaban_all(compile_dnf(function)) == exact

    def test_engine_exact_and_auto_match_brute_force(self):
        exact_engine = Engine(EngineConfig(method="exact"))
        auto_engine = Engine(EngineConfig(method="auto"))
        for function in _instances(seed=12):
            expected = {v: Fraction(x)
                        for v, x in banzhaf_all_brute_force(function).items()}
            (via_exact,) = exact_engine.attribute_lineages([function])
            (via_auto,) = auto_engine.attribute_lineages([function])
            assert via_exact.values == expected
            assert via_auto.values == expected


class TestIntervalPaths:
    def test_adaban_intervals_contain_exact(self):
        for function in _instances(seed=13):
            exact = banzhaf_all_brute_force(function)
            for variable, result in adaban_all(function,
                                               epsilon=0.2).items():
                assert result.lower <= exact[variable] <= result.upper

    def test_engine_approximate_bounds_contain_exact(self):
        engine = Engine(EngineConfig(method="approximate", epsilon=0.2))
        for function in _instances(seed=14):
            exact = banzhaf_all_brute_force(function)
            (attribution,) = engine.attribute_lineages([function])
            for variable, (lower, upper) in attribution.bounds.items():
                assert lower <= exact[variable] <= upper


class TestRankingPaths:
    def test_ichiban_certain_topk_is_legitimate(self):
        for function in _instances(seed=15):
            exact = banzhaf_all_brute_force(function)
            for k in (1, 2, 3):
                reported = [entry.variable
                            for entry in ichiban_topk_certain(function, k)]
                assert len(reported) == min(k, len(function.variables))
                assert _legitimate_topk(reported, exact, k)

    def test_ichiban_approximate_topk_intervals_contain_exact(self):
        for function in _instances(seed=16):
            exact = banzhaf_all_brute_force(function)
            for entry in ichiban_topk(function, 3, epsilon=0.1):
                assert entry.lower <= exact[entry.variable] <= entry.upper

    def test_ichiban_certain_rank_matches_exact_order(self):
        for function in _instances(seed=17):
            exact = banzhaf_all_brute_force(function)
            ranking = ichiban_rank(function, epsilon=None)
            values = [exact[entry.variable] for entry in ranking]
            assert values == sorted(values, reverse=True)

    def test_engine_topk_is_legitimate_and_contains_exact(self):
        engine = Engine(EngineConfig(method="topk", k=3, epsilon=None))
        for function in _instances(seed=18):
            exact = banzhaf_all_brute_force(function)
            outcomes = engine._attribute_batch([canonicalize(function)])
            canonical, cached = outcomes[0]
            for variable, (lower, upper) in cached.bounds.items():
                original = canonical.from_canonical[variable]
                assert lower <= exact[original] <= upper
            (attribution,) = engine.attribute_lineages([function])
            # Certain mode: the engine's reported set must be legitimate.
            from repro.core.ichiban import ranked_from_bounds

            reported = [entry.variable
                        for entry in ranked_from_bounds(attribution.bounds, 3)]
            assert _legitimate_topk(reported, exact, 3)

    def test_engine_rank_matches_exact_order(self):
        engine = Engine(EngineConfig(method="rank", epsilon=None))
        for function in _instances(seed=19):
            exact = banzhaf_all_brute_force(function)
            (attribution,) = engine.attribute_lineages([function])
            ordered = sorted(attribution.values,
                             key=lambda v: (-attribution.values[v], v))
            values = [exact[variable] for variable in ordered]
            assert values == sorted(values, reverse=True)

    def test_engine_topk_agrees_with_per_answer_ichiban(self):
        # Certain mode on tie-free boundaries: both paths must report the
        # same set; with ties, both must be legitimate (checked above), so
        # here we only compare instances whose k-th value is unique.
        engine = Engine(EngineConfig(method="topk", k=2, epsilon=None))
        compared = 0
        for function in _instances(seed=20):
            exact = banzhaf_all_brute_force(function)
            order = sorted(exact.values(), reverse=True)
            if len(order) < 3 or order[1] == order[2]:
                continue  # tie at the boundary: the set is not unique
            per_answer = {entry.variable
                          for entry in ichiban_topk_certain(function, 2)}
            (attribution,) = engine.attribute_lineages([function])
            from repro.core.ichiban import ranked_from_bounds

            via_engine = {entry.variable
                          for entry in ranked_from_bounds(attribution.bounds, 2)}
            assert via_engine == per_answer
            compared += 1
        assert compared > 0  # the fuzz must actually compare something


class TestShapleyPath:
    def test_engine_shapley_efficiency(self):
        engine = Engine(EngineConfig(method="shapley"))
        for function in _instances(seed=21, count=10):
            (attribution,) = engine.attribute_lineages([function])
            assert sum(attribution.values.values()) == 1
            assert all(value >= 0 for value in attribution.values.values())


class TestSharedArtifact:
    """One compilation, every evaluator: the compiled-lineage tier.

    A canonical lineage is compiled exactly once (by the exact method);
    exact, shapley, rank and topk then all evaluate off the shared
    artifact — the engine must never recompile, and every value must be
    bit-identical (``Fraction`` equality, type included) to a fresh
    per-method engine that pays its own compilation.
    """

    def _shared_engines(self, store):
        from dataclasses import replace

        base = EngineConfig(method="exact", store=store)
        engines = {}
        cache = None
        for method in ("exact", "shapley", "rank", "topk"):
            config = replace(base, method=method,
                             epsilon=None if method in ("rank", "topk")
                             else base.epsilon,
                             k=3 if method == "topk" else None)
            engine = Engine(config)
            if cache is None:
                cache = engine.cache
            engine.cache = cache
            engines[method] = engine
        return engines

    def test_every_method_off_one_compilation_is_bit_identical(self):
        from repro.engine import MemoryStore

        shared = self._shared_engines(MemoryStore())
        for function in _instances(seed=22, count=10):
            results = {}
            for method, engine in shared.items():
                (results[method],) = engine.attribute_lineages([function])
            # The artifact tier did its job: exactly one tree was built
            # across all four methods (per distinct canonical lineage).
            for method in ("shapley", "rank", "topk"):
                fresh = Engine(EngineConfig(
                    method=method,
                    epsilon=None if method in ("rank", "topk") else 0.1,
                    k=3 if method == "topk" else None))
                (expected,) = fresh.attribute_lineages([function])
                if method == "shapley":
                    assert results[method].values == expected.values
                    for variable, value in results[method].values.items():
                        assert isinstance(value, Fraction)
                        assert value == expected.values[variable]
                else:
                    # Off a complete artifact the ranking methods are
                    # exact; the fresh anytime run certifies intervals
                    # that must contain those exact values.
                    assert results[method].method_used == "exact"
                    exact = banzhaf_all_brute_force(function)
                    for variable, value in results[method].values.items():
                        assert isinstance(value, Fraction)
                        assert value == exact[variable]
                    for variable, (lo, hi) in expected.bounds.items():
                        assert lo <= exact[variable] <= hi
        total = sum(e.stats.tree_compilations for e in shared.values())
        distinct = shared["exact"].stats.compilations
        assert total == distinct, (
            "methods sharing the artifact tier must compile once per "
            f"distinct lineage ({distinct}), not {total} times"
        )
        for method in ("shapley", "rank", "topk"):
            assert shared[method].stats.tree_compilations == 0
            assert shared[method].stats.artifact_hits == \
                shared[method].stats.compilations

    def test_resumed_partial_artifact_converges_to_identical_values(self):
        # A budget-starved certain ranking leaves a partial artifact; a
        # second engine resumes it and must converge to interval evidence
        # consistent with the exact values — and, because the resumed run
        # finishes the tree or separates exactly, the reported top-k set
        # must be legitimate.
        from repro.core.ichiban import ranked_from_bounds
        from repro.experiments.metrics import ground_truth_topk

        resumes = 0
        for function in _instances(seed=23, count=10):
            starved = Engine(EngineConfig(method="rank", epsilon=None,
                                          max_shannon_steps=1))
            starved.attribute_lineages([function])
            resumed = Engine(EngineConfig(method="rank", epsilon=None))
            resumed.cache = starved.cache
            (full,) = resumed.attribute_lineages([function])
            resumes += resumed.stats.artifact_resumes
            exact = banzhaf_all_brute_force(function)
            for variable, (lo, hi) in full.bounds.items():
                assert lo <= exact[variable] <= hi
            reported = [entry.variable
                        for entry in ranked_from_bounds(full.bounds, 2)]
            assert set(reported) <= ground_truth_topk(exact, 2)
        assert resumes >= 1
