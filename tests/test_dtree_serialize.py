"""Tests for d-tree serialization and resumable compilation artifacts.

Covers the exact round-trip of complete *and* partial trees
(:mod:`repro.dtree.serialize`), the compiled-lineage artifact codec and
its resume semantics (:mod:`repro.engine.artifact`), and the Hypothesis
round-trip property over random DNFs at every stage of incremental
compilation.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.assignments import enumerate_assignments
from repro.boolean.dnf import DNF
from repro.core.exaban import exaban_all
from repro.dtree.compile import (
    CompilationBudget,
    CompilationLimitReached,
    compile_dnf,
)
from repro.dtree.incremental import IncrementalCompiler
from repro.dtree.nodes import DNFLeaf
from repro.dtree.serialize import (
    clone_tree,
    decode_tree,
    encode_tree,
    trees_equal,
)
from repro.engine.artifact import (
    CompiledLineage,
    complete_compilation,
    decode_artifact,
    encode_artifact,
)

from dnf_strategies import SHARING_DNF, small_dnfs, unfolded_count

_SETTINGS = settings(max_examples=60, deadline=None)

_CHAIN = DNF([[0, 1], [1, 2], [2, 3], [3, 4]])

_TRIANGLE = DNF([[0, 1], [0, 2], [1, 2]])

#: The triangle's d-tree as the v2 codec wrote it: arities, no children.
_TRIANGLE_V2 = {
    "v": 2, "kinds": [2, 2, 2, 5, 4, 2, 2, 2, 4, 4, 6],
    "arity": [0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2],
    "lits": [[0, False], [1, False], [2, False], [0, True], [1, False],
             [2, False]],
    "doms": [], "dnfs": []}


def _columns(kinds, arity, children, lits, doms=(), dnfs=()):
    return {"v": 3, "kinds": kinds, "arity": arity, "children": children,
            "lits": lits, "doms": list(doms), "dnfs": list(dnfs)}


_TWO_LITERALS = [[0, False], [1, False]]


class TestTreeCodec:
    def test_complete_tree_roundtrip_is_structural_identity(self):
        tree = compile_dnf(_CHAIN)
        encoded = encode_tree(tree)
        decoded = decode_tree(encoded)
        assert trees_equal(tree, decoded)
        assert encode_tree(decoded) == encoded
        assert exaban_all(decoded) == exaban_all(tree)

    def test_shared_subtrees_roundtrip_once_each(self):
        tree = compile_dnf(SHARING_DNF)
        encoded = encode_tree(tree)
        # One row per distinct node, fewer than the unfolded tree has.
        assert len(encoded["kinds"]) == tree.num_nodes() \
            < unfolded_count(tree)
        decoded = decode_tree(encoded)
        assert encode_tree(decoded) == encoded
        assert decoded.num_nodes() == tree.num_nodes()
        assert trees_equal(decoded, tree)
        assert exaban_all(decoded) == exaban_all(tree)

    def test_v2_encoding_decodes_to_the_same_tree(self):
        decoded = decode_tree(_TRIANGLE_V2)
        assert trees_equal(decoded, compile_dnf(_TRIANGLE))
        reencoded = encode_tree(decoded)
        assert reencoded["v"] == 3
        assert reencoded["kinds"] == _TRIANGLE_V2["kinds"]
        assert reencoded["lits"] == _TRIANGLE_V2["lits"]

    def test_partial_tree_roundtrip_keeps_frontier(self):
        compiler = IncrementalCompiler(_CHAIN)
        compiler.expand_step()
        assert not compiler.is_complete()
        decoded = decode_tree(encode_tree(compiler.root))
        assert trees_equal(compiler.root, decoded)
        original_frontier = sorted(
            sorted(map(sorted, leaf.function.clauses))
            for leaf in compiler.root.iter_leaves()
            if isinstance(leaf, DNFLeaf))
        decoded_frontier = sorted(
            sorted(map(sorted, leaf.function.clauses))
            for leaf in decoded.iter_leaves()
            if isinstance(leaf, DNFLeaf))
        assert decoded_frontier == original_frontier

    def test_encoding_is_json_serializable(self):
        encoded = encode_tree(compile_dnf(_CHAIN))
        assert decode_tree(json.loads(json.dumps(encoded))) is not None

    def test_clone_is_deep_and_equal(self):
        compiler = IncrementalCompiler(_CHAIN)
        compiler.expand_step()
        clone = clone_tree(compiler.root)
        assert trees_equal(clone, compiler.root)
        # Expanding the original must not leak into the clone.
        before = encode_tree(clone)
        complete_compilation(compiler, CompilationBudget())
        assert encode_tree(clone) == before

    @pytest.mark.parametrize("bad", [
        42, [], ["?"], ["L", 1], ["L", 1, "yes"], ["&", []],
        ["D", [0], [[0], [0, 1, 9]]],       # clause outside the domain
        ["&", [["L", 0, False], ["L", 0, False]]],  # overlapping domains
        # v3 columns: a child index at or beyond its own row.
        _columns([2, 2, 5], [0, 0, 2], [0, 2], _TWO_LITERALS),
        _columns([2, 2, 5], [0, 0, 2], [0, 3], _TWO_LITERALS),
        _columns([2, 5, 2], [0, 2, 0], [0, 2], _TWO_LITERALS),
        _columns([2, 2, 5], [0, 0, 2], [-1, 1], _TWO_LITERALS),
        # A non-root row that no row references.
        _columns([2, 2, 2, 5], [0, 0, 0, 2], [0, 1],
                 _TWO_LITERALS + [[2, False]]),
        # A children column shorter or longer than the arities.
        _columns([2, 2, 5], [0, 0, 2], [0], _TWO_LITERALS),
        _columns([2, 2, 5], [0, 0, 2], [0, 1, 1], _TWO_LITERALS),
        # A row that names one child twice.
        _columns([2, 2, 4, 6], [0, 0, 2, 2], [0, 1, 2, 2], _TWO_LITERALS),
        # An undecomposed leaf under two parents.
        _columns([3, 2, 4, 2, 4, 6], [0, 0, 2, 0, 2, 2],
                 [1, 0, 3, 0, 2, 4], [[2, False], [2, True]],
                 doms=[[0, 1]], dnfs=[[[0, 1]]]),
        dict(_TRIANGLE_V2, arity=[0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 3]),
        dict(_TRIANGLE_V2, v=4),
    ])
    def test_malformed_encodings_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            decode_tree(bad)


class TestArtifactCodec:
    def test_complete_artifact_roundtrip(self):
        artifact = CompiledLineage(root=compile_dnf(_CHAIN), complete=True,
                                   shannon_steps=3)
        decoded = decode_artifact(encode_artifact(artifact))
        assert decoded.complete is True
        assert decoded.shannon_steps == 3
        assert trees_equal(decoded.root, artifact.root)

    def test_partial_artifact_roundtrip_and_resume(self):
        compiler = IncrementalCompiler(_CHAIN)
        compiler.expand_step()
        artifact = CompiledLineage.from_compiler(compiler)
        assert not artifact.complete
        decoded = decode_artifact(encode_artifact(artifact))
        assert decoded.expansion_steps == compiler.expansion_steps
        resumed = decoded.resume_compiler()
        complete_compilation(resumed, CompilationBudget())
        assert resumed.is_complete()
        assert exaban_all(resumed.root) == exaban_all(compile_dnf(_CHAIN))

    def test_resume_never_mutates_the_artifact(self):
        compiler = IncrementalCompiler(_CHAIN)
        compiler.expand_step()
        artifact = CompiledLineage.from_compiler(compiler)
        before = encode_tree(artifact.root)
        resumed = artifact.resume_compiler()
        complete_compilation(resumed, CompilationBudget())
        assert encode_tree(artifact.root) == before

    def test_completeness_flag_must_match_tree(self):
        artifact = CompiledLineage(root=compile_dnf(_CHAIN), complete=True)
        encoded = encode_artifact(artifact)
        encoded["complete"] = False
        with pytest.raises(ValueError):
            decode_artifact(encoded)

    def test_resume_completion_respects_budget(self):
        # An 8-cycle needs 4 more Shannon expansions after the first, so
        # a 1-step budget must trip mid-resume.
        wide = DNF([[i, (i + 1) % 8] for i in range(8)])
        compiler = IncrementalCompiler(wide)
        compiler.expand_step()
        artifact = CompiledLineage.from_compiler(compiler)
        resumed = artifact.resume_compiler()
        with pytest.raises(CompilationLimitReached):
            complete_compilation(resumed,
                                 CompilationBudget(max_shannon_steps=1))
        # The mid-flight tree is still a valid resumable partial.
        again = CompiledLineage.from_compiler(resumed).resume_compiler()
        complete_compilation(again, CompilationBudget())
        assert exaban_all(again.root) == exaban_all(compile_dnf(wide))


@_SETTINGS
@given(function=small_dnfs(), steps=st.integers(min_value=0, max_value=8))
def test_roundtrip_property_at_every_compilation_stage(function: DNF,
                                                       steps: int):
    """Complete and partial trees round-trip exactly over random DNFs.

    The compiler is advanced a random number of steps, so the encoded
    tree ranges from the undecomposed root to a complete d-tree; the
    decoded tree must be structurally identical and represent the same
    Boolean function assignment-for-assignment.
    """
    compiler = IncrementalCompiler(function)
    for _ in range(steps):
        if compiler.is_complete():
            break
        compiler.expand_step()
    tree = compiler.root
    decoded = decode_tree(encode_tree(tree))
    assert trees_equal(tree, decoded)
    assert encode_tree(decoded) == encode_tree(tree)
    for assignment in enumerate_assignments(function.domain):
        assert decoded.evaluate(assignment) == function.evaluate(assignment)


@_SETTINGS
@given(function=small_dnfs())
def test_complete_tree_roundtrip_preserves_exaban(function: DNF):
    tree = compile_dnf(function)
    decoded = decode_tree(encode_tree(tree))
    assert exaban_all(decoded) == exaban_all(tree)
