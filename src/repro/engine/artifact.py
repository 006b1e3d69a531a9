"""The compiled-lineage artifact: the engine's third, method-independent tier.

The d-tree is the paper's central artifact — ExaBan, AdaBan, IchiBan and
the Shapley extension are all *evaluators over the same compiled (or
partially compiled) d-tree* — yet compilation used to be fused into each
method's compute path, so a lineage attributed exactly still paid full
recompilation when it was later ranked, top-k'd, Shapley-scored, or
queried at a different epsilon.  :class:`CompiledLineage` factors the
compilation out: one artifact per **canonical lineage** (no method, no
epsilon, no k in the key), holding either

* a **complete** d-tree — every method evaluates it directly, exactly
  (one ExaBan/Shapley pass; intervals collapse to points), or
* a **partial** d-tree plus its resumable ``DNFLeaf`` frontier — the
  anytime methods resume refinement from it instead of restarting, and
  the exact methods can *finish* the compilation instead of redoing it.

Fresh and resumed compilations complete on one path
(:func:`complete_compilation`); one that runs out of budget still holds a
valid partial tree, a resumable artifact.

Artifacts are exactly serializable (:mod:`repro.dtree.serialize`), so the
store tier persists them alongside results and a warm-started process
resumes partial compilations across restarts.

Sharing discipline: the tree inside a cached artifact is read-shared by
every evaluator, and the incremental compiler mutates trees in place —
so :meth:`CompiledLineage.resume_compiler` always hands out a *private
clone*.  Completed artifacts are never structurally mutated (per-node
bound caches and the arena's payload columns are idempotent scratch
space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dtree.arena import DTreeArena, arena_of
from repro.dtree.compile import CompilationBudget
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.incremental import IncrementalCompiler
from repro.dtree.nodes import DTreeNode
from repro.dtree.serialize import (
    TREE_FORMAT_VERSION,
    clone_tree,
    decode_tree,
    encode_tree,
)

#: Wire-format version of the trees in encoded artifacts (the tree
#: codec's); readers also decode v2 trees, and discard (and recompute)
#: anything recording another version.
ARTIFACT_FORMAT_VERSION = TREE_FORMAT_VERSION

#: Shard versions the legacy reader (:class:`repro.engine.store.DiskStore`)
#: accepts for tree shards: the versions such shards were ever written
#: with, fixed apart from the tree codec.  Version 1 shards hold the
#: nested-list object-tree codec; version 2 shards hold the v2 arena
#: codec.  :func:`repro.dtree.serialize.decode_tree` dispatches per
#: entry, so both decode to trees.  The log store writes
#: :data:`ARTIFACT_FORMAT_VERSION` trees.
ARTIFACT_COMPAT_VERSIONS = frozenset({1, 2})


@dataclass
class CompiledLineage:
    """One canonical lineage's compilation state (complete or resumable).

    Attributes
    ----------
    root:
        The d-tree.  Complete trees have only literal/constant leaves;
        partial trees keep their undecomposed ``DNFLeaf`` frontier.
    complete:
        ``True`` iff the tree is a complete d-tree (exact evaluation).
    shannon_steps / expansion_steps:
        Cumulative compilation work already paid for this lineage —
        carried across processes so resumed compilations keep honest
        totals.

    Evaluation results are derived data kept on the tree's arena
    (:meth:`arena`), never on the artifact: the subtree model counts every
    exact pass shares are the arena's ``"counts"`` payload column.
    """

    root: DTreeNode
    complete: bool
    shannon_steps: int = 0
    expansion_steps: int = 0

    @classmethod
    def from_compiler(cls, compiler: IncrementalCompiler) -> "CompiledLineage":
        """Snapshot an incremental compilation (complete or mid-flight)."""
        return cls(root=compiler.root,
                   complete=compiler.is_complete(),
                   shannon_steps=compiler.shannon_steps,
                   expansion_steps=compiler.expansion_steps)

    def arena(self) -> DTreeArena:
        """The tree's struct-of-arrays arena (built lazily, cached).

        The arena is memoized in the root node's cache
        (:func:`repro.dtree.arena.arena_of`), which in-place mutation
        invalidates — so the handle is always consistent with ``root``.
        Every evaluation pass over this artifact shares it
        (and its payload columns, e.g. the ``"counts"`` column)
        automatically.
        """
        return arena_of(self.root)

    def resume_compiler(self, heuristic: Heuristic = select_most_frequent
                        ) -> IncrementalCompiler:
        """An incremental compiler over a *private clone* of the tree.

        Cloning keeps the cached/persisted artifact pristine: concurrent
        readers of the same artifact each resume their own copy, so the
        worst cross-thread outcome stays a duplicated computation, never
        a corrupted shared tree.
        """
        return IncrementalCompiler.resume(
            clone_tree(self.root), heuristic=heuristic,
            shannon_steps=self.shannon_steps,
            expansion_steps=self.expansion_steps)


def complete_compilation(compiler: IncrementalCompiler,
                         budget: CompilationBudget) -> None:
    """Finish a fresh or resumed compilation to a complete d-tree.

    Runs the exhaustive compiler on every open leaf, charging ``budget``
    like :func:`~repro.dtree.compile.compile_dnf` for the Shannon steps
    of *this attempt* only, so ``max_shannon_steps=N`` performs at most
    N.  Raises :class:`~repro.dtree.compile.CompilationLimitReached` on
    exhaustion, leaving the compiler's tree and frontier partial but valid
    -- worth persisting, resuming, or handing to the anytime fallback.
    """
    compiler.complete(budget)


def encode_artifact(artifact: CompiledLineage) -> Dict[str, object]:
    """JSON-serializable form of one artifact (versioned by the caller)."""
    return {
        "complete": bool(artifact.complete),
        "shannon_steps": int(artifact.shannon_steps),
        "expansion_steps": int(artifact.expansion_steps),
        "tree": encode_tree(artifact.root),
    }


def decode_artifact(encoded: Dict[str, object]) -> CompiledLineage:
    """Inverse of :func:`encode_artifact`.

    Raises ``ValueError``/``KeyError``/``TypeError`` on malformed input;
    additionally rejects encodings whose ``complete`` flag contradicts
    the decoded tree (a tampered artifact must not masquerade as exact).
    """
    root = decode_tree(encoded["tree"])
    complete = bool(encoded["complete"])
    if complete != root.is_complete():
        raise ValueError("artifact completeness flag contradicts the tree")
    return CompiledLineage(
        root=root,
        complete=complete,
        shannon_steps=int(encoded["shannon_steps"]),
        expansion_steps=int(encoded["expansion_steps"]),
    )


__all__ = [
    "ARTIFACT_COMPAT_VERSIONS",
    "ARTIFACT_FORMAT_VERSION",
    "CompiledLineage",
    "complete_compilation",
    "decode_artifact",
    "encode_artifact",
]
