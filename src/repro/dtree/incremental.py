"""Incremental (anytime) d-tree compilation.

AdaBan (Fig. 3 of the paper) and IchiBan do not compile the lineage
exhaustively.  They keep a *partial* d-tree whose leaves may still be
undecomposed DNF functions, and alternate between refining bounds on the
Banzhaf values using the current partial tree and a batch of ``expand_step``
calls sized by that refinement's work
(:meth:`repro.core.adaban._AnytimeState.expand_batch`).  ``adaban_trace`` and
the lazy-vs-eager ablation call ``expand_step`` once per refinement.

:class:`IncrementalCompiler` owns the partial tree and applies the rules of
:mod:`repro.dtree.compile` to it: ``expand_step`` one leaf at a time in
priority order, ``complete`` every open leaf with the exhaustive compiler
(how the engine finishes fresh and resumed compilations,
:func:`repro.engine.artifact.complete_compilation`).  Following the paper's
optimization (1) (Section 3.2.4) the ``expand_step`` method is *lazy*:
cheap structural steps (splitting off silent variables, factoring,
independence partitioning) are applied eagerly until either a Shannon
expansion is performed or no non-trivial leaf remains, because only
Shannon expansions change the bounds enough to be worth re-evaluating.
The root is absorbed once; every part a step returns is already absorbed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.boolean.dnf import DNF
from repro.dtree.compile import (
    CompilationBudget,
    combine,
    compile_exhaustively,
    decompose,
    leaf_for,
    node_for,
)
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.nodes import DNFLeaf, DTreeNode, ExclusiveOr


class IncrementalCompiler:
    """Owns a partial d-tree and expands it one decomposition step at a time."""

    def __init__(self, function: DNF,
                 heuristic: Heuristic = select_most_frequent) -> None:
        self._heuristic = heuristic
        self.root: DTreeNode = node_for(function)
        #: Shannon expansions and decompositions of any kind performed.
        self.shannon_steps = 0
        self.expansion_steps = 0
        #: Clauses of every leaf decomposed: the anytime schedule's unit.
        self.expansion_work = 0
        # The undecomposed leaves are maintained incrementally so that
        # leaf selection and the completeness check stay O(#leaves) and O(1)
        # instead of traversing the whole (growing) tree on every step.
        # An insertion-ordered dict, not a set: leaves hash by identity, so
        # set order (and hence priority tie-breaks) would follow memory
        # addresses and differ between processes.
        self._open_leaves: Dict[DNFLeaf, None] = (
            {self.root: None} if isinstance(self.root, DNFLeaf) else {})

    @classmethod
    def resume(cls, root: DTreeNode,
               heuristic: Heuristic = select_most_frequent,
               shannon_steps: int = 0,
               expansion_steps: int = 0) -> "IncrementalCompiler":
        """Adopt an existing (possibly partial) tree and continue expanding it.

        The open-leaf frontier is re-derived from the tree itself, so a
        deserialized partial d-tree (:mod:`repro.dtree.serialize`) resumes
        exactly where the process that persisted it stopped.  ``root`` is
        adopted as-is and will be mutated; pass a private copy
        (:func:`~repro.dtree.serialize.clone_tree`) when the original must
        stay pristine.  The step counters seed the cumulative totals a
        persisted compilation already paid for.
        """
        compiler = cls.__new__(cls)
        compiler._heuristic = heuristic
        compiler.root = root
        compiler.shannon_steps = shannon_steps
        compiler.expansion_steps = expansion_steps
        compiler.expansion_work = 0
        compiler._open_leaves = dict.fromkeys(
            leaf for leaf in root.iter_leaves() if isinstance(leaf, DNFLeaf))
        return compiler

    # ------------------------------------------------------------------ #
    # Leaf selection
    # ------------------------------------------------------------------ #

    def nontrivial_leaves(self) -> List[DNFLeaf]:
        """All leaves that are still undecomposed DNF functions."""
        return list(self._open_leaves)

    def is_complete(self) -> bool:
        """``True`` iff the tree is a complete d-tree."""
        return not self._open_leaves

    def pick_leaf(self) -> Optional[DNFLeaf]:
        """Choose the next leaf to expand (largest clause count first).

        Expanding the largest leaf shrinks the loosest bounds fastest, which
        is what makes the approximation intervals tighten quickly.  Ties go
        to the earliest-opened leaf.
        """
        if not self._open_leaves:
            return None
        return max(self._open_leaves, key=lambda leaf: leaf.priority)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #

    def expand_step(self, lazy: bool = True) -> bool:
        """Expand the tree by one step.

        With ``lazy=True`` (the default, matching the paper's optimization),
        cheap structural decompositions are applied repeatedly and the method
        returns after the first Shannon expansion (or when the tree becomes
        complete).  With ``lazy=False`` exactly one decomposition step is
        applied.  Returns ``True`` if the tree changed.
        """
        changed = False
        while True:
            leaf = self.pick_leaf()
            if leaf is None:
                return changed
            was_shannon = self._expand_leaf(leaf)
            self.expansion_work += leaf.priority[0]
            changed = True
            self.expansion_steps += 1
            if was_shannon:
                self.shannon_steps += 1
            if not lazy or was_shannon:
                return changed

    def _expand_leaf(self, leaf: DNFLeaf) -> bool:
        """Decompose one leaf in place.  Returns ``True`` on Shannon expansion."""
        frame, parts = decompose(leaf.function, self._heuristic)
        children = [leaf_for(part) for part in parts]
        self._replace(leaf, combine(frame, children),
                      [child for child in children
                       if isinstance(child, DNFLeaf)])
        return frame[0] is ExclusiveOr

    def complete(self, budget: CompilationBudget) -> None:
        """Replace each open leaf by its exhaustive compilation under ``budget``.

        The step counters grow by the decompositions performed.  The
        leaves share one memo of compiled sub-functions, so a sub-function
        that recurs under several open leaves is compiled once.  When the
        budget runs out the leaf's partial subtree takes its place, its open
        leaves join the frontier, and the ``CompilationLimitReached``
        propagates.
        """
        # One leaf opens its own memo at its first Shannon expansion, so
        # a Shannon-free compilation never pays for one.
        memo = {} if len(self._open_leaves) > 1 else None
        for leaf in list(self._open_leaves):
            compilation = compile_exhaustively(leaf.function,
                                               self._heuristic, budget, memo)
            self.expansion_steps += compilation.steps
            self.shannon_steps += compilation.shannon_steps
            self._replace(leaf, compilation.root, compilation.open_leaves)
            if compilation.error is not None:
                raise compilation.error

    def _replace(self, old: DNFLeaf, new: DTreeNode,
                 opened: Iterable[DNFLeaf]) -> None:
        """Put ``new``, whose open leaves are ``opened``, in place of ``old``."""
        parent = old.parent
        if parent is None:
            self.root = new
            new.parent = None
        else:
            parent.replace_child(old, new)
            # Bounds cached on the ancestors are now stale.
            new.invalidate()
        del self._open_leaves[old]
        for leaf in opened:
            self._open_leaves[leaf] = None
