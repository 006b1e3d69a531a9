"""Incremental (anytime) d-tree compilation.

AdaBan (Fig. 3 of the paper) and IchiBan do not compile the lineage
exhaustively.  They keep a *partial* d-tree whose leaves may still be
undecomposed DNF functions, and alternate between refining bounds on the
Banzhaf values using the current partial tree and a batch of ``expand_step``
calls sized by that refinement's work
(:meth:`repro.core.adaban._AnytimeState.expand_batch`).  ``adaban_trace`` and
the lazy-vs-eager ablation call ``expand_step`` once per refinement; the
engine finishes partial trees with ``expand_step(lazy=False)``
(:func:`repro.engine.artifact.complete_compilation`).

:class:`IncrementalCompiler` owns the partial tree and implements the
expansion steps.  Following the paper's optimization (1) (Section 3.2.4) the
``expand_step`` method is *lazy*: cheap structural steps (absorption,
factoring, independence partitioning) are applied eagerly until either a
Shannon expansion is performed or no non-trivial leaf remains, because only
Shannon expansions change the bounds enough to be worth re-evaluating.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.boolean.dnf import ConstantTrue, DNF
from repro.boolean.operations import factor_common_variables, independent_components
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.nodes import (
    DecompAnd,
    DecompOr,
    DNFLeaf,
    DTreeNode,
    ExclusiveOr,
    FalseLeaf,
    LiteralLeaf,
    TrueLeaf,
)


def node_for(function: DNF) -> DTreeNode:
    """Wrap a DNF into the appropriate leaf node without decomposing it.

    Single literals and constants become trivial leaves; a single literal
    over a larger domain becomes the literal conjoined with the constant 1
    over the silent variables (so model counts stay correct).
    """
    if function.is_false():
        return FalseLeaf(function.domain)
    absorbed = function.absorb()
    if absorbed.is_single_literal():
        variable = absorbed.single_literal()
        literal = LiteralLeaf(variable)
        silent = absorbed.domain - {variable}
        if silent:
            return DecompAnd([literal, TrueLeaf(silent)],
                             domain=absorbed.domain)
        return literal
    return DNFLeaf(absorbed)


def _frontier(root: DTreeNode) -> Dict[DNFLeaf, None]:
    """The undecomposed leaves under ``root``, in tree order."""
    return dict.fromkeys(leaf for leaf in root.iter_leaves()
                         if isinstance(leaf, DNFLeaf))


class IncrementalCompiler:
    """Owns a partial d-tree and expands it one decomposition step at a time."""

    def __init__(self, function: DNF,
                 heuristic: Heuristic = select_most_frequent) -> None:
        self._heuristic = heuristic
        self.root: DTreeNode = node_for(function)
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
        self._open_leaves: Dict[DNFLeaf, None] = _frontier(self.root)

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
        compiler._open_leaves = _frontier(root)
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
        function = leaf.function
        silent = function.silent_variables()

        if silent:
            replacement = DecompAnd([
                node_for(function.restricted_domain()),
                TrueLeaf(silent),
            ], domain=function.domain)
            self._replace(leaf, replacement)
            return False

        try:
            common, residual = factor_common_variables(function)
        except ConstantTrue as constant:
            literals: List[DTreeNode] = [
                LiteralLeaf(v) for v in sorted(function.common_variables())
            ]
            if constant.domain:
                literals.append(TrueLeaf(constant.domain))
            replacement = (DecompAnd(literals, domain=function.domain)
                           if len(literals) > 1 else literals[0])
            self._replace(leaf, replacement)
            return False
        if common:
            children = [LiteralLeaf(v) for v in sorted(common)]
            children.append(node_for(residual))
            self._replace(leaf, DecompAnd(children, domain=function.domain))
            return False

        components = independent_components(function)
        if len(components) > 1:
            self._replace(leaf, DecompOr([node_for(c) for c in components],
                                         domain=function.domain))
            return False

        # Shannon expansion.
        variable = self._heuristic(function)
        negative = function.cofactor(variable, False)
        try:
            positive_node = node_for(function.cofactor(variable, True))
        except ConstantTrue as constant:
            positive_node = TrueLeaf(constant.domain)
        domain = function.domain
        positive_branch = DecompAnd([LiteralLeaf(variable), positive_node],
                                    domain=domain)
        negative_branch = DecompAnd([
            LiteralLeaf(variable, negated=True),
            node_for(negative),
        ], domain=domain)
        self._replace(leaf, ExclusiveOr([positive_branch, negative_branch],
                                        domain=domain))
        return True

    def _replace(self, old: DTreeNode, new: DTreeNode) -> None:
        parent = old.parent
        if parent is None:
            self.root = new
            new.parent = None
        else:
            parent.replace_child(old, new)
            # Bounds cached on the ancestors are now stale.
            new.invalidate()
        old.parent = None
        if isinstance(old, DNFLeaf):
            self._open_leaves.pop(old, None)
        self._open_leaves.update(_frontier(new))
