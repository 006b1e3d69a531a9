"""The d-tree decomposition rules and the exhaustive compiler (ExaBan's front end).

The rules of Section 3.1 of the paper are written once, here:
:func:`settle` turns a trivial function into its leaf, :func:`decompose`
applies one step to any other -- (1) split off silent variables, (2)
factor out the variables common to every clause, (3) partition into
independent components, (4) else Shannon-expand on a heuristic variable
-- and :func:`combine` builds the node that step describes.  They are
applied two ways: by :func:`compile_exhaustively`, depth-first to
completion (behind :func:`compile_dnf` and the engine's completions), and
by :class:`repro.dtree.incremental.IncrementalCompiler`, one leaf per step.

Shannon expansion is the only step that can blow up; a
:class:`CompilationBudget` caps the number of expansions and the wall-clock
time so that hard instances *fail* rather than hang, mirroring the one-hour
timeout used in the paper's experiments.  An exhausted run still leaves a
valid partial d-tree: every sub-function it has not decomposed becomes a
``DNFLeaf``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

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


class CompilationLimitReached(Exception):
    """Raised when compilation exceeds its Shannon-step or time budget."""


@dataclass
class CompilationBudget:
    """Resource budget for d-tree compilation.

    Attributes
    ----------
    max_shannon_steps:
        Maximum number of Shannon expansions; ``None`` means unlimited.
    timeout_seconds:
        Wall-clock limit for the whole compilation; ``None`` means unlimited.
    """

    max_shannon_steps: Optional[int] = None
    timeout_seconds: Optional[float] = None
    shannon_steps: int = 0
    started_at: float = field(default_factory=time.monotonic)

    def charge_shannon(self) -> None:
        """Record one Shannon expansion and enforce the limits."""
        self.shannon_steps += 1
        if (self.max_shannon_steps is not None
                and self.shannon_steps > self.max_shannon_steps):
            raise CompilationLimitReached(
                f"exceeded {self.max_shannon_steps} Shannon expansion steps"
            )
        self.check_time()

    def check_time(self) -> None:
        """Enforce the wall-clock limit."""
        if (self.timeout_seconds is not None
                and time.monotonic() - self.started_at > self.timeout_seconds):
            raise CompilationLimitReached(
                f"exceeded {self.timeout_seconds} seconds"
            )


# ---------------------------------------------------------------------- #
# The rules
# ---------------------------------------------------------------------- #


def settle(function: DNF) -> Union[DTreeNode, DNF]:
    """The leaf of an absorbed ``function`` if it is trivial, else ``function``.

    The constant 0 becomes a ``FalseLeaf``; a single literal becomes a
    ``LiteralLeaf``, conjoined with a ``TrueLeaf`` over the silent
    variables when the domain is larger (so model counts stay correct).
    """
    if function.is_false():
        return FalseLeaf(function.domain)
    if function.is_single_literal():
        variable = function.single_literal()
        literal = LiteralLeaf(variable)
        if function.num_variables() == 1:
            return literal
        return DecompAnd([literal, TrueLeaf(function.domain - {variable})],
                         domain=function.domain)
    return function


def node_for(function: DNF) -> DTreeNode:
    """Wrap a DNF into the appropriate leaf node without decomposing it.

    The function is absorbed first (absorption can leave a single
    literal); a non-trivial one becomes a ``DNFLeaf``.
    """
    settled = settle(function.absorb())
    return DNFLeaf(settled) if isinstance(settled, DNF) else settled


def decompose(function: DNF, heuristic: Heuristic,
              budget: Optional[CompilationBudget] = None
              ) -> Tuple[tuple, List[DNF]]:
    """One decomposition step on an absorbed, non-trivial ``function``.

    Returns ``(frame, parts)``: the frame ``(kind, arity, domain,
    variables, true_domain)`` from which :func:`combine` builds the node
    over ``arity`` subtrees, and a fresh list of the sub-functions left to
    compile, absorbed and in tree order.  A Shannon expansion charges
    ``budget`` *before* it cofactors, so a budget of N Shannon steps
    performs at most N.
    """
    domain = function.domain
    silent = function.silent_variables()
    if silent:
        return (DecompAnd, 1, domain, (), silent), [
            function.restricted_domain()]
    try:
        common, residual = factor_common_variables(function)
    except ConstantTrue as constant:
        # Some clause consists solely of the common variables, so the
        # whole function is the conjunction of those literals (times the
        # constant 1 over any leftover domain variables).
        return (DecompAnd, 0, domain, sorted(function.common_variables()),
                constant.domain), []
    if common:
        return (DecompAnd, 1, domain, sorted(common), None), [residual]
    components = independent_components(function)
    if len(components) > 1:
        return (DecompOr, len(components), domain, None, None), components
    variable = heuristic(function)
    if budget is not None:
        budget.charge_shannon()
    # Restricting, factoring, partitioning and dropping clauses keep a
    # clause set absorbed; removing a variable from clauses may not.
    negative = function.cofactor(variable, False)
    try:
        positive = function.cofactor(variable, True).absorb()
    except ConstantTrue as constant:
        return (ExclusiveOr, 1, domain, variable, constant.domain), [negative]
    return (ExclusiveOr, 2, domain, variable, None), [positive, negative]


def combine(frame: tuple, children: List[DTreeNode]) -> DTreeNode:
    """Build the node ``frame`` (from :func:`decompose`) over ``children``.

    A ``DecompAnd`` conjoins literals over ``variables``, the children and
    a ``TrueLeaf`` over a non-empty ``true_domain``; an ``ExclusiveOr``
    expands on the variable ``variables``, its positive branch a
    ``TrueLeaf`` over ``true_domain`` unless that is ``None``.
    """
    kind, _, domain, variables, true_domain = frame
    if kind is ExclusiveOr:
        positive = (children[0] if true_domain is None
                    else TrueLeaf(true_domain))
        return ExclusiveOr([
            DecompAnd([LiteralLeaf(variables), positive], domain=domain),
            DecompAnd([LiteralLeaf(variables, negated=True), children[-1]],
                      domain=domain),
        ], domain=domain)
    if kind is DecompOr:
        return DecompOr(children, domain=domain)
    parts: List[DTreeNode] = [*map(LiteralLeaf, variables), *children]
    if true_domain:
        parts.append(TrueLeaf(true_domain))
    return DecompAnd(parts, domain=domain) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------- #
# The exhaustive compiler
# ---------------------------------------------------------------------- #


class Compilation(NamedTuple):
    """What :func:`compile_exhaustively` built.

    ``root`` is complete unless ``error`` is set; then ``open_leaves`` are
    its ``DNFLeaf`` frontier, in tree order.  ``steps`` and
    ``shannon_steps`` count the decompositions performed.
    """

    root: DTreeNode
    steps: int
    shannon_steps: int
    open_leaves: List[DNFLeaf]
    error: Optional[CompilationLimitReached]


def compile_exhaustively(function: DNF, heuristic: Heuristic,
                         budget: CompilationBudget) -> Compilation:
    """Compile an absorbed ``function`` to completion under ``budget``.

    The work stack holds open sub-functions and combine frames: it runs
    depth-first, builds bottom-up and never recurses, so deep Shannon
    chains never hit the interpreter recursion limit.  The wall clock is
    checked once per open sub-function.  When ``budget`` runs out, the
    sub-function being compiled and every one still open become
    ``DNFLeaf``s, the pending frames still combine, and the partial tree
    comes back with the error instead of raising it.
    """
    work: list = [function]
    results: List[DTreeNode] = []
    open_leaves: List[DNFLeaf] = []
    steps = shannon_steps = 0
    error: Optional[CompilationLimitReached] = None
    while work:
        item = work.pop()
        if item.__class__ is tuple:  # a frame over the last results
            split = len(results) - item[1]
            node = combine(item, results[split:])
            del results[split:]
            results.append(node)
            continue
        if error is None:
            try:
                budget.check_time()
                settled = settle(item)
                if settled is not item:
                    results.append(settled)
                    continue
                frame, parts = decompose(item, heuristic, budget)
                steps += 1
                shannon_steps += frame[0] is ExclusiveOr
                work.append(frame)
                # In place: a reversed() iterator would add one
                # GC-tracked allocation per step of the hottest loop.
                parts.reverse()
                work += parts
                continue
            except CompilationLimitReached as exhausted:
                error = exhausted
        node = node_for(item)
        if isinstance(node, DNFLeaf):
            open_leaves.append(node)
        results.append(node)
    return Compilation(results[0], steps, shannon_steps, open_leaves, error)


def compile_dnf(function: DNF,
                heuristic: Heuristic = select_most_frequent,
                budget: CompilationBudget | None = None) -> DTreeNode:
    """Compile a positive DNF into a complete d-tree.

    Parameters
    ----------
    function:
        The positive DNF to compile (typically a query lineage).
    heuristic:
        Variable-selection heuristic for Shannon expansion.
    budget:
        Optional resource budget; :class:`CompilationLimitReached` is raised
        when it is exhausted.
    """
    compilation = compile_exhaustively(
        function.absorb(), heuristic,
        CompilationBudget() if budget is None else budget)
    if compilation.error is not None:
        raise compilation.error
    return compilation.root
