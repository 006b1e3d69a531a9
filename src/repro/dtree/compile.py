"""Exhaustive d-tree compilation (the ExaBan front end).

``compile_dnf`` turns a positive DNF into a *complete* d-tree whose leaves
are literals or constants, using the strategy described in Section 3.1 of the
paper:

1. absorption and factoring out variables that occur in every clause
   (producing an independent-AND with literal children);
2. independence partitioning via connected components of the clause graph
   (producing an independent-OR);
3. otherwise, Shannon expansion on a heuristically chosen variable
   (producing a mutually-exclusive OR).

Shannon expansion is the only step that can blow up; a
:class:`CompilationBudget` caps the number of expansions and the wall-clock
time so that hard instances *fail* rather than hang, mirroring the one-hour
timeout used in the paper's experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.boolean.dnf import ConstantTrue, DNF
from repro.boolean.operations import factor_common_variables, independent_components
from repro.dtree.heuristics import Heuristic, select_most_frequent
from repro.dtree.nodes import (
    DecompAnd,
    DecompOr,
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


def compile_dnf(function: DNF,
                heuristic: Heuristic = select_most_frequent,
                budget: CompilationBudget | None = None) -> DTreeNode:
    """Compile a positive DNF into a complete d-tree.

    The compilation is **iterative** (an explicit work stack replaces the
    call stack), so deep Shannon chains -- one expansion per level -- never
    hit the interpreter recursion limit.  Decomposition decisions, their
    order, and the budget charging are exactly those of the recursive
    formulation.

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
    if budget is None:
        budget = CompilationBudget()

    # Work frames: ("open", function) analyzes one sub-function depth-first;
    # the other tags combine already-built children (kept on ``results``)
    # into an inner node once their subtrees are complete.
    work: list[tuple] = [("open", function)]
    results: list[DTreeNode] = []
    while work:
        frame = work.pop()
        tag = frame[0]

        if tag == "open":
            current: DNF = frame[1]
            budget.check_time()

            if current.is_false():
                results.append(FalseLeaf(current.domain))
                continue

            # Absorption first: it can silence variables (e.g. (x) absorbs
            # (x & y)), and silent variables must be split off before
            # independence partitioning.
            current = current.absorb()

            # Separate silent domain variables: phi over D equals (phi over
            # vars) ⊙ 1 over the silent variables, and the TrueLeaf accounts
            # for their 2^k assignments.
            silent = current.silent_variables()
            if silent:
                work.append(("silent", silent, current.domain))
                work.append(("open", current.restricted_domain()))
                continue

            if current.is_single_literal():
                results.append(LiteralLeaf(current.single_literal()))
                continue

            # Factor out common variables: phi = x1 & ... & xk & rest.
            try:
                common, residual = factor_common_variables(current)
            except ConstantTrue as constant:
                # Some clause consists solely of the common variables, so the
                # whole function is the conjunction of those literals (times
                # the constant 1 over any leftover domain variables).
                common = current.common_variables()
                literals: list[DTreeNode] = [
                    LiteralLeaf(v) for v in sorted(common)
                ]
                if constant.domain:
                    literals.append(TrueLeaf(constant.domain))
                results.append(
                    DecompAnd(literals, domain=current.domain)
                    if len(literals) > 1 else literals[0])
                continue
            if common:
                work.append(("factored", sorted(common), current.domain))
                work.append(("open", residual))
                continue

            # Independence partitioning: variable-disjoint components.
            components = independent_components(current)
            if len(components) > 1:
                work.append(("or", len(components), current.domain))
                for component in reversed(components):
                    work.append(("open", component))
                continue

            # Shannon expansion on a heuristically selected variable.
            variable = heuristic(current)
            budget.charge_shannon()
            negative_cofactor = current.cofactor(variable, False)
            try:
                positive_cofactor = current.cofactor(variable, True)
            except ConstantTrue as constant:
                work.append(("shannon", variable, constant.domain,
                             current.domain))
                work.append(("open", negative_cofactor))
            else:
                work.append(("shannon", variable, None, current.domain))
                work.append(("open", negative_cofactor))
                work.append(("open", positive_cofactor))
            continue

        if tag == "silent":
            core = results.pop()
            results.append(DecompAnd([core, TrueLeaf(frame[1])],
                                     domain=frame[2]))
        elif tag == "factored":
            residual_node = results.pop()
            literals = [LiteralLeaf(v) for v in frame[1]]
            results.append(DecompAnd(literals + [residual_node],
                                     domain=frame[2]))
        elif tag == "or":
            count = frame[1]
            children = results[-count:]
            del results[-count:]
            results.append(DecompOr(children, domain=frame[2]))
        else:  # "shannon"
            variable, constant_domain, domain = frame[1], frame[2], frame[3]
            if constant_domain is None:
                positive_node, negative_node = results[-2], results[-1]
                del results[-2:]
            else:
                negative_node = results.pop()
                positive_node = TrueLeaf(constant_domain)
            results.append(ExclusiveOr([
                DecompAnd([LiteralLeaf(variable), positive_node],
                          domain=domain),
                DecompAnd([LiteralLeaf(variable, negated=True),
                           negative_node], domain=domain),
            ], domain=domain))

    return results[0]
