"""Seed (pre-kernel) evaluation passes, kept alive as the reference.

The counting and attribution passes in :mod:`repro.core.exaban` and
:mod:`repro.core.shapley` used to be *recursive* and *unshared*: one full
tree descent per call, one full size-vector descent per Shapley variable.
This module preserves those seed implementations verbatim as the single
d-tree oracle: together with brute-force enumeration it is what the
differential test suites and the benchmark's oracle check hold the arena
passes to, bit for bit, on integers and Fractions.

Being recursive, everything here inherits the interpreter recursion
limit -- the deep-chain regression test demonstrates these functions
*cannot* traverse the trees the iterative passes handle.  Do not use
this module outside tests and benchmarks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

from repro.boolean.dnf import DNF
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
from repro.core.exaban import IncompleteDTreeError


def model_count_recursive(node: DTreeNode) -> int:
    """Seed ``model_count``: one recursive descent per call."""
    if isinstance(node, TrueLeaf):
        return 1 << len(node.domain)
    if isinstance(node, FalseLeaf):
        return 0
    if isinstance(node, LiteralLeaf):
        return 1
    if isinstance(node, DNFLeaf):
        raise IncompleteDTreeError(
            "model_count requires a complete d-tree; found an undecomposed leaf"
        )
    child_counts = [model_count_recursive(child) for child in node.children()]
    if isinstance(node, DecompAnd):
        product = 1
        for count in child_counts:
            product *= count
        return product
    if isinstance(node, DecompOr):
        non_models = 1
        for child, count in zip(node.children(), child_counts):
            non_models *= (1 << len(child.domain)) - count
        return (1 << len(node.domain)) - non_models
    if isinstance(node, ExclusiveOr):
        return sum(child_counts)
    raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def exaban_recursive(node: DTreeNode, variable: int) -> Tuple[int, int]:
    """Seed ``exaban``: recursive ``(Banzhaf, count)`` with nested products."""
    if isinstance(node, LiteralLeaf):
        if node.variable == variable:
            return (-1 if node.negated else 1), 1
        return 0, 1
    if isinstance(node, TrueLeaf):
        return 0, 1 << len(node.domain)
    if isinstance(node, FalseLeaf):
        return 0, 0
    if isinstance(node, DNFLeaf):
        raise IncompleteDTreeError(
            "exaban requires a complete d-tree; found an undecomposed leaf"
        )

    results = [exaban_recursive(child, variable) for child in node.children()]
    counts = [count for _, count in results]

    if isinstance(node, DecompAnd):
        total = 1
        for count in counts:
            total *= count
        banzhaf = 0
        for index, (child_banzhaf, _) in enumerate(results):
            if child_banzhaf:
                others = 1
                for j, count in enumerate(counts):
                    if j != index:
                        others *= count
                banzhaf += child_banzhaf * others
        return banzhaf, total

    if isinstance(node, DecompOr):
        non_models = [
            (1 << len(child.domain)) - count
            for child, count in zip(node.children(), counts)
        ]
        total_non = 1
        for value in non_models:
            total_non *= value
        total = (1 << len(node.domain)) - total_non
        banzhaf = 0
        for index, (child_banzhaf, _) in enumerate(results):
            if child_banzhaf:
                others = 1
                for j, value in enumerate(non_models):
                    if j != index:
                        others *= value
                banzhaf += child_banzhaf * others
        return banzhaf, total

    if isinstance(node, ExclusiveOr):
        banzhaf = sum(child_banzhaf for child_banzhaf, _ in results)
        total = sum(counts)
        return banzhaf, total

    raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def exaban_all_recursive(node: DTreeNode) -> Dict[int, int]:
    """Seed ``exaban_all``: recursive two-pass with quadratic sibling products."""
    counts: Dict[int, int] = {}

    def count_pass(current: DTreeNode) -> int:
        value = _node_count(current)
        counts[id(current)] = value
        return value

    def _node_count(current: DTreeNode) -> int:
        if isinstance(current, TrueLeaf):
            return 1 << len(current.domain)
        if isinstance(current, FalseLeaf):
            return 0
        if isinstance(current, LiteralLeaf):
            return 1
        if isinstance(current, DNFLeaf):
            raise IncompleteDTreeError(
                "exaban_all requires a complete d-tree; found an undecomposed leaf"
            )
        child_counts = [count_pass(child) for child in current.children()]
        if isinstance(current, DecompAnd):
            product = 1
            for count in child_counts:
                product *= count
            return product
        if isinstance(current, DecompOr):
            non_models = 1
            for child, count in zip(current.children(), child_counts):
                non_models *= (1 << len(child.domain)) - count
            return (1 << len(current.domain)) - non_models
        if isinstance(current, ExclusiveOr):
            return sum(child_counts)
        raise TypeError(f"unknown d-tree node type {type(current).__name__}")

    count_pass(node)

    banzhaf: Dict[int, int] = {var: 0 for var in node.domain}

    def push(current: DTreeNode, multiplier: int) -> None:
        if multiplier == 0:
            return
        if isinstance(current, LiteralLeaf):
            sign = -1 if current.negated else 1
            banzhaf[current.variable] += sign * multiplier
            return
        if isinstance(current, (TrueLeaf, FalseLeaf)):
            return
        children = current.children()
        if isinstance(current, DecompAnd):
            for index, child in enumerate(children):
                others = 1
                for j, sibling in enumerate(children):
                    if j != index:
                        others *= counts[id(sibling)]
                push(child, multiplier * others)
            return
        if isinstance(current, DecompOr):
            non_models = [
                (1 << len(sibling.domain)) - counts[id(sibling)]
                for sibling in children
            ]
            for index, child in enumerate(children):
                others = 1
                for j, value in enumerate(non_models):
                    if j != index:
                        others *= value
                push(child, multiplier * others)
            return
        if isinstance(current, ExclusiveOr):
            for child in children:
                push(child, multiplier)
            return
        raise TypeError(f"unknown d-tree node type {type(current).__name__}")

    push(node, 1)
    return banzhaf


# --------------------------------------------------------------------- #
# Seed Shapley: one full recursive size-vector descent per variable
# --------------------------------------------------------------------- #


def _convolve(left: Sequence[int], right: Sequence[int]) -> List[int]:
    result = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in enumerate(right):
            if b:
                result[i + j] += a * b
    return result


def _binomial_vector(n: int) -> List[int]:
    return [comb(n, k) for k in range(n + 1)]


def _complement(vector: Sequence[int], n: int) -> List[int]:
    return [comb(n, k) - vector[k] for k in range(n + 1)]


class _SizeVectors:
    __slots__ = ("models", "positive", "negative", "domain_size", "has_x")

    def __init__(self, models: List[int], positive: List[int],
                 negative: List[int], domain_size: int, has_x: bool) -> None:
        self.models = models
        self.positive = positive
        self.negative = negative
        self.domain_size = domain_size
        self.has_x = has_x


def _vectors(node: DTreeNode, variable: int) -> _SizeVectors:
    domain_size = len(node.domain)
    has_x = variable in node.domain

    if isinstance(node, TrueLeaf):
        models = _binomial_vector(domain_size)
        cof = _binomial_vector(domain_size - 1) if has_x else models
        return _SizeVectors(models, cof, list(cof), domain_size, has_x)

    if isinstance(node, FalseLeaf):
        models = [0] * (domain_size + 1)
        cof = [0] * domain_size if has_x else models
        return _SizeVectors(models, cof, list(cof), domain_size, has_x)

    if isinstance(node, LiteralLeaf):
        if node.negated:
            models = [1, 0]
        else:
            models = [0, 1]
        if node.variable == variable:
            positive = [0] if node.negated else [1]
            negative = [1] if node.negated else [0]
            return _SizeVectors(models, positive, negative, 1, True)
        return _SizeVectors(models, list(models), list(models), 1, False)

    if isinstance(node, DNFLeaf):
        raise ValueError("Shapley computation requires a complete d-tree")

    children = [_vectors(child, variable) for child in node.children()]

    if isinstance(node, DecompAnd):
        return _combine_product(children, domain_size, has_x, conjunction=True)
    if isinstance(node, DecompOr):
        return _combine_product(children, domain_size, has_x, conjunction=False)
    if isinstance(node, ExclusiveOr):
        models = [0] * (domain_size + 1)
        cof_len = domain_size if has_x else domain_size + 1
        positive = [0] * cof_len
        negative = [0] * cof_len
        for child in children:
            for k, value in enumerate(child.models):
                models[k] += value
            for k, value in enumerate(child.positive):
                positive[k] += value
            for k, value in enumerate(child.negative):
                negative[k] += value
        return _SizeVectors(models, positive, negative, domain_size, has_x)
    raise TypeError(f"unknown d-tree node type {type(node).__name__}")


def _combine_product(children: List[_SizeVectors], domain_size: int,
                     has_x: bool, conjunction: bool) -> _SizeVectors:
    def product(select) -> List[int]:
        result = [1]
        for child in children:
            result = _convolve(result, select(child))
        return result

    if conjunction:
        models = product(lambda c: c.models)
        positive = product(lambda c: c.positive if c.has_x else c.models)
        negative = product(lambda c: c.negative if c.has_x else c.models)
        return _SizeVectors(models, positive, negative, domain_size, has_x)

    non_models = product(lambda c: _complement(c.models, c.domain_size))
    models = [comb(domain_size, k) - non_models[k]
              for k in range(domain_size + 1)]
    cof_size = domain_size - 1 if has_x else domain_size

    def cof_non_models(select) -> List[int]:
        result = [1]
        for child in children:
            if child.has_x:
                vec = select(child)
                result = _convolve(
                    result, _complement_raw(vec, child.domain_size - 1))
            else:
                result = _convolve(
                    result, _complement(child.models, child.domain_size))
        return result

    positive_non = cof_non_models(lambda c: c.positive)
    negative_non = cof_non_models(lambda c: c.negative)
    positive = [comb(cof_size, k) - positive_non[k] for k in range(cof_size + 1)]
    negative = [comb(cof_size, k) - negative_non[k] for k in range(cof_size + 1)]
    return _SizeVectors(models, positive, negative, domain_size, has_x)


def _complement_raw(vector: Sequence[int], n: int) -> List[int]:
    return [comb(n, k) - vector[k] for k in range(n + 1)]


def critical_counts_recursive(function: DNF, variable: int,
                              tree: DTreeNode) -> List[int]:
    """Seed critical-set counts: one full vector descent for this variable."""
    if variable not in function.domain:
        raise ValueError(f"variable {variable} not in the function's domain")
    vectors = _vectors(tree, variable)
    n = function.num_variables()
    counts = []
    for k in range(n):
        positive = vectors.positive[k] if k < len(vectors.positive) else 0
        negative = vectors.negative[k] if k < len(vectors.negative) else 0
        counts.append(positive - negative)
    return counts


def shapley_all_recursive(function: DNF,
                          tree: DTreeNode) -> Dict[int, Fraction]:
    """Seed ``shapley_all``: a full recursive vector pass *per variable*."""
    n = function.num_variables()
    n_factorial = factorial(n)
    values: Dict[int, Fraction] = {}
    for variable in sorted(function.variables):
        counts = critical_counts_recursive(function, variable, tree)
        total = Fraction(0)
        for k, count in enumerate(counts):
            if count:
                total += Fraction(factorial(k) * factorial(n - k - 1),
                                  n_factorial) * count
        values[variable] = total
    return values
