"""Decomposition trees (d-trees).

A d-tree (Definition 8 of the paper, originally from anytime approximation in
probabilistic databases [22]) represents a Boolean function as a tree whose
inner nodes are logical connectives annotated with structural information:

* ``DECOMP_AND`` (the paper's ``⊙``): conjunction of functions over pairwise
  disjoint variable sets;
* ``DECOMP_OR`` (``⊗``): disjunction of functions over pairwise disjoint
  variable sets;
* ``EXCLUSIVE_OR`` (``⊕``): disjunction of mutually exclusive functions over
  the same variable set (produced by Shannon expansion).

Leaves are literals, constants, or --- in *partial* d-trees used by the
anytime algorithms --- arbitrary positive DNF functions.

The package provides:

* :mod:`repro.dtree.nodes` -- the node classes;
* :mod:`repro.dtree.compile` -- the decomposition rules and the
  exhaustive compiler used by ExaBan;
* :mod:`repro.dtree.incremental` -- the partial d-tree of the anytime
  algorithms, expanded step-wise or completed by that compiler;
* :mod:`repro.dtree.heuristics` -- Shannon-variable selection heuristics.
"""

from repro.dtree.compile import CompilationBudget, CompilationLimitReached, compile_dnf
from repro.dtree.heuristics import (
    HEURISTICS,
    select_max_depth_reduction,
    select_most_frequent,
)
from repro.dtree.incremental import IncrementalCompiler
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

__all__ = [
    "CompilationBudget",
    "CompilationLimitReached",
    "DNFLeaf",
    "DTreeNode",
    "DecompAnd",
    "DecompOr",
    "ExclusiveOr",
    "FalseLeaf",
    "HEURISTICS",
    "IncrementalCompiler",
    "LiteralLeaf",
    "TrueLeaf",
    "compile_dnf",
    "select_max_depth_reduction",
    "select_most_frequent",
]
