"""Boolean function substrate.

This package provides the Boolean-function machinery the paper's algorithms
operate on:

* :mod:`repro.boolean.functions` -- a small expression tree (variables,
  constants, conjunction, disjunction, negation) mirroring the recursive
  definition of Boolean functions in Section 2 of the paper.
* :mod:`repro.boolean.dnf` -- the positive-DNF representation that query
  lineage is expressed in, with an explicit variable domain so that model
  counts after cofactoring remain correct.
* :mod:`repro.boolean.assignments` -- assignments, evaluation, model
  enumeration and (brute-force) model counting.
* :mod:`repro.boolean.operations` -- cofactors, simplification, independence
  partitioning and mutual-exclusion tests.
* :mod:`repro.boolean.idnf` -- the iDNF class (read-once positive DNF) with
  linear-time model counting, and the ``L``/``U`` synthesis procedures.
* :mod:`repro.boolean.cnf` -- CNF conversion used by the Sig22 baseline and
  the CNF-proxy heuristic.
* :mod:`repro.boolean.pp2dnf` -- PP2DNF functions, bipartite graphs, #BIS and
  #NSat used by the dichotomy constructions.
* :mod:`repro.boolean.bitset` -- the bitset kernel: dense bitmask form of a
  DNF plus the mask algebra the hot operations are lowered onto.
"""

from repro.boolean.assignments import (
    Assignment,
    count_models,
    enumerate_models,
    evaluate_dnf,
)
from repro.boolean.bitset import BitsetKernel
from repro.boolean.dnf import DNF, Clause
from repro.boolean.functions import (
    And,
    BoolExpr,
    Const,
    FALSE,
    Not,
    Or,
    TRUE,
    Var,
)
from repro.boolean.idnf import IDNF, is_idnf, lower_idnf, upper_idnf
from repro.boolean.operations import (
    cofactor,
    condition,
    independent_components,
    is_independent,
    is_mutually_exclusive,
)

__all__ = [
    "Assignment",
    "And",
    "BitsetKernel",
    "BoolExpr",
    "Clause",
    "Const",
    "DNF",
    "FALSE",
    "IDNF",
    "Not",
    "Or",
    "TRUE",
    "Var",
    "cofactor",
    "condition",
    "count_models",
    "enumerate_models",
    "evaluate_dnf",
    "independent_components",
    "is_idnf",
    "is_independent",
    "is_mutually_exclusive",
    "lower_idnf",
    "upper_idnf",
]
