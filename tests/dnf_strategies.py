"""Hypothesis strategies and fixed lineages shared by the property-based tests.

Lives in its own module (not ``conftest.py``) so test modules can import it
by name: ``conftest`` is ambiguous on ``sys.path`` when several test roots
(``tests/``, ``benchmarks/``) are collected in one pytest run.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.boolean.dnf import DNF
from repro.dtree.nodes import DTreeNode
from repro.workloads.generators import random_positive_dnf

#: A lineage whose cofactors repeat sub-functions: compiled, it is a DAG of
#: 127 distinct nodes (167 unfolded) with 9 Shannon expansions (10
#: unfolded).
SHARING_DNF = DNF([[0, 4], [1, 3, 6], [1, 8, 13], [1, 9, 13], [1, 13],
                   [2, 9, 11], [3, 5, 7], [4, 7, 12], [6, 8, 12], [7, 10],
                   [8, 10, 11], [8, 11, 12]])


def unfolded_count(root: DTreeNode, kind: type = DTreeNode) -> int:
    """Nodes of ``kind`` in the d-tree as unfolded: a node shared by
    several parents counts once per parent."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += isinstance(node, kind)
        stack.extend(node.children())
    return count


def small_dnfs(max_variables: int = 7, max_clauses: int = 6) -> st.SearchStrategy[DNF]:
    """Hypothesis strategy for small positive DNFs (brute-force checkable)."""

    @st.composite
    def build(draw) -> DNF:
        num_variables = draw(st.integers(min_value=1, max_value=max_variables))
        num_clauses = draw(st.integers(min_value=1, max_value=max_clauses))
        variables = list(range(num_variables))
        clauses = []
        for _ in range(num_clauses):
            width = draw(st.integers(min_value=1,
                                     max_value=min(3, num_variables)))
            clause = draw(st.permutations(variables))[:width]
            clauses.append(tuple(clause))
        extra_domain = draw(st.integers(min_value=0, max_value=2))
        domain = list(range(num_variables + extra_domain))
        return DNF(clauses, domain=domain)

    return build()


@st.composite
def shannon_dnfs(draw):
    """Random positive DNFs of 2-3 variable clauses, silent variables
    included; under budgets of 0-5 Shannon steps about half exhaust."""
    rng = draw(st.randoms(use_true_random=False))
    size = rng.randint(4, 10)
    function = random_positive_dnf(rng, size, rng.randint(3, 14), (2, 3))
    return DNF(function.clauses, domain=range(size + rng.randint(0, 2)))
