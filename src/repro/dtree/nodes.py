"""D-tree node classes.

Nodes are lightweight mutable objects: the exhaustive compiler builds a
subtree once and never changes it, while the incremental compiler replaces
open leaves in place (by one decomposition step or by such a subtree) and
therefore needs parent pointers and cache invalidation.  The exhaustive
compiler reuses the subtree of a sub-function it has already compiled, so
a tree may be a DAG: a complete node may have several parents, of which
``parent`` records the last.  The walks below visit each distinct node
once.  Every node knows the variable domain of the function it
represents; the invariants are:

* children of a :class:`DecompAnd` or :class:`DecompOr` have pairwise
  disjoint domains whose union is the parent's domain;
* children of an :class:`ExclusiveOr` all have exactly the parent's domain;
* every variable of the parent's domain belongs to exactly one child of a
  decomposable node.

``validate()`` checks these invariants (used by tests and assertions).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from repro.boolean.dnf import DNF


class DTreeNode:
    """Base class for d-tree nodes."""

    __slots__ = ("parent", "_cache")

    def __init__(self) -> None:
        self.parent: Optional[DTreeNode] = None
        #: Per-node scratch cache used by the bounds machinery; cleared by
        #: :meth:`invalidate`.
        self._cache: Dict[object, object] = {}

    # -- structure ----------------------------------------------------- #

    @property
    def domain(self) -> FrozenSet[int]:
        """Variables the represented function is defined over."""
        raise NotImplementedError

    def children(self) -> List["DTreeNode"]:
        """Child nodes (empty for leaves)."""
        return []

    def is_leaf(self) -> bool:
        """``True`` for leaf nodes."""
        return not self.children()

    def iter_nodes(self) -> Iterator["DTreeNode"]:
        """Iterate over the distinct nodes of the subtree (pre-order).

        A shared node is visited once, where it is first reached.
        """
        seen: set = set()
        stack: List[DTreeNode] = [self]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            stack.extend(reversed(node.children()))

    def iter_leaves(self) -> Iterator["DTreeNode"]:
        """Iterate over the distinct leaves of the subtree."""
        for node in self.iter_nodes():
            if node.is_leaf():
                yield node

    def num_nodes(self) -> int:
        """Number of distinct nodes in the subtree (a shared node counts once)."""
        return sum(1 for _ in self.iter_nodes())

    # -- caching ------------------------------------------------------- #

    def cache_get(self, key: object) -> object | None:
        """Look up a cached value for this node."""
        return self._cache.get(key)

    def cache_set(self, key: object, value: object) -> None:
        """Store a cached value for this node."""
        self._cache[key] = value

    def invalidate(self) -> None:
        """Clear the cache of this node and of all ancestors.

        Called by the incremental compiler after a leaf expansion so that the
        bounds of the nodes along the path to the root are recomputed while
        untouched subtrees keep their cached bounds (the paper's optimization
        (2) in Section 3.2.4).
        """
        node: Optional[DTreeNode] = self
        while node is not None:
            node._cache.clear()
            node = node.parent

    # -- semantics helpers --------------------------------------------- #

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        """Evaluate the represented function (used for validation)."""
        raise NotImplementedError

    def is_complete(self) -> bool:
        """``True`` iff every leaf is a literal or a constant."""
        return all(not isinstance(leaf, DNFLeaf) for leaf in self.iter_leaves())

    def validate(self) -> None:
        """Check the structural invariants of the subtree; raise on violation."""
        for node in self.iter_nodes():
            node._validate_node()

    def _validate_node(self) -> None:
        pass

    def replace_child(self, old: "DTreeNode", new: "DTreeNode") -> None:
        """Replace a direct child (used by the incremental compiler)."""
        raise TypeError(f"{type(self).__name__} has no children to replace")

    def clone_shallow(self, children: List["DTreeNode"]) -> "DTreeNode":
        """A fresh node with the same payload but the given children.

        Leaves ignore ``children``; inner nodes adopt them.  This is the
        per-node hook behind :func:`repro.dtree.serialize.clone_tree`,
        which copies whole (possibly partial) trees iteratively so that a
        resumed compilation never mutates a cached or persisted tree.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Leaves
# ---------------------------------------------------------------------- #


class TrueLeaf(DTreeNode):
    """The constant 1 over a (possibly empty) variable domain."""

    __slots__ = ("_domain",)

    def __init__(self, domain: Iterable[int] = ()) -> None:
        super().__init__()
        self._domain = frozenset(int(v) for v in domain)

    @property
    def domain(self) -> FrozenSet[int]:
        return self._domain

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return True

    def clone_shallow(self, children: List[DTreeNode]) -> "TrueLeaf":
        return TrueLeaf(self._domain)

    def __repr__(self) -> str:
        return f"TrueLeaf(|domain|={len(self._domain)})"


class FalseLeaf(DTreeNode):
    """The constant 0 over a (possibly empty) variable domain."""

    __slots__ = ("_domain",)

    def __init__(self, domain: Iterable[int] = ()) -> None:
        super().__init__()
        self._domain = frozenset(int(v) for v in domain)

    @property
    def domain(self) -> FrozenSet[int]:
        return self._domain

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return False

    def clone_shallow(self, children: List[DTreeNode]) -> "FalseLeaf":
        return FalseLeaf(self._domain)

    def __repr__(self) -> str:
        return f"FalseLeaf(|domain|={len(self._domain)})"


class LiteralLeaf(DTreeNode):
    """A single literal ``x`` or ``¬x`` over the one-variable domain ``{x}``.

    Negative literals only ever arise as the markers introduced by Shannon
    expansion (``(x ⊙ phi[x:=1]) ⊕ (¬x ⊙ phi[x:=0])``); the lineage itself is
    positive.
    """

    __slots__ = ("variable", "negated", "_domain")

    def __init__(self, variable: int, negated: bool = False) -> None:
        super().__init__()
        self.variable = int(variable)
        self.negated = bool(negated)
        # The one-variable domain is read on every evaluation pass; build
        # the frozenset once instead of per property access.
        self._domain = frozenset((self.variable,))

    @property
    def domain(self) -> FrozenSet[int]:
        return self._domain

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        value = self.variable in true_variables
        return not value if self.negated else value

    def clone_shallow(self, children: List[DTreeNode]) -> "LiteralLeaf":
        return LiteralLeaf(self.variable, self.negated)

    def __repr__(self) -> str:
        prefix = "~" if self.negated else ""
        return f"LiteralLeaf({prefix}x{self.variable})"


class DNFLeaf(DTreeNode):
    """A not-yet-decomposed positive DNF function (partial d-trees only)."""

    __slots__ = ("function", "priority")

    def __init__(self, function: DNF) -> None:
        super().__init__()
        if function.is_false():
            raise ValueError("use FalseLeaf for the constant 0")
        if function.is_single_literal():
            raise ValueError("use LiteralLeaf for single literals")
        self.function = function
        #: Expansion priority used by the incremental compiler (precomputed
        #: because leaf selection happens on every expansion step).
        self.priority = (function.num_clauses(), function.size())

    @property
    def domain(self) -> FrozenSet[int]:
        return self.function.domain

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return self.function.evaluate(true_variables)

    def clone_shallow(self, children: List[DTreeNode]) -> "DNFLeaf":
        # DNF objects are immutable, so the function is shared by design.
        return DNFLeaf(self.function)

    def __repr__(self) -> str:
        return (f"DNFLeaf(vars={len(self.function.variables)}, "
                f"clauses={self.function.num_clauses()})")


# ---------------------------------------------------------------------- #
# Inner nodes
# ---------------------------------------------------------------------- #


class _InnerNode(DTreeNode):
    """Shared implementation of inner nodes (n-ary)."""

    __slots__ = ("_children", "_domain")

    #: Human-readable operator symbol; overridden by subclasses.
    symbol = "?"

    def __init__(self, children: Iterable[DTreeNode],
                 domain: Optional[FrozenSet[int]] = None) -> None:
        super().__init__()
        child_list = list(children)
        if len(child_list) < 1:
            raise ValueError("inner nodes need at least one child")
        self._children = child_list
        for child in child_list:
            child.parent = self
        if domain is None:
            domain = frozenset().union(*(c.domain for c in child_list))
        # A caller-supplied domain is trusted (the compilers already hold
        # the exact domain of the function being decomposed); validate()
        # still checks the structural invariants.
        self._domain = domain

    @property
    def domain(self) -> FrozenSet[int]:
        return self._domain

    def children(self) -> List[DTreeNode]:
        return self._children

    def replace_child(self, old: DTreeNode, new: DTreeNode) -> None:
        for index, child in enumerate(self._children):
            if child is old:
                self._children[index] = new
                new.parent = self
                old.parent = None
                return
        raise ValueError("node to replace is not a child of this node")

    def clone_shallow(self, children: List[DTreeNode]) -> "_InnerNode":
        return type(self)(children)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._children)} children)"


class DecompAnd(_InnerNode):
    """Independent-AND (``⊙``): conjunction of variable-disjoint functions."""

    __slots__ = ()

    symbol = "⊙"

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return all(c.evaluate(true_variables) for c in self._children)

    def _validate_node(self) -> None:
        _check_disjoint_domains(self)


class DecompOr(_InnerNode):
    """Independent-OR (``⊗``): disjunction of variable-disjoint functions."""

    __slots__ = ()

    symbol = "⊗"

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return any(c.evaluate(true_variables) for c in self._children)

    def _validate_node(self) -> None:
        _check_disjoint_domains(self)


class ExclusiveOr(_InnerNode):
    """Mutually-exclusive OR (``⊕``): disjunction over the same variable set."""

    __slots__ = ()

    symbol = "⊕"

    def evaluate(self, true_variables: FrozenSet[int]) -> bool:
        return any(c.evaluate(true_variables) for c in self._children)

    def _validate_node(self) -> None:
        for child in self._children:
            if child.domain != self.domain:
                raise ValueError(
                    "children of an exclusive-or node must share the parent domain"
                )


def _check_disjoint_domains(node: _InnerNode) -> None:
    seen: set[int] = set()
    for child in node.children():
        overlap = seen & child.domain
        if overlap:
            raise ValueError(
                f"decomposable node children share variables {sorted(overlap)[:5]}"
            )
        seen |= child.domain
    if frozenset(seen) != node.domain:
        raise ValueError("decomposable node domain mismatch")


def pretty_print(node: DTreeNode, indent: int = 0) -> str:
    """Render a d-tree as an indented multi-line string (debugging helper)."""
    pad = "  " * indent
    if isinstance(node, _InnerNode):
        lines = [f"{pad}{node.symbol}"]
        for child in node.children():
            lines.append(pretty_print(child, indent + 1))
        return "\n".join(lines)
    return f"{pad}{node!r}"
