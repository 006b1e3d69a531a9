"""Exact, versioned (de)serialization of d-trees — complete *and* partial.

Compiled d-trees used to be an in-process-only artifact: linked object
graphs that died with the process.  This module gives them a stable,
JSON-serializable wire form so the engine can persist a compilation —
including a *partial* tree whose :class:`~repro.dtree.nodes.DNFLeaf`
frontier the anytime compilers can resume — and a warm-started process
can pick up exactly where a previous one stopped.

**Version 2 (current)** encodes the tree's arena
(:mod:`repro.dtree.arena`) directly — one dict of parallel columns in
postorder (children before parents, root last), integers only, so the
round-trip is exact by construction:

* ``"v"``: literal ``2`` (the dict shape is the version marker);
* ``"kinds"``: per-row node kind (``repro.dtree.arena.KIND_*``);
* ``"arity"``: per-row child count — spans are contiguous, so the flat
  ``"children"`` row-index list is recovered cumulatively;
* ``"lits"``: ``[variable, negated]`` per literal row, in row order;
* ``"doms"``: sorted domain per constant/DNF row, in row order;
* ``"dnfs"``: sorted clause lists per DNF row, in row order (the
  resumable frontier of a partial tree).

**Version 1 (legacy, decode only)** is the nested-list object-tree
structure that tree shards written before the arena codec hold:

* ``["T", [domain...]]`` / ``["F", [domain...]]`` — constants;
* ``["L", variable, negated]`` — a literal leaf;
* ``["D", [domain...], [[clause...]...]]`` — an undecomposed DNF leaf;
* ``["&", [children...]]`` / ``["|", [children...]]`` /
  ``["^", [children...]]`` — ``DecompAnd`` / ``DecompOr`` /
  ``ExclusiveOr``.

:func:`decode_tree` dispatches on the shape (dict → v2, list → v1), so
stores holding shards written by both versions decode transparently —
both forms build the same object trees, and :func:`clone_tree` /
:func:`trees_equal` operate on decoded objects, never on encodings, so
they are version-oblivious by construction.

Encoding and decoding are **iterative**, so arbitrarily deep Shannon
chains never depend on the interpreter recursion limit.
:func:`decode_tree` validates as it builds — unknown tags, malformed
payloads, or structurally invalid nodes raise ``ValueError``, which the
store tier treats as corruption (recompute, never crash).

``TREE_FORMAT_VERSION`` is bumped on any incompatible change; persisted
artifacts recording an *unknown* version are discarded by their readers
(known-compatible older versions are listed in
:data:`repro.engine.artifact.ARTIFACT_COMPAT_VERSIONS`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.boolean.dnf import DNF
from repro.dtree.arena import (
    KIND_AND,
    KIND_DNF,
    KIND_FALSE,
    KIND_LITERAL,
    KIND_OR,
    KIND_TRUE,
    KIND_XOR,
    arena_of,
)
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

#: Wire-format version of the tree encoding below (see module docstring).
TREE_FORMAT_VERSION = 2

_TAG_NODES = {"&": DecompAnd, "|": DecompOr, "^": ExclusiveOr}


def encode_tree(root: DTreeNode) -> dict:
    """JSON-serializable (v2, arena-columnar) form of a d-tree.

    Deterministic: the arena row order is a pure function of the tree
    structure and domains/clauses are emitted sorted, so equal trees
    encode to equal dicts (useful as a structural-equality check).
    Encoding goes through :func:`repro.dtree.arena.arena_of`, so a tree
    serialized right after evaluation reuses the already-built arena.
    """
    arena = arena_of(root)
    kinds = list(arena.kinds)
    arity: List[int] = []
    lits: List[list] = []
    doms: List[list] = []
    dnfs: List[list] = []
    for row, kind in enumerate(kinds):
        arity.append(arena.child_last[row] - arena.child_first[row])
        if kind == KIND_LITERAL:
            lits.append([arena.variables[row], bool(arena.negated[row])])
        elif kind == KIND_TRUE or kind == KIND_FALSE:
            doms.append(sorted(arena.domains[row]))
        elif kind == KIND_DNF:
            function = arena.leaf_functions[row]
            doms.append(sorted(function.domain))
            dnfs.append([list(clause)
                         for clause in function.sorted_clauses()])
    return {
        "v": 2,
        "kinds": kinds,
        "arity": arity,
        "lits": lits,
        "doms": doms,
        "dnfs": dnfs,
    }


def _decode_leaf(tag: str, payload: list) -> DTreeNode:
    if tag == "T":
        (domain,) = payload
        return TrueLeaf(int(v) for v in domain)
    if tag == "F":
        (domain,) = payload
        return FalseLeaf(int(v) for v in domain)
    if tag == "L":
        variable, negated = payload
        if not isinstance(negated, bool):
            raise ValueError(f"malformed literal negation {negated!r}")
        return LiteralLeaf(int(variable), negated)
    if tag == "D":
        domain, clauses = payload
        function = DNF([tuple(int(v) for v in clause) for clause in clauses],
                       domain=[int(v) for v in domain])
        return DNFLeaf(function)
    raise ValueError(f"unknown d-tree node tag {tag!r}")


_KIND_INNER = {KIND_AND: DecompAnd, KIND_OR: DecompOr, KIND_XOR: ExclusiveOr}


def _decode_tree_v2(encoded: dict) -> DTreeNode:
    """Rebuild the object tree from v2 arena columns (forward loop)."""
    kinds = encoded["kinds"]
    arity = encoded["arity"]
    if not isinstance(kinds, (list, tuple)) or not kinds:
        raise ValueError("malformed arena encoding: empty kinds column")
    if len(arity) != len(kinds):
        raise ValueError("malformed arena encoding: column length mismatch")
    lits = iter(encoded["lits"])
    doms = iter(encoded["doms"])
    dnfs = iter(encoded["dnfs"])
    nodes: List[DTreeNode] = []
    for row, kind in enumerate(kinds):
        children_count = int(arity[row])
        if children_count:
            if children_count > len(nodes):
                raise ValueError(
                    "malformed arena encoding: child span out of range")
            children = nodes[len(nodes) - children_count:]
            del nodes[len(nodes) - children_count:]
        else:
            children = []
        if kind == KIND_TRUE:
            node = TrueLeaf(int(v) for v in next(doms))
        elif kind == KIND_FALSE:
            node = FalseLeaf(int(v) for v in next(doms))
        elif kind == KIND_LITERAL:
            variable, negated = next(lits)
            if not isinstance(negated, bool):
                raise ValueError(f"malformed literal negation {negated!r}")
            node = LiteralLeaf(int(variable), negated)
        elif kind == KIND_DNF:
            domain = [int(v) for v in next(doms)]
            clauses = [tuple(int(v) for v in clause)
                       for clause in next(dnfs)]
            node = DNFLeaf(DNF(clauses, domain=domain))
        elif kind in _KIND_INNER:
            if not children:
                raise ValueError("malformed arena encoding: childless "
                                 "inner node")
            node = _KIND_INNER[kind](children)
        else:
            raise ValueError(f"unknown arena node kind {kind!r}")
        if children and kind not in _KIND_INNER:
            raise ValueError("malformed arena encoding: leaf with children")
        nodes.append(node)
    if len(nodes) != 1:
        raise ValueError("malformed arena encoding: disconnected rows")
    return nodes[0]


def decode_tree(encoded: object) -> DTreeNode:
    """Inverse of :func:`encode_tree`; raises ``ValueError`` on bad input.

    Dispatches on the encoded shape: a dict is the v2 arena-columnar
    form, a list/tuple the legacy v1 nested-list form — so one store can
    hold shards written by both codec versions.  The decoded tree
    satisfies the structural d-tree invariants
    (:meth:`~repro.dtree.nodes.DTreeNode.validate` is run on the result),
    so downstream evaluators never crash on a tampered or truncated
    artifact — the error surfaces here, where callers expect it.
    """
    if isinstance(encoded, dict):
        if encoded.get("v") != 2:
            raise ValueError(
                f"unknown d-tree encoding version {encoded.get('v')!r}")
        try:
            root = _decode_tree_v2(encoded)
            root.validate()
            return root
        except ValueError:
            raise
        except Exception as error:
            raise ValueError(
                f"malformed d-tree encoding: {error}") from error
    try:
        built: Dict[int, DTreeNode] = {}
        stack = [(encoded, False)]
        while stack:
            obj, expanded = stack.pop()
            if not isinstance(obj, (list, tuple)) or not obj:
                raise ValueError(f"malformed d-tree node {obj!r}")
            tag = obj[0]
            if expanded:
                children = [built.pop(id(child)) for child in obj[1]]
                built[id(obj)] = _TAG_NODES[tag](children)
                continue
            if tag in _TAG_NODES:
                if len(obj) != 2 or not isinstance(obj[1], (list, tuple)) \
                        or not obj[1]:
                    raise ValueError(f"malformed inner node {obj!r}")
                stack.append((obj, True))
                for child in obj[1]:
                    stack.append((child, False))
            else:
                built[id(obj)] = _decode_leaf(tag, list(obj[1:]))
        root = built[id(encoded)]
        root.validate()
        return root
    except ValueError:
        raise
    except Exception as error:  # malformed payloads of any other shape
        raise ValueError(f"malformed d-tree encoding: {error}") from error


def clone_tree(root: DTreeNode) -> DTreeNode:
    """A structurally identical private copy of a (possibly partial) tree.

    Used before resuming a persisted or cached partial compilation: the
    incremental compiler mutates trees in place, and the cached artifact
    must stay pristine for other readers.  Iterative, like the codec.
    """
    cloned: Dict[int, DTreeNode] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        children = node.children()
        if expanded:
            cloned[id(node)] = node.clone_shallow(
                [cloned.pop(id(child)) for child in children])
            continue
        if children:
            stack.append((node, True))
            for child in children:
                stack.append((child, False))
        else:
            cloned[id(node)] = node.clone_shallow([])
    return cloned[id(root)]


def trees_equal(left: DTreeNode, right: DTreeNode) -> bool:
    """Structural equality of two d-trees (same shapes, domains, leaves).

    Paired iterative walk: comparing the encoded nested lists instead
    would recurse inside the C-level list comparison and hit the
    interpreter recursion limit on deep Shannon chains.
    """
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (TrueLeaf, FalseLeaf)):
            if a.domain != b.domain:
                return False
        elif isinstance(a, LiteralLeaf):
            if a.variable != b.variable or a.negated != b.negated:
                return False
        elif isinstance(a, DNFLeaf):
            if a.function != b.function:
                return False
        else:
            left_children = a.children()
            right_children = b.children()
            if len(left_children) != len(right_children):
                return False
            stack.extend(zip(left_children, right_children))
    return True


__all__ = [
    "TREE_FORMAT_VERSION",
    "clone_tree",
    "decode_tree",
    "encode_tree",
    "trees_equal",
]
