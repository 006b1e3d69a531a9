"""Exact, versioned (de)serialization of d-trees — complete *and* partial.

Compiled d-trees used to be an in-process-only artifact: linked object
graphs that died with the process.  This module gives them a stable,
JSON-serializable wire form so the engine can persist a compilation —
including a *partial* tree whose :class:`~repro.dtree.nodes.DNFLeaf`
frontier the anytime compilers can resume — and a warm-started process
can pick up exactly where a previous one stopped.

**Version 3 (current)** encodes the tree's arena
(:mod:`repro.dtree.arena`) directly — one dict of parallel columns in
postorder (children before parents, root last), integers only, so the
round-trip is exact by construction:

* ``"v"``: literal ``3`` (the dict shape is the version marker);
* ``"kinds"``: per-row node kind (``repro.dtree.arena.KIND_*``);
* ``"arity"``: per-row child count;
* ``"children"``: the rows' child row indices, concatenated in row order
  (row ``i`` owns the next ``arity[i]`` entries).  Explicit indices let a
  row have several parents, so a compiled DAG keeps its sharing: a
  shared sub-function is stored once;
* ``"lits"``: ``[variable, negated]`` per literal row, in row order;
* ``"doms"``: sorted domain per constant/DNF row, in row order;
* ``"dnfs"``: sorted clause lists per DNF row, in row order (the
  resumable frontier of a partial tree).

**Version 2 (decode only)** has the same columns without ``"children"``:
every row has one parent and sibling subtrees are contiguous, so the
child indices are recovered from the arities with a stack, and the rows
then decode through the same loop as version 3.

**Version 1 (legacy, decode only)** is the nested-list object-tree
structure that tree shards written before the arena codec hold:

* ``["T", [domain...]]`` / ``["F", [domain...]]`` — constants;
* ``["L", variable, negated]`` — a literal leaf;
* ``["D", [domain...], [[clause...]...]]`` — an undecomposed DNF leaf;
* ``["&", [children...]]`` / ``["|", [children...]]`` /
  ``["^", [children...]]`` — ``DecompAnd`` / ``DecompOr`` /
  ``ExclusiveOr``.

:func:`decode_tree` dispatches on the shape (dict → v3 or v2, list →
v1), so stores holding entries written by every version decode
transparently — all forms build object trees, and :func:`clone_tree` /
:func:`trees_equal` operate on decoded objects, never on encodings, so
they are version-oblivious by construction.

Encoding and decoding are **iterative**, so arbitrarily deep Shannon
chains never depend on the interpreter recursion limit.
:func:`decode_tree` validates as it builds — unknown tags, malformed
payloads, child indices that do not point to distinct earlier rows,
rows that no row references, shared rows over an undecomposed leaf, or
structurally invalid nodes raise ``ValueError``, which the store tier
treats as corruption (recompute, never crash).

``TREE_FORMAT_VERSION`` is bumped on any incompatible change; a reader
discards an encoding recording an *unknown* version, so a process that
predates version 3 recomputes a shared-row encoding instead of
misreading it by arity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
TREE_FORMAT_VERSION = 3

_TAG_NODES = {"&": DecompAnd, "|": DecompOr, "^": ExclusiveOr}


def encode_tree(root: DTreeNode) -> dict:
    """JSON-serializable (v3, arena-columnar) form of a d-tree.

    Deterministic: the arena row order is a pure function of the tree
    structure and domains/clauses are emitted sorted, so equal trees
    encode to equal dicts (useful as a structural-equality check).  A
    node shared by several parents is one row.  Encoding goes through
    :func:`repro.dtree.arena.arena_of`, so a tree serialized right after
    evaluation reuses the already-built arena.
    """
    arena = arena_of(root)
    kinds = list(arena.kinds)
    lits: List[list] = []
    doms: List[list] = []
    dnfs: List[list] = []
    for row, kind in enumerate(kinds):
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
        "v": TREE_FORMAT_VERSION,
        "kinds": kinds,
        "arity": [last - first for first, last
                  in zip(arena.child_first, arena.child_last)],
        # Row i's span is [child_first[i], child_last[i]), and the spans
        # follow each other in row order: the column is stored as is.
        "children": list(arena.children),
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


def _v2_children(arity: list) -> list:
    """The ``children`` column of a v2 encoding, rebuilt from its arities.

    In v2 every row has one parent and sibling subtrees are contiguous,
    so a row's children are the last ``arity`` rows not yet adopted.
    """
    children: List[int] = []
    unadopted: List[int] = []
    for row, count in enumerate(arity):
        count = int(count)
        if count:
            if not 0 < count <= len(unadopted):
                raise ValueError(
                    "malformed arena encoding: child span out of range")
            children += unadopted[-count:]
            del unadopted[-count:]
        unadopted.append(row)
    if len(unadopted) != 1:
        raise ValueError("malformed arena encoding: disconnected rows")
    return children


def _decode_rows(encoded: dict, children: list) -> Tuple[DTreeNode, bool]:
    """Build the object DAG from arena columns (forward loop, one node per row).

    Each row's child indices must point to distinct earlier rows; every
    row but the last (the root) must be some row's child; a row with
    several parents must hold no undecomposed leaf, because the
    incremental compiler replaces open leaves in place under their one
    parent.  Each node is validated as it is built.  Returns the root
    and whether the tree is complete (no row's subtree holds a leaf).
    """
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
    #: The last row that named each row as a child (-1: none yet).
    parents = [-1] * len(kinds)
    #: Whether the row's subtree holds an undecomposed leaf.
    partial = [False] * len(kinds)
    position = 0
    for row, kind in enumerate(kinds):
        count = int(arity[row])
        if count < 0 or position + count > len(children):
            raise ValueError("malformed arena encoding: children column "
                             "shorter than the arities")
        kids: List[DTreeNode] = []
        opened = kind == KIND_DNF
        for index in children[position:position + count]:
            if not 0 <= index < row:
                raise ValueError(f"malformed arena encoding: row {row} "
                                 f"names child row {index!r}")
            parent = parents[index]
            if parent == row:
                raise ValueError(f"malformed arena encoding: row {row} "
                                 f"names child row {index} twice")
            if partial[index]:
                if parent >= 0:
                    raise ValueError("malformed arena encoding: a partial "
                                     "subtree with several parents")
                opened = True
            parents[index] = row
            kids.append(nodes[index])
        position += count
        partial[row] = opened
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
            if not kids:
                raise ValueError("malformed arena encoding: childless "
                                 "inner node")
            node = _KIND_INNER[kind](kids)
            node._validate_node()
        else:
            raise ValueError(f"unknown arena node kind {kind!r}")
        if kids and kind not in _KIND_INNER:
            raise ValueError("malformed arena encoding: leaf with children")
        nodes.append(node)
    if position != len(children):
        raise ValueError("malformed arena encoding: children column longer "
                         "than the arities")
    if -1 in parents[:-1]:
        raise ValueError("malformed arena encoding: a row no row references")
    return nodes[-1], not partial[-1]


def decode_tree(encoded: object) -> DTreeNode:
    """Inverse of :func:`encode_tree`; raises ``ValueError`` on bad input.

    Dispatches on the encoded shape: a dict is the v3 (or v2)
    arena-columnar form, a list/tuple the legacy v1 nested-list form —
    so one store can hold entries written by every codec version.  The
    decoded tree satisfies the structural d-tree invariants (each node
    is validated as it is built), so downstream evaluators never crash on
    a tampered or truncated artifact — the error surfaces here, where
    callers expect it.  A v3 row with several parents decodes to one
    shared node.
    """
    return decode_tree_state(encoded)[0]


def decode_tree_state(encoded: object) -> Tuple[DTreeNode, bool]:
    """:func:`decode_tree`, plus whether the tree is complete.

    Returns ``(root, complete)``; a tree is complete when it holds no
    undecomposed :class:`~repro.dtree.nodes.DNFLeaf`.  The v3/v2 decoder
    knows that from the rows it builds, so only a legacy v1 tree is
    walked a second time for it.
    """
    if isinstance(encoded, dict):
        version = encoded.get("v")
        if version != TREE_FORMAT_VERSION and version != 2:
            raise ValueError(f"unknown d-tree encoding version {version!r}")
        try:
            children = (encoded["children"] if version == TREE_FORMAT_VERSION
                        else _v2_children(encoded["arity"]))
            return _decode_rows(encoded, children)
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
        return root, root.is_complete()
    except ValueError:
        raise
    except Exception as error:  # malformed payloads of any other shape
        raise ValueError(f"malformed d-tree encoding: {error}") from error


def clone_tree(root: DTreeNode) -> DTreeNode:
    """A structurally identical private copy of a (possibly partial) tree.

    Used before resuming a persisted or cached partial compilation: the
    incremental compiler mutates trees in place, and the cached artifact
    must stay pristine for other readers.  Each distinct node is copied
    once, so a node shared inside the original is shared inside the
    copy, and the copy shares no node with the original.  Iterative,
    like the codec.
    """
    cloned: Dict[int, DTreeNode] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        children = node.children()
        if expanded:
            cloned[id(node)] = node.clone_shallow(
                [cloned[id(child)] for child in children])
            continue
        if id(node) in cloned:
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

    Compares the trees as unfolded, so a DAG equals its unshared copy.
    Paired iterative walk that compares each pair of nodes once: comparing
    the encoded nested lists instead would recurse inside the C-level list
    comparison and hit the interpreter recursion limit on deep Shannon
    chains.
    """
    compared = set()
    stack = [(left, right)]
    while stack:
        pair = stack.pop()
        key = (id(pair[0]), id(pair[1]))
        if key in compared:
            continue
        compared.add(key)
        a, b = pair
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
    "decode_tree_state",
    "encode_tree",
    "trees_equal",
]
