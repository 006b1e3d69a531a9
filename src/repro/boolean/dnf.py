"""Positive DNF functions with an explicit variable domain.

Query lineage (Section 2 of the paper) is always a *positive* Boolean function
in disjunctive normal form: a disjunction of clauses, each clause a
conjunction of (positive) variables.  The algorithms of the paper --- ExaBan,
AdaBan, the ``bounds`` procedure and the L/U iDNF synthesis --- all operate on
this representation.

Two representation choices matter for correctness:

* **Explicit variable domain.**  Model counts depend on the set of variables
  the function is considered *over*, not just the variables that occur in its
  clauses.  Example 13 of the paper stresses this: ``phi[x := 0] = u`` but the
  function is over three variables, so it has four models, not one.  A
  :class:`DNF` therefore carries a ``domain`` that is a superset of the
  variables occurring in its clauses.
* **Canonical clause set.**  Clauses are frozensets of variable ids, the
  clause set is a frozenset, and absorbed clauses (supersets of other clauses)
  can be removed with :meth:`DNF.absorb`.  Equality of :class:`DNF` objects is
  therefore syntactic on the minimized clause set plus the domain.

Variables are plain integers.  The database layer assigns consecutive integer
ids to endogenous facts.

Representation
--------------
The *logical* representation above is unchanged, but the hot operations run
on a **bitset kernel** (:mod:`repro.boolean.bitset`): the domain is sorted
into a dense variable order, every clause becomes one Python ``int``
bitmask over that order, and absorption / cofactoring / factoring /
independence checks become single-word mask operations.  Both views are
built lazily and cached -- a DNF produced by a kernel operation only
materializes its frozenset clauses when something asks for them, and a DNF
built from clauses only builds masks when a kernel operation runs.  The
public API -- ``clauses``, iteration, equality, ordering of
``sorted_clauses`` -- is byte-for-byte the thin frozenset view it always
was.  The Hypothesis differential suite checks every kernel operation
against its clause-set definition.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.boolean.bitset import (
    BitsetKernel,
    absorb_masks,
    iter_bits,
    popcount,
    project_mask,
    projection_table,
)

Clause = FrozenSet[int]


def make_clause(variables: Iterable[int]) -> Clause:
    """Build a clause (conjunction of positive variables) from an iterable."""
    clause = frozenset(int(v) for v in variables)
    if not clause:
        raise ValueError("a DNF clause must contain at least one variable")
    return clause


class DNF:
    """An immutable positive DNF function over an explicit variable domain.

    Parameters
    ----------
    clauses:
        Iterable of clauses; each clause is an iterable of variable ids.  The
        empty clause is not allowed (a clause with no variables would be the
        constant ``True``; represent that situation with ``is_true()`` helpers
        at the d-tree level instead).  An empty *set of clauses* represents
        the constant ``False`` over the given domain.
    domain:
        Optional iterable of variable ids the function is defined over.  Must
        be a superset of the variables occurring in the clauses; defaults to
        exactly those variables.
    """

    __slots__ = ("_clauses", "_domain", "_hash", "_kernel", "_variables",
                 "_frequencies")

    def __init__(self, clauses: Iterable[Iterable[int]],
                 domain: Iterable[int] | None = None) -> None:
        clause_set = frozenset(make_clause(c) for c in clauses)
        occurring: set[int] = set()
        for clause in clause_set:
            occurring |= clause
        if domain is None:
            dom = frozenset(occurring)
        else:
            dom = frozenset(int(v) for v in domain)
            if not occurring <= dom:
                missing = sorted(occurring - dom)
                raise ValueError(
                    f"domain must cover all clause variables; missing {missing}"
                )
        self._clauses: Optional[FrozenSet[Clause]] = clause_set
        self._domain = dom
        self._hash: int | None = None
        self._kernel: Optional[BitsetKernel] = None
        self._variables: Optional[FrozenSet[int]] = None
        self._frequencies: Optional[Dict[int, int]] = None

    @classmethod
    def _from_kernel(cls, masks: Iterable[int], order: Tuple[int, ...],
                     normalized: bool = False,
                     support: Optional[int] = None,
                     domain: Optional[FrozenSet[int]] = None) -> "DNF":
        """Internal fast constructor from clause masks over a sorted order.

        Callers guarantee the invariants: ``order`` is strictly ascending,
        every mask is non-zero and inside ``(1 << len(order)) - 1``.  With
        ``normalized=True`` the caller additionally guarantees the masks
        are already distinct and ascending (true for order-preserving
        surgeries: filtering, dropping a bit every mask has clear,
        projecting away shared bits).  ``domain`` may hand over an already
        materialized frozenset equal to ``set(order)``; otherwise both the
        frozenset views (clauses *and* domain) stay lazy -- a short-lived
        intermediate (e.g. a component that becomes a literal leaf) never
        builds them at all.
        """
        self = cls.__new__(cls)
        self._clauses = None
        self._domain = domain
        self._hash = None
        if not normalized:
            masks = sorted(set(masks))
        self._kernel = BitsetKernel(tuple(order), tuple(masks),
                                    support=support)
        self._variables = None
        self._frequencies = None
        return self

    def _bitset(self) -> BitsetKernel:
        """The (lazily built, cached) bitset kernel of this function."""
        kernel = self._kernel
        if kernel is None:
            order = tuple(sorted(self._domain))
            kernel = BitsetKernel.from_clauses(self._clauses, order)
            self._kernel = kernel
        return kernel

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def clauses(self) -> FrozenSet[Clause]:
        """The set of clauses (each a frozenset of variable ids)."""
        clauses = self._clauses
        if clauses is None:
            kernel = self._kernel
            order = kernel.order
            clauses = frozenset(
                frozenset(order[position] for position in iter_bits(mask))
                for mask in kernel.masks
            )
            self._clauses = clauses
        return clauses

    @property
    def domain(self) -> FrozenSet[int]:
        """The set of variables the function is defined over."""
        domain = self._domain
        if domain is None:
            domain = frozenset(self._kernel.order)
            self._domain = domain
        return domain

    @property
    def variables(self) -> FrozenSet[int]:
        """Variables that actually occur in some clause (cached)."""
        cached = self._variables
        if cached is None:
            cached = self._bitset().variables()
            self._variables = cached
        return cached

    def silent_variables(self) -> FrozenSet[int]:
        """Domain variables occurring in no clause (``domain - variables``).

        The kernel answers the common no-silent case with one integer
        comparison (full mask vs support) instead of building and
        subtracting two frozensets -- the d-tree compilers ask this at
        every decomposition step.
        """
        kernel = self._bitset()
        full = (1 << len(kernel.order)) - 1
        if kernel.support == full:
            return frozenset()
        return kernel.variables_of_mask(full ^ kernel.support)

    def num_variables(self) -> int:
        """Number of variables in the domain (``n`` in the paper's formulas)."""
        domain = self._domain
        if domain is not None:
            return len(domain)
        return len(self._kernel.order)

    def num_clauses(self) -> int:
        """Number of clauses."""
        clauses = self._clauses
        if clauses is not None:
            return len(clauses)
        return len(self._kernel.masks)

    def size(self) -> int:
        """Total number of literal occurrences (the ``|phi|`` of the paper)."""
        clauses = self._clauses
        if clauses is not None:
            return sum(len(clause) for clause in clauses)
        return sum(popcount(mask) for mask in self._kernel.masks)

    def is_false(self) -> bool:
        """``True`` iff the function is the constant 0 (no clauses)."""
        return self.num_clauses() == 0

    def is_single_literal(self) -> bool:
        """``True`` iff the function is a single one-variable clause."""
        clauses = self._clauses
        if clauses is not None:
            return len(clauses) == 1 and len(next(iter(clauses))) == 1
        masks = self._kernel.masks
        return len(masks) == 1 and popcount(masks[0]) == 1

    def single_literal(self) -> int:
        """Return the variable of a single-literal function."""
        if not self.is_single_literal():
            raise ValueError("function is not a single literal")
        clauses = self._clauses
        if clauses is not None:
            return next(iter(next(iter(clauses))))
        kernel = self._kernel
        return kernel.order[kernel.masks[0].bit_length() - 1]

    def contains_variable(self, variable: int) -> bool:
        """``True`` iff ``variable`` occurs in some clause.

        Served off the kernel's support mask in O(1) instead of rescanning
        every clause -- the bounds machinery and the heuristics probe the
        same function for many variables.
        """
        kernel = self._bitset()
        position = kernel.position_of(variable)
        return position >= 0 and bool(kernel.support >> position & 1)

    # ------------------------------------------------------------------ #
    # Equality / hashing / display
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNF):
            return NotImplemented
        mine, theirs = self._kernel, other._kernel
        if mine is not None and theirs is not None:
            # Equal domains share the sorted order, so comparing the order
            # tuples and sorted mask tuples is exactly clause-set-plus-
            # domain equality, without materializing either frozenset.
            return mine.order == theirs.order and mine.masks == theirs.masks
        if self.domain != other.domain:
            return False
        return self.clauses == other.clauses

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.clauses, self.domain))
        return self._hash

    def __repr__(self) -> str:
        clause_strs = sorted(
            "(" + " & ".join(f"x{v}" for v in sorted(clause)) + ")"
            for clause in self.clauses
        )
        body = " | ".join(clause_strs) if clause_strs else "FALSE"
        extra = self.domain - self.variables
        if extra:
            body += f" [over +{len(extra)} silent vars]"
        return f"DNF<{body}>"

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return self.num_clauses()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def false(domain: Iterable[int] = ()) -> "DNF":
        """The constant-0 function over ``domain``."""
        return DNF([], domain=domain)

    @staticmethod
    def literal(variable: int, domain: Iterable[int] | None = None) -> "DNF":
        """A single positive literal, optionally over a larger domain."""
        dom = {variable} if domain is None else set(domain) | {variable}
        return DNF([[variable]], domain=dom)

    def with_domain(self, domain: Iterable[int]) -> "DNF":
        """Return the same function over a (super)domain."""
        return DNF(self.clauses, domain=domain)

    def restricted_domain(self) -> "DNF":
        """Return the same function over exactly its occurring variables."""
        kernel = self._bitset()
        full = (1 << len(kernel.order)) - 1
        if kernel.support == full:
            return self
        table = projection_table(kernel.support, len(kernel.order))
        order = tuple(kernel.order[position]
                      for position in iter_bits(kernel.support))
        return DNF._from_kernel(
            [project_mask(mask, table) for mask in kernel.masks], order,
            normalized=True, support=(1 << len(order)) - 1)

    def absorb(self) -> "DNF":
        """Remove absorbed clauses (clauses that are supersets of others).

        Absorption preserves the function and never increases its size; the
        compiler applies it before independence partitioning so that, e.g.,
        ``(x) | (x & y)`` is recognized as the single literal ``x``.
        """
        kernel = self._bitset()
        kept_masks = absorb_masks(kernel.masks)
        if kept_masks is None:
            return self
        return DNF._from_kernel(kept_masks, kernel.order)

    def union(self, other: "DNF") -> "DNF":
        """Disjunction of two DNFs, over the union of their domains."""
        return DNF(self.clauses | other.clauses,
                   domain=self.domain | other.domain)

    def conjoin(self, other: "DNF") -> "DNF":
        """Conjunction of two DNFs (clause-wise product), over the union domain.

        Used by the lineage builder when combining sub-lineages of a
        conjunctive query; for lineages the product stays small because each
        side has one clause per grounding.
        """
        if self.is_false() or other.is_false():
            return DNF.false(self.domain | other.domain)
        clauses = [c1 | c2 for c1 in self.clauses for c2 in other.clauses]
        return DNF(clauses, domain=self.domain | other.domain)

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #

    def evaluate(self, true_variables: AbstractSet[int]) -> bool:
        """Evaluate under the assignment that sets exactly ``true_variables``."""
        return any(clause <= true_variables for clause in self.clauses)

    def cofactor(self, variable: int, value: bool) -> "DNF":
        """Return ``phi[variable := value]`` with standard simplifications.

        The resulting function is over ``domain - {variable}``:

        * setting the variable to 1 removes it from every clause it occurs in
          (a clause reduced to the empty set means the function became the
          constant 1; we signal that by raising ``ConstantTrue`` -- callers at
          the d-tree level handle the constant explicitly);
        * setting it to 0 deletes every clause containing it.
        """
        kernel = self._bitset()
        position = kernel.position_of(variable)
        if position < 0:
            return self
        bit = 1 << position
        low = bit - 1
        high = ~low
        order = kernel.order
        new_order = order[:position] + order[position + 1:]
        if value:
            new_masks = []
            for mask in kernel.masks:
                if mask & bit:
                    mask ^= bit
                    if not mask:
                        raise ConstantTrue(frozenset(new_order))
                new_masks.append((mask & low) | ((mask >> 1) & high))
            return DNF._from_kernel(new_masks, new_order)
        new_masks = [(mask & low) | ((mask >> 1) & high)
                     for mask in kernel.masks if not mask & bit]
        return DNF._from_kernel(new_masks, new_order, normalized=True)

    def variable_frequencies(self) -> Dict[int, int]:
        """Map each occurring variable to the number of clauses containing it.

        Served off the kernel's cached occurrence index (popcounts of the
        per-variable clause masks); a fresh dict is returned either way, so
        callers may reorder or consume it freely.
        """
        cached = self._frequencies
        if cached is None:
            cached = self._bitset().frequencies()
            self._frequencies = cached
        return dict(cached)

    def common_variables(self) -> FrozenSet[int]:
        """Variables occurring in *every* clause (factor-out candidates)."""
        kernel = self._bitset()
        return kernel.variables_of_mask(kernel.common_mask())

    def sorted_clauses(self) -> Sequence[Tuple[int, ...]]:
        """Deterministically ordered clause list (for reproducible output)."""
        return self._bitset().clause_tuples()


class ConstantTrue(Exception):
    """Raised by :meth:`DNF.cofactor` when the cofactor is the constant 1.

    Carries the residual variable domain so callers can account for the
    ``2^n`` models of the constant-1 function over that domain.
    """

    def __init__(self, domain: FrozenSet[int]) -> None:
        super().__init__("cofactor is the constant TRUE")
        self.domain = domain
