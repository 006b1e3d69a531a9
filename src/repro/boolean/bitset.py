"""The bitset kernel: positive-DNF set algebra on machine-word bitmasks.

Every hot operation of the compiler bottoms out in set algebra over small
integer sets (clauses).  Frozensets pay per-element hashing and allocation
for each test; Python ``int`` bitmasks do the same work with single
arbitrary-precision word operations -- the classic knowledge-compilation
lowering used by compiled-circuit engines.  This module holds the pure
mask algebra; :class:`repro.boolean.dnf.DNF` attaches a lazily built
:class:`BitsetKernel` per function and routes its hot methods through it.

Representation invariants (shared with :mod:`repro.boolean.dnf`):

* a kernel's ``order`` is the function's domain sorted ascending, so bit
  ``i`` of every mask is variable ``order[i]`` -- two DNFs over the same
  domain therefore agree on bit positions by construction;
* ``masks`` is a sorted tuple of distinct non-zero clause masks (the
  empty clause is the constant 1 and never representable, mirroring
  :func:`repro.boolean.dnf.make_clause`);
* ``support`` is the OR of all masks (the occurring variables);
* the per-variable occurrence index maps each occurring bit *position* to
  the mask of clause indices containing it, and is built once on demand.

The loops below favor inlined bit-twiddling (``mask & -mask`` extraction)
over helper generators: these functions run once per d-tree node, so
per-call overhead is the budget that matters.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:  # Python >= 3.10
    _POPCOUNT = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised on 3.9 only
    def _POPCOUNT(mask: int) -> int:  # type: ignore[misc]
        return bin(mask).count("1")


def popcount(mask: int) -> int:
    """Number of set bits (clause width / support size)."""
    return _POPCOUNT(mask)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit *positions* of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def projection_table(keep_mask: int, width: int) -> List[int]:
    """Position-indexed table re-packing the kept bits densely.

    ``table[p]`` is the single-bit value of old position ``p`` in the new
    order (0 for dropped positions); bits of ``keep_mask`` are renumbered
    ``0, 1, ...`` ascending.  ``width`` is the old order's length.
    """
    table = [0] * width
    new_bit = 1
    remaining = keep_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        table[low.bit_length() - 1] = new_bit
        new_bit <<= 1
    return table


def project_mask(mask: int, table: List[int]) -> int:
    """Re-pack ``mask`` through a :func:`projection_table`.

    Every set bit of ``mask`` must be a kept position of the table
    (callers project masks whose support is inside the kept positions).
    """
    projected = 0
    while mask:
        low = mask & -mask
        mask ^= low
        projected |= table[low.bit_length() - 1]
    return projected


def absorb_masks(masks: Sequence[int]) -> Optional[List[int]]:
    """Remove absorbed clauses (supersets of other clauses) from ``masks``.

    Returns the kept masks, or ``None`` when nothing was absorbed (so the
    caller can keep the original object).  Two observations carry the
    weight: a clause can only be absorbed by a *strictly smaller* clause
    (equal-width distinct masks are never subsets), so a uniform-width
    clause set -- the typical join lineage -- is absorption-free after one
    O(c) width scan; and within the width-sorted order each clause only
    needs submask tests against the kept strictly-smaller prefix.
    """
    if len(masks) < 2:
        return None
    first_width = _POPCOUNT(masks[0])
    for mask in masks:
        if _POPCOUNT(mask) != first_width:
            break
    else:
        # Uniform width (the typical join lineage): nothing can absorb.
        return None
    widths = [_POPCOUNT(mask) for mask in masks]
    by_size = sorted(zip(widths, masks))
    kept: List[int] = []
    boundary = 0  # kept[:boundary] have strictly smaller width
    current_width = by_size[0][0]
    absorbed_any = False
    for width, mask in by_size:
        if width > current_width:
            boundary = len(kept)
            current_width = width
        absorbed = False
        for index in range(boundary):
            other = kept[index]
            if other & mask == other:
                absorbed = True
                break
        if absorbed:
            absorbed_any = True
        else:
            kept.append(mask)
    if not absorbed_any:
        return None
    return kept


def component_groups(masks: Sequence[int]) -> List[List[int]]:
    """Partition ascending clause masks into variable-connected components.

    Support-merge scan: each component carries the OR of its clauses, so
    the membership test per clause is one AND per live component.  The
    clause count times the (typically tiny) component count beats a
    per-bit union-find because every step is a single machine-word
    operation.  Components come back in first-clause order.

    ``masks`` must be ascending (the kernel invariant); every returned
    group is ascending too, so callers may hand groups to
    ``DNF._from_kernel(..., normalized=True)``.  A clause that bridges
    two earlier components folds the later one into the earlier, which
    interleaves mask values -- those (rare) groups are re-sorted before
    returning.
    """
    if len(masks) <= 1:
        return [list(masks)] if masks else []
    supports: List[int] = []
    groups: List[List[int]] = []
    merged: set = set()
    for mask in masks:
        hit = -1
        for index in range(len(supports)):
            support = supports[index]
            if support & mask:
                if hit < 0:
                    supports[index] = support | mask
                    groups[index].append(mask)
                    hit = index
                else:
                    # The clause bridges two components: fold the later
                    # one into the earlier (first-clause order wins).
                    supports[hit] |= support
                    groups[hit].extend(groups[index])
                    supports[index] = 0
                    groups[index] = []
                    merged.add(hit)
        if hit < 0:
            supports.append(mask)
            groups.append([mask])
    if merged:
        for index in merged:
            groups[index].sort()
    return [group for group in groups if group]


class BitsetKernel:
    """Dense bitmask form of one positive DNF (see the module docstring)."""

    __slots__ = ("order", "masks", "support", "_occurrence", "_index")

    def __init__(self, order: Tuple[int, ...], masks: Tuple[int, ...],
                 support: Optional[int] = None) -> None:
        self.order = order
        self.masks = masks
        if support is None:
            support = 0
            for mask in masks:
                support |= mask
        self.support = support
        self._occurrence: Optional[Dict[int, int]] = None
        self._index: Optional[Dict[int, int]] = None

    @classmethod
    def from_clauses(cls, clauses, order: Tuple[int, ...]) -> "BitsetKernel":
        """Build a kernel from frozenset clauses over the sorted domain."""
        index = {variable: position for position, variable in enumerate(order)}
        masks = set()
        for clause in clauses:
            mask = 0
            for variable in clause:
                mask |= 1 << index[variable]
            masks.add(mask)
        return cls(order, tuple(sorted(masks)))

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #

    def index(self) -> Dict[int, int]:
        """Variable -> bit position map (built once on demand)."""
        index = self._index
        if index is None:
            index = {variable: position
                     for position, variable in enumerate(self.order)}
            self._index = index
        return index

    def position_of(self, variable: int) -> int:
        """Bit position of ``variable``, or -1 when not in the order.

        Binary search on the sorted order: no per-kernel dict to build
        for the one-shot lookups of the cofactor path.
        """
        order = self.order
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if order[mid] < variable:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(order) and order[lo] == variable:
            return lo
        return -1

    def occurrence(self) -> Dict[int, int]:
        """Per-variable occurrence index: bit position -> clause-index mask.

        Built once and cached on the kernel; powers popcount-based
        frequency counting without rescanning every clause per query.
        """
        occurrence = self._occurrence
        if occurrence is None:
            occurrence = {}
            index_bit = 1
            for mask in self.masks:
                while mask:
                    low = mask & -mask
                    mask ^= low
                    position = low.bit_length() - 1
                    occurrence[position] = occurrence.get(position,
                                                          0) | index_bit
                index_bit <<= 1
            self._occurrence = occurrence
        return occurrence

    def variables(self) -> frozenset:
        """Occurring variables (the support mapped back to variable ids)."""
        order = self.order
        found = []
        support = self.support
        while support:
            low = support & -support
            support ^= low
            found.append(order[low.bit_length() - 1])
        return frozenset(found)

    def frequencies(self) -> Dict[int, int]:
        """Map each occurring variable to its clause count (occurrence popcounts)."""
        order = self.order
        return {
            order[position]: _POPCOUNT(indices)
            for position, indices in self.occurrence().items()
        }

    def clause_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Deterministic clause list: sorted tuples of sorted variable ids."""
        order = self.order
        out = []
        for mask in self.masks:
            clause = []
            while mask:
                low = mask & -mask
                mask ^= low
                clause.append(order[low.bit_length() - 1])
            out.append(tuple(clause))
        return tuple(sorted(out))

    def common_mask(self) -> int:
        """AND of all clause masks (variables occurring in every clause)."""
        masks = self.masks
        if not masks:
            return 0
        common = masks[0]
        for mask in masks[1:]:
            common &= mask
            if not common:
                break
        return common

    def variables_of_mask(self, mask: int) -> frozenset:
        """Map a position mask back to variable ids."""
        order = self.order
        found = []
        while mask:
            low = mask & -mask
            mask ^= low
            found.append(order[low.bit_length() - 1])
        return frozenset(found)


__all__ = [
    "BitsetKernel",
    "absorb_masks",
    "component_groups",
    "iter_bits",
    "popcount",
    "project_mask",
    "projection_table",
]
