"""Sparse linear algebra over Z2: chains, and a growing column span that
answers membership and expresses a vector over its columns.

Vectors are arbitrary-precision integers used as bitmasks (bit i set means
row i is nonzero). Addition over Z2 is XOR; the lowest-one of a column (its
largest nonzero row index) is ``bit_length() - 1``. A matrix is a list of
column masks, as ``complexes.boundary_columns`` returns; a ``ChainVector``
is a mask with its ambient size, built from and reported as a strictly
increasing list of row indices.

All functions here are pure: inputs are never mutated and no module state is
shared.
"""
from __future__ import annotations

from typing import Iterable, Optional


def _mask_from_support(support: Iterable[int], n_rows: int) -> int:
    mask = 0
    last = -1
    for i in support:
        if i <= last:
            raise ValueError("support must be strictly increasing")
        if i < 0 or i >= n_rows:
            raise ValueError(f"row index {i} out of range [0, {n_rows})")
        mask |= 1 << i
        last = i
    return mask


def _support_from_mask(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ChainVector:
    """A Z2 vector in a fixed ambient basis of size ``ambient_size``."""

    __slots__ = ("ambient_size", "mask")

    def __init__(self, ambient_size: int, support: Iterable[int] = (), *, mask: Optional[int] = None):
        self.ambient_size = int(ambient_size)
        if mask is not None:
            if mask < 0 or mask >> self.ambient_size:
                raise ValueError("mask exceeds ambient size")
            self.mask = mask
        else:
            self.mask = _mask_from_support(support, self.ambient_size)

    @property
    def support(self) -> list[int]:
        return _support_from_mask(self.mask)

    def is_zero(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, index: int) -> bool:
        return index >= 0 and bool((self.mask >> index) & 1)

    def __xor__(self, other: "ChainVector") -> "ChainVector":
        if self.ambient_size != other.ambient_size:
            raise ValueError("ambient sizes differ")
        return ChainVector(self.ambient_size, mask=self.mask ^ other.mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChainVector)
            and self.ambient_size == other.ambient_size
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.ambient_size, self.mask))

    def __repr__(self) -> str:
        return f"ChainVector({self.ambient_size}, {self.support})"


class IncrementalSpan:
    """Growing column space with O(cols) membership insertion: kept reduced
    so each stored column has a distinct lowest-one row. Columns and vectors
    are masks over n_rows rows. Each added column may carry a tag mask that
    is summed along with it, so ``reduce`` can say which added columns a
    vector is the sum of. A span built on a base reads the base's columns,
    which must not change meanwhile, and stores only its own."""

    def __init__(self, n_rows: int, masks: Iterable[int] = (), base: Optional["IncrementalSpan"] = None):
        if base is not None and (base._base or base.n_rows != n_rows):
            raise ValueError("a base must have the same rows and store every column it reads")
        self.n_rows = n_rows
        self._base = {} if base is None else base._by_low  # read, never written
        self._by_low: dict[int, tuple[int, int]] = {}  # low row -> (mask, tag)
        for mask in masks:
            self.add(mask)

    @property
    def rank(self) -> int:
        return len(self._base) + len(self._by_low)

    def reduce(self, mask: int, tag: int = 0) -> tuple[int, int]:
        """The vector's remainder against the span, and the tag plus the tags
        of the stored columns taken off it. The vector is reduced by the
        stored columns' lowest-one rows, as a left-to-right reduction of the
        added columns followed by the vector would reduce it; with remainder
        0, the tag is the sum of the tags of added columns that sum to the
        vector, the combination that reduction finds."""
        if mask < 0 or mask >> self.n_rows:
            raise ValueError("mask exceeds the row count")
        while mask:
            low = mask.bit_length() - 1
            stored = self._base.get(low) or self._by_low.get(low)
            if stored is None:
                break
            mask ^= stored[0]
            tag ^= stored[1]
        return mask, tag

    def contains(self, mask: int) -> bool:
        return self.reduce(mask)[0] == 0

    def add(self, mask: int, tag: int = 0) -> bool:
        """Insert the column with its tag; True when it enlarged the span."""
        mask, tag = self.reduce(mask, tag)
        if mask == 0:
            return False
        self._by_low[mask.bit_length() - 1] = (mask, tag)
        return True
