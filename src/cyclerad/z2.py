"""Sparse linear algebra over Z2: chains, column matrices, and a growing
column span that answers membership and expresses a vector over its
columns.

Columns are stored as arbitrary-precision integers used as bitmasks (bit i set
means row i is nonzero). Addition over Z2 is XOR; the lowest-one of a column
(its largest nonzero row index) is ``bit_length() - 1``. Externally every
column is built from and reported as a strictly increasing list of row indices.

All functions here are pure: inputs are never mutated and no module state is
shared.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional


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
        return bool((self.mask >> index) & 1)

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


class Z2Matrix:
    """A Z2 matrix held column-wise."""

    __slots__ = ("n_rows", "_cols")

    def __init__(self, n_rows: int, column_masks: Iterable[int] = ()):
        self.n_rows = int(n_rows)
        self._cols = list(column_masks)
        limit = 1 << self.n_rows
        for mask in self._cols:
            if mask < 0 or mask >= limit:
                raise ValueError("column mask exceeds row count")

    @classmethod
    def from_columns(cls, n_rows: int, supports: Iterable[Iterable[int]]) -> "Z2Matrix":
        return cls(n_rows, (_mask_from_support(s, n_rows) for s in supports))

    @classmethod
    def from_chains(cls, n_rows: int, chains: Iterable[ChainVector]) -> "Z2Matrix":
        masks = []
        for c in chains:
            if c.ambient_size != n_rows:
                raise ValueError("chain ambient size must equal the row count")
            masks.append(c.mask)
        return cls(n_rows, masks)

    @property
    def n_cols(self) -> int:
        return len(self._cols)

    def column_mask(self, j: int) -> int:
        return self._cols[j]

    def column(self, j: int) -> ChainVector:
        return ChainVector(self.n_rows, mask=self._cols[j])

    def column_support(self, j: int) -> list[int]:
        return _support_from_mask(self._cols[j])

    def columns(self) -> Iterator[ChainVector]:
        for mask in self._cols:
            yield ChainVector(self.n_rows, mask=mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Z2Matrix)
            and self.n_rows == other.n_rows
            and self._cols == other._cols
        )

    def __repr__(self) -> str:
        return f"Z2Matrix({self.n_rows}x{self.n_cols})"


class IncrementalSpan:
    """Growing column space with O(cols) membership insertion: kept reduced
    so each stored column has a distinct lowest-one row. Each added column
    may carry a tag mask that is summed along with it, so ``express`` can say
    which added columns a vector is the sum of."""

    def __init__(self, n_rows: int, columns: Iterable[ChainVector] = ()):
        self.n_rows = n_rows
        self._by_low: dict[int, tuple[int, int]] = {}  # low row -> (mask, tag)
        for c in columns:
            self.add(c)

    @property
    def rank(self) -> int:
        return len(self._by_low)

    def copy(self) -> "IncrementalSpan":
        out = IncrementalSpan(self.n_rows)
        out._by_low = dict(self._by_low)
        return out

    def truncate(self, rank: int) -> None:
        """Drop the columns inserted after the span reached this rank. ``add``
        only ever inserts, so what stays is the span of the earlier adds."""
        while len(self._by_low) > rank:
            self._by_low.popitem()

    def reduce(self, vector: ChainVector, tag: int = 0) -> tuple[int, int]:
        """The vector's remainder against the span, and the tag plus the tags
        of the stored columns taken off it."""
        if vector.ambient_size != self.n_rows:
            raise ValueError("vector ambient size must equal the row count")
        mask = vector.mask
        while mask:
            stored = self._by_low.get(mask.bit_length() - 1)
            if stored is None:
                break
            mask ^= stored[0]
            tag ^= stored[1]
        return mask, tag

    def contains(self, vector: ChainVector) -> bool:
        return self.reduce(vector)[0] == 0

    def add(self, vector: ChainVector, tag: int = 0) -> bool:
        """Insert the vector with its tag; True when it enlarged the span."""
        mask, tag = self.reduce(vector, tag)
        if mask == 0:
            return False
        self._by_low[mask.bit_length() - 1] = (mask, tag)
        return True

    def express(self, vector: ChainVector) -> Optional[int]:
        """The sum of the tags of added columns that sum to the vector, or
        None when the vector lies outside the span. The vector is reduced
        against the stored columns by their lowest-one rows, as a
        left-to-right reduction of the added columns followed by the vector
        would reduce it, so the combination is the one that reduction finds."""
        mask, tag = self.reduce(vector)
        return None if mask else tag
