"""Multi-indices, lower sets and their borders.

A multi-index is a tuple of nonnegative integers (an exponent vector).
A lower set is a finite, downward-closed collection of multi-indices kept
in graded lexicographic order: sort by total degree first, ties in
descending tuple order, so that a larger first coordinate comes earlier.
This fixed order gives every matrix built on top of an index set a
deterministic row/column layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LowerSetError, SchemaError, SizeLimitError

MultiIndex = tuple[int, ...]

# Admission: an index set is admitted when n * #I * (#I + n) <= ADMISSION_BUDGET.
# That counts the n * #I^2 entries of the multiplication matrices -- written
# out by the matrices command and otherwise gathered a few #I x #I matrices at
# a time, never held together -- plus an upper bound on the border's exponent
# rows (at most n * #I members of length n).  The largest arrays held, the
# normal forms [Id; coeffs] and [V; coeffs @ V], have (#I + #J) * #I entries,
# at most (n + 1) * #I^2.  Refinement holds the stack's monomial values at
# the #I roots, (#I + #J) * #I entries again, and one root's relation
# Jacobian at a time: its n * (#I + #J) gradient entries, within
# n * #I * (1 + n), and the #J * n result.
ADMISSION_BUDGET = 2**22


def _as_int(value, path, minimum=0) -> int:
    """A JSON integer >= minimum; bools, floats and strings raise SchemaError at path."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(f"expected an integer >= {minimum}, got {value!r}", path)
    return value


def add_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha + e_i (0-based coordinate)."""
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def sub_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha - e_i (0-based coordinate); caller ensures alpha[i] > 0."""
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


def _canonical(members) -> list[MultiIndex]:
    """The multi-indices in canonical order: a stable sort by total degree
    of the descending tuple order."""
    ordered = sorted(members, reverse=True)
    ordered.sort(key=sum)
    return ordered


@dataclass
class _IndexedSet:
    """Multi-indices in canonical order; position maps each member to its index."""

    dimension: int
    members: list[MultiIndex]
    position: dict[MultiIndex, int] = field(repr=False)

    def __len__(self):
        return len(self.members)

    def __contains__(self, alpha):
        return tuple(alpha) in self.position

    def __iter__(self):
        return iter(self.members)

    @functools.cached_property
    def exponents(self) -> np.ndarray:
        """The members as a read-only (len, n) integer array, canonical order."""
        E = np.array(self.members, dtype=np.intp).reshape(len(self), self.dimension)
        E.flags.writeable = False
        return E


class LowerSet(_IndexedSet):
    """A downward-closed set of multi-indices in canonical (graded lex) order."""

    def __eq__(self, other):
        if not isinstance(other, LowerSet):
            return NotImplemented
        return self.dimension == other.dimension and self.members == other.members

    def max_degree(self) -> int:
        return max(map(sum, self.members))

    def is_total_degree(self) -> bool:
        """True when the set equals {alpha : |alpha| <= m} for its max degree m."""
        m = self.max_degree()
        return len(self) == math.comb(self.dimension + m, self.dimension)

    def to_json(self) -> dict:
        if self.is_total_degree():
            return {"type": "total_degree", "n": self.dimension, "m": self.max_degree()}
        return {
            "type": "explicit",
            "n": self.dimension,
            "indices": [list(a) for a in self.members],
        }


@dataclass
class BorderSet(_IndexedSet):
    """The indices one step outside a lower set, in canonical order.

    The lower set's members followed by the border's are the monomial stack
    of a border system, the row order of its normal forms [Id; coeffs].
    up indexes that stack and is built with the border; stack and down are
    built on first use.
    """

    lower: LowerSet = field(repr=False, compare=False)
    # (n, #I): up[i, r] is the stack row of beta_r + e_i for beta_r in I
    up: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """The stack's exponents, I then J, as a read-only (#I + #J, n) array."""
        E = np.concatenate([self.lower.exponents, self.exponents])
        E.flags.writeable = False
        return E

    @functools.cached_property
    def down(self) -> np.ndarray:
        """(n, #I + #J): down[j, s] is the stack row of alpha_s - e_j, or 0 (the
        monomial 1) where alpha_s[j] = 0.

        alpha - e_j is in the stack whenever alpha_j > 0: in I for alpha in I,
        as I is downward closed; for alpha = beta + e_i in J it is beta (j = i)
        or (beta - e_j) + e_i, which is in I or in J.  Every entry whose
        alpha - e_j is some beta in I is read off `up` (down[j, up[j, r]] = r);
        only the J -> J entries are looked up.
        """
        size = len(self.lower)
        down = np.full((self.dimension, size + len(self)), -1, dtype=np.intp)
        for j, row in enumerate(self.up):
            down[j, row] = np.arange(size)
        for j, s in zip(*np.nonzero((down < 0) & (self.stack.T > 0))):
            down[j, s] = size + self.position[sub_unit(self.members[s - size], j)]
        down[down < 0] = 0
        return down


def _admit(n: int, count: int, exact: bool = True) -> None:
    """Raise SizeLimitError unless n variables and #I = count fit the admission budget.

    With exact false, count is a lower bound on #I.
    """
    estimate = n * count * (count + n)
    if estimate > ADMISSION_BUDGET:
        relation = "=" if exact else ">="
        raise SizeLimitError(
            f"n={n}, #I{relation}{count}: estimated cost n*#I*(#I+n) {relation} {estimate} "
            f"exceeds the admission budget {ADMISSION_BUDGET}"
        )


def total_degree_set(n: int, m: int) -> LowerSet:
    """All multi-indices alpha in Z_+^n with |alpha| <= m, in canonical order.

    Cardinality is binomial(n+m, n), admitted (see ADMISSION_BUDGET) before
    any enumeration.  Each degree slice grows from the one before by adding
    every unit vector; within one degree, canonical order is descending
    tuple order.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("degree must be >= 0")
    # binomial(n+m, n) >= max(n, m) + 1 for m >= 1, equal when n or m is 1.  The
    # bound refuses a huge n or m before the binomial, which takes seconds to
    # form at n = m = 10^6.
    _admit(n, max(n, m) + 1 if m else 1, exact=min(n, m) <= 1)
    _admit(n, math.comb(n + m, n))
    last = [(0,) * n]
    members = list(last)
    for _ in range(m):
        last = sorted({add_unit(a, i) for a in last for i in range(n)}, reverse=True)
        members += last
    return LowerSet(n, members, {a: k for k, a in enumerate(members)})


def validate_lower_set(candidates, n: int) -> LowerSet:
    """Check downward closure and build a LowerSet in canonical order.

    candidates is a sequence, admitted by its length (see ADMISSION_BUDGET)
    before it is read.  Raises LowerSetError on a duplicate or on a missing
    predecessor alpha - e_i, naming the offending indices.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    _admit(n, len(candidates))
    seen = set()
    members = []
    for cand in candidates:
        alpha = tuple(int(a) for a in cand)
        if len(alpha) != n:
            raise LowerSetError(f"index {alpha} has length {len(alpha)}, expected {n}")
        if any(a < 0 for a in alpha):
            raise LowerSetError(f"index {alpha} has a negative entry")
        if alpha in seen:
            raise LowerSetError(f"duplicate index {alpha}")
        seen.add(alpha)
        members.append(alpha)
    for alpha in members:
        for i in reversed(range(n)):
            if alpha[i] > 0 and sub_unit(alpha, i) not in seen:
                raise LowerSetError(
                    f"not downward closed: {alpha} present but {sub_unit(alpha, i)} missing"
                )
    members = _canonical(members)
    return LowerSet(n, members, {a: k for k, a in enumerate(members)})


def border(I: LowerSet) -> BorderSet:
    """The border {beta + e_i : beta in I, beta + e_i not in I}, with its up table.

    Every beta + e_i is listed once: the border is what of that list lies
    outside I, and the list, read as stack rows, is up.  For a total-degree
    set of degree m the border is exactly {alpha : |alpha| = m+1}.
    """
    if len(I) == 0:
        raise ValueError("lower set is empty")
    n, size = I.dimension, len(I)
    shifted = [add_unit(beta, i) for i in range(n) for beta in I.members]
    members = _canonical(set(shifted).difference(I.position))
    position = {a: k for k, a in enumerate(members)}
    row = {**I.position, **{a: size + k for a, k in position.items()}}
    up = np.array([row[a] for a in shifted], dtype=np.intp).reshape(n, size)
    return BorderSet(n, members, position, I, up)


def index_set_from_json(obj) -> LowerSet:
    """Build a LowerSet from its JSON description.

    Accepts {"type": "total_degree", "n": ..., "m": ...} or
    {"type": "explicit", "n": ..., "indices": [[...], ...]}, with n >= 1,
    m >= 0 and every exponent a non-negative JSON integer.
    """
    if not isinstance(obj, dict):
        raise SchemaError("index set must be an object", "index_set")
    kind = obj.get("type")
    if kind == "total_degree":
        n = _as_int(obj.get("n"), "index_set.n", 1)
        m = _as_int(obj.get("m"), "index_set.m")
        return total_degree_set(n, m)
    if kind == "explicit":
        n = _as_int(obj.get("n"), "index_set.n", 1)
        indices = obj.get("indices")
        if not (indices and isinstance(indices, list) and all(isinstance(a, list) for a in indices)):
            raise SchemaError("expected a non-empty array of arrays", "index_set.indices")
        for k, alpha in enumerate(indices):
            for j, a in enumerate(alpha):
                _as_int(a, f"index_set.indices[{k}][{j}]")
        try:
            return validate_lower_set(indices, n)
        except LowerSetError as exc:
            raise SchemaError(str(exc), "index_set.indices") from exc
    raise SchemaError(f"unknown index set type {kind!r}", "index_set.type")
