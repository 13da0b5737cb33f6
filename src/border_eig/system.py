"""Border-form algebraic systems: one relation per border index.

A system expresses every border monomial as a linear combination of the
basis monomials, x^alpha = sum_beta a[alpha, beta] x^beta.  Coefficients
live in C (doubles for each part); real inputs are embedded with zero
imaginary part.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import SchemaError
from .indexsets import (
    ADMISSION_BUDGET,
    BorderSet,
    LowerSet,
    _as_int,
    border,
    index_set_from_json,
)

if TYPE_CHECKING:
    from .interp import PoisednessReport

_INDENT = "  "  # the writer's indent=2


@dataclass
class BorderSystem:
    """Coefficients of the border relations over a lower set.

    J is border(I).  coeffs[r] is the length-#I coefficient row of the
    relation indexed by J.members[r], entries following the canonical
    order of I, so [Id; coeffs] holds the normal forms of the monomial
    stack J.stack, I followed by J.  A system synthesized from nodes
    carries the poisedness report of its Vandermonde matrix.
    """

    I: LowerSet
    J: BorderSet
    coeffs: np.ndarray = field(repr=False)
    poisedness: PoisednessReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.J.lower != self.I:
            raise ValueError("J is not the border of I")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (len(self.J), len(self.I)):
            raise ValueError(
                f"coefficient block has shape {self.coeffs.shape}, "
                f"expected ({len(self.J)}, {len(self.I)})"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite coefficient")

    @property
    def dimension(self):
        return self.I.dimension


def monomial_eval(beta, z):
    """Monomials z^beta for a batch of exponent vectors and a batch of points.

    beta is one exponent vector (n,) or a stack of them (k, n); z is one
    point (n,) or a stack of points (p, n).  The result is the (p, k)
    complex matrix out[s, r] = prod_i z[s, i] ** beta[r, i]; a 1-D beta
    drops the k axis and a 1-D z drops the p axis, so a 1-D beta with a 1-D
    z gives a complex scalar.  Values come from a table of powers z_i^d,
    d = 0..max(beta), built by repeated multiplication and indexed by the
    exponent columns; the empty product and 0^0 are 1.
    """
    E = np.asarray(beta, dtype=np.intp)
    Z = np.asarray(z, dtype=complex)
    E2, Z2 = np.atleast_2d(E), np.atleast_2d(Z)
    p, n = Z2.shape
    if E2.shape[1] != n:
        raise ValueError(f"exponents of length {E2.shape[1]} for points of dimension {n}")
    powers = np.empty((p, n, int(E2.max(initial=0)) + 1), dtype=complex)
    powers[..., 0] = 1.0
    for d in range(1, powers.shape[2]):
        powers[..., d] = powers[..., d - 1] * Z2
    # coordinates multiplied left to right, so a point's values do not
    # depend on the batch it is evaluated in
    out = powers[:, 0, E2[:, 0]]  # (p, k)
    for i in range(1, n):
        out = out * powers[:, i, E2[:, i]]
    if E.ndim == 1:
        out = out[:, 0]
    if Z.ndim == 1:
        out = out[0]
    return complex(out) if out.ndim == 0 else out


def relation_values(sys: BorderSystem, z):
    """The monomial stack (BorderSet.stack) and the relations at z: the
    values z^alpha over I followed by J, and P_alpha(z) over J.

    (#I + #J,) and (#J,) at one point, (p, #I + #J) and (p, #J) at (p, n)
    points, from one monomial_eval call.
    """
    values = monomial_eval(sys.J.stack, z)
    size = len(sys.I)
    return values, values[..., size:] - values[..., :size] @ sys.coeffs.T


def relation_jacobian(sys: BorderSystem, values: np.ndarray) -> np.ndarray:
    """dP_alpha/dz_j, (#J, n), at one point with stack values `values`
    (relation_values).

    d z^alpha / d z_j = alpha_j z^(alpha - e_j) is a gather of the values
    through BorderSet.down; row 0 (the monomial 1) stands where alpha_j = 0.
    """
    g = values[sys.J.down] * sys.J.stack.T  # (n, #I + #J) gradients
    size = len(sys.I)
    return g[:, size:].T - sys.coeffs @ g[:, :size].T


def residual(sys: BorderSystem, z):
    """Relative residual: max_alpha |P_alpha(z)| / max(1, max_beta |z^beta|).

    The scaling keeps the measure meaningful for roots of large magnitude.
    A float for one point; an array of p residuals for (p, n) points.
    """
    return _residual(sys, *relation_values(sys, z))


def _residual(sys: BorderSystem, values, relations):
    """residual from relation_values' output."""
    basis = values[..., :len(sys.I)]
    out = np.max(np.abs(relations), axis=-1) / np.maximum(1.0, np.max(np.abs(basis), axis=-1))
    return float(out) if out.ndim == 0 else out


def _as_complex(value, path):
    """Accept [re, im] or a bare real number, every part finite."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value, 0]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise SchemaError(f"expected a number or [re, im], got {value!r}", path)
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an integer beyond the float range
        z = complex(cmath.inf)
    if not cmath.isfinite(z):
        raise SchemaError(f"non-finite number {value!r}", path)
    return z


def _complex_rows(rows, row_path, width) -> np.ndarray:
    """The (len(rows), width) complex array of rows of `width` entries each,
    every entry read as _as_complex reads it.

    When every entry is an int or a float, or a [re, im] pair of them (rows
    may mix the two), the numbers, flattened, convert with one np.fromiter
    call; the types are checked before it and finiteness after it, before
    any complex value is formed.  The [re, im] pairs are viewed as complex
    numbers and bare reals take a +0.0 imaginary part, so signed zeros
    survive.  Otherwise the entries go one by one through _as_complex,
    which names the first failing one as row_path.format(row) + [column].
    """
    flat = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, flat))
    pairs = not kinds <= {int, float}  # type, not isinstance: no bools
    if pairs:
        if kinds != {list}:  # bare numbers among the pairs
            flat = [c if type(c) is list else [c, 0] for c in flat]
        parts = itertools.chain.from_iterable(flat)
        if set(map(len, flat)) != {2} or not set(map(type, parts)) <= {int, float}:
            flat = None
    values = None
    if flat is not None:
        numbers = itertools.chain.from_iterable(flat) if pairs else flat
        try:
            values = np.fromiter(numbers, dtype=float, count=len(flat) * (1 + pairs))
        except OverflowError:  # an integer beyond the float range
            pass
    if values is None or not np.isfinite(values).all():
        values = [
            [_as_complex(c, f"{row_path.format(r)}[{j}]") for j, c in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        return np.array(values, dtype=complex).reshape(len(rows), width)
    out = values.view(complex) if pairs else values.astype(complex)
    return out.reshape(len(rows), width)


def _plain_alphas(relations) -> bool:
    """True when every relation is an object whose "alpha" is an array of
    ints >= 0: one type pass and one sign pass over all the entries."""
    alphas = [rel.get("alpha") if type(rel) is dict else None for rel in relations]
    if not set(map(type, alphas)) <= {list}:
        return False
    entries = list(itertools.chain.from_iterable(alphas))
    return set(map(type, entries)) <= {int} and min(entries, default=0) >= 0


def system_from_json(obj) -> BorderSystem:
    """Build a BorderSystem from its parsed JSON object.

    An optional "basis" must list I's members in canonical order, the order
    every coefficient row follows.  The exponents of all relations are
    checked in one pass (`_plain_alphas`), and every relation is checked
    before the coefficient block is read, with one array call
    (`_complex_rows`).
    """
    if not isinstance(obj, dict):
        raise SchemaError("system must be a JSON object")
    if "index_set" not in obj:
        raise SchemaError("missing field", "index_set")
    I = index_set_from_json(obj["index_set"])
    if "basis" in obj and obj["basis"] != [list(b) for b in I.members]:
        raise SchemaError("must list the members of I in canonical order", "basis")
    J = border(I)
    relations = obj.get("relations")
    if not isinstance(relations, list):
        raise SchemaError("missing or non-array field", "relations")
    plain = _plain_alphas(relations)  # else each entry is checked, to name a failing one
    rows, positions, seen = [], [], set()
    for k, rel in enumerate(relations):
        path = f"relations[{k}]"
        if not isinstance(rel, dict) or "alpha" not in rel or "coeffs" not in rel:
            raise SchemaError("each relation needs 'alpha' and 'coeffs'", path)
        if not isinstance(rel["alpha"], list):
            raise SchemaError(f"expected an array, got {rel['alpha']!r}", f"{path}.alpha")
        alpha = tuple(rel["alpha"] if plain else
                      (_as_int(a, f"{path}.alpha[{j}]") for j, a in enumerate(rel["alpha"])))
        if alpha in I:
            raise SchemaError(f"alpha {list(alpha)} inside I", f"{path}.alpha")
        if alpha not in J:
            raise SchemaError(
                f"alpha {list(alpha)} is not in the border of I", f"{path}.alpha"
            )
        if alpha in seen:
            raise SchemaError(f"duplicate relation for alpha {list(alpha)}", path)
        seen.add(alpha)
        row = rel["coeffs"]
        if not isinstance(row, list) or len(row) != len(I):
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise SchemaError(
                f"coefficient row has length {got}, expected {len(I)}", f"{path}.coeffs"
            )
        rows.append(row)
        positions.append(J.position[alpha])
    coeffs = np.zeros((len(J), len(I)), dtype=complex)
    coeffs[positions] = _complex_rows(rows, "relations[{}].coeffs", len(I))
    missing = [a for a in J.members if a not in seen]
    if missing:
        first = [list(a) for a in missing[:3]]  # the whole list can run to megabytes
        raise SchemaError(
            f"missing relations for {len(missing)} of {len(J)} border indices, "
            f"first {first}",
            "relations",
        )
    return BorderSystem(I, J, coeffs)


def _load_json(text):
    """json.loads; text that is not JSON, or bytes that do not decode, raise SchemaError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"invalid JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class RowGather:
    """The array rows[index], for `dumps` to write without forming it.

    rows has at least one axis and index holds integers; each row of rows
    is formatted once however often index names it, and its text is held
    only until its last use.
    """

    rows: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Records:
    """A list of dicts with the same keys, held as one array per key.

    columns maps each key, in output order, to an array whose first axis
    runs over the records; there is at least one key, and every column has
    the same length.  Record k is {key: column[k]}, a Python scalar for a
    1-D column and an array otherwise.  Iterating gives those dicts;
    `dumps` writes the list without forming them.
    """

    columns: dict[str, np.ndarray]

    def __len__(self):
        return len(next(iter(self.columns.values())))

    def __iter__(self):
        for k in range(len(self)):
            yield {key: col[k] if col.ndim > 1 else col[k].item()
                   for key, col in self.columns.items()}


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, with numpy arrays as JSON arrays.

    A complex array is written as nested [re, im] pairs and a real one as
    numbers, that is as json would write the array's list form; a RowGather
    is written as the array it stands for and a Records as its list of
    dicts.  Dict keys must be strings.
    """
    return "".join(_chunks(obj, 0))


def dump(obj, fp):
    """Write dumps(obj) to the text stream fp a chunk at a time.

    Arrays are formatted and written in blocks of about _BLOCK numbers;
    beyond one block, the writer holds as text only the rows of a RowGather
    that it has still to write again.
    """
    for chunk in _chunks(obj, 0):
        fp.write(chunk)


# The writer formats and writes arrays in blocks of about this many numbers
# (an [re, im] pair counts once), so the text it holds at once is a small
# fraction of the largest output admission allows, n * #I^2 <= ADMISSION_BUDGET
# numbers, while a block is still large enough that its per-block work is
# negligible.
_BLOCK = ADMISSION_BUDGET // 256


def _chunks(obj, level):
    """The text of obj whose opening line is indented level steps, as a
    sequence of strings (json's order of checks)."""
    if isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, float):
        if math.isfinite(obj):
            yield float.__repr__(obj)
        else:
            yield "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    elif isinstance(obj, np.ndarray):
        if obj.ndim:
            yield from _gather_chunks(obj, np.arange(len(obj)), level)
        else:
            yield from _item_texts(obj[np.newaxis], level)
    elif isinstance(obj, RowGather):
        yield from _gather_chunks(obj.rows, obj.index, level)
    elif isinstance(obj, Records):
        yield from _records_chunks(obj, level)
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            yield "{}" if isinstance(obj, dict) else "[]"
            return
        inner = "\n" + _INDENT * (level + 1)
        if isinstance(obj, dict):  # a key that is not a str raises TypeError
            yield "{"
            for k, (key, value) in enumerate(obj.items()):
                yield ("," if k else "") + inner + encode_basestring_ascii(key) + ": "
                yield from _chunks(value, level + 1)
            yield "\n" + _INDENT * level + "}"
        else:
            yield "["
            for k, value in enumerate(obj):
                yield ("," if k else "") + inner
                yield from _chunks(value, level + 1)
            yield "\n" + _INDENT * level + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _separators(shape, level) -> list[str]:
    """The text around the N = prod(shape) numbers of an array of shape
    `shape` whose opening line is indented level steps: N + 1 strings, the
    k-th written before number k and the last after the last number.

    Before number k > 0 the c innermost axes close and reopen, where c
    counts the axes j >= 1 with prod(shape[j:]) dividing k; so every
    separator is one of len(shape) texts, indexed by c.
    """
    ndim = len(shape)
    opens = ["[\n" + _INDENT * (level + j + 1) for j in range(ndim)]
    closes = ["\n" + _INDENT * (level + j) + "]" for j in range(ndim)]
    between = np.array(["".join(closes[ndim - c:][::-1]) + ",\n" + _INDENT * (level + ndim - c)
                        + "".join(opens[ndim - c:]) for c in range(ndim)], dtype=object)
    k = np.arange(1, math.prod(shape))
    wraps = np.zeros(len(k), dtype=np.intp)
    for j in range(1, ndim):
        wraps += k % math.prod(shape[j:]) == 0
    return ["".join(opens), *between[wraps].tolist(), "".join(closes[::-1])]


def _joined(separators, texts) -> list[str]:
    """One string per row of texts (B, N): separators[0] + texts[r, 0] +
    separators[1] + ... + texts[r, N - 1], then separators[N] if there are
    N + 1 separators."""
    parts = np.empty((len(texts), len(separators) + texts.shape[1]), dtype=object)
    parts[:, ::2] = separators
    parts[:, 1::2] = texts
    return list(map("".join, parts.tolist()))


def _item_texts(a: np.ndarray, depth) -> list[str]:
    """The texts of the items of a along its first axis, each as json writes
    its list form at depth (complex entries as [re, im] lists).

    Float, int and bool items with no empty axis, every float finite, are
    woven from the separators of the item shape and the texts of the
    numbers (`_number_texts`), one join per item.  Other items go through
    _chunks, which keeps json's spelling of NaN and Infinity.
    """
    a = _as_pairs(a)
    if not len(a):
        return []
    if (a.dtype.kind not in "fib" or 0 in a.shape[1:]
            or (a.dtype.kind == "f" and not np.isfinite(a).all())):
        return ["".join(_chunks(x, depth)) for x in a.tolist()]
    return _joined(_separators(a.shape[1:], depth), _number_texts(a).reshape(len(a), -1))


def _number_texts(a: np.ndarray) -> np.ndarray:
    """The json texts of the finite float, int or bool numbers of a, as a
    flat object array in C order.  Float zeros take "0.0" or "-0.0" by their
    sign bit; only the nonzero floats are formatted, with float.__repr__."""
    flat = a.ravel()
    out = np.empty(flat.size, dtype=object)
    if a.dtype.kind == "f":
        out[...] = "0.0"
        out[np.signbit(flat)] = "-0.0"
        nonzero = np.flatnonzero(flat)
        out[nonzero] = list(map(float.__repr__, flat[nonzero].tolist()))
    elif a.dtype.kind == "b":
        out[...] = "false"
        out[flat] = "true"
    else:
        out[...] = list(map(int.__repr__, flat.tolist()))
    return out


def _gather_chunks(rows: np.ndarray, index: np.ndarray, level):
    """rows[index] as _chunks would write that array, without forming it:
    one chunk per block of about _BLOCK numbers, then the closing brackets.

    Each row of rows is formatted when a block first needs it, at the depth
    where a row of the gathered array sits, and its text is dropped after
    its last use; the row texts are woven with the separators of
    index.shape.
    """
    if 0 in index.shape:
        yield from _chunks(_as_pairs(rows[index]).tolist(), level)
        return
    flat = index.ravel() % len(rows)  # negative indices count from the end
    separators = _separators(index.shape, level)
    uses = np.bincount(flat, minlength=len(rows))
    texts = np.empty(len(rows), dtype=object)
    formatted = np.zeros(len(rows), dtype=bool)
    step = max(1, _BLOCK // max(1, rows[0].size))
    for start in range(0, len(flat), step):
        block = flat[start:start + step]
        new = np.unique(block[~formatted[block]])
        texts[new] = _item_texts(rows[new], level + index.ndim)
        formatted[new] = True
        yield _joined(separators[start:start + len(block)], texts[block][np.newaxis])[0]
        uses -= np.bincount(block, minlength=len(rows))
        texts[uses == 0] = None
    yield separators[-1]


def _records_chunks(r: Records, level):
    """The list of r's dicts as _chunks would write it, without forming
    them: one chunk per block of about _BLOCK numbers, each record woven
    from the keys and the item texts of every column."""
    if not len(r):
        yield "[]"
        return
    inner = "\n" + _INDENT * (level + 2)
    keys = [encode_basestring_ascii(k) + ": " for k in r.columns]
    fields = ["{" + inner + keys[0], *["," + inner + key for key in keys[1:]],
              "\n" + _INDENT * (level + 1) + "}"]
    separators = _separators((len(r),), level)
    width = sum(math.prod(col.shape[1:]) for col in r.columns.values())
    step = max(1, _BLOCK // max(1, width))
    for start in range(0, len(r), step):
        columns = [_item_texts(col[start:start + step], level + 2) for col in r.columns.values()]
        texts = np.array(_joined(fields, np.array(columns, dtype=object).T), dtype=object)
        yield _joined(separators[start:start + len(texts)], texts[np.newaxis])[0]
    yield separators[-1]


def _as_pairs(a: np.ndarray) -> np.ndarray:
    """A complex array as a float array with a trailing [re, im] axis; others as they are."""
    return np.stack([a.real, a.imag], axis=-1) if a.dtype.kind == "c" else a


def parse_system(text) -> BorderSystem:
    """Parse a system from JSON text or bytes."""
    return system_from_json(_load_json(text))


def system_to_json(sys: BorderSystem) -> dict:
    """JSON object for a system, for `dumps`: the basis as I's exponent
    array, and the relations as Records of J's exponents and the complex
    coefficient rows, written as [re, im] pairs."""
    return {
        "index_set": sys.I.to_json(),
        "basis": sys.I.exponents,
        "relations": Records({"alpha": sys.J.exponents, "coeffs": sys.coeffs}),
    }
