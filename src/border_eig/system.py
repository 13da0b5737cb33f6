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
from .indexsets import BorderSet, LowerSet, _as_int, border, index_set_from_json

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
    may mix the two), the whole block converts with one float-array call;
    the types are checked before it and finiteness after it, before any
    complex value is formed.  The real and imaginary columns are assigned
    separately, so signed zeros survive.  Otherwise the entries go one by
    one through _as_complex, which names the first failing one as
    row_path.format(row) + [column].
    """
    flat = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if not kinds <= {int, float}:  # type, not isinstance: no bools
        if kinds != {list}:  # bare numbers among the pairs
            flat = [c if type(c) is list else [c, 0] for c in flat]
        parts = itertools.chain.from_iterable(flat)
        if set(map(len, flat)) != {2} or not set(map(type, parts)) <= {int, float}:
            flat = None
    try:
        values = None if flat is None else np.array(flat, dtype=float)
    except OverflowError:  # an integer beyond the float range
        values = None
    if values is None or not np.isfinite(values).all():
        values = [
            [_as_complex(c, f"{row_path.format(r)}[{j}]") for j, c in enumerate(row)]
            for r, row in enumerate(rows)
        ]
        return np.array(values, dtype=complex).reshape(len(rows), width)
    out = np.zeros(len(values), dtype=complex)
    if values.ndim == 2:
        out.real, out.imag = values.T
    else:
        out.real = values
    return out.reshape(len(rows), width)


def system_from_json(obj) -> BorderSystem:
    """Build a BorderSystem from its parsed JSON object.

    An optional "basis" must list I's members in canonical order, the order
    every coefficient row follows.  Every relation is checked before the
    coefficient block is read, with one array call (`_complex_rows`).
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
    rows, positions, seen = [], [], set()
    for k, rel in enumerate(relations):
        path = f"relations[{k}]"
        if not isinstance(rel, dict) or "alpha" not in rel or "coeffs" not in rel:
            raise SchemaError("each relation needs 'alpha' and 'coeffs'", path)
        if not isinstance(rel["alpha"], list):
            raise SchemaError(f"expected an array, got {rel['alpha']!r}", f"{path}.alpha")
        alpha = tuple(_as_int(a, f"{path}.alpha[{j}]") for j, a in enumerate(rel["alpha"]))
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
    is formatted once however often index names it.
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
    return _encode(obj, 0)


def _encode(obj, level):
    """The text of obj whose opening line is indented level steps (json's order of checks)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, np.ndarray):
        return _item_texts(obj[np.newaxis], level)[0]
    if isinstance(obj, RowGather):
        return _encode_gather(obj, level)
    if isinstance(obj, Records):
        return _encode_records(obj, level)
    if isinstance(obj, (list, tuple)):
        items = [_encode(x, level + 1) for x in obj]
        brackets = "[]"
    elif isinstance(obj, dict):  # a key that is not a str raises TypeError
        items = [f"{encode_basestring_ascii(k)}: {_encode(v, level + 1)}" for k, v in obj.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    inner = "\n" + _INDENT * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _INDENT * level + brackets[1]


# the text of each scalar a numpy array of that kind holds, as _encode writes it
_SCALAR_TEXT = {"f": float.__repr__, "i": int.__repr__,
                "b": {True: "true", False: "false"}.__getitem__}


def _item_texts(a: np.ndarray, depth) -> list[str]:
    """The texts of the items of a along its first axis, each as _encode
    writes its list form at depth (complex entries as [re, im] lists).

    Float, int and bool items with no empty axis are formatted from one
    flat list of scalar texts (`_nest`), when every float is finite.  Other
    items go through _encode, which keeps json's spelling of NaN and
    Infinity.
    """
    a = _as_pairs(a)
    text = _SCALAR_TEXT.get(a.dtype.kind)
    if text is None or 0 in a.shape[1:] or (a.dtype.kind == "f" and not np.isfinite(a).all()):
        return [_encode(x, depth) for x in a.tolist()]
    return list(_nest(map(text, a.ravel().tolist()), a.shape[1:], depth))


def _encode_gather(g: RowGather, level):
    """g.rows[g.index] as _encode would write that array, without forming it.

    Each row of g.rows is formatted once, at the depth where a row of the
    gathered array sits, and the row texts are joined through g.index.
    """
    if 0 in g.index.shape:
        return _encode(g.rows[g.index], level)
    texts = _item_texts(g.rows, level + g.index.ndim)
    return next(_nest(map(texts.__getitem__, g.index.ravel().tolist()), g.index.shape, level))


def _encode_records(r: Records, level):
    """The list of r's dicts as _encode would write it, without forming them:
    one template per record, holding the keys, filled from the item texts
    of every column."""
    if not len(r):
        return "[]"
    inner = "\n" + _INDENT * (level + 2)
    keys = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in r.columns]
    template = "{" + inner + ("," + inner).join(keys) + "\n" + _INDENT * (level + 1) + "}"
    texts = zip(*[_item_texts(col, level + 2) for col in r.columns.values()])
    return next(_nest(map(template.__mod__, texts), (len(r),), level))


def _as_pairs(a: np.ndarray) -> np.ndarray:
    """A complex array as a float array with a trailing [re, im] axis; others as they are."""
    return np.stack([a.real, a.imag], axis=-1) if a.dtype.kind == "c" else a


def _nest(texts, shape, level):
    """Join the texts of the items of arrays of shape `shape`, in C order, into
    one text per array whose opening line is indented level steps.

    One axis at a time from the innermost: each group of shape[axis]
    consecutive texts fills a template with that axis's brackets, commas
    and indents.  The texts must already sit at depth level + len(shape).
    """
    for axis in reversed(range(len(shape))):
        depth = level + axis
        inner = "\n" + _INDENT * (depth + 1)
        k = shape[axis]
        template = "[" + inner + ("," + inner).join(["%s"] * k) + "\n" + _INDENT * depth + "]"
        texts = map(template.__mod__, zip(*[iter(texts)] * k))
    return texts


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


def serialize_system(sys: BorderSystem) -> bytes:
    return dumps(system_to_json(sys)).encode()
