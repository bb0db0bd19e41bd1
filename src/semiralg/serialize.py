"""JSON codecs for carrier values, matrices, graphs, and factor triples.

Wire format, shared with the command line front end:

* scalar: JSON number or boolean; the infinities are the strings
  "-inf" and "inf"; under a lifted interval descriptor a scalar is a
  two-element array [lo, hi].
* matrix: {"rows": m, "cols": n, "data": [[...], ...]} row-major.
* graph:  {"n": nodes, "arcs": [[from, to, weight], ...]} with
  1-based node indices; absent arcs carry no entry.
* factor triple: {"l": matrix, "d": [diagonal...], "m": matrix}.

``dumps`` emits one canonical byte form (sorted keys, no whitespace)
so equal values always serialize identically.  All decoding errors
are raised as ParseError naming the offending field.

Lists of scalars (matrix rows, vectors, graph weights, the diagonal
of a triple) are decoded in one pass: the text tokens are resolved
through ``scalars.TOKENS`` and the descriptor's ``coerce`` runs on the
result, with no per-cell bookkeeping.  Only when that pass fails are
the cells decoded again one by one, through ``scalar_from_json``, so
that the ParseError names the first bad cell exactly as it always
has.  Encoding is one pass per row as well: the tags become their
tokens, every other value is written as it is.
"""

import json

from .errors import ParseError, SemiringError, _require_type
from .graphs import WeightedDigraph
from .ldm import LdmTriple
from .matrices import Matrix
from .scalars import NEG_INF, POS_INF, TOKENS
from .semirings import SemiringDescriptor

__all__ = ["scalar_to_json", "scalar_from_json", "scalars_to_json",
           "scalars_from_json", "matrix_to_json", "matrix_from_json",
           "graph_to_json", "graph_from_json", "triple_to_json",
           "triple_from_json", "dumps", "loads"]

# JSON form of a carrier value: the tags become their tokens
_TAG_TOKENS = {NEG_INF: "-inf", POS_INF: "inf"}
# carrier value of a JSON scalar in the one-pass decode; the tags are no
# JSON values, so they resolve to None, which every coerce rejects
_RESOLVE = {**TOKENS, NEG_INF: None, POS_INF: None}
# what the one-pass decode raises on a cell that the per-cell path rejects
_UNRESOLVED = (SemiringError, TypeError, ValueError)


def scalar_to_json(descriptor: SemiringDescriptor, v):
    base = descriptor.base
    if base is not None:
        return [scalar_to_json(base, v[0]), scalar_to_json(base, v[1])]
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "inf"
    return v


def _decode_tokens(descriptor, value, where):
    # resolve tokens to carrier-shaped values; validation happens in coerce
    base = descriptor.base
    if base is not None:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ParseError(f"interval scalars are [lo, hi] pairs, got {value!r}",
                             context=where)
        return (_decode_tokens(base, value[0], where + "[lo]"),
                _decode_tokens(base, value[1], where + "[hi]"))
    if isinstance(value, str):
        s = value.strip()
        if s in TOKENS:
            return TOKENS[s]
        # number strings are no tokens: a JSON number is written bare
        raise ParseError(f"unknown scalar token {value!r}", context=where)
    if isinstance(value, (bool, int, float)):
        return value
    raise ParseError(f"not a scalar: {value!r}", context=where)


def scalar_from_json(descriptor: SemiringDescriptor, value, where="value"):
    decoded = _decode_tokens(descriptor, value, where)
    try:
        return descriptor.coerce(decoded)
    except ParseError:
        raise
    except SemiringError as exc:
        raise ParseError(str(exc), context=where) from exc


def scalars_to_json(descriptor: SemiringDescriptor, values) -> list:
    """``[scalar_to_json(descriptor, v) for v in values]``, one pass per
    endpoint."""
    base, get = descriptor.base, _TAG_TOKENS.get
    if base is None:
        return list(map(get, values, values))
    if base.base is None:
        return [[get(lo, lo), get(hi, hi)] for lo, hi in values]
    return [scalar_to_json(descriptor, v) for v in values]


def _resolve(descriptor, values):
    # the carrier values of a list of JSON scalars in one pass; raises one
    # of _UNRESOLVED on every list that scalar_from_json rejects a cell of,
    # and on some it accepts (spaced tokens, a lift of a lift)
    coerce, get = descriptor.coerce, _RESOLVE.get
    base = descriptor.base
    if base is None:
        # a list or an object is unhashable, so get raises TypeError
        return list(map(coerce, map(get, values, values)))
    if base.base is not None or not all(
            map((list, tuple).__contains__, map(type, values))):
        raise TypeError("not a list of [lo, hi] pairs")
    return [coerce((get(lo, lo), get(hi, hi))) for lo, hi in values]


def scalars_from_json(descriptor: SemiringDescriptor, values,
                      where="values") -> list:
    """``[scalar_from_json(descriptor, v, f"{where}[{i}]") ...]`` for
    the cells ``v`` of the list ``values``, in one pass; the cells are
    decoded one by one, with their locations, only if that pass fails."""
    try:
        return _resolve(descriptor, values)
    except _UNRESOLVED:
        return [scalar_from_json(descriptor, v, f"{where}[{i}]")
                for i, v in enumerate(values)]


def matrix_to_json(A: Matrix) -> dict:
    d = _require_type(A, Matrix, "A").descriptor
    return {"rows": A.rows, "cols": A.cols,
            "data": [scalars_to_json(d, row) for row in A._data]}


def matrix_from_json(descriptor: SemiringDescriptor, obj,
                     where="matrix") -> Matrix:
    if not isinstance(obj, dict) or "data" not in obj:
        raise ParseError('expected an object with a "data" field', context=where)
    data = obj["data"]
    if not isinstance(data, list) or not data \
            or not all(isinstance(row, list) and row for row in data):
        raise ParseError('"data" must be a non-empty array of non-empty rows',
                         context=where)
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise ParseError("rows have unequal lengths", context=where)
    for key, expect in (("rows", len(data)), ("cols", width)):
        # an integer, as in the format: true == 1 and 1.0 == 1 pass !=
        if key in obj and (type(obj[key]) is not int or obj[key] != expect):
            raise ParseError(f'"{key}" says {obj[key]!r} but data has {expect}',
                             context=where)
    rows = [scalars_from_json(descriptor, row, f"{where}.data[{i}]")
            for i, row in enumerate(data)]
    return Matrix._wrap(descriptor, rows)


def graph_to_json(g: WeightedDigraph) -> dict:
    d = g.descriptor
    return {"n": g.n,
            "arcs": [[u, v, scalar_to_json(d, w)] for u, v, w in g.arcs]}


def graph_from_json(descriptor: SemiringDescriptor, obj,
                    where="graph") -> WeightedDigraph:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParseError('expected an object with an "n" field', context=where)
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}',
                         context=where)
    raw = obj.get("arcs", [])
    if not isinstance(raw, list):
        raise ParseError('"arcs" must be an array', context=where)
    arcs = _arcs(descriptor, raw, where)
    try:
        return WeightedDigraph(n, tuple(arcs), descriptor)
    except SemiringError as exc:
        raise ParseError(str(exc), context=where) from exc


def _plain_arc(arc):
    return type(arc) is list and len(arc) == 3 \
        and type(arc[0]) is int and type(arc[1]) is int


def _arcs(descriptor, raw, where):
    # one pass when every arc is [int, int, weight] and every weight
    # decodes; otherwise arc by arc, so the first bad one is named
    if all(map(_plain_arc, raw)):
        try:
            weights = _resolve(descriptor, [arc[2] for arc in raw])
        except _UNRESOLVED:
            pass
        else:
            return [(u, v, w) for (u, v, _), w in zip(raw, weights)]
    arcs = []
    for k, arc in enumerate(raw):
        ctx = f"{where}.arcs[{k}]"
        if not isinstance(arc, (list, tuple)) or len(arc) != 3:
            raise ParseError(f"expected [from, to, weight], got {arc!r}",
                             context=ctx)
        u, v, w = arc
        if not isinstance(u, int) or not isinstance(v, int) \
                or isinstance(u, bool) or isinstance(v, bool):
            raise ParseError("node indices must be integers", context=ctx)
        arcs.append((u, v, scalar_from_json(descriptor, w, ctx)))
    return arcs


def triple_to_json(t: LdmTriple) -> dict:
    d = t.descriptor
    return {"l": matrix_to_json(t.L),
            "d": scalars_to_json(d, t.D),
            "m": matrix_to_json(t.M)}


def triple_from_json(descriptor: SemiringDescriptor, obj,
                     where="triple") -> LdmTriple:
    if not isinstance(obj, dict) or not {"l", "d", "m"} <= set(obj):
        raise ParseError('expected an object with "l", "d", "m" fields',
                         context=where)
    if not isinstance(obj["d"], list):
        raise ParseError('"d" must be an array', context=where)
    L = matrix_from_json(descriptor, obj["l"], where + ".l")
    M = matrix_from_json(descriptor, obj["m"], where + ".m")
    diag = tuple(scalars_from_json(descriptor, obj["d"], where + ".d"))
    return LdmTriple(L, diag, M)


def dumps(payload) -> str:
    """Canonical one-line JSON: sorted keys, no insignificant whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         context=f"line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:
        # integer literals past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per level of nested arrays and objects
        raise ParseError("invalid JSON: arrays or objects nested too "
                         "deeply") from exc
