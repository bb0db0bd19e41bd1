"""Command line front end.

One binary, many semirings: every command takes ``--semiring`` and
runs the same generic kernels over the chosen operation set.  Inputs
are JSON files in the formats of :mod:`semiralg.serialize`; results
go to stdout as canonical one-line JSON (or a readable table with
``--format table``).  Identical input and flags produce byte-identical
output.

A run costs little beyond its command: the argument parser is built
once per process, on the first call of ``main``; the semiring
descriptor is built once per run, from the parsed flags and before any
file is read; each input is decoded in one pass, which names the
offending cell only when it fails; and a table is printed from the
JSON payload itself, never decoded again.

Commands:

* ``closure  A.json``            the matrix closure A* (matrix or graph input)
* ``solve    A.json B.json``     least solution of X = AX + B
* ``factor   A.json``            triangular factors L, D, M of A
* ``paths    G.json``            all-pairs optimal path values (minplus or maxmin)
* ``profit   G.json b.json``     staged decision values over maxplus
* ``invert   A.json``            (I - A)^-1 over the real field
"""

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from .closure import (ClosureOptions, _require_square, closure,
                      closure_iterative, solve_bellman)
from .errors import (DescriptorMismatch, DimensionMismatch, InvalidBounds,
                     NotPositive, NotSymmetric, ParseError, SemiringError,
                     ShapeViolation, StarUndefined, UnknownSemiring,
                     WrongDescriptor)
from .graphs import _carrier, graph_to_matrix, max_profit, \
    real_matrix_star, shortest_paths, widest_paths
from .intervals import lift_semiring
from .ldm import OpCounter, ldm_factorize
from .matrices import Matrix
from .scalars import from_token, to_token
from .semirings import make_semiring
from .serialize import (dumps, graph_from_json, loads, matrix_from_json,
                        matrix_to_json, scalar_to_json, scalars_from_json,
                        scalars_to_json, triple_to_json)

__all__ = ["main", "entry"]

_EXIT_HELP = """\
exit codes:
  0  success
  1  other failure (no stabilization, bad option combination, ...)
  2  unreadable or malformed input
  3  dimension, shape, or descriptor mismatch
  4  star undefined: the computation hit an element without a closure
  5  semiring selection error (unknown name, bad bounds,
     command unavailable for the chosen semiring)
"""


def _parse_semiring_flag(text):
    """Split NAME[,a,b] into the catalog name and optional bounds."""
    parts = [p.strip() for p in text.split(",")]
    name = parts[0]
    if len(parts) == 1:
        return name, None
    try:
        bounds = tuple(from_token(p) for p in parts[1:])
    except ValueError as exc:
        raise InvalidBounds(f"bad bound in {text!r}: {exc}") from None
    return name, bounds


def _descriptor(args):
    base = make_semiring(*_parse_semiring_flag(args.semiring))
    return lift_semiring(base) if args.interval else base


def _closure_options(args) -> ClosureOptions:
    return ClosureOptions(algorithm=args.algorithm, split=args.split,
                          max_iterations=args.max_iterations)


def _read(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         context=path) from None
    try:
        return loads(text)
    except ParseError as exc:
        # solve and profit read two files: say which one is broken
        raise ParseError(str(exc), context=path) from exc


@contextlib.contextmanager
def _graph_fits(path: str, g):
    """Report a graph too large for its n x n matrix against its file.

    ``graph_to_matrix`` raises MemoryError before it allocates when the
    matrix would exceed the physical memory, and building it raises
    MemoryError when the memory runs short all the same (under an
    address-space limit, say) and OverflowError when n is past the index
    range where the system cannot tell its physical memory.
    """
    try:
        yield
    except (MemoryError, OverflowError):
        raise ParseError(f'"n" is {g.n}: an n x n matrix does not fit in '
                         "memory", context=path) from None


def _square_input(descriptor, path: str) -> Matrix:
    """A closure-style input: either a matrix file or a graph file."""
    obj = _read(path)
    if isinstance(obj, dict) and "arcs" in obj:
        g = graph_from_json(descriptor, obj, where=path)
        with _graph_fits(path, g):
            return graph_to_matrix(g)
    return matrix_from_json(descriptor, obj, where=path)


def _graph_input(descriptor, path: str):
    obj = _read(path)
    if not isinstance(obj, dict) or "arcs" not in obj:
        raise ParseError('expected a graph object with an "arcs" field',
                         context=path)
    return graph_from_json(descriptor, obj, where=path)


def _matrix_input(descriptor, path: str) -> Matrix:
    return matrix_from_json(descriptor, _read(path), where=path)


def _vector_input(descriptor, path: str) -> list:
    obj = _read(path)
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a non-empty JSON array of scalars",
                         context=path)
    return scalars_from_json(descriptor, obj, path)


def _run(args, d) -> dict:
    """Execute the parsed command over ``d``; return the result payload
    (JSON-shaped).  Each branch reads only its own subparser's options."""
    cmd = args.command
    if cmd == "closure":
        A = _square_input(d, args.inputs[0])
        if args.algorithm == "iterative":
            res = closure_iterative(A, _closure_options(args))
            return {"result": matrix_to_json(res.matrix),
                    "iterations": res.iterations, "truncated": res.truncated}
        return {"result": matrix_to_json(closure(A, _closure_options(args)))}

    if cmd == "solve":
        A = _square_input(d, args.inputs[0])
        B = _matrix_input(d, args.inputs[1])
        if args.algorithm == "iterative":
            # solve_bellman's checks, in its order, before the series runs
            _require_square(A)
            A._check_same(B, "chain")
            res = closure_iterative(A, _closure_options(args))
            return {"result": matrix_to_json(res.matrix.mul(B)),
                    "iterations": res.iterations, "truncated": res.truncated}
        X = solve_bellman(A, B, _closure_options(args))
        return {"result": matrix_to_json(X)}

    if cmd == "factor":
        A = _matrix_input(d, args.inputs[0])
        counter = OpCounter() if args.count_ops else None
        triple = ldm_factorize(A, counter)
        payload = {"result": triple_to_json(triple)}
        if counter is not None:
            payload["counts"] = counter.as_dict()
        return payload

    if cmd == "paths":
        g = _graph_input(d, args.inputs[0])
        with _graph_fits(args.inputs[0], g):
            if _carrier(d) == "minplus":
                result = shortest_paths(g, _closure_options(args))
            elif _carrier(d) == "maxmin":
                result = widest_paths(g, _closure_options(args))
            else:
                raise WrongDescriptor(
                    f"paths needs minplus or maxmin, got {d.label}")
        return {"result": matrix_to_json(result)}

    if cmd == "profit":
        g = _graph_input(d, args.inputs[0])
        terminal = _vector_input(d, args.inputs[1])
        with _graph_fits(args.inputs[0], g):
            values = max_profit(g, terminal, args.horizon,
                                _closure_options(args))
        return {"result": scalars_to_json(d, values)}

    # cmd == "invert", the one command left: argparse admits no other
    A = _matrix_input(d, args.inputs[0])
    return {"result": matrix_to_json(real_matrix_star(A))}


def _token(v) -> str:
    # to_token of a JSON scalar, whose tags are already their tokens
    return v if type(v) is str else repr(v) if type(v) is float else to_token(v)


def _texts(d, zero, values) -> list:
    """Table text of each JSON scalar over ``d``: '.' where it equals the
    JSON form ``zero`` of the zero (as ``is_zero``), else its tokens."""
    if d.base is not None:
        return ["." if v == zero else f"[{_token(v[0])},{_token(v[1])}]"
                for v in values]
    return ["." if v == zero else _token(v) for v in values]


def _matrix_table(d, zero, obj) -> list:
    rows = [_texts(d, zero, row) for row in obj["data"]]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return [" ".join(map(str.rjust, row, widths)) for row in rows]


def _render_table(d, payload: dict) -> str:
    lines = []
    result = payload["result"]
    zero = scalar_to_json(d, d.zero)
    if isinstance(result, list):
        lines.append(" ".join(_texts(d, zero, result)))
    elif "data" in result:
        lines.extend(_matrix_table(d, zero, result))
    else:
        for key in ("l", "d", "m"):
            lines.append(key.upper() + ":")
            section = result[key]
            if key == "d":
                lines.append("  " + " ".join(_texts(d, zero, section)))
            else:
                lines.extend("  " + row
                             for row in _matrix_table(d, zero, section))
    if "iterations" in payload:
        lines.append(f"iterations: {payload['iterations']}")
        lines.append("truncated: " + ("true" if payload["truncated"] else "false"))
    if "counts" in payload:
        c = payload["counts"]
        lines.append(f"counts: adds={c['adds']} muls={c['muls']} stars={c['stars']}")
    return "\n".join(lines)


def _horizon(text: str):
    if text == "inf":
        return None
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"horizon must be a non-negative integer or 'inf', got {text!r}")
    if k < 0:
        raise argparse.ArgumentTypeError("horizon must be >= 0")
    return k


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # help and errors go to the sys.stdout and sys.stderr of the moment
    p = argparse.ArgumentParser(
        prog="semiralg",
        description="Generic semiring linear algebra: closures, Bellman "
                    "systems, factorizations, and path problems.",
        epilog=_EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--semiring", required=True, metavar="NAME[,a,b]",
                        help="semiring to compute in (rplus, rplus_complete, "
                             "maxplus, maxplus_complete, minplus, boolean, "
                             "real_field, or maxmin,a,b); never inferred "
                             "from the data")
    common.add_argument("--interval", action="store_true",
                        help="treat scalars as [lo,hi] intervals over the "
                             "chosen semiring")
    common.add_argument("--format", dest="output_format", default="json",
                        choices=("json", "table"),
                        help="output as canonical JSON (default) or an "
                             "aligned table with the semiring zero shown "
                             "as '.'")

    algo = argparse.ArgumentParser(add_help=False)
    algo.add_argument("--algorithm", default="block",
                      choices=("block", "gauss_jordan", "iterative"))
    algo.add_argument("--split", type=int, default=None, metavar="K",
                      help="fixed leading-block size for the block algorithm")
    algo.add_argument("--max-iterations", type=int, default=60, metavar="N",
                      help="truncation point of the iterative series on "
                           "non-idempotent semirings")

    c = sub.add_parser("closure", parents=[common, algo],
                       help="matrix closure A* (matrix or graph input)")
    c.add_argument("inputs", nargs=1, metavar="A.json")

    s = sub.add_parser("solve", parents=[common, algo],
                       help="least solution of X = AX + B")
    _two_inputs(s, "A.json", "B.json")

    f = sub.add_parser("factor", parents=[common],
                       help="triangular factorization of A")
    f.add_argument("--count-ops", action="store_true",
                   help="report exact add/mul/star counts")
    f.add_argument("inputs", nargs=1, metavar="A.json")

    pa = sub.add_parser("paths", parents=[common, algo],
                        help="all-pairs optimal path values "
                             "(minplus: shortest, maxmin: widest)")
    pa.add_argument("inputs", nargs=1, metavar="G.json")

    pr = sub.add_parser("profit", parents=[common, algo],
                        help="staged decision values over maxplus")
    pr.add_argument("--horizon", type=_horizon, default=None, metavar="K|inf",
                    help="number of steps; 'inf' (default) searches over "
                         "all walk lengths via the closure")
    _two_inputs(pr, "G.json", "b.json")

    i = sub.add_parser("invert", parents=[common],
                       help="(I - A)^-1 over the real field")
    i.add_argument("inputs", nargs=1, metavar="A.json")
    return p


def _two_inputs(parser, first, second):
    # two positionals into one list, not nargs=2 with a pair of metavars:
    # argparse formats no such pair in help or in a missing-argument error
    parser.add_argument("inputs", action="append", metavar=first)
    parser.add_argument("inputs", action="append", metavar=second)


def _exit_code(exc: SemiringError) -> int:
    if isinstance(exc, ParseError):
        return 2
    if isinstance(exc, (DimensionMismatch, DescriptorMismatch,
                        ShapeViolation, NotSymmetric)):
        return 3
    if isinstance(exc, StarUndefined):
        return 4
    if isinstance(exc, (UnknownSemiring, InvalidBounds, WrongDescriptor,
                        NotPositive)):
        return 5
    return 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        d = _descriptor(args)
        payload = _run(args, d)
        if args.output_format == "table":
            text = _render_table(d, payload)
        else:
            text = dumps(payload)
        sys.stdout.write(text + "\n")
        return 0
    except SemiringError as exc:
        message = str(exc)
        if isinstance(exc, StarUndefined) and exc.location is not None:
            message += f" (at {exc.location})"
        sys.stderr.write(f"error: {message}\n")
        return _exit_code(exc)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
