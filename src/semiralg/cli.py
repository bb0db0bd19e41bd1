"""Command line front end.

One binary, many semirings: every command takes ``--semiring`` and
runs the same generic kernels over the chosen operation set.  Inputs
are JSON files in the formats of :mod:`semiralg.serialize`; results
go to stdout as canonical one-line JSON (or a readable table with
``--format table``).  Identical input and flags produce byte-identical
output.

A run costs little beyond its command: the argument parser is built
once per process, on the first call of ``main``; each input is decoded
in one pass, which names the offending cell only when it fails; and a
table is printed from the JSON payload itself, never decoded again.

Commands:

* ``closure  A.json``            the matrix closure A* (matrix or graph input)
* ``solve    A.json B.json``     least solution of X = AX + B
* ``factor   A.json``            triangular factors L, D, M of A
* ``paths    G.json``            all-pairs optimal path values (minplus or maxmin)
* ``profit   G.json b.json``     staged decision values over maxplus
* ``invert   A.json``            (I - A)^-1 over the real field
"""

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from .closure import ClosureOptions, closure, closure_iterative, solve_bellman
from .errors import (DescriptorMismatch, DimensionMismatch, InvalidBounds,
                     InvalidOptions, NotPositive, NotSymmetric, ParseError,
                     SemiringError, ShapeViolation, StarUndefined,
                     UnknownSemiring, WrongDescriptor)
from .graphs import graph_to_matrix, max_profit, real_matrix_star, \
    shortest_paths, widest_paths
from .intervals import lift_semiring
from .ldm import OpCounter, ldm_factorize
from .matrices import Matrix
from .scalars import from_token, to_token
from .semirings import make_semiring
from .serialize import (dumps, graph_from_json, loads, matrix_from_json,
                        matrix_to_json, scalar_to_json, scalars_from_json,
                        scalars_to_json, triple_to_json)

__all__ = ["RunConfig", "run", "main", "entry"]

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


@dataclass
class RunConfig:
    """Everything one invocation needs; built from argv by main()."""
    command: str
    semiring: str
    bounds: "tuple | None" = None
    interval: bool = False
    algorithm: str = "block"
    split: "int | None" = None
    max_iterations: int = 60
    threads: int = 1
    count_ops: bool = False
    output_format: str = "json"
    horizon: "int | None" = None   # None means unbounded
    inputs: tuple = ()


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


def _descriptor(config: RunConfig):
    base = make_semiring(config.semiring, config.bounds)
    return lift_semiring(base) if config.interval else base


def _closure_options(config: RunConfig) -> ClosureOptions:
    return ClosureOptions(algorithm=config.algorithm, split=config.split,
                          max_iterations=config.max_iterations,
                          parallel=config.threads > 1, threads=config.threads)


def _read(path: str):
    text = Path(path).read_text()
    return loads(text)


def _square_input(descriptor, path: str) -> Matrix:
    """A closure-style input: either a matrix file or a graph file."""
    obj = _read(path)
    if isinstance(obj, dict) and "arcs" in obj:
        return graph_to_matrix(graph_from_json(descriptor, obj, where=path))
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


def run(config: RunConfig) -> dict:
    """Execute one command and return the result payload (JSON-shaped)."""
    d = _descriptor(config)
    cmd = config.command
    if config.count_ops and cmd != "factor":
        raise InvalidOptions("--count-ops only applies to the factor command")

    if cmd == "closure":
        A = _square_input(d, config.inputs[0])
        if config.algorithm == "iterative":
            res = closure_iterative(A, _closure_options(config))
            return {"result": matrix_to_json(res.matrix),
                    "iterations": res.iterations, "truncated": res.truncated}
        return {"result": matrix_to_json(closure(A, _closure_options(config)))}

    if cmd == "solve":
        A = _square_input(d, config.inputs[0])
        B = _matrix_input(d, config.inputs[1])
        X = solve_bellman(A, B, _closure_options(config))
        return {"result": matrix_to_json(X)}

    if cmd == "factor":
        A = _matrix_input(d, config.inputs[0])
        counter = OpCounter() if config.count_ops else None
        triple = ldm_factorize(A, counter)
        payload = {"result": triple_to_json(triple)}
        if counter is not None:
            payload["counts"] = counter.as_dict()
        return payload

    if cmd == "paths":
        g = _graph_input(d, config.inputs[0])
        if d.name == "minplus":
            result = shortest_paths(g, _closure_options(config))
        elif d.name == "maxmin":
            result = widest_paths(g, _closure_options(config))
        else:
            raise WrongDescriptor(
                f"paths needs minplus or maxmin, got {d.label}")
        return {"result": matrix_to_json(result)}

    if cmd == "profit":
        g = _graph_input(d, config.inputs[0])
        terminal = _vector_input(d, config.inputs[1])
        values = max_profit(g, terminal, config.horizon,
                            _closure_options(config))
        return {"result": scalars_to_json(d, values)}

    if cmd == "invert":
        A = _matrix_input(d, config.inputs[0])
        return {"result": matrix_to_json(real_matrix_star(A))}

    raise InvalidOptions(f"unknown command {cmd!r}")


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
    algo.add_argument("--threads", type=int, default=1, metavar="N",
                      help="worker threads for the block algorithm "
                           "(1 = serial; results are identical either way)")

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


def _config_from_args(args) -> RunConfig:
    name, bounds = _parse_semiring_flag(args.semiring)
    return RunConfig(
        command=args.command, semiring=name, bounds=bounds,
        interval=args.interval,
        algorithm=getattr(args, "algorithm", "block"),
        split=getattr(args, "split", None),
        max_iterations=getattr(args, "max_iterations", 60),
        threads=getattr(args, "threads", 1),
        count_ops=getattr(args, "count_ops", False),
        output_format=args.output_format,
        horizon=getattr(args, "horizon", None),
        inputs=tuple(args.inputs))


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
        config = _config_from_args(args)
        payload = run(config)
        if config.output_format == "table":
            text = _render_table(_descriptor(config), payload)
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
