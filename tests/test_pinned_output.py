"""Pinned decode errors and command line output, and parser reuse.

The expected values below were produced by the per-cell decoder and
the decode-then-render table printer that the one-pass codecs
replaced; every message, error context and output byte must stay as
it was.  The parser test runs a mixed sequence of ``main`` calls in
one process and compares each with a run on a freshly built parser.
The ``invert`` outcomes at the end were produced when the pivot search
ran Gauss-Jordan a second time on a permuted copy of the matrix; taking
the same steps in the found order on the matrix itself keeps them.
"""

import json
import random

import pytest

from semiralg import NEG_INF, Matrix, cli, real_matrix_star
from semiralg.errors import ParseError, SemiringError
from semiralg.intervals import lift_semiring
from semiralg.semirings import make_semiring
from semiralg.serialize import (graph_from_json, loads, matrix_from_json,
                                triple_from_json)


def _descriptor(flag, interval=False):
    name, bounds = cli._parse_semiring_flag(flag)
    d = make_semiring(name, bounds)
    return lift_semiring(d) if interval else d


_READERS = {"matrix": matrix_from_json, "graph": graph_from_json,
            "triple": triple_from_json}

_CELL_401 = int("1" + "0" * 400)
_ONE = {"data": [["-inf"]]}

# label -> (semiring flag, interval, reader, document; a str is JSON text)
DECODE_CASES = {
    "unknown token": ("maxplus", False, "matrix",
                      {"data": [[0.0, 1.0], [2.0, "garbage"]]}),
    "number string": ("maxplus", False, "matrix", {"data": [[0.0, "-2.0"]]}),
    "nan token": ("maxplus", False, "matrix", {"data": [["nan"]]}),
    "null": ("maxplus", False, "matrix", {"data": [[0.0], [None]]}),
    "nested object": ("minplus", False, "matrix", {"data": [[{"v": 1}]]}),
    "nested array": ("maxplus", False, "matrix", {"data": [[[1.0, 2.0]]]}),
    "bool in maxplus": ("maxplus", False, "matrix", {"data": [[0.0, True]]}),
    "int in boolean": ("boolean", False, "matrix", {"data": [[True, 1]]}),
    "maxmin out of range": ("maxmin,0,10", False, "matrix",
                            {"data": [[1.0, 11.0]]}),
    "maxmin tag out of range": ("maxmin,0,10", False, "matrix",
                                {"data": [["inf"]]}),
    "401-digit integer": ("minplus", False, "matrix", {"data": [[_CELL_401]]}),
    "-inf in rplus": ("rplus", False, "matrix", {"data": [[0.5, "-inf"]]}),
    "negative in rplus": ("rplus", False, "matrix", {"data": [[-1.0]]}),
    "NaN literal": ("maxplus", False, "matrix", '{"data": [[NaN]]}'),
    "Infinity literal": ("minplus", False, "matrix", '{"data": [[Infinity]]}'),
    "interval of length 3": ("maxplus", True, "matrix",
                             {"data": [[[1.0, 2.0], [1.0, 2.0, 3.0]]]}),
    "interval as scalar": ("maxplus", True, "matrix", {"data": [[3.0]]}),
    "empty interval": ("maxplus", True, "matrix", {"data": [[[3.0, 1.0]]]}),
    "interval bad hi token": ("maxplus", True, "matrix",
                              {"data": [[["-inf", "zz"]]]}),
    "interval as object": ("maxplus_complete", True, "matrix",
                           {"data": [[{"-inf": 0, "inf": 0}]]}),
    "interval as string": ("maxplus", True, "matrix", {"data": [["ab"]]}),
    "interval nested pair": ("minplus", True, "matrix",
                             {"data": [[[[1.0, 2.0], 3.0]]]}),
    "graph arc weight": ("minplus", False, "graph",
                         {"n": 2, "arcs": [[1, 2, 1.0], [2, 1, "x"]]}),
    "graph weight before shape": ("minplus", False, "graph",
                                  {"n": 2, "arcs": [[1, 2, "x"], [1]]}),
    "graph shape before weight": ("minplus", False, "graph",
                                  {"n": 2, "arcs": [[1, 2], [1, 2, "x"]]}),
    "graph arc as object": ("minplus", False, "graph",
                            {"n": 2, "arcs": [{"a": 1, "b": 2, "c": 3}]}),
    "graph bool node": ("maxplus", False, "graph",
                        {"n": 2, "arcs": [[True, 2, 1.0]]}),
    "graph float node": ("maxplus", False, "graph",
                         {"n": 2, "arcs": [[1, 2, 1.0], [1.0, 2, 3.0]]}),
    "graph interval weight": ("maxplus", True, "graph",
                              {"n": 2, "arcs": [[1, 2, [2.0, 1.0]]]}),
    "graph node out of range": ("maxplus", False, "graph",
                                {"n": 2, "arcs": [[1, 3, 1.0]]}),
    "triple diagonal": ("maxplus", False, "triple",
                        {"l": _ONE, "d": [0.0, "bad"], "m": _ONE}),
    # the tags are carrier values, not JSON ones
    "tag object": ("maxplus", False, "matrix", {"data": [[0.0, NEG_INF]]}),
    "interval tag object": ("maxplus", True, "matrix",
                            {"data": [[(NEG_INF, 1.0)]]}),
    "interval tuple": ("maxplus", True, "matrix",
                       {"data": [[("-inf", 1.0), [0.0, 2.0]]]}),
    "spaced tokens": ("minplus", False, "matrix",
                      {"data": [[" inf ", "+inf"], [1, 2.5]]}),
    "spaced interval tokens": ("maxplus", True, "matrix",
                               {"data": [[[" -inf", "-inf "], [-1, 0]]]}),
    "graph spaced token": ("maxplus_complete", False, "graph",
                           {"n": 2, "arcs": [[1, 2, " inf"], [2, 1, -1]]}),
}


def decode_outcome(label):
    """("error", message, context) or ("ok", repr of the decoded value)."""
    flag, interval, reader, doc = DECODE_CASES[label]
    obj = loads(doc) if isinstance(doc, str) else doc
    try:
        value = _READERS[reader](_descriptor(flag, interval), obj)
    except ParseError as exc:
        return ("error", str(exc), exc.context)
    if reader == "graph":
        return ("ok", repr(value.arcs))
    return ("ok", repr(value._data))


# label -> (argv with {name} for the input files, {name: document})
_MAXPLUS_A = {"rows": 3, "cols": 3,
              "data": [[-1.0, -0.0, "-inf"], ["-inf", -2.0, 3.5],
                       [-4.0, "-inf", -5.0]]}
_MAXPLUS_B = {"data": [[0.0, "-inf"], ["-inf", 1.0], [-0.0, 2.0]]}
_MAXPLUS_IV = {"data": [[[-3.0, -1.0], ["-inf", "-inf"], [-2.0, -0.0]],
                        [["-inf", -2.0], [-4.0, -4.0], ["-inf", "-inf"]],
                        [[-1.0, 0.0], [-6.0, -5.0], [-9.0, -1.0]]]}
_GRAPH = {"n": 4, "arcs": [[1, 2, 5.0], [2, 3, 2.0], [1, 3, 9.0],
                           [3, 4, 0.5], [4, 1, 1.25]]}
_DAG = {"n": 3, "arcs": [[1, 2, 3.0], [2, 3, -0.0], [1, 3, 1.5]]}

CLI_CASES = {
    "closure maxplus": (["closure", "--semiring", "maxplus", "{a}"],
                        {"a": _MAXPLUS_A}),
    "closure maxplus gauss_jordan": (
        ["closure", "--semiring", "maxplus", "--algorithm", "gauss_jordan",
         "{a}"], {"a": _MAXPLUS_A}),
    "closure maxplus interval": (
        ["closure", "--semiring", "maxplus", "--interval", "{a}"],
        {"a": _MAXPLUS_IV}),
    "closure boolean": (["closure", "--semiring", "boolean", "{a}"],
                        {"a": {"data": [[False, True, False],
                                        [False, False, True],
                                        [False, False, False]]}}),
    "closure maxmin tag bounds": (
        ["closure", "--semiring", "maxmin,-inf,inf", "{a}"],
        {"a": {"data": [[2.5, "-inf", "inf"], ["-inf", -0.0, 1.0],
                        [3.0, "-inf", "-inf"]]}}),
    "closure maxmin graph": (["closure", "--semiring", "maxmin,0,10", "{g}"],
                             {"g": _GRAPH}),
    "closure maxmin interval": (
        ["closure", "--semiring", "maxmin,0,10", "--interval", "{a}"],
        {"a": {"data": [[[1.0, 2.0], [0.0, 0.0]], [[3.0, 10.0], [0, 5]]]}}),
    "closure minplus graph": (["closure", "--semiring", "minplus", "{g}"],
                              {"g": _GRAPH}),
    "closure rplus signed zero": (
        ["closure", "--semiring", "rplus", "{a}"],
        {"a": {"data": [[0.25, -0.0], [0.5, 0.0]]}}),
    "closure rplus_complete": (
        ["closure", "--semiring", "rplus_complete", "{a}"],
        {"a": {"data": [[0.5, "inf"], [0.0, 2.0]]}}),
    "closure real_field iterative": (
        ["closure", "--semiring", "real_field", "--algorithm", "iterative",
         "--max-iterations", "5", "{a}"],
        {"a": {"data": [[0.5, -0.25], [0.0, 0.125]]}}),
    "closure maxplus iterative": (
        ["closure", "--semiring", "maxplus", "--algorithm", "iterative",
         "{a}"], {"a": _MAXPLUS_A}),
    "solve maxplus": (["solve", "--semiring", "maxplus", "{a}", "{b}"],
                      {"a": _MAXPLUS_A, "b": _MAXPLUS_B}),
    "solve maxplus interval": (
        ["solve", "--semiring", "maxplus", "--interval", "{a}", "{b}"],
        {"a": _MAXPLUS_IV,
         "b": {"data": [[[0.0, 1.0]], [["-inf", "-inf"]], [[-2.0, 0.0]]]}}),
    "factor maxplus counts": (
        ["factor", "--semiring", "maxplus", "--count-ops", "{a}"],
        {"a": _MAXPLUS_A}),
    "factor minplus interval": (
        ["factor", "--semiring", "minplus", "--interval", "{a}"],
        {"a": {"data": [[[2.0, 1.0], ["inf", "inf"]],
                        [[3.0, 0.5], [0.0, 0.0]]]}}),
    "factor boolean": (["factor", "--semiring", "boolean", "{a}"],
                       {"a": {"data": [[False, True], [False, False]]}}),
    "paths minplus": (["paths", "--semiring", "minplus", "{g}"], {"g": _GRAPH}),
    "paths maxmin": (["paths", "--semiring", "maxmin,0,10", "{g}"],
                     {"g": _GRAPH}),
    "paths maxmin tag bounds": (["paths", "--semiring", "maxmin,-inf,inf",
                                 "{g}"], {"g": _GRAPH}),
    "profit horizon": (["profit", "--semiring", "maxplus", "--horizon", "1",
                        "{g}", "{b}"], {"g": _DAG, "b": [0.0, -0.0, 10.0]}),
    "profit unbounded": (["profit", "--semiring", "maxplus", "{g}", "{b}"],
                         {"g": _DAG, "b": [0.0, "-inf", 10.0]}),
    "profit interval": (["profit", "--semiring", "maxplus", "--interval",
                         "--horizon", "2", "{g}", "{b}"],
                        {"g": {"n": 2, "arcs": [[1, 2, [1.0, 2.0]]]},
                         "b": [["-inf", "-inf"], [0.0, 3.0]]}),
    "invert": (["invert", "--semiring", "real_field", "{a}"],
               {"a": {"data": [[0.5, -0.0], [0.0, 0.25]]}}),
    "invert negative": (["invert", "--semiring", "real_field", "{a}"],
                        {"a": {"data": [[-0.5, 0.25], [0.125, -1.0]]}}),
    # the first pivot is 1: the elimination runs in the order 2, 1
    "invert pivoted": (["invert", "--semiring", "real_field", "{a}"],
                       {"a": {"data": [[1.0, 2.0], [3.0, 4.0]]}}),
    # E - A is invertible, but every order of the pivots meets a 1 first
    "invert blocked": (["invert", "--semiring", "real_field", "{a}"],
                       {"a": {"data": [[1.0, 2.0], [2.0, 1.0]]}}),
    # the pivot search goes back once (``_pivoted_rows(2091)``)
    "invert pivot search": (["invert", "--semiring", "real_field", "{a}"],
                            {"a": {"data": [[1.0, -2.0, 0.0, 0.0],
                                            [-2.0, 1.0, 2.0, 0.0],
                                            [2.0, -1.0, -1.0, 3.0],
                                            [1.0, 3.0, 2.0, -2.0]]}}),
    "bad vector entry": (["profit", "--semiring", "maxplus", "{g}", "{b}"],
                         {"g": _DAG, "b": [0.0, "bad", 1.0]}),
    "null vector entry": (["profit", "--semiring", "maxplus", "{g}", "{b}"],
                          {"g": _DAG, "b": [0.0, 1.0, None]}),
    "vector not an array": (["profit", "--semiring", "maxplus", "{g}", "{b}"],
                            {"g": _DAG, "b": {"v": 1}}),
    "bad matrix cell": (["closure", "--semiring", "maxplus", "{a}"],
                        {"a": {"data": [[0.0, "-2.0"]]}}),
    "bad interval cell": (["closure", "--semiring", "minplus", "--interval",
                           "{a}"], {"a": {"data": [[[1.0]]]}}),
    "bad graph weight": (["paths", "--semiring", "minplus", "{g}"],
                         {"g": {"n": 2, "arcs": [[1, 2, True]]}}),
}
FORMATS = ("json", "table")


def cli_outcome(tmp_path, capsys, label, fmt):
    """(exit code, stdout, stderr) of one case, with the input directory
    written as <dir>."""
    argv, files = CLI_CASES[label]
    paths = {}
    for name, doc in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    argv = [a.format(**paths) for a in argv] + ["--format", fmt]
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    where = str(tmp_path)
    return code, out.replace(where, "<dir>"), err.replace(where, "<dir>")


DECODE_GOLDEN = {'-inf in rplus': ('error',
                   'matrix.data[0][1]: -inf is not a rplus element',
                   'matrix.data[0][1]'),
 '401-digit integer': ('error',
                       'matrix.data[0][0]: an integer of 1329 bits is too '
                       'large for a minplus element',
                       'matrix.data[0][0]'),
 'Infinity literal': ('error',
                      'matrix.data[0][0]: IEEE inf is not a minplus '
                      'element; use the infinity tags',
                      'matrix.data[0][0]'),
 'NaN literal': ('error',
                 'matrix.data[0][0]: IEEE nan is not a maxplus element; '
                 'use the infinity tags',
                 'matrix.data[0][0]'),
 'bool in maxplus': ('error',
                     'matrix.data[0][1]: True is not a maxplus element',
                     'matrix.data[0][1]'),
 'empty interval': ('error',
                    'matrix.data[0][0]: empty interval over maxplus: 3.0 '
                    'does not precede 1.0',
                    'matrix.data[0][0]'),
 'graph arc as object': ('error',
                         'graph.arcs[0]: expected [from, to, weight], got '
                         "{'a': 1, 'b': 2, 'c': 3}",
                         'graph.arcs[0]'),
 'graph arc weight': ('error',
                      "graph.arcs[1]: unknown scalar token 'x'",
                      'graph.arcs[1]'),
 'graph bool node': ('error',
                     'graph.arcs[0]: node indices must be integers',
                     'graph.arcs[0]'),
 'graph float node': ('error',
                      'graph.arcs[1]: node indices must be integers',
                      'graph.arcs[1]'),
 'graph interval weight': ('error',
                           'graph.arcs[0]: empty interval over maxplus: '
                           '2.0 does not precede 1.0',
                           'graph.arcs[0]'),
 'graph node out of range': ('error',
                             'graph: arc (1, 3) outside 1..2',
                             'graph'),
 'graph shape before weight': ('error',
                               'graph.arcs[0]: expected [from, to, '
                               'weight], got [1, 2]',
                               'graph.arcs[0]'),
 'graph spaced token': ('ok', '((1, 2, inf), (2, 1, -1.0))'),
 'graph weight before shape': ('error',
                               "graph.arcs[0]: unknown scalar token 'x'",
                               'graph.arcs[0]'),
 'int in boolean': ('error',
                    'matrix.data[0][1]: 1 is not a boolean element',
                    'matrix.data[0][1]'),
 'interval as object': ('error',
                        'matrix.data[0][0]: interval scalars are [lo, hi] '
                        "pairs, got {'-inf': 0, 'inf': 0}",
                        'matrix.data[0][0]'),
 'interval as scalar': ('error',
                        'matrix.data[0][0]: interval scalars are [lo, hi] '
                        'pairs, got 3.0',
                        'matrix.data[0][0]'),
 'interval as string': ('error',
                        'matrix.data[0][0]: interval scalars are [lo, hi] '
                        "pairs, got 'ab'",
                        'matrix.data[0][0]'),
 'interval bad hi token': ('error',
                           'matrix.data[0][0][hi]: unknown scalar token '
                           "'zz'",
                           'matrix.data[0][0][hi]'),
 'interval nested pair': ('error',
                          'matrix.data[0][0][lo]: not a scalar: [1.0, 2.0]',
                          'matrix.data[0][0][lo]'),
 'interval of length 3': ('error',
                          'matrix.data[0][1]: interval scalars are [lo, '
                          'hi] pairs, got [1.0, 2.0, 3.0]',
                          'matrix.data[0][1]'),
 'interval tag object': ('error',
                         'matrix.data[0][0][lo]: not a scalar: -inf',
                         'matrix.data[0][0][lo]'),
 'interval tuple': ('ok',
                    '[[Interval(lo=-inf, hi=1.0), Interval(lo=0.0, '
                    'hi=2.0)]]'),
 'maxmin out of range': ('error',
                         'matrix.data[0][1]: 11.0 is outside [0.0,10.0]',
                         'matrix.data[0][1]'),
 'maxmin tag out of range': ('error',
                             'matrix.data[0][0]: inf is outside [0.0,10.0]',
                             'matrix.data[0][0]'),
 'nan token': ('error',
               "matrix.data[0][0]: unknown scalar token 'nan'",
               'matrix.data[0][0]'),
 'negative in rplus': ('error',
                       'matrix.data[0][0]: -1.0 is negative, not a rplus '
                       'element',
                       'matrix.data[0][0]'),
 'nested array': ('error',
                  'matrix.data[0][0]: not a scalar: [1.0, 2.0]',
                  'matrix.data[0][0]'),
 'nested object': ('error',
                   "matrix.data[0][0]: not a scalar: {'v': 1}",
                   'matrix.data[0][0]'),
 'null': ('error',
          'matrix.data[1][0]: not a scalar: None',
          'matrix.data[1][0]'),
 'number string': ('error',
                   "matrix.data[0][1]: unknown scalar token '-2.0'",
                   'matrix.data[0][1]'),
 'spaced interval tokens': ('ok',
                            '[[Interval(lo=-inf, hi=-inf), '
                            'Interval(lo=-1.0, hi=0.0)]]'),
 'spaced tokens': ('ok', '[[inf, inf], [1.0, 2.5]]'),
 'tag object': ('error',
                'matrix.data[0][1]: not a scalar: -inf',
                'matrix.data[0][1]'),
 'triple diagonal': ('error',
                     "triple.d[1]: unknown scalar token 'bad'",
                     'triple.d[1]'),
 'unknown token': ('error',
                   "matrix.data[1][1]: unknown scalar token 'garbage'",
                   'matrix.data[1][1]')}

CLI_GOLDEN = {('bad graph weight', 'json'): (2,
                                '',
                                'error: <dir>/g.json.arcs[0]: True is not '
                                'a minplus element\n'),
 ('bad graph weight', 'table'): (2,
                                 '',
                                 'error: <dir>/g.json.arcs[0]: True is not '
                                 'a minplus element\n'),
 ('bad interval cell', 'json'): (2,
                                 '',
                                 'error: <dir>/a.json.data[0][0]: interval '
                                 'scalars are [lo, hi] pairs, got [1.0]\n'),
 ('bad interval cell', 'table'): (2,
                                  '',
                                  'error: <dir>/a.json.data[0][0]: '
                                  'interval scalars are [lo, hi] pairs, '
                                  'got [1.0]\n'),
 ('bad matrix cell', 'json'): (2,
                               '',
                               'error: <dir>/a.json.data[0][1]: unknown '
                               "scalar token '-2.0'\n"),
 ('bad matrix cell', 'table'): (2,
                                '',
                                'error: <dir>/a.json.data[0][1]: unknown '
                                "scalar token '-2.0'\n"),
 ('bad vector entry', 'json'): (2,
                                '',
                                'error: <dir>/b.json[1]: unknown scalar '
                                "token 'bad'\n"),
 ('bad vector entry', 'table'): (2,
                                 '',
                                 'error: <dir>/b.json[1]: unknown scalar '
                                 "token 'bad'\n"),
 ('closure boolean', 'json'): (0,
                               '{"result":{"cols":3,"data":[[true,true,true],[false,true,true],[false,false,true]],"rows":3}}\n',
                               ''),
 ('closure boolean', 'table'): (0,
                                'true true true\n'
                                '   . true true\n'
                                '   .    . true\n',
                                ''),
 ('closure maxmin graph', 'json'): (0,
                                    '{"result":{"cols":4,"data":[[10.0,5.0,9.0,0.5],[0.5,10.0,2.0,0.5],[0.5,0.5,10.0,0.5],[1.25,1.25,1.25,10.0]],"rows":4}}\n',
                                    ''),
 ('closure maxmin graph', 'table'): (0,
                                     '10.0  5.0  9.0  0.5\n'
                                     ' 0.5 10.0  2.0  0.5\n'
                                     ' 0.5  0.5 10.0  0.5\n'
                                     '1.25 1.25 1.25 10.0\n',
                                     ''),
 ('closure maxmin interval', 'json'): (0,
                                       '{"result":{"cols":2,"data":[[[10.0,10.0],[0.0,0.0]],[[3.0,10.0],[10.0,10.0]]],"rows":2}}\n',
                                       ''),
 ('closure maxmin interval', 'table'): (0,
                                        '[10.0,10.0]           .\n'
                                        ' [3.0,10.0] [10.0,10.0]\n',
                                        ''),
 ('closure maxmin tag bounds', 'json'): (0,
                                         '{"result":{"cols":3,"data":[["inf","-inf","inf"],[1.0,"inf",1.0],[3.0,"-inf","inf"]],"rows":3}}\n',
                                         ''),
 ('closure maxmin tag bounds', 'table'): (0,
                                          'inf   . inf\n'
                                          '1.0 inf 1.0\n'
                                          '3.0   . inf\n',
                                          ''),
 ('closure maxplus', 'json'): (0,
                               '{"result":{"cols":3,"data":[[0.0,0.0,3.5],[-0.5,0.0,3.5],[-4.0,-4.0,0.0]],"rows":3}}\n',
                               ''),
 ('closure maxplus', 'table'): (0,
                                ' 0.0  0.0 3.5\n'
                                '-0.5  0.0 3.5\n'
                                '-4.0 -4.0 0.0\n',
                                ''),
 ('closure maxplus gauss_jordan', 'json'): (0,
                                            '{"result":{"cols":3,"data":[[0.0,-0.0,3.5],[-0.5,0.0,3.5],[-4.0,-4.0,0.0]],"rows":3}}\n',
                                            ''),
 ('closure maxplus gauss_jordan', 'table'): (0,
                                             ' 0.0 -0.0 3.5\n'
                                             '-0.5  0.0 3.5\n'
                                             '-4.0 -4.0 0.0\n',
                                             ''),
 ('closure maxplus interval', 'json'): (0,
                                        '{"result":{"cols":3,"data":[[[0.0,0.0],[-8.0,-5.0],[-2.0,0.0]],[["-inf",-2.0],[0.0,0.0],["-inf",-2.0]],[[-1.0,0.0],[-6.0,-5.0],[0.0,0.0]]],"rows":3}}\n',
                                        ''),
 ('closure maxplus interval', 'table'): (0,
                                         '  [0.0,0.0] [-8.0,-5.0]  '
                                         '[-2.0,0.0]\n'
                                         '[-inf,-2.0]   [0.0,0.0] '
                                         '[-inf,-2.0]\n'
                                         ' [-1.0,0.0] [-6.0,-5.0]   '
                                         '[0.0,0.0]\n',
                                         ''),
 ('closure maxplus iterative', 'json'): (0,
                                         '{"iterations":3,"result":{"cols":3,"data":[[0.0,-0.0,3.5],[-0.5,0.0,3.5],[-4.0,-4.0,0.0]],"rows":3},"truncated":false}\n',
                                         ''),
 ('closure maxplus iterative', 'table'): (0,
                                          ' 0.0 -0.0 3.5\n'
                                          '-0.5  0.0 3.5\n'
                                          '-4.0 -4.0 0.0\n'
                                          'iterations: 3\n'
                                          'truncated: false\n',
                                          ''),
 ('closure minplus graph', 'json'): (0,
                                     '{"result":{"cols":4,"data":[[0.0,5.0,7.0,7.5],[3.75,0.0,2.0,2.5],[1.75,6.75,0.0,0.5],[1.25,6.25,8.25,0.0]],"rows":4}}\n',
                                     ''),
 ('closure minplus graph', 'table'): (0,
                                      ' 0.0  5.0  7.0 7.5\n'
                                      '3.75  0.0  2.0 2.5\n'
                                      '1.75 6.75  0.0 0.5\n'
                                      '1.25 6.25 8.25 0.0\n',
                                      ''),
 ('closure real_field iterative', 'json'): (0,
                                            '{"iterations":5,"result":{"cols":2,"data":[[1.96875,-0.55059814453125],[0.0,1.142852783203125]],"rows":2},"truncated":true}\n',
                                            ''),
 ('closure real_field iterative', 'table'): (0,
                                             '1.96875 -0.55059814453125\n'
                                             '      . 1.142852783203125\n'
                                             'iterations: 5\n'
                                             'truncated: true\n',
                                             ''),
 ('closure rplus signed zero', 'json'): (0,
                                         '{"result":{"cols":2,"data":[[1.3333333333333333,-0.0],[0.6666666666666666,1.0]],"rows":2}}\n',
                                         ''),
 ('closure rplus signed zero', 'table'): (0,
                                          '1.3333333333333333   .\n'
                                          '0.6666666666666666 1.0\n',
                                          ''),
 ('closure rplus_complete', 'json'): (0,
                                      '{"result":{"cols":2,"data":[[2.0,"inf"],[0.0,"inf"]],"rows":2}}\n',
                                      ''),
 ('closure rplus_complete', 'table'): (0, '2.0 inf\n  . inf\n', ''),
 ('factor boolean', 'json'): (0,
                              '{"result":{"d":[false,false],"l":{"cols":2,"data":[[false,false],[false,false]],"rows":2},"m":{"cols":2,"data":[[false,true],[false,false]],"rows":2}}}\n',
                              ''),
 ('factor boolean', 'table'): (0,
                               'L:\n'
                               '  . .\n'
                               '  . .\n'
                               'D:\n'
                               '  . .\n'
                               'M:\n'
                               '  . true\n'
                               '  .    .\n',
                               ''),
 ('factor maxplus counts', 'json'): (0,
                                     '{"counts":{"adds":5,"muls":11,"stars":6},"result":{"d":[-1.0,-2.0,-0.5],"l":{"cols":3,"data":[["-inf","-inf","-inf"],["-inf","-inf","-inf"],[-4.0,-4.0,"-inf"]],"rows":3},"m":{"cols":3,"data":[["-inf",0.0,"-inf"],["-inf","-inf",3.5],["-inf","-inf","-inf"]],"rows":3}}}\n',
                                     ''),
 ('factor maxplus counts', 'table'): (0,
                                      'L:\n'
                                      '     .    . .\n'
                                      '     .    . .\n'
                                      '  -4.0 -4.0 .\n'
                                      'D:\n'
                                      '  -1.0 -2.0 -0.5\n'
                                      'M:\n'
                                      '  . 0.0   .\n'
                                      '  .   . 3.5\n'
                                      '  .   .   .\n'
                                      'counts: adds=5 muls=11 stars=6\n',
                                      ''),
 ('factor minplus interval', 'json'): (0,
                                       '{"result":{"d":[[2.0,1.0],[0.0,0.0]],"l":{"cols":2,"data":[[["inf","inf"],["inf","inf"]],[[3.0,0.5],["inf","inf"]]],"rows":2},"m":{"cols":2,"data":[[["inf","inf"],["inf","inf"]],[["inf","inf"],["inf","inf"]]],"rows":2}}}\n',
                                       ''),
 ('factor minplus interval', 'table'): (0,
                                        'L:\n'
                                        '          . .\n'
                                        '  [3.0,0.5] .\n'
                                        'D:\n'
                                        '  [2.0,1.0] [0.0,0.0]\n'
                                        'M:\n'
                                        '  . .\n'
                                        '  . .\n',
                                        ''),
 ('invert', 'json'): (0,
                      '{"result":{"cols":2,"data":[[2.0,-0.0],[0.0,1.3333333333333333]],"rows":2}}\n',
                      ''),
 ('invert', 'table'): (0,
                       '2.0                  .\n  . 1.3333333333333333\n',
                       ''),
 ('invert blocked', 'json'): (4,
                              '',
                              'error: star of 1 does not exist in real_field '
                              'at pivots 1, 2; no symmetric permutation of the '
                              'matrix avoids them (at 1)\n'),
 ('invert blocked', 'table'): (4,
                               '',
                               'error: star of 1 does not exist in real_field '
                               'at pivots 1, 2; no symmetric permutation of '
                               'the matrix avoids them (at 1)\n'),
 ('invert negative', 'json'): (0,
                               '{"result":{"cols":2,"data":[[0.6736842105263158,0.08421052631578949],[0.04210526315789474,0.5052631578947369]],"rows":2}}\n',
                               ''),
 ('invert negative', 'table'): (0,
                                ' 0.6736842105263158 0.08421052631578949\n'
                                '0.04210526315789474  0.5052631578947369\n',
                                ''),
 ('invert pivot search', 'json'): (0,
                                   '{"result":{"cols":4,"data":[[-0.33333333333333304,0.0,-0.33333333333333326,-0.33333333333333326],[0.5,0.0,0.0,0.0],[-0.33333333333333326,-0.5,-0.33333333333333326,-0.3333333333333333],[0.16666666666666652,-0.33333333333333304,-0.33333333333333304,4.440892098500626e-16]],"rows":4}}\n',
                                   ''),
 ('invert pivot search', 'table'): (0,
                                    '-0.33333333333333304                    '
                                    '. -0.33333333333333326  '
                                    '-0.33333333333333326\n'
                                    '                 0.5                    '
                                    '.                    '
                                    '.                     .\n'
                                    '-0.33333333333333326                 '
                                    '-0.5 -0.33333333333333326   '
                                    '-0.3333333333333333\n'
                                    ' 0.16666666666666652 '
                                    '-0.33333333333333304 '
                                    '-0.33333333333333304 '
                                    '4.440892098500626e-16\n',
                                    ''),
 ('invert pivoted', 'json'): (0,
                              '{"result":{"cols":2,"data":[[0.5,-0.33333333333333326],[-0.5,2.220446049250313e-16]],"rows":2}}\n',
                              ''),
 ('invert pivoted', 'table'): (0,
                               ' 0.5  -0.33333333333333326\n'
                               '-0.5 2.220446049250313e-16\n',
                               ''),
 ('null vector entry', 'json'): (2,
                                 '',
                                 'error: <dir>/b.json[2]: not a scalar: '
                                 'None\n'),
 ('null vector entry', 'table'): (2,
                                  '',
                                  'error: <dir>/b.json[2]: not a scalar: '
                                  'None\n'),
 ('paths maxmin', 'json'): (0,
                            '{"result":{"cols":4,"data":[[10.0,5.0,9.0,0.5],[0.5,10.0,2.0,0.5],[0.5,0.5,10.0,0.5],[1.25,1.25,1.25,10.0]],"rows":4}}\n',
                            ''),
 ('paths maxmin', 'table'): (0,
                             '10.0  5.0  9.0  0.5\n'
                             ' 0.5 10.0  2.0  0.5\n'
                             ' 0.5  0.5 10.0  0.5\n'
                             '1.25 1.25 1.25 10.0\n',
                             ''),
 ('paths maxmin tag bounds', 'json'): (0,
                                       '{"result":{"cols":4,"data":[["inf",5.0,9.0,0.5],[0.5,"inf",2.0,0.5],[0.5,0.5,"inf",0.5],[1.25,1.25,1.25,"inf"]],"rows":4}}\n',
                                       ''),
 ('paths maxmin tag bounds', 'table'): (0,
                                        ' inf  5.0  9.0 0.5\n'
                                        ' 0.5  inf  2.0 0.5\n'
                                        ' 0.5  0.5  inf 0.5\n'
                                        '1.25 1.25 1.25 inf\n',
                                        ''),
 ('paths minplus', 'json'): (0,
                             '{"result":{"cols":4,"data":[[0.0,5.0,7.0,7.5],[3.75,0.0,2.0,2.5],[1.75,6.75,0.0,0.5],[1.25,6.25,8.25,0.0]],"rows":4}}\n',
                             ''),
 ('paths minplus', 'table'): (0,
                              ' 0.0  5.0  7.0 7.5\n'
                              '3.75  0.0  2.0 2.5\n'
                              '1.75 6.75  0.0 0.5\n'
                              '1.25 6.25 8.25 0.0\n',
                              ''),
 ('profit horizon', 'json'): (0, '{"result":[11.5,10.0,"-inf"]}\n', ''),
 ('profit horizon', 'table'): (0, '11.5 10.0 .\n', ''),
 ('profit interval', 'json'): (5,
                               '',
                               'error: profit search needs maxplus, got '
                               'interval(maxplus)\n'),
 ('profit interval', 'table'): (5,
                                '',
                                'error: profit search needs maxplus, got '
                                'interval(maxplus)\n'),
 ('profit unbounded', 'json'): (0, '{"result":[13.0,10.0,10.0]}\n', ''),
 ('profit unbounded', 'table'): (0, '13.0 10.0 10.0\n', ''),
 ('solve maxplus', 'json'): (0,
                             '{"result":{"cols":2,"data":[[3.5,5.5],[3.5,5.5],[0.0,2.0]],"rows":3}}\n',
                             ''),
 ('solve maxplus', 'table'): (0, '3.5 5.5\n3.5 5.5\n0.0 2.0\n', ''),
 ('solve maxplus interval', 'json'): (0,
                                      '{"result":{"cols":1,"data":[[[0.0,1.0]],[["-inf",-1.0]],[[-1.0,1.0]]],"rows":3}}\n',
                                      ''),
 ('solve maxplus interval', 'table'): (0,
                                       '  [0.0,1.0]\n'
                                       '[-inf,-1.0]\n'
                                       ' [-1.0,1.0]\n',
                                       ''),
 ('vector not an array', 'json'): (2,
                                   '',
                                   'error: <dir>/b.json: expected a '
                                   'non-empty JSON array of scalars\n'),
 ('vector not an array', 'table'): (2,
                                    '',
                                    'error: <dir>/b.json: expected a '
                                    'non-empty JSON array of scalars\n')}


@pytest.mark.parametrize("label", sorted(DECODE_CASES))
def test_decode_outcome_is_pinned(label):
    assert decode_outcome(label) == DECODE_GOLDEN[label]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("label", sorted(CLI_CASES))
def test_cli_output_is_pinned(tmp_path, capsys, label, fmt):
    assert cli_outcome(tmp_path, capsys, label, fmt) == CLI_GOLDEN[label, fmt]


# stdout of --help at 80 columns, per command ("semiralg" is the program)
HELP_GOLDEN = {
    "semiralg": """\
usage: semiralg [-h] command ...

Generic semiring linear algebra: closures, Bellman systems, factorizations, and path problems.

positional arguments:
  command
    closure   matrix closure A* (matrix or graph input)
    solve     least solution of X = AX + B
    factor    triangular factorization of A
    paths     all-pairs optimal path values (minplus: shortest, maxmin:
              widest)
    profit    staged decision values over maxplus
    invert    (I - A)^-1 over the real field

options:
  -h, --help  show this help message and exit

exit codes:
  0  success
  1  other failure (no stabilization, bad option combination, ...)
  2  unreadable or malformed input
  3  dimension, shape, or descriptor mismatch
  4  star undefined: the computation hit an element without a closure
  5  semiring selection error (unknown name, bad bounds,
     command unavailable for the chosen semiring)
""",
    "closure": """\
usage: semiralg closure [-h] --semiring NAME[,a,b] [--interval]
                        [--format {json,table}]
                        [--algorithm {block,gauss_jordan,iterative}]
                        [--split K] [--max-iterations N]
                        A.json

positional arguments:
  A.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
  --algorithm {block,gauss_jordan,iterative}
  --split K             fixed leading-block size for the block algorithm
  --max-iterations N    truncation point of the iterative series on non-
                        idempotent semirings
""",
    "solve": """\
usage: semiralg solve [-h] --semiring NAME[,a,b] [--interval]
                      [--format {json,table}]
                      [--algorithm {block,gauss_jordan,iterative}] [--split K]
                      [--max-iterations N]
                      A.json B.json

positional arguments:
  A.json
  B.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
  --algorithm {block,gauss_jordan,iterative}
  --split K             fixed leading-block size for the block algorithm
  --max-iterations N    truncation point of the iterative series on non-
                        idempotent semirings
""",
    "factor": """\
usage: semiralg factor [-h] --semiring NAME[,a,b] [--interval]
                       [--format {json,table}] [--count-ops]
                       A.json

positional arguments:
  A.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
  --count-ops           report exact add/mul/star counts
""",
    "paths": """\
usage: semiralg paths [-h] --semiring NAME[,a,b] [--interval]
                      [--format {json,table}]
                      [--algorithm {block,gauss_jordan,iterative}] [--split K]
                      [--max-iterations N]
                      G.json

positional arguments:
  G.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
  --algorithm {block,gauss_jordan,iterative}
  --split K             fixed leading-block size for the block algorithm
  --max-iterations N    truncation point of the iterative series on non-
                        idempotent semirings
""",
    "profit": """\
usage: semiralg profit [-h] --semiring NAME[,a,b] [--interval]
                       [--format {json,table}]
                       [--algorithm {block,gauss_jordan,iterative}]
                       [--split K] [--max-iterations N] [--horizon K|inf]
                       G.json b.json

positional arguments:
  G.json
  b.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
  --algorithm {block,gauss_jordan,iterative}
  --split K             fixed leading-block size for the block algorithm
  --max-iterations N    truncation point of the iterative series on non-
                        idempotent semirings
  --horizon K|inf       number of steps; 'inf' (default) searches over all
                        walk lengths via the closure
""",
    "invert": """\
usage: semiralg invert [-h] --semiring NAME[,a,b] [--interval]
                       [--format {json,table}]
                       A.json

positional arguments:
  A.json

options:
  -h, --help            show this help message and exit
  --semiring NAME[,a,b]
                        semiring to compute in (rplus, rplus_complete,
                        maxplus, maxplus_complete, minplus, boolean,
                        real_field, or maxmin,a,b); never inferred from the
                        data
  --interval            treat scalars as [lo,hi] intervals over the chosen
                        semiring
  --format {json,table}
                        output as canonical JSON (default) or an aligned table
                        with the semiring zero shown as '.'
""",
}


# label -> (input bytes, stderr), for files the JSON reader refuses
# before any cell is decoded
READ_GOLDEN = {
    "not utf-8": (b"\xff\xfe\x00bad", "error: <dir>/a.json: not UTF-8 "
                  "text: invalid start byte at byte 0\n"),
    "nested too deeply": (b"[" * 100_000 + b"]" * 100_000,
                          "error: <dir>/a.json: invalid JSON: arrays or "
                          "objects nested too deeply\n"),
}


@pytest.mark.parametrize("label", sorted(READ_GOLDEN))
def test_read_error_is_pinned(tmp_path, capsys, label):
    raw, expected = READ_GOLDEN[label]
    path = tmp_path / "a.json"
    path.write_bytes(raw)
    code = cli.main(["closure", "--semiring", "maxplus", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err.replace(str(tmp_path), "<dir>")) == \
        (2, "", expected)


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(([] if command == "semiralg" else [command]) + ["--help"])
    out, err = capsys.readouterr()
    # the argparse of Python 3.10 heads the options "optional arguments:"
    out = out.replace("optional arguments:", "options:")
    assert (code, out, err) == (0, HELP_GOLDEN[command], "")


@pytest.mark.parametrize("argv,missing", [
    (["solve"], "A.json, B.json"), (["solve", "a.json"], "B.json"),
    (["profit"], "G.json, b.json"), (["profit", "g.json"], "b.json")])
def test_missing_inputs_exit_2(capsys, argv, missing):
    code = cli.main(argv[:1] + ["--semiring", "maxplus"] + argv[1:])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(f"error: the following arguments are required: "
                        f"{missing}\n")


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    # every command in both formats, the lift, a horizon, and each way
    # argparse can end a run: an unknown flag, a bad horizon, a missing
    # --semiring, and --help, in one process
    files = {}
    for label in ("closure maxplus", "solve maxplus", "factor maxplus counts",
                  "paths maxmin", "profit horizon", "invert",
                  "closure maxplus interval"):
        argv, docs = CLI_CASES[label]
        for name, doc in docs.items():
            path = tmp_path / f"{label.replace(' ', '_')}_{name}.json"
            path.write_text(json.dumps(doc))
            files[label, name] = str(path)

    def case(label, *extra):
        argv, docs = CLI_CASES[label]
        return [a.format(**{n: files[label, n] for n in docs})
                for a in argv] + list(extra)

    g, b = files["profit horizon", "g"], files["profit horizon", "b"]
    sequence = [
        case("closure maxplus"),
        ["closure", "--semiring", "maxplus", "--bogus", g],
        case("solve maxplus", "--format", "table"),
        ["profit", "--semiring", "maxplus", "--horizon", "-1", g, b],
        case("factor maxplus counts", "--format", "table"),
        ["paths", files["paths maxmin", "g"]],
        case("paths maxmin"),
        ["--help"],
        case("profit horizon", "--format", "table"),
        ["profit", "--semiring", "maxplus", "--horizon", "x", g, b],
        case("profit horizon"),
        ["closure", "--help"],
        case("invert", "--format", "table"),
        case("closure maxplus interval", "--format", "table"),
        ["factor", "--semiring", "maxplus", "--algorithm", "block", g],
        ["profit", "--semiring", "maxplus", "--horizon", "inf", g, b],
        [],
        case("closure maxplus", "--format", "table"),
    ]

    def outcome(argv):
        capsys.readouterr()
        code = cli.main(list(argv))
        return (code,) + tuple(capsys.readouterr())

    reused = [outcome(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    codes = [r[0] for r in reused]
    assert codes == [0, 2, 0, 2, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 2, 0]
    assert reused[7][1].startswith("usage: semiralg")


# ------------------------------------------------------ invert's pivot search


def _pivoted_rows(seed):
    """A seeded n x n input, n in 2..9, on which Gauss-Jordan in index
    order meets a unit pivot at once: entry (0, 0) and about a third of
    the other diagonal entries are 1.  Half are sparse small integers,
    half dense thousandths in [-1, 1)."""
    rand = random.Random(seed)
    n = 2 + int(rand.random() * 8)
    sparse = rand.random() < 0.5
    if sparse:
        rows = [[float(int(rand.random() * 7) - 3) if rand.random() < 0.5
                 else 0.0 for _ in range(n)] for _ in range(n)]
    else:
        rows = [[int(rand.random() * 2000 - 1000) / 1000 for _ in range(n)]
                for _ in range(n)]
    for i in range(n):
        if i == 0 or rand.random() < 0.3:
            rows[i][i] = 1.0
    return rows


_REAL = make_semiring("real_field")
_X = 1e200
# label -> rows of an input whose pivot search ends in an error
INVERT_FAILURES = {
    "blocked": _pivoted_rows(4),
    "step budget": _pivoted_rows(50),
    # replaying the path after a step back counts against the budget
    "step budget with replays": _pivoted_rows(644),
    # the search meets a diagonal entry past the float range
    "overflow at a pivot": [[1.0, 1e300], [1e300, 0.5]],
    # the closure has an entry past the float range off the diagonal
    "overflow at decode": [[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0],
                           [_X, 0.0, 0.5, 0.0], [0.0, 0.0, _X, 0.25]],
}


def invert_outcome(rows):
    """repr of the closure's rows, or (error type, message, location)."""
    try:
        return repr(real_matrix_star(Matrix(_REAL, rows)).to_lists())
    except SemiringError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "location", None))


# seed of _pivoted_rows -> repr of the closure's rows; 2091, 2941, 691
# and 880 make the search go back
INVERT_GOLDEN = {0: '[[-1.7637833187728997, 1.2660758171823918, 1.0263192847668994, '
    '0.5400597641464491, 1.5812260763080144, -1.9418655260696989, '
    '-1.2511457854460402, -1.3719162615822578], [-1.159380089305992, '
    '0.997381346909817, 0.3124551940291224, -0.10431912333160898, '
    '1.3343476939290142, -0.9727190559441321, -0.4059819318079416, '
    '-0.4593447313546526], [-0.2654957690904649, 0.2686776802761976, '
    '0.5028894534355666, -0.17482956285078194, 0.4003540261165009, '
    '-0.4226715166348833, -0.0378167143929474, -0.6275761933496761], '
    '[2.0144685990885307, -1.3020428568117612, -1.0636768057347976, '
    '-0.49917440226876675, -1.2537631894108807, 0.9440520622918965, '
    '1.383366516275707, 0.5955723940484172], [-0.5424894096071716, '
    '-0.37756928756109254, -0.5563950758367713, -0.5703739379121862, '
    '-0.21661867777733734, 0.49222511340758174, 0.3085457665894467, '
    '0.12249471825369873], [1.769203005260999, -1.0376212478384952, '
    '-0.6299324423592946, -0.6922811396265977, -1.1265730211133045, '
    '1.241323761246595, 0.21736709273445898, 0.5127079504662265], '
    '[1.037407608295511, -0.8154999341435749, 0.01973941841666066, '
    '-0.048326109528557926, -0.09726332406908111, 0.8018857188183022, '
    '0.05138089012898872, 0.0866598212582777], [-0.7206158795315942, '
    '-0.022756649842005205, 0.037721770218408474, -0.555217889214102, '
    '0.4321582771457734, -0.2081119146396939, -0.11547196739782661, '
    '0.2505261546458437]]',
 1: '[[-3.098731984852214, 0.6105682809165065, 1.1555820241717154], '
    '[2.0102790572771894, 0.029279584477983844, -0.003641918758961027], '
    '[1.8859489990504814, -1.590857423303775, 0.19787758590354831]]',
 2: '[[6.118133349573842, -2.7787535471316787, -0.38166047478817244, '
    '0.48490446497753, -2.367285110436776, -2.0863628897020137, '
    '-0.19918756584470126, 3.1925820742281252, 4.97744384185629], '
    '[0.38411915663994445, -0.040768644672771526, 0.6077470959693387, '
    '-0.07351271408920013, 0.1718079459115025, 0.1820837694965173, '
    '0.16941644644787762, -0.3256316899716935, -0.14934437270839196], '
    '[-1.2738203924130036, -0.01950106554668389, 0.9720830336517631, '
    '-0.5222481897866703, -0.06142427223231819, 1.1818655450430324, '
    '0.3635937319615647, 0.03752385097716771, -1.170016746409793], '
    '[-0.0026649030624699144, -0.07097066733858542, -0.294451185848255, '
    '0.45877285385454936, 0.10493518032890631, -0.4463071006333385, '
    '-0.38058682015895073, -0.5623937239594837, 0.618552102365993], '
    '[0.7598227552256327, -0.6807860741762288, 0.4866914973715541, '
    '-0.03291694054222175, 0.09990954832954446, -0.3420265451854123, '
    '0.10564460044196701, 0.18442820300818585, 0.31209673830156], '
    '[3.42462857096763, -2.0483401497420997, 0.23809433798568852, '
    '-0.40890906220259626, -1.8219639018339997, -0.4469067612632962, '
    '0.1542380841786276, 2.0196517453733978, 2.322431438631969], '
    '[1.0350689302986622, -0.5125178280518987, -0.2036286398682092, '
    '0.3552832375988344, -0.3573919952673208, -0.8675871064846254, '
    '0.27839323148911777, 0.32023418540890836, 1.0950149242330371], '
    '[6.643215989096145, -3.200512990651564, -0.04085077185575043, '
    '-0.24295887280173836, -2.815224393152198, -1.638590269382158, '
    '0.3060517206385095, 3.60139031891715, 5.710444085936144], '
    '[-2.5050493150684816, 1.5356645288679203, -0.18710162407761466, '
    '-0.5917230303013832, 0.47963816681463756, 0.2861270000138758, '
    '-0.15065480998310615, -0.9517773594980719, -1.8213885313181524]]',
 3: '[[1.9642950826757923, -0.6871903207367667, 3.31908773056032], '
    '[-1.736073518289207, 0.6313075424437337, -1.1392410537238271], '
    '[-2.5523218394985427, -0.5206400848041944, 0.939533458648734]]',
 5: '[[362.5492887213488, -403.2625475733062, 0.22727436583214178, '
    '280.297650020906, -28.392707735074083, -425.54312402586004], '
    '[412.2181408483174, -457.5318082412033, 0.5595380174590807, '
    '318.1503015317393, -32.590780536999304, -484.38545075055185], '
    '[-4.731126339087282, 4.15420389582761, 0.41749514723062975, '
    '-3.080787704045237, -0.27018541003364027, 5.582311465695516], '
    '[-25.826740351127615, 28.93716607227027, 0.05048726999842358, '
    '-19.62826474466215, 2.441098478800129, 30.377146955393812], '
    '[359.06803606210576, -397.5445269308958, 0.7754352226615333, '
    '276.77706857878155, -28.18931985507936, -420.69311640239937], '
    '[50.79170886318645, -58.17480606107886, 0.11086021046273462, '
    '40.52488627487751, -5.19458391730186, -59.00406921190738]]',
 6: '[[-3.87969710086396, 6.147803110128619, 1.037684125275882, '
    '2.7337470948324754, 5.173010425888159, 1.1169794570161367, '
    '1.1019061863633346, -1.8393110338538832], [-5.6672714226450775, '
    '7.922381370723311, 1.9071432061394327, 3.927385822978989, '
    '6.291314576787958, 1.1538644760216794, 1.6123123655372864, '
    '-3.2301092148805846], [-1.5103676574360527, 2.8417482127828975, '
    '0.5847459035164495, 1.5157862850859696, 2.582644365510985, '
    '0.751225176658737, 0.7078148241204183, -0.9617729674941522], '
    '[2.104082824987435, -2.2892713837839858, -0.8912710250107905, '
    '-0.9570056633008766, -2.4482073470605075, -0.5490032470736981, '
    '-0.45609843633591823, 1.197913158613741], [5.339810205362346, '
    '-7.231883070290818, -2.3976668026257157, -3.210722654994407, '
    '-5.761527760279273, -2.001463834507881, -0.7355672062914801, '
    '2.6359244627584775], [-2.5983707773482103, 2.6718311452520194, '
    '0.8507008501659701, 1.7105949899071127, 2.924434815542611, '
    '0.14054197098559262, 1.0177992697347418, -0.9340429360579715], '
    '[2.803379996968851, -3.0497797726291194, -0.7847509445782104, '
    '-1.850794475728599, -3.05270358777769, -0.6604662110130219, '
    '-0.38060587883891217, 1.5715164267357302], [-6.513790796824759, '
    '8.831513793992741, 1.8520487690638272, 3.980093615455314, '
    '6.926572282704365, 2.074099808895494, 1.7682779881323079, '
    '-3.4255249523672298]]',
 10: '[[-0.5833333333333348, 0.0, 0.1666666666666675, 0.3888888888888892, '
     '-0.1111111111111112, 0.0555555555555556], [1.416666666666668, 1.0, '
     '-2.833333333333334, -0.944444444444445, 0.5555555555555555, '
     '0.7222222222222223], [0.5833333333333337, 0.0, -1.166666666666667, '
     '-0.38888888888888895, 0.11111111111111112, -0.05555555555555556], '
     '[-0.3333333333333334, 0.0, 0.666666666666667, 0.22222222222222232, '
     '0.22222222222222224, -0.11111111111111112], [0.1666666666666663, 0.0, '
     '-0.33333333333333326, -0.11111111111111094, -0.11111111111111116, '
     '-0.4444444444444445], [1.9166666666666683, 1.0, -2.8333333333333344, '
     '-0.944444444444445, 0.5555555555555556, 0.7222222222222222]]',
 11: '[[2.277469650770602, 0.6103379780039908, 0.7741061940159907, '
     '-0.3928960718407214, -0.2824724294460925], [-1.9766474098457798, '
     '0.40273818835559494, -0.36938998628541453, -0.3690657659744933, '
     '0.5613948120831548], [-1.9268650322308438, -0.8113758634590059, '
     '-0.01839536183318624, -0.044552094417996846, 0.8036274034701746], '
     '[-0.32599414144092265, 0.28887161048644705, 0.2884738760975195, '
     '0.24266363223589305, 0.0695190939185332], [1.6647397901195713, '
     '0.01699496105488285, 0.1191064175886965, 0.10579628996673174, '
     '-0.022260498139328844]]',
 12: '[[0.7708780427949302, -2.287413908986121, -1.0536099159214123, '
     '-0.815417527112416, 0.27866689759316177], [-0.1829906240448994, '
     '-2.27488393536753, -0.7598661797238416, 0.1064111303807008, '
     '1.1752909772677753], [2.3794944305054755, 1.4020187081174793, '
     '-0.4714015272993679, -1.0838200898215715, -0.7501197144323801], '
     '[1.6697331908203399, 0.7314761369278193, -0.5110995462324512, '
     '-0.3511818589062805, -0.8657630687876534], [-3.5785444460562803, '
     '0.1557068715777545, 2.5085366576046964, 2.3764832937477762, '
     '0.2458982043072938]]',
 13: '[[0.5959952312148479, 0.8097911339263099, 0.4708934022738228, '
     '-0.6789520615154494], [-1.153079413797214, 0.27496932637546334, '
     '0.4345492856174795, 0.24727602872061905], [0.5172282655987531, '
     '-0.12434987755343896, 0.5626047529938394, -0.18155282720117394], '
     '[-0.2410200401979041, 0.5018964924045225, -0.09293751583481494, '
     '0.5327394861139954]]',
 14: '[[3.700019892580068, 2.188183807439825], [-1.1363636363636365, 0.0]]',
 15: '[[-0.05272774732445851, -0.33803184547115683, 0.002349256068911478, '
     '-0.05116157661185061, 0.1725398068389456, 0.22317932654659378, '
     '-0.165492038632211, 0.07830853563038365, 0.05116157661185066], '
     '[0.13938919342208284, -0.04698512137823041, 0.023492560689115503, '
     '0.15505090054815934, 0.058731401722787985, 0.23179326546593587, '
     '0.011746280344557707, -0.2169146436961622, -0.15505090054815968], '
     '[-0.4173844949099451, -0.10649960845732244, 0.05324980422866077, '
     '-0.04855129209083786, 0.13312451057165234, 0.05873140172278782, '
     '0.02662490211433039, 0.44166014095536404, 0.048551292090837875], '
     '[-0.1618376403027929, -0.19263899765074471, 0.09631949882537197, '
     '-0.09762464108587832, 0.07413208039676325, 0.1503523884103367, '
     '0.21482641607935263, 0.21064996084573212, 0.09762464108587827], '
     '[0.3800574262594624, -0.0981466979900811, -0.28425998433829297, '
     '0.19055077003393375, 0.1226833724876012, -0.004698512137822852, '
     '0.024536674497520283, -0.4753328112764292, -0.19055077003393367], '
     '[-0.1127642913077525, -0.366483946750197, 0.18324197337509784, '
     '0.009397024275646128, 0.458104933437745, 0.40798747063429963, '
     '0.09162098668754878, 0.10806577916992927, -0.009397024275646048], '
     '[-0.21456538762725136, -0.19733750978856765, 0.0986687548942834, '
     '-0.14878621769772887, 0.24667188723570885, 0.37353171495693055, '
     '0.04933437744714153, 0.28895849647611566, 0.14878621769772907], '
     '[-0.3444705472896543, -0.25841816758026714, 0.12920908379013307, '
     '-0.2583311580962324, 0.26746715391977727, 0.2748629600626469, '
     '0.12016009745062209, 0.6403027930044374, -0.07500217523710079], '
     '[0.19028974158183237, -0.13155833985904497, 0.06577916992952224, '
     '0.2341425215348471, 0.1644479248238058, 0.2490211433046202, '
     '0.03288958496476127, 0.19263899765074383, -0.23414252153484738]]',
 16: '[[-0.05555555555555558, -0.16666666666666663, -0.5, '
     '0.05555555555555555], [-0.16666666666666669, 0.5, 0.5, '
     '0.16666666666666669], [-0.16666666666666663, -0.5, -0.5, '
     '0.16666666666666663], [0.6666666666666667, 0.0, 0.0, '
     '0.33333333333333326]]',
 19: '[[0.9375958882551163, -0.1323616996840027, 0.4937819693744243, '
     '-1.0841610577973917, -1.2125592578605195, -0.29586315696550525, '
     '-2.5145330107117645], [-0.25703426341486674, 0.3600814840141543, '
     '-0.38425862988722687, 1.7174218782844035, 0.8446408937333458, '
     '-0.3641239569534027, 2.6798313209051643], [-0.2308177965806682, '
     '-0.24029155175377848, 0.17233633068394094, 0.14894772030711056, '
     '0.03911539167238365, 0.1417027853254722, 1.1499876537610485], '
     '[-0.5117185883519846, 0.27092854724047105, -0.04409797022411299, '
     '-0.8549998288780163, -0.4623937234662741, 0.38943566667944807, '
     '-1.1667202038350242], [0.6204652267495009, 0.4156508924456923, '
     '1.1945585645815147, -2.808620010102609, -1.0300688551184272, '
     '1.1517902769988067, -6.4981208174111815], [0.4610677971356865, '
     '0.6501801582420361, -0.60850423179555, -0.19116280834856092, '
     '0.24851691287412553, -0.3118528823213045, 1.1231445296158395], '
     '[-0.10525044235109818, -0.6376730145364508, -0.343624648074643, '
     '0.9937274906991926, -0.39814618976954774, 0.17397645519097651, '
     '1.2636142638670107]]',
 24: '[[6.683128881767808, 2.3476868282496777, -7.589826423470406, '
     '0.7788100641636434, -0.8236335515255186, 0.7634402340422829, '
     '2.380822766537626], [-0.5105929400539908, 1.3860784887975341, '
     '-0.883462464910523, -0.3984432223380584, 1.1658745884337507, '
     '-0.6059951643781044, 1.097124911936529], [-9.18197672769711, '
     '-4.91470888922794, 11.572376726818261, -1.4448039407396311, '
     '0.3700781034802634, -1.2806566807830788, -3.5408995320945773], '
     '[4.0476803708414275, 2.3391378146175112, -5.488670083136294, '
     '1.1702366773181305, -0.11600653117636879, 0.4913411927415307, '
     '1.9669408950737841], [5.0540113219799006, 3.8085006403479835, '
     '-7.133618065219196, 0.5967441596761208, 1.0105233118765096, '
     '0.4229284578270056, 3.3209336696183547], [6.366161082662641, '
     '1.016617684985913, -6.98503328419269, 1.4349996791733723, '
     '-1.3015693473964076, 0.28105048691429124, 0.09941496692601293], '
     '[9.521371503044108, 3.725809018922492, -10.90178923045435, '
     '1.6313602091639343, -0.8599140526225947, 0.20959651956492698, '
     '1.8196122025495667]]',
 28: '[[-0.6666666666666661, 1.0], [0.33333333333333326, 0.0]]',
 691: '[[0.0, 0.0, 0.0, 0.0, -0.25, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, '
      '0.0], [-0.0476190476190477, 0.0, -0.04761904761904723, '
      '-0.2857142857142858, -0.19047619047619066, -0.047619047619047644, '
      '0.047619047619047644], [0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0], '
      '[-1.0000000000000002, 0.0, 3.191891195797325e-16, '
      '1.942890293094024e-16, 1.1102230246251565e-16, -1.942890293094024e-16, '
      '1.942890293094024e-16], [0.0, 0.0, 4.0, 2.0, 4.0, -1.0, 2.0], [0.0, '
      '0.0, 0.0, 0.0, 1.0, 0.0, 0.0]]',
 880: '[[0.143410852713179, -0.2403100775193798, -0.3333333333333335, '
      '-0.2131782945736434, 0.09302325581395345, -0.5000000000000001, '
      '-0.02713178294573637, -0.06330749354005158, 0.4767441860465117], '
      '[-7.565008051515602e-16, 0.6666666666666665, 0.0, 0.6666666666666665, '
      '-0.3333333333333332, 0.0, -1.2393187251629637e-16, '
      '0.11111111111111091, -0.6666666666666665], [-0.3255813953488377, '
      '0.635658914728682, 0.0, 0.6821705426356589, -0.3643410852713177, '
      '-1.1102230246251565e-16, -0.04651162790697683, -0.21963824289405703, '
      '-0.6589147286821704], [0.4883720930232559, 0.04651162790697689, 0.0, '
      '-0.02325581395348819, 0.046511627906976674, 0.0, 0.06976744186046524, '
      '0.16279069767441884, 0.48837209302325574], [7.565008051515602e-16, '
      '-0.6666666666666664, 0.0, -0.6666666666666665, 0.33333333333333326, '
      '0.0, 1.2393187251629637e-16, 0.22222222222222232, 0.6666666666666665], '
      '[0.02325581395348819, -0.09302325581395347, 0.0, 0.046511627906976744, '
      '-0.0930232558139535, 4.440892098500626e-16, -0.13953488372093004, '
      '0.007751937984496193, 0.023255813953488413], [0.24418604651162834, '
      '0.023255813953488413, 0.0, -0.011627906976744151, '
      '0.023255813953488413, -0.5, 0.03488372093023173, 0.08139534883720945, '
      '0.24418604651162834], [0.015503875968992609, -0.06201550387596908, '
      '1.1102230246251565e-16, -0.30232558139534876, -0.06201550387596899, '
      '0.0, -0.09302325581395365, 0.0051679586563306845, '
      '0.015503875968992387], [-0.30232558139534893, 0.20930232558139522, '
      '0.0, 0.39534883720930225, 0.20930232558139544, 0.0, '
      '-0.1860465116279073, -0.10077519379844968, -0.3023255813953485]]',
 2091: '[[-0.33333333333333304, 0.0, -0.33333333333333326, '
       '-0.33333333333333326], [0.5, 0.0, 0.0, 0.0], [-0.33333333333333326, '
       '-0.5, -0.33333333333333326, -0.3333333333333333], '
       '[0.16666666666666652, -0.33333333333333304, -0.33333333333333304, '
       '4.440892098500626e-16]]',
 2941: '[[0.0, 0.33333333333333326, 0.0, 0.0, 0.5], [-2.0, '
       '4.440892098500626e-16, 2.0, 1.0, 3.0], [0.0, 0.0, 1.0, 0.0, 0.0], '
       '[0.0, 0.0, 0.0, 0.0, -0.5], [-1.0, 0.0, 0.0, 0.0, 1.0]]'}

INVERT_FAILURE_GOLDEN = {'blocked': ('StarUndefined',
             'star of 1 does not exist in real_field at pivots 1; no '
             'symmetric permutation of the matrix avoids them',
             1),
 'overflow at a pivot': ('IllegalElement',
                         'IEEE inf is not a real_field element; use the '
                         'infinity tags',
                         None),
 'overflow at decode': ('IllegalElement',
                        'a result left the float range (-inf); it is not a '
                        'real_field element',
                        None),
 'step budget': ('StarUndefined',
                 'star of 1 does not exist in real_field; no symmetric '
                 'permutation that avoids pivots 1, 2 was found in 40 '
                 'elimination steps',
                 1),
 'step budget with replays': ('StarUndefined',
                              'star of 1 does not exist in real_field; no '
                              'symmetric permutation that avoids pivots 1, 2, '
                              '3 was found in 40 elimination steps',
                              1)}


@pytest.mark.parametrize("seed", sorted(INVERT_GOLDEN))
def test_invert_with_pivot_search_is_pinned(seed):
    assert invert_outcome(_pivoted_rows(seed)) == INVERT_GOLDEN[seed]


@pytest.mark.parametrize("label", sorted(INVERT_FAILURES))
def test_invert_failure_is_pinned(label):
    assert invert_outcome(INVERT_FAILURES[label]) == \
        INVERT_FAILURE_GOLDEN[label]
