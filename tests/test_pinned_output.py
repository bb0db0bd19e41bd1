"""Pinned decode errors and command line output, and parser reuse.

The expected values below were produced by the per-cell decoder and
the decode-then-render table printer that the one-pass codecs
replaced; every message, error context and output byte must stay as
it was.  The parser test runs a mixed sequence of ``main`` calls in
one process and compares each with a run on a freshly built parser.
The ``invert`` outcomes, at the end and among the command line cases,
come from the elimination with partial pivoting by columns; each result
was checked against the exact inverse of E - A in fractions, within
1e-12 of its largest entry, and each failure against the exact rank of
E - A, before it was pinned.
"""

import json

import pytest

from conftest import pivoted_rows
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
    # the first pivot is 1 in index order: the rows are swapped
    "invert pivoted": (["invert", "--semiring", "real_field", "{a}"],
                       {"a": {"data": [[1.0, 2.0], [3.0, 4.0]]}}),
    # E - A is invertible, but every symmetric order of the pivots meets a 1
    "invert blocked": (["invert", "--semiring", "real_field", "{a}"],
                       {"a": {"data": [[1.0, 2.0], [2.0, 1.0]]}}),
    # ``pivoted_rows(2091)``: three of its four diagonal entries are 1
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
                                         '{"iterations":7,"result":{"cols":3,"data":[[0.0,-0.0,3.5],[-0.5,0.0,3.5],[-4.0,-4.0,0.0]],"rows":3},"truncated":false}\n',
                                         ''),
 ('closure maxplus iterative', 'table'): (0,
                                          ' 0.0 -0.0 3.5\n'
                                          '-0.5  0.0 3.5\n'
                                          '-4.0 -4.0 0.0\n'
                                          'iterations: 7\n'
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
                      '{"result":{"cols":2,"data":[[2.0,0.0],[0.0,1.3333333333333333]],"rows":2}}\n',
                      ''),
 ('invert', 'table'): (0,
                       '2.0                  .\n  . 1.3333333333333333\n',
                       ''),
 ('invert blocked', 'json'): (0,
                              '{"result":{"cols":2,"data":[[-0.0,-0.5],[-0.5,0.0]],"rows":2}}\n',
                              ''),
 ('invert blocked', 'table'): (0, '   . -0.5\n-0.5    .\n', ''),
 ('invert negative', 'json'): (0,
                               '{"result":{"cols":2,"data":[[0.6736842105263158,0.08421052631578947],[0.042105263157894736,0.5052631578947369]],"rows":2}}\n',
                               ''),
 ('invert negative', 'table'): (0,
                                '  0.6736842105263158 0.08421052631578947\n'
                                '0.042105263157894736  0.5052631578947369\n',
                                ''),
 ('invert pivot search', 'json'): (0,
                                   '{"result":{"cols":4,"data":[[-0.3333333333333333,0.0,-0.3333333333333333,-0.3333333333333333],[0.5,0.0,0.0,0.0],[-0.3333333333333333,-0.5,-0.3333333333333333,-0.3333333333333333],[0.16666666666666666,-0.3333333333333333,-0.3333333333333333,0.0]],"rows":4}}\n',
                                   ''),
 ('invert pivot search', 'table'): (0,
                                    '-0.3333333333333333                   . '
                                    '-0.3333333333333333 -0.3333333333333333\n'
                                    '                0.5                   . '
                                    '                  .                   .\n'
                                    '-0.3333333333333333                -0.5 '
                                    '-0.3333333333333333 -0.3333333333333333\n'
                                    '0.16666666666666666 -0.3333333333333333 '
                                    '-0.3333333333333333                   .\n',
                                    ''),
 ('invert pivoted', 'json'): (0,
                              '{"result":{"cols":2,"data":[[0.5,-0.3333333333333333],[-0.5,0.0]],"rows":2}}\n',
                              ''),
 ('invert pivoted', 'table'): (0,
                               ' 0.5 -0.3333333333333333\n'
                               '-0.5                   .\n',
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
 ('profit interval', 'json'): (0,
                               '{"result":[["-inf","-inf"],["-inf","-inf"]]}\n',
                               ''),
 ('profit interval', 'table'): (0, '. .\n', ''),
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


# -------------------------------------------------- invert's partial pivoting


_REAL = make_semiring("real_field")
_X = 1e200
# label -> rows of an input at the edge of what invert can do: a
# singular E - A, or entries near the end of the float range
INVERT_FAILURES = {
    # three singular inputs, named for the limits of a symmetric pivot
    # search that refused them before partial pivoting
    "blocked": pivoted_rows(4),
    "step budget": pivoted_rows(50),
    "step budget with replays": pivoted_rows(644),
    # pivots of 1e300: the result is within 1e-300 of numpy's
    "overflow at a pivot": [[1.0, 1e300], [1e300, 0.5]],
    # E - A is invertible, but its inverse has entries near 1e400, past
    # the float range
    "inverse past the float range": [[1.0, 2.0, 0.0, 0.0],
                                     [3.0, 4.0, 0.0, 0.0],
                                     [_X, 0.0, 0.5, 0.0],
                                     [0.0, 0.0, _X, 0.25]],
}


def invert_outcome(rows):
    """repr of the closure's rows, or (error type, message, location)."""
    try:
        return repr(real_matrix_star(Matrix(_REAL, rows)).to_lists())
    except SemiringError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "location", None))


# seed of pivoted_rows -> repr of the closure's rows
INVERT_GOLDEN = {0: '[[-1.7637833187728975, 1.2660758171823898, 1.0263192847668985, '
   '0.5400597641464483, 1.5812260763080133, -1.941865526069697, '
   '-1.2511457854460406, -1.3719162615822564], [-1.1593800893059918, '
   '0.9973813469098166, 0.3124551940291223, -0.10431912333160903, '
   '1.3343476939290144, -0.9727190559441322, -0.40598193180794184, '
   '-0.4593447313546525], [-0.26549576909046535, 0.26867768027619743, '
   '0.5028894534355666, -0.1748295628507821, 0.40035402611650095, '
   '-0.4226715166348833, -0.03781671439294754, -0.6275761933496756], '
   '[2.014468599088527, -1.302042856811759, -1.0636768057347967, '
   '-0.49917440226876575, -1.2537631894108787, 0.9440520622918941, '
   '1.3833665162757065, 0.5955723940484162], [-0.542489409607173, '
   '-0.3775692875610919, -0.5563950758367708, -0.570373937912186, '
   '-0.2166186777773369, 0.4922251134075811, 0.30854576658944666, '
   '0.12249471825369843], [1.7692030052609993, -1.0376212478384952, '
   '-0.6299324423592945, -0.6922811396265977, -1.1265730211133047, '
   '1.241323761246595, 0.2173670927344592, 0.5127079504662262], '
   '[1.0374076082955115, -0.815499934143575, 0.019739418416660215, '
   '-0.04832610952855805, -0.09726332406908095, 0.8018857188183024, '
   '0.05138089012898803, 0.08665982125827762], [-0.7206158795315931, '
   '-0.022756649842005983, 0.03772177021840806, -0.5552178892141023, '
   '0.4321582771457729, -0.20811191463969309, -0.11547196739782631, '
   '0.2505261546458442]]',
1: '[[-3.098731984852214, 0.6105682809165068, 1.1555820241717152], '
   '[2.0102790572771894, 0.029279584477983595, -0.003641918758961013], '
   '[1.8859489990504812, -1.5908574233037753, 0.19787758590354843]]',
2: '[[6.118133349573837, -2.778753547131677, -0.3816604747881714, '
   '0.48490446497752837, -2.3672851104367716, -2.0863628897020106, '
   '-0.19918756584470132, 3.1925820742281212, 4.977443841856284], '
   '[0.38411915663994584, -0.040768644672771956, 0.6077470959693384, '
   '-0.07351271408919981, 0.17180794591150195, 0.182083769496517, '
   '0.16941644644787757, -0.32563168997169284, -0.149344372708391], '
   '[-1.2738203924130045, -0.019501065546683405, 0.9720830336517631, '
   '-0.5222481897866705, -0.06142427223231828, 1.1818655450430322, '
   '0.36359373196156486, 0.037523850977167816, -1.1700167464097937], '
   '[-0.002664903062468693, -0.07097066733858626, -0.2944511858482549, '
   '0.4587728538545489, 0.1049351803289052, -0.44630710063333856, '
   '-0.38058682015895057, -0.5623937239594831, 0.6185521023659937], '
   '[0.7598227552256338, -0.6807860741762296, 0.48669149737155415, '
   '-0.03291694054222166, 0.09990954832954452, -0.34202654518541237, '
   '0.10564460044196698, 0.1844282030081863, 0.31209673830156087], '
   '[3.4246285709676245, -2.0483401497420974, 0.23809433798568908, '
   '-0.4089090622025972, -1.8219639018339961, -0.44690676126329393, '
   '0.1542380841786275, 2.0196517453733946, 2.322431438631964], '
   '[1.035068930298664, -0.5125178280518995, -0.2036286398682091, '
   '0.355283237598834, -0.35739199526732124, -0.8675871064846254, '
   '0.2783932314891177, 0.320234185408909, 1.0950149242330383], '
   '[6.643215989096137, -3.200512990651561, -0.04085077185574926, '
   '-0.2429588728017399, -2.8152243931521923, -1.6385902693821537, '
   '0.3060517206385094, 3.6013903189171446, 5.710444085936136], '
   '[-2.50504931506848, 1.5356645288679192, -0.18710162407761483, '
   '-0.5917230303013827, 0.4796381668146358, 0.2861270000138747, '
   '-0.15065480998310604, -0.9517773594980704, -1.8213885313181508]]',
3: '[[1.9642950826757917, -0.6871903207367668, 3.3190877305603195], '
   '[-1.7360735182892066, 0.6313075424437335, -1.139241053723827], '
   '[-2.5523218394985427, -0.5206400848041945, 0.9395334586487337]]',
5: '[[362.5492887213239, -403.2625475732787, 0.22727436583209315, '
   '280.2976500208867, -28.39270773507218, -425.54312402583076], '
   '[412.2181408482887, -457.5318082411717, 0.5595380174590249, '
   '318.1503015317171, -32.590780536997116, -484.38545075051826], '
   '[-4.731126339086851, 4.154203895827132, 0.41749514723063064, '
   '-3.0807877040449028, -0.27018541003367347, 5.582311465695009], '
   '[-25.82674035112586, 28.937166072268333, 0.05048726999842702, '
   '-19.628264744660786, 2.441098478799995, 30.37714695539175], '
   '[359.06803606208075, -397.54452693086824, 0.7754352226614846, '
   '276.7770685787622, -28.189319855077443, -420.69311640237], '
   '[50.7917088631832, -58.17480606107529, 0.11086021046272809, '
   '40.524886274875, -5.194583917301612, -59.00406921190358]]',
6: '[[-3.8796971008639667, 6.147803110128624, 1.0376841252758826, '
   '2.73374709483248, 5.173010425888163, 1.1169794570161375, '
   '1.1019061863633353, -1.8393110338538872], [-5.667271422645083, '
   '7.922381370723314, 1.9071432061394318, 3.9273858229789926, '
   '6.2913145767879595, 1.1538644760216794, 1.6123123655372873, '
   '-3.230109214880589], [-1.510367657436057, 2.8417482127829015, '
   '0.5847459035164503, 1.5157862850859725, 2.582644365510988, '
   '0.7512251766587374, 0.7078148241204189, -0.9617729674941546], '
   '[2.104082824987437, -2.289271383783988, -0.8912710250107904, '
   '-0.9570056633008783, -2.4482073470605092, -0.5490032470736982, '
   '-0.4560984363359186, 1.1979131586137428], [5.339810205362353, '
   '-7.231883070290824, -2.3976668026257157, -3.2107226549944112, '
   '-5.761527760279278, -2.0014638345078817, -0.7355672062914806, '
   '2.635924462758482], [-2.598370777348215, 2.6718311452520247, '
   '0.8507008501659706, 1.7105949899071158, 2.9244348155426154, '
   '0.14054197098559323, 1.017799269734743, -0.9340429360579751], '
   '[2.8033799969688546, -3.0497797726291225, -0.7847509445782104, '
   '-1.8507944757286012, -3.0527035877776916, -0.6604662110130222, '
   '-0.38060587883891267, 1.5715164267357324], [-6.513790796824768, '
   '8.83151379399275, 1.8520487690638276, 3.98009361545532, '
   '6.926572282704372, 2.0740998088954954, 1.768277988132309, '
   '-3.425524952367236]]',
10: '[[-0.5833333333333334, 0.0, 0.16666666666666635, 0.38888888888888884, '
    '-0.1111111111111111, 0.055555555555555546], [1.4166666666666663, 1.0, '
    '-2.833333333333333, -0.9444444444444443, 0.5555555555555556, '
    '0.7222222222222222], [0.5833333333333334, 0.0, -1.1666666666666663, '
    '-0.38888888888888884, 0.1111111111111111, -0.055555555555555546], '
    '[-0.33333333333333326, 0.0, 0.6666666666666665, 0.22222222222222218, '
    '0.22222222222222224, -0.11111111111111112], [0.16666666666666674, 0.0, '
    '-0.33333333333333304, -0.11111111111111105, -0.11111111111111113, '
    '-0.4444444444444445], [1.9166666666666663, 1.0, -2.833333333333333, '
    '-0.9444444444444443, 0.5555555555555556, 0.7222222222222222]]',
11: '[[2.2774696507706023, 0.6103379780039909, 0.7741061940159909, '
    '-0.3928960718407215, -0.28247242944609263], [-1.9766474098457796, '
    '0.40273818835559494, -0.36938998628541436, -0.3690657659744934, '
    '0.5613948120831548], [-1.9268650322308438, -0.8113758634590058, '
    '-0.018395361833186224, -0.04455209441799676, 0.8036274034701745], '
    '[-0.3259941414409229, 0.2888716104864469, 0.2884738760975194, '
    '0.24266363223589313, 0.06951909391853327], [1.6647397901195709, '
    '0.016994961054882848, 0.1191064175886964, 0.10579628996673177, '
    '-0.02226049813932875]]',
12: '[[0.7708780427949301, -2.287413908986121, -1.053609915921412, '
    '-0.8154175271124158, 0.27866689759316177], [-0.18299062404490046, '
    '-2.27488393536753, -0.7598661797238411, 0.10641113038070134, '
    '1.1752909772677753], [2.3794944305054773, 1.4020187081174786, '
    '-0.4714015272993689, -1.0838200898215722, -0.7501197144323796], '
    '[1.6697331908203408, 0.731476136927819, -0.511099546232452, '
    '-0.3511818589062812, -0.8657630687876533], [-3.578544446056281, '
    '0.1557068715777552, 2.508536657604697, 2.3764832937477767, '
    '0.24589820430729256]]',
13: '[[0.5959952312148479, 0.80979113392631, 0.4708934022738229, '
    '-0.6789520615154497], [-1.153079413797214, 0.27496932637546356, '
    '0.4345492856174796, 0.2472760287206191], [0.5172282655987532, '
    '-0.12434987755343885, 0.5626047529938395, -0.1815528272011741], '
    '[-0.24102004019790413, 0.5018964924045224, -0.09293751583481491, '
    '0.5327394861139952]]',
14: '[[3.700019892580068, 2.1881838074398248], [-1.1363636363636365, 0.0]]',
15: '[[-0.05272774732445838, -0.33803184547115633, 0.002349256068911494, '
    '-0.051161576611850675, 0.17253980683894543, 0.2231793265465936, '
    '-0.1654920386322109, 0.07830853563038372, 0.0511615766118507], '
    '[0.13938919342208297, -0.04698512137823023, 0.023492560689115115, '
    '0.15505090054815973, 0.05873140172278778, 0.2317932654659358, '
    '0.011746280344557544, -0.21691464369616292, -0.15505090054815973], '
    '[-0.41738449490994517, -0.10649960845732184, 0.05324980422866092, '
    '-0.04855129209083788, 0.13312451057165237, 0.058731401722787804, '
    '0.02662490211433048, 0.4416601409553642, 0.04855129209083788], '
    '[-0.16183764030279302, -0.19263899765074394, 0.09631949882537197, '
    '-0.09762464108587833, 0.07413208039676329, 0.15035238841033674, '
    '0.21482641607935266, 0.21064996084573223, 0.09762464108587833], '
    '[0.38005742625946237, -0.098146697990081, -0.28425998433829286, '
    '0.19055077003393375, 0.1226833724876012, -0.004698512137822963, '
    '0.02453667449752022, -0.4753328112764291, -0.19055077003393375], '
    '[-0.11276429130775255, -0.36648394675019574, 0.18324197337509787, '
    '0.009397024275646041, 0.45810493343774467, 0.4079874706342992, '
    '0.09162098668754894, 0.10806577916992952, -0.009397024275646027], '
    '[-0.2145653876272514, -0.19733750978856696, 0.09866875489428348, '
    '-0.14878621769772904, 0.24667188723570868, 0.3735317149569304, '
    '0.04933437744714174, 0.28895849647611593, 0.14878621769772907], '
    '[-0.3444705472896546, -0.25841816758026626, 0.12920908379013313, '
    '-0.25833115809623247, 0.26746715391977727, 0.2748629600626469, '
    '0.12016009745062213, 0.6403027930044376, -0.07500217523710086], '
    '[0.1902897415818324, -0.13155833985904467, 0.06577916992952233, '
    '0.2341425215348473, 0.1644479248238058, 0.24902114330462025, '
    '0.032889584964761166, 0.19263899765074396, -0.2341425215348473]]',
16: '[[-0.055555555555555566, -0.16666666666666669, -0.5, '
    '0.05555555555555556], [-0.16666666666666669, 0.5, 0.5, '
    '0.16666666666666666], [-0.16666666666666669, -0.5, -0.5, '
    '0.16666666666666666], [0.6666666666666666, 0.0, 0.0, '
    '0.3333333333333333]]',
19: '[[0.9375958882551161, -0.13236169968400274, 0.49378196937442403, '
    '-1.0841610577973915, -1.21255925786052, -0.2958631569655052, '
    '-2.514533010711764], [-0.2570342634148666, 0.3600814840141534, '
    '-0.3842586298872267, 1.7174218782844037, 0.8446408937333457, '
    '-0.36412395695340244, 2.679831320905164], [-0.23081779658066803, '
    '-0.2402915517537783, 0.17233633068394133, 0.14894772030711007, '
    '0.03911539167238348, 0.1417027853254724, 1.1499876537610474], '
    '[-0.5117185883519849, 0.2709285472404714, -0.044097970224113076, '
    '-0.854999828878017, -0.46239372346627405, 0.38943566667944773, '
    '-1.1667202038350242], [0.6204652267495002, 0.4156508924456924, '
    '1.1945585645815138, -2.808620010102608, -1.0300688551184265, '
    '1.1517902769988067, -6.498120817411179], [0.46106779713568674, '
    '0.6501801582420357, -0.6085042317955498, -0.19116280834856098, '
    '0.24851691287412514, -0.3118528823213041, 1.1231445296158389], '
    '[-0.10525044235109811, -0.6376730145364509, -0.3436246480746428, '
    '0.9937274906991926, -0.39814618976954774, 0.17397645519097657, '
    '1.2636142638670105]]',
24: '[[6.683128881767811, 2.34768682824968, -7.589826423470412, '
    '0.7788100641636441, -0.8236335515255203, 0.7634402340422842, '
    '2.3808227665376283], [-0.5105929400539901, 1.386078488797536, '
    '-0.8834624649105267, -0.39844322233805846, 1.1658745884337507, '
    '-0.6059951643781034, 1.0971249119365298], [-9.181976727697112, '
    '-4.914708889227941, 11.572376726818266, -1.4448039407396318, '
    '0.37007810348026604, -1.2806566807830806, -3.540899532094578], '
    '[4.0476803708414275, 2.339137814617512, -5.488670083136297, '
    '1.1702366773181305, -0.11600653117637022, 0.49134119274153165, '
    '1.9669408950737846], [5.054011321979902, 3.8085006403479853, '
    '-7.133618065219203, 0.5967441596761214, 1.0105233118765078, '
    '0.4229284578270074, 3.320933669618356], [6.366161082662644, '
    '1.016617684985914, -6.985033284192694, 1.4349996791733728, '
    '-1.3015693473964083, 0.2810504869142919, 0.09941496692601491], '
    '[9.521371503044108, 3.725809018922492, -10.901789230454352, '
    '1.6313602091639345, -0.8599140526225965, 0.20959651956492853, '
    '1.819612202549568]]',
28: '[[-0.6666666666666666, 1.0], [0.3333333333333333, 0.0]]',
691: '[[0.0, 0.3333333333333333, 0.0, 0.0, 0.0, 0.0, 0.0], '
     '[0.2142857142857142, 0.0, -0.2857142857142857, -0.21428571428571427, '
     '-0.1428571428571428, 0.2142857142857142, -0.21428571428571427], '
     '[-0.047619047619047616, 0.0, -0.047619047619047616, '
     '-0.2857142857142857, -0.19047619047619047, -0.047619047619047616, '
     '0.047619047619047616], [-0.1428571428571428, 1.0, -0.14285714285714285, '
     '0.14285714285714285, -0.5714285714285715, -0.1428571428571428, '
     '0.14285714285714285], [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], '
     '[1.2142857142857142, -2.0, -0.2857142857142857, -0.21428571428571427, '
     '1.8571428571428572, 1.2142857142857142, -0.21428571428571427], [0.0, '
     '-1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]',
880: '[[0.1434108527131783, -0.2403100775193798, -0.3333333333333333, '
     '-0.21317829457364335, 0.09302325581395343, -0.5, -0.027131782945736434, '
     '-0.06330749354005169, 0.4767441860465116], [0.0, 0.6666666666666666, '
     '0.0, 0.6666666666666666, -0.3333333333333333, 0.0, 0.0, '
     '0.1111111111111111, -0.6666666666666666], [-0.32558139534883723, '
     '0.6356589147286821, 0.0, 0.6821705426356589, -0.3643410852713178, 0.0, '
     '-0.046511627906976744, -0.21963824289405684, -0.6589147286821705], '
     '[0.4883720930232558, 0.046511627906976716, 0.0, -0.023255813953488358, '
     '0.046511627906976744, 0.0, 0.0697674418604651, 0.1627906976744186, '
     '0.4883720930232558], [0.0, -0.6666666666666666, 0.0, '
     '-0.6666666666666666, 0.3333333333333333, 0.0, 0.0, 0.2222222222222222, '
     '0.6666666666666666], [0.023255813953488386, -0.09302325581395349, 0.0, '
     '0.046511627906976744, -0.0930232558139535, 0.0, -0.13953488372093023, '
     '0.007751937984496125, 0.023255813953488375], [0.2441860465116279, '
     '0.023255813953488358, 0.0, -0.011627906976744179, 0.023255813953488372, '
     '-0.5, 0.03488372093023255, 0.0813953488372093, 0.2441860465116279], '
     '[0.015503875968992248, -0.062015503875969, 0.0, -0.3023255813953488, '
     '-0.062015503875969, 0.0, -0.09302325581395349, 0.005167958656330752, '
     '0.015503875968992257], [-0.3023255813953488, 0.20930232558139533, 0.0, '
     '0.3953488372093023, 0.20930232558139533, 0.0, -0.18604651162790697, '
     '-0.1007751937984496, -0.3023255813953488]]',
2091: '[[-0.3333333333333333, 0.0, -0.3333333333333333, -0.3333333333333333], '
      '[0.5, 0.0, 0.0, 0.0], [-0.3333333333333333, -0.5, -0.3333333333333333, '
      '-0.3333333333333333], [0.16666666666666666, -0.3333333333333333, '
      '-0.3333333333333333, 0.0]]',
2941: '[[5.551115123125783e-17, 0.3333333333333333, 0.0, 0.0, 0.5], [-2.0, '
      '0.0, 2.0, 1.0, 3.0], [0.0, 0.0, 1.0, 0.0, 0.0], '
      '[-5.551115123125783e-17, 0.0, 0.0, 0.0, -0.5], [-1.0, 0.0, 0.0, 0.0, '
      '1.0]]'}

INVERT_FAILURE_GOLDEN = {'blocked': ('StarUndefined',
             'E - A is singular to working precision: row 2 has no nonzero '
             'entry left',
             2),
 'inverse past the float range': ('IllegalElement',
                                  'a result left the float range (nan); it is '
                                  'not a real_field element',
                                  None),
 'overflow at a pivot': '[[-0.0, -1e-300], [-1e-300, 0.0]]',
 'step budget': ('StarUndefined',
                 'E - A is singular to working precision: row 5 has no '
                 'nonzero entry left',
                 5),
 'step budget with replays': ('StarUndefined',
                              'E - A is singular to working precision: row 5 '
                              'has no nonzero entry left',
                              5)}


@pytest.mark.parametrize("seed", sorted(INVERT_GOLDEN))
def test_invert_with_pivot_search_is_pinned(seed):
    assert invert_outcome(pivoted_rows(seed)) == INVERT_GOLDEN[seed]


@pytest.mark.parametrize("label", sorted(INVERT_FAILURES))
def test_invert_failure_is_pinned(label):
    assert invert_outcome(INVERT_FAILURES[label]) == \
        INVERT_FAILURE_GOLDEN[label]
