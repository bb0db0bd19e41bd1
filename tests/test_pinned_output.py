"""Pinned decode errors and command line output, and parser reuse.

The expected values below were produced by the per-cell decoder and
the decode-then-render table printer that the one-pass codecs
replaced; every message, error context and output byte must stay as
it was.  The parser test runs a mixed sequence of ``main`` calls in
one process and compares each with a run on a freshly built parser.
The ``invert`` outcomes, at the end and among the command line cases,
come from the partially pivoted elimination; each result was checked
against numpy's inv(E - A) within 1e-9, and each failure against
numpy's rank of E - A, before it was pinned.
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
                      '{"result":{"cols":2,"data":[[2.0,0.0],[0.0,1.3333333333333333]],"rows":2}}\n',
                      ''),
 ('invert', 'table'): (0,
                       '2.0                  .\n  . 1.3333333333333333\n',
                       ''),
 ('invert blocked', 'json'): (0,
                              '{"result":{"cols":2,"data":[[0.0,-0.5],[-0.5,-0.0]],"rows":2}}\n',
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
                                   '{"result":{"cols":4,"data":[[-0.33333333333333337,5.551115123125783e-17,-0.3333333333333333,-0.3333333333333333],[0.5,0.0,0.0,0.0],[-0.33333333333333337,-0.5,-0.3333333333333333,-0.3333333333333333],[0.16666666666666666,-0.3333333333333333,-0.3333333333333333,-0.0]],"rows":4}}\n',
                                   ''),
 ('invert pivot search', 'table'): (0,
                                    '-0.33333333333333337 '
                                    '5.551115123125783e-17 -0.3333333333333333 '
                                    '-0.3333333333333333\n'
                                    '                 0.5                     '
                                    '.                   .                   '
                                    '.\n'
                                    '-0.33333333333333337                  '
                                    '-0.5 -0.3333333333333333 '
                                    '-0.3333333333333333\n'
                                    ' 0.16666666666666666   '
                                    '-0.3333333333333333 '
                                    '-0.3333333333333333                   .\n',
                                    ''),
 ('invert pivoted', 'json'): (0,
                              '{"result":{"cols":2,"data":[[0.5,-0.3333333333333333],[-0.5,-0.0]],"rows":2}}\n',
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
    # E - A is invertible, but its inverse has entries near 1e400, and
    # in floats the elimination leaves a zero column
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
INVERT_GOLDEN = {0: '[[-1.763783318772898, 1.2660758171823898, 1.026319284766899, '
    '0.5400597641464484, 1.5812260763080133, -1.9418655260696973, '
    '-1.2511457854460408, -1.3719162615822567], [-1.1593800893059913, '
    '0.9973813469098163, 0.31245519402912253, -0.10431912333160898, '
    '1.334347693929014, -0.9727190559441321, -0.40598193180794184, '
    '-0.4593447313546527], [-0.26549576909046513, 0.2686776802761976, '
    '0.5028894534355666, -0.174829562850782, 0.40035402611650095, '
    '-0.4226715166348834, -0.037816714392947474, -0.627576193349676], '
    '[2.014468599088527, -1.3020428568117588, -1.0636768057347972, '
    '-0.49917440226876564, -1.2537631894108783, 0.9440520622918941, '
    '1.3833665162757063, 0.5955723940484166], [-0.542489409607173, '
    '-0.3775692875610917, -0.5563950758367708, -0.5703739379121862, '
    '-0.2166186777773368, 0.4922251134075808, 0.3085457665894466, '
    '0.12249471825369854], [1.7692030052609982, -1.0376212478384947, '
    '-0.6299324423592946, -0.6922811396265978, -1.1265730211133043, '
    '1.2413237612465946, 0.21736709273445903, 0.5127079504662264], '
    '[1.0374076082955113, -0.8154999341435749, 0.019739418416660187, '
    '-0.04832610952855798, -0.09726332406908078, 0.8018857188183024, '
    '0.05138089012898797, 0.08665982125827759], [-0.7206158795315935, '
    '-0.022756649842005813, 0.03772177021840821, -0.5552178892141023, '
    '0.432158277145773, -0.2081119146396933, -0.11547196739782642, '
    '0.2505261546458442]]',
 1: '[[-3.098731984852214, 0.6105682809165063, 1.1555820241717152], '
    '[2.0102790572771894, 0.029279584477983844, -0.003641918758961027], '
    '[1.8859489990504812, -1.590857423303775, 0.19787758590354837]]',
 2: '[[6.118133349573838, -2.7787535471316764, -0.38166047478817317, '
    '0.48490446497753026, -2.3672851104367703, -2.086362889702013, '
    '-0.1991875658447021, 3.1925820742281212, 4.977443841856285], '
    '[0.384119156639944, -0.04076864467277113, 0.6077470959693384, '
    '-0.0735127140892001, 0.1718079459115026, 0.18208376949651753, '
    '0.16941644644787754, -0.32563168997169384, -0.1493443727083923], '
    '[-1.2738203924130056, -0.019501065546682867, 0.9720830336517634, '
    '-0.5222481897866713, -0.06142427223231803, 1.181865545043033, '
    '0.3635937319615648, 0.03752385097716736, -1.1700167464097948], '
    '[-0.00266490306246836, -0.07097066733858648, -0.2944511858482549, '
    '0.45877285385454913, 0.104935180328905, -0.4463071006333388, '
    '-0.3805868201589506, -0.562393723959483, 0.6185521023659941], '
    '[0.7598227552256336, -0.6807860741762294, 0.4866914973715539, '
    '-0.03291694054222172, 0.09990954832954482, -0.3420265451854125, '
    '0.10564460044196697, 0.18442820300818602, 0.3120967383015606], '
    '[3.424628570967625, -2.048340149742097, 0.23809433798568808, '
    '-0.40890906220259626, -1.8219639018339955, -0.4469067612632953, '
    '0.154238084178627, 2.019651745373394, 2.3224314386319644], '
    '[1.0350689302986642, -0.5125178280518996, -0.2036286398682094, '
    '0.3552832375988345, -0.35739199526732107, -0.8675871064846262, '
    '0.27839323148911754, 0.320234185408909, 1.0950149242330387], '
    '[6.643215989096135, -3.2005129906515597, -0.040850771855751145, '
    '-0.24295887280173778, -2.81522439315219, -1.638590269382156, '
    '0.30605172063850833, 3.6013903189171432, 5.710444085936135], '
    '[-2.505049315068478, 1.5356645288679183, -0.18710162407761433, '
    '-0.5917230303013832, 0.4796381668146347, 0.28612700001387503, '
    '-0.15065480998310568, -0.9517773594980694, -1.8213885313181497]]',
 3: '[[1.9642950826757917, -0.6871903207367667, 3.319087730560319], '
    '[-1.7360735182892066, 0.6313075424437335, -1.139241053723827], '
    '[-2.5523218394985423, -0.5206400848041945, 0.9395334586487334]]',
 5: '[[362.54928872128335, -403.2625475732337, 0.22727436583201388, '
    '280.2976500208555, -28.392707735068957, -425.5431240257834], '
    '[412.2181408482427, -457.53180824112053, 0.5595380174589346, '
    '318.15030153168163, -32.59078053699345, -484.3854507504644], '
    '[-4.731126339086408, 4.15420389582664, 0.4174951472306315, '
    '-3.0807877040445613, -0.27018541003370866, 5.582311465694491], '
    '[-25.826740351122933, 28.937166072265075, 0.05048726999843274, '
    '-19.628264744658527, 2.441098478799762, 30.37714695538832], '
    '[359.06803606204073, -397.54452693082374, 0.7754352226614061, '
    '276.77706857873136, -28.18931985507426, -420.6931164023232], '
    '[50.79170886317738, -58.17480606106881, 0.11086021046271678, '
    '40.524886274870504, -5.1945839173011485, -59.00406921189675]]',
 6: '[[-3.879697100863968, 6.147803110128627, 1.037684125275883, '
    '2.7337470948324807, 5.173010425888165, 1.116979457016138, '
    '1.1019061863633364, -1.839311033853888], [-5.66727142264509, '
    '7.922381370723324, 1.9071432061394347, 3.9273858229789975, '
    '6.291314576787968, 1.1538644760216816, 1.612312365537289, '
    '-3.2301092148805925], [-1.5103676574360574, 2.8417482127829023, '
    '0.5847459035164505, 1.5157862850859727, 2.5826443655109887, '
    '0.7512251766587378, 0.707814824120419, -0.961772967494155], '
    '[2.10408282498744, -2.289271383783992, -0.8912710250107916, '
    '-0.9570056633008802, -2.448207347060513, -0.5490032470736992, '
    '-0.4560984363359194, 1.1979131586137444], [5.339810205362358, '
    '-7.231883070290833, -2.397666802625718, -3.2107226549944152, '
    '-5.761527760279286, -2.001463834507884, -0.7355672062914825, '
    '2.6359244627584855], [-2.5983707773482165, 2.671831145252026, '
    '0.8507008501659713, 1.710594989907117, 2.9244348155426168, '
    '0.1405419709855938, 1.0177992697347433, -0.9340429360579756], '
    '[2.8033799969688564, -3.049779772629125, -0.7847509445782114, '
    '-1.8507944757286028, -3.0527035877776942, -0.6604662110130229, '
    '-0.3806058788389131, 1.5715164267357338], [-6.513790796824773, '
    '8.831513793992757, 1.8520487690638296, 3.9800936154553233, '
    '6.926572282704378, 2.074099808895497, 1.7682779881323103, '
    '-3.4255249523672386]]',
 10: '[[-0.5833333333333334, 0.0, 0.16666666666666669, 0.38888888888888884, '
     '-0.1111111111111111, 0.055555555555555546], [1.416666666666667, 1.0, '
     '-2.8333333333333335, -0.9444444444444444, 0.5555555555555556, '
     '0.7222222222222223], [0.5833333333333335, 0.0, -1.1666666666666667, '
     '-0.38888888888888884, 0.11111111111111112, -0.05555555555555547], '
     '[-0.33333333333333337, 0.0, 0.6666666666666667, 0.2222222222222222, '
     '0.22222222222222218, -0.11111111111111116], [0.16666666666666669, 0.0, '
     '-0.33333333333333337, -0.1111111111111111, -0.11111111111111109, '
     '-0.4444444444444444], [1.916666666666667, 1.0, -2.8333333333333335, '
     '-0.9444444444444444, 0.5555555555555556, 0.7222222222222223]]',
 11: '[[2.2774696507706023, 0.6103379780039906, 0.7741061940159906, '
     '-0.3928960718407216, -0.2824724294460926], [-1.9766474098457802, '
     '0.4027381883555951, -0.3693899862854144, -0.3690657659744933, '
     '0.5613948120831548], [-1.9268650322308443, -0.8113758634590059, '
     '-0.018395361833186227, -0.04455209441799672, 0.8036274034701746], '
     '[-0.3259941414409227, 0.28887161048644694, 0.2884738760975194, '
     '0.2426636322358931, 0.0695190939185332], [1.6647397901195715, '
     '0.01699496105488287, 0.11910641758869647, 0.10579628996673174, '
     '-0.022260498139328795]]',
 12: '[[0.77087804279493, -2.2874139089861205, -1.0536099159214123, '
     '-0.8154175271124156, 0.2786668975931612], [-0.1829906240448996, '
     '-2.274883935367529, -0.7598661797238413, 0.1064111303807014, '
     '1.1752909772677747], [2.379494430505477, 1.4020187081174782, '
     '-0.471401527299369, -1.0838200898215722, -0.7501197144323795], '
     '[1.669733190820341, 0.7314761369278184, -0.5110995462324524, '
     '-0.3511818589062815, -0.8657630687876531], [-3.578544446056281, '
     '0.1557068715777549, 2.508536657604697, 2.3764832937477762, '
     '0.2458982043072927]]',
 13: '[[0.595995231214848, 0.8097911339263097, 0.4708934022738229, '
     '-0.6789520615154497], [-1.1530794137972142, 0.2749693263754634, '
     '0.43454928561747963, 0.24727602872061918], [0.5172282655987532, '
     '-0.12434987755343896, 0.5626047529938395, -0.18155282720117408], '
     '[-0.24102004019790424, 0.5018964924045225, -0.09293751583481495, '
     '0.5327394861139954]]',
 14: '[[3.700019892580068, 2.1881838074398248], [-1.1363636363636365, -0.0]]',
 15: '[[-0.0527277473244583, -0.3380318454711563, 0.0023492560689114764, '
     '-0.05116157661185065, 0.17253980683894538, 0.2231793265465935, '
     '-0.1654920386322109, 0.07830853563038365, 0.05116157661185066], '
     '[0.13938919342208306, -0.046985121378230216, 0.0234925606891151, '
     '0.15505090054815976, 0.05873140172278776, 0.23179326546593576, '
     '0.011746280344557557, -0.21691464369616287, -0.1550509005481598], '
     '[-0.4173844949099451, -0.10649960845732179, 0.053249804228660914, '
     '-0.048551292090837854, 0.13312451057165225, 0.058731401722787714, '
     '0.02662490211433045, 0.44166014095536404, 0.048551292090837896], '
     '[-0.16183764030279296, -0.19263899765074388, 0.09631949882537194, '
     '-0.09762464108587834, 0.07413208039676317, 0.1503523884103366, '
     '0.21482641607935263, 0.21064996084573206, 0.09762464108587839], '
     '[0.3800574262594623, -0.09814669799008092, -0.28425998433829286, '
     '0.19055077003393367, 0.12268337248760117, -0.004698512137822963, '
     '0.024536674497520273, -0.4753328112764291, -0.19055077003393375], '
     '[-0.11276429130775242, -0.36648394675019563, 0.18324197337509782, '
     '0.009397024275646136, 0.45810493343774455, 0.40798747063429897, '
     '0.09162098668754892, 0.10806577916992934, -0.009397024275646065], '
     '[-0.21456538762725133, -0.19733750978856682, 0.09866875489428342, '
     '-0.148786217697729, 0.2466718872357086, 0.3735317149569302, '
     '0.04933437744714171, 0.2889584964761157, 0.14878621769772907], '
     '[-0.3444705472896545, -0.2584181675802661, 0.12920908379013307, '
     '-0.25833115809623236, 0.26746715391977716, 0.27486296006264666, '
     '0.12016009745062209, 0.6403027930044373, -0.07500217523710083], '
     '[0.19028974158183248, -0.13155833985904455, 0.06577916992952229, '
     '0.23414252153484735, 0.16444792482380574, 0.24902114330462014, '
     '0.032889584964761145, 0.19263899765074383, -0.2341425215348473]]',
 16: '[[-0.05555555555555556, -0.16666666666666669, -0.5, '
     '0.055555555555555566], [-0.16666666666666666, 0.5, 0.5, '
     '0.16666666666666669], [-0.16666666666666666, -0.5, -0.5, '
     '0.16666666666666669], [0.6666666666666666, 0.0, 0.0, '
     '0.3333333333333333]]',
 19: '[[0.9375958882551163, -0.13236169968400202, 0.49378196937442426, '
     '-1.0841610577973917, -1.2125592578605189, -0.29586315696550547, '
     '-2.5145330107117636], [-0.2570342634148663, 0.3600814840141531, '
     '-0.3842586298872273, 1.7174218782844037, 0.8446408937333453, '
     '-0.36412395695340216, 2.679831320905164], [-0.23081779658066806, '
     '-0.24029155175377848, 0.17233633068394105, 0.14894772030711, '
     '0.039115391672383426, 0.14170278532547242, 1.1499876537610474], '
     '[-0.511718588351985, 0.27092854724047133, -0.04409797022411288, '
     '-0.8549998288780171, -0.4623937234662741, 0.3894356666794478, '
     '-1.1667202038350246], [0.6204652267494998, 0.41565089244569275, '
     '1.194558564581515, -2.8086200101026075, -1.0300688551184258, '
     '1.1517902769988067, -6.498120817411179], [0.4610677971356868, '
     '0.6501801582420358, -0.60850423179555, -0.19116280834856136, '
     '0.24851691287412514, -0.31185288232130415, 1.1231445296158387], '
     '[-0.10525044235109789, -0.6376730145364509, -0.34362464807464305, '
     '0.9937274906991925, -0.3981461897695478, 0.17397645519097657, '
     '1.2636142638670103]]',
 24: '[[6.683128881767808, 2.3476868282496777, -7.589826423470407, '
     '0.7788100641636435, -0.82363355152552, 0.7634402340422842, '
     '2.380822766537627], [-0.5105929400539883, 1.3860784887975355, '
     '-0.8834624649105262, -0.39844322233805807, 1.1658745884337505, '
     '-0.6059951643781039, 1.0971249119365298], [-9.18197672769711, '
     '-4.9147088892279385, 11.57237672681826, -1.444803940739631, '
     '0.3700781034802656, -1.2806566807830806, -3.5408995320945778], '
     '[4.047680370841426, 2.3391378146175104, -5.4886700831362925, '
     '1.1702366773181299, -0.11600653117636994, 0.49134119274153143, '
     '1.9669408950737837], [5.054011321979907, 3.808500640347985, '
     '-7.133618065219202, 0.5967441596761218, 1.010523311876508, '
     '0.4229284578270075, 3.320933669618357], [6.366161082662636, '
     '1.0166176849859105, -6.985033284192683, 1.434999679173371, '
     '-1.3015693473964083, 0.2810504869142917, 0.09941496692601226], '
     '[9.521371503044104, 3.725809018922489, -10.901789230454344, '
     '1.6313602091639334, -0.8599140526225962, 0.20959651956492859, '
     '1.8196122025495665]]',
 28: '[[-0.6666666666666666, 1.0], [0.3333333333333333, 0.0]]',
 691: '[[0.0, 0.3333333333333333, 0.0, 0.0, 0.0, 0.0, 0.0], '
      '[0.21428571428571427, -2.7755575615628914e-16, -0.2857142857142857, '
      '-0.2142857142857143, -0.14285714285714274, 0.21428571428571427, '
      '-0.2142857142857143], [-0.04761904761904761, -2.7755575615628914e-17, '
      '-0.047619047619047616, -0.2857142857142857, -0.19047619047619047, '
      '-0.04761904761904761, 0.04761904761904761], [-0.14285714285714282, '
      '0.9999999999999999, -0.14285714285714285, 0.14285714285714285, '
      '-0.5714285714285714, -0.14285714285714282, 0.14285714285714285], [-1.0, '
      '0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.2142857142857142, -2.0, '
      '-0.28571428571428564, -0.21428571428571427, 1.8571428571428572, '
      '1.2142857142857142, -0.21428571428571427], [0.0, -1.0, 0.0, 0.0, 1.0, '
      '0.0, 0.0]]',
 880: '[[0.14341085271317822, -0.2403100775193798, -0.3333333333333333, '
      '-0.21317829457364337, 0.09302325581395351, -0.5, -0.02713178294573644, '
      '-0.06330749354005168, 0.4767441860465116], [0.0, 0.6666666666666666, '
      '0.0, 0.6666666666666667, -0.33333333333333337, 0.0, '
      '-5.551115123125783e-17, 0.1111111111111111, -0.6666666666666666], '
      '[-0.32558139534883723, 0.6356589147286822, 0.0, 0.682170542635659, '
      '-0.3643410852713178, 0.0, -0.04651162790697683, -0.21963824289405684, '
      '-0.6589147286821706], [0.48837209302325574, 0.046511627906976785, 0.0, '
      '-0.02325581395348838, 0.046511627906976785, 0.0, 0.06976744186046512, '
      '0.16279069767441862, 0.48837209302325574], [0.0, -0.6666666666666666, '
      '0.0, -0.6666666666666667, 0.33333333333333337, 0.0, '
      '5.551115123125783e-17, 0.22222222222222224, 0.6666666666666666], '
      '[0.023255813953488365, -0.09302325581395349, 0.0, 0.04651162790697676, '
      '-0.09302325581395349, 0.0, -0.13953488372093023, 0.0077519379844961205, '
      '0.023255813953488365], [0.24418604651162787, 0.023255813953488393, 0.0, '
      '-0.01162790697674419, 0.023255813953488393, -0.5, 0.03488372093023256, '
      '0.08139534883720931, 0.24418604651162787], [0.015503875968992248, '
      '-0.06201550387596899, -0.0, -0.3023255813953488, -0.06201550387596899, '
      '-0.0, -0.09302325581395349, 0.005167958656330754, '
      '0.015503875968992248], [-0.3023255813953488, 0.20930232558139533, 0.0, '
      '0.39534883720930236, 0.20930232558139533, 0.0, -0.186046511627907, '
      '-0.10077519379844961, -0.3023255813953488]]',
 2091: '[[-0.33333333333333337, 5.551115123125783e-17, -0.3333333333333333, '
       '-0.3333333333333333], [0.5, 0.0, 0.0, 0.0], [-0.33333333333333337, '
       '-0.5, -0.3333333333333333, -0.3333333333333333], [0.16666666666666666, '
       '-0.3333333333333333, -0.3333333333333333, -0.0]]',
 2941: '[[0.0, 0.3333333333333333, 0.0, 0.0, 0.5], [-2.0, 0.0, 2.0, 1.0, 3.0], '
       '[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, -0.0, -0.0, -0.0, -0.5], [-1.0, 0.0, '
       '0.0, 0.0, 1.0]]'}

INVERT_FAILURE_GOLDEN = {'blocked': ('StarUndefined',
             'E - A is singular to working precision: no remaining row has a '
             'nonzero entry in column 3',
             3),
 'inverse past the float range': ('StarUndefined',
                                  'E - A is singular to working precision: no '
                                  'remaining row has a nonzero entry in column '
                                  '4',
                                  4),
 'overflow at a pivot': '[[0.0, -1e-300], [-1e-300, -0.0]]',
 'step budget': ('StarUndefined',
                 'E - A is singular to working precision: no remaining row has '
                 'a nonzero entry in column 2',
                 2),
 'step budget with replays': ('StarUndefined',
                              'E - A is singular to working precision: no '
                              'remaining row has a nonzero entry in column 3',
                              3)}


@pytest.mark.parametrize("seed", sorted(INVERT_GOLDEN))
def test_invert_with_pivot_search_is_pinned(seed):
    assert invert_outcome(pivoted_rows(seed)) == INVERT_GOLDEN[seed]


@pytest.mark.parametrize("label", sorted(INVERT_FAILURES))
def test_invert_failure_is_pinned(label):
    assert invert_outcome(INVERT_FAILURES[label]) == \
        INVERT_FAILURE_GOLDEN[label]
