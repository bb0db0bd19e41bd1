"""Pinned decode errors and command line output, and parser reuse.

The expected values below were produced by the per-cell decoder and
the decode-then-render table printer that the one-pass codecs
replaced; every message, error context and output byte must stay as
it was.  The parser test runs a mixed sequence of ``main`` calls in
one process and compares each with a run on a freshly built parser.
"""

import json

import pytest

from semiralg import NEG_INF, cli
from semiralg.errors import ParseError
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
 ('invert negative', 'json'): (0,
                               '{"result":{"cols":2,"data":[[0.6736842105263158,0.08421052631578949],[0.04210526315789474,0.5052631578947369]],"rows":2}}\n',
                               ''),
 ('invert negative', 'table'): (0,
                                ' 0.6736842105263158 0.08421052631578949\n'
                                '0.04210526315789474  0.5052631578947369\n',
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
                        [--split K] [--max-iterations N] [--threads N]
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
  --threads N           worker threads for the block algorithm (1 = serial;
                        results are identical either way)
""",
    "solve": """\
usage: semiralg solve [-h] --semiring NAME[,a,b] [--interval]
                      [--format {json,table}]
                      [--algorithm {block,gauss_jordan,iterative}] [--split K]
                      [--max-iterations N] [--threads N]
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
  --threads N           worker threads for the block algorithm (1 = serial;
                        results are identical either way)
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
                      [--max-iterations N] [--threads N]
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
  --threads N           worker threads for the block algorithm (1 = serial;
                        results are identical either way)
""",
    "profit": """\
usage: semiralg profit [-h] --semiring NAME[,a,b] [--interval]
                       [--format {json,table}]
                       [--algorithm {block,gauss_jordan,iterative}]
                       [--split K] [--max-iterations N] [--threads N]
                       [--horizon K|inf]
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
  --threads N           worker threads for the block algorithm (1 = serial;
                        results are identical either way)
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
