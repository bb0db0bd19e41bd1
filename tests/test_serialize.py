"""JSON codecs: round-trips, token handling, and error context."""

import json

import pytest

from conftest import (descriptor, random_graph, random_interval_matrix,
                      random_oracle_matrix, scalar_samples)
from semiralg import (Interval, Matrix, NEG_INF, POS_INF, WeightedDigraph,
                      ldm_factorize, lift_semiring)
from semiralg.errors import ParseError
from semiralg.serialize import (dumps, graph_from_json, graph_to_json, loads,
                                matrix_from_json, matrix_to_json,
                                scalar_from_json, scalar_to_json,
                                triple_from_json, triple_to_json)

MX = descriptor("maxplus")
MN = descriptor("minplus")
RP = descriptor("rplus")
BOOL = descriptor("boolean")


# -------------------------------------------------------------------- scalars


def test_scalar_round_trips_every_carrier():
    from conftest import ALL_NAMES
    for name in ALL_NAMES:
        d = descriptor(name)
        for v in scalar_samples(name):
            encoded = scalar_to_json(d, v)
            json.dumps(encoded)  # must already be JSON-representable
            decoded = scalar_from_json(d, encoded)
            assert decoded is v or decoded == v


def test_scalar_tags_encode_as_tokens():
    assert scalar_to_json(MX, NEG_INF) == "-inf"
    assert scalar_to_json(MN, POS_INF) == "inf"
    assert scalar_from_json(MX, "-inf") is NEG_INF
    assert scalar_from_json(MN, "inf") is POS_INF
    assert scalar_from_json(MN, "+inf") is POS_INF
    assert scalar_from_json(MN, " inf ") is POS_INF  # tolerant of spacing
    assert scalar_from_json(BOOL, "true") is True
    assert scalar_from_json(BOOL, "false") is False


def test_scalar_token_errors():
    with pytest.raises(ParseError, match="unknown scalar token"):
        scalar_from_json(MX, "garbage")
    with pytest.raises(ParseError, match="unknown scalar token"):
        scalar_from_json(MX, "nan")
    with pytest.raises(ParseError, match="not a scalar"):
        scalar_from_json(MX, {"v": 1})
    # legal token, illegal element for the carrier
    with pytest.raises(ParseError):
        scalar_from_json(RP, "-inf")
    with pytest.raises(ParseError):
        scalar_from_json(RP, -1.0)
    with pytest.raises(ParseError):
        scalar_from_json(BOOL, 1)


def test_interval_scalars_encode_as_pairs():
    lifted = lift_semiring(MX)
    iv = Interval(NEG_INF, 3.0)
    assert scalar_to_json(lifted, iv) == ["-inf", 3.0]
    assert scalar_from_json(lifted, ["-inf", 3.0]) == iv
    with pytest.raises(ParseError, match=r"\[lo, hi\]"):
        scalar_from_json(lifted, 3.0)
    with pytest.raises(ParseError):
        scalar_from_json(lifted, [3.0, 1.0])  # empty interval


def test_parse_error_context_names_the_field():
    with pytest.raises(ParseError) as exc:
        scalar_from_json(MX, "bad", where="matrix.data[1][2]")
    assert "matrix.data[1][2]" in str(exc.value)


# ------------------------------------------------------------------- matrices


def test_matrix_round_trips(rng):
    from conftest import ALL_NAMES
    for name in ALL_NAMES:
        a = random_oracle_matrix(name, 4, rng)
        assert matrix_from_json(a.descriptor, matrix_to_json(a)) == a


def test_interval_matrix_round_trips(rng):
    a = random_interval_matrix("maxplus", 3, rng)
    obj = matrix_to_json(a)
    assert matrix_from_json(a.descriptor, obj) == a
    # every scalar slot is a two-element array
    assert all(isinstance(v, list) and len(v) == 2
               for row in obj["data"] for v in row)


def test_matrix_json_shape():
    a = Matrix(MX, [[0.0, NEG_INF], [1.0, 2.0]])
    assert matrix_to_json(a) == {
        "rows": 2, "cols": 2, "data": [[0.0, "-inf"], [1.0, 2.0]]}


def test_matrix_from_json_accepts_minimal_form():
    a = matrix_from_json(MX, {"data": [[1, 2], [3, 4]]})
    assert a == Matrix(MX, [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_from_json_validation():
    with pytest.raises(ParseError, match='"data"'):
        matrix_from_json(MX, {"rows": 2})
    with pytest.raises(ParseError, match="non-empty"):
        matrix_from_json(MX, {"data": []})
    with pytest.raises(ParseError, match="non-empty"):
        matrix_from_json(MX, {"data": [[]]})
    with pytest.raises(ParseError, match="unequal"):
        matrix_from_json(MX, {"data": [[1.0], [1.0, 2.0]]})
    with pytest.raises(ParseError, match='"rows" says 3'):
        matrix_from_json(MX, {"rows": 3, "data": [[1.0]]})
    with pytest.raises(ParseError, match='"cols" says 2'):
        matrix_from_json(MX, {"cols": 2, "data": [[1.0]]})
    with pytest.raises(ParseError, match=""""rows" says '2' but data has 2"""):
        matrix_from_json(MX, {"rows": "2", "data": [[1.0], [1.0]]})
    with pytest.raises(ParseError, match='"rows" says True but data has 1'):
        matrix_from_json(MX, {"rows": True, "data": [[1.0]]})
    with pytest.raises(ParseError, match='"cols" says 1.0 but data has 1'):
        matrix_from_json(MX, {"cols": 1.0, "data": [[1.0]]})
    with pytest.raises(ParseError, match=r"data\[0\]\[1\]"):
        matrix_from_json(MX, {"data": [[1.0, "oops"]]})


# --------------------------------------------------------------------- graphs


def test_graph_round_trips(rng):
    for name in ("maxplus", "minplus", "maxmin", "boolean"):
        g = random_graph(name, 5, rng)
        back = graph_from_json(g.descriptor, graph_to_json(g))
        assert back.n == g.n and sorted(back.arcs) == sorted(g.arcs)


def test_graph_json_shape():
    g = WeightedDigraph(2, ((1, 2, 3.0),), MX)
    assert graph_to_json(g) == {"n": 2, "arcs": [[1, 2, 3.0]]}


def test_graph_from_json_validation():
    with pytest.raises(ParseError, match='"n"'):
        graph_from_json(MX, {"arcs": []})
    with pytest.raises(ParseError, match="positive integer"):
        graph_from_json(MX, {"n": 0})
    with pytest.raises(ParseError, match="positive integer"):
        graph_from_json(MX, {"n": True})
    with pytest.raises(ParseError, match='"arcs" must be an array'):
        graph_from_json(MX, {"n": 2, "arcs": {}})
    with pytest.raises(ParseError, match=r"arcs\[0\]"):
        graph_from_json(MX, {"n": 2, "arcs": [[1, 2]]})
    with pytest.raises(ParseError, match="integers"):
        graph_from_json(MX, {"n": 2, "arcs": [[1.0, 2, 3.0]]})
    with pytest.raises(ParseError, match="duplicate"):
        graph_from_json(MX, {"n": 2, "arcs": [[1, 2, 3.0], [1, 2, 4.0]]})
    with pytest.raises(ParseError, match="zero weight"):
        graph_from_json(MX, {"n": 2, "arcs": [[1, 2, "-inf"]]})


# -------------------------------------------------------------------- triples


def test_triple_round_trips(rng):
    from conftest import random_stable_matrix
    a = random_stable_matrix("maxplus", 4, rng)
    t = ldm_factorize(a)
    back = triple_from_json(MX, triple_to_json(t))
    assert back.L == t.L and back.M == t.M and back.D == t.D


def test_triple_from_json_validation():
    with pytest.raises(ParseError, match='"l", "d", "m"'):
        triple_from_json(MX, {"l": {}, "m": {}})
    good_l = {"data": [[("-inf")]]}
    with pytest.raises(ParseError, match='"d" must be an array'):
        triple_from_json(MX, {"l": good_l, "d": 1.0, "m": good_l})


# ------------------------------------------------------------------ loads/dumps


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps([1.5, "x"]) == '[1.5,"x"]'
    with pytest.raises(ValueError):
        dumps(float("nan"))


def test_dumps_deterministic_for_equal_payloads(rng):
    a = random_oracle_matrix("minplus", 4, rng)
    first = dumps(matrix_to_json(a))
    second = dumps(matrix_to_json(Matrix(a.descriptor, a.to_lists())))
    assert first == second


def test_loads_reports_position():
    with pytest.raises(ParseError, match="line 1 column"):
        loads("{not json")
    assert loads('{"n": 1}') == {"n": 1}


def test_loads_refuses_deep_nesting_with_a_parse_error():
    for text in ("[" * 100_000 + "]" * 100_000,
                 '{"a": ' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(ParseError, match="nested too deeply"):
            loads(text)
    moderate = "[" * 100 + "]" * 100
    assert dumps(loads(moderate)) == moderate
