"""Ill-valued arguments of public calls raise the documented error.

The rule (README, "Install and test"): an argument of the wrong type
raises ``TypeError`` naming the parameter, and an ill-valued argument
raises the documented ``SemiringError`` subclass.  One row per call:
the ill-formed call and what it must raise; each call once returned a
value instead.
"""

import pytest

from conftest import descriptor
from semiralg import Matrix, Path, WeightedDigraph, brute_force_star, to_token
from semiralg import path_weight
from semiralg.errors import InvalidGraph, InvalidPath

MX = descriptor("maxplus")
G = WeightedDigraph(2, ((1, 2, 1.0),), MX)
A = Matrix(MX, [[0.0, 1.0], [2.0, 3.0]])

# (call, the exception it raises, a pattern its message matches)
ILL_VALUED = {
    "graph size 2.5": (lambda: WeightedDigraph(2.5, (), MX), InvalidGraph,
                       r"^n must be an int"),
    "graph size True": (lambda: WeightedDigraph(True, (), MX), InvalidGraph,
                        r"^n must be an int"),
    "graph size '2'": (lambda: WeightedDigraph("2", (), MX), InvalidGraph,
                       r"^n must be an int"),
    "arc node 1.5": (lambda: WeightedDigraph(2, ((1.5, 2, 1.0),), MX),
                     InvalidGraph, r"^arc nodes must be ints"),
    "arc node True": (lambda: WeightedDigraph(2, ((1, True, 1.0),), MX),
                      InvalidGraph, r"^arc nodes must be ints"),
    "arc node '1'": (lambda: WeightedDigraph(2, (("1", 2, 1.0),), MX),
                     InvalidGraph, r"^arc nodes must be ints"),
    "arc of two fields": (lambda: WeightedDigraph(2, ((1, 2),), MX),
                          InvalidGraph, r"^an arc is \(u, v, w\)"),
    "arc that is no tuple": (lambda: WeightedDigraph(2, (5,), MX),
                             InvalidGraph, r"^an arc is \(u, v, w\)"),
    "path node True": (lambda: path_weight(G, Path((True, 2))), InvalidPath,
                       r"^path nodes must be ints"),
    "path node 1.5": (lambda: Path((1, 1.5)), InvalidPath,
                      r"^path nodes must be ints"),
    "max_len 2.5": (lambda: brute_force_star(G, 2.5), InvalidPath,
                    r"^max_len must be an int"),
    "max_len True": (lambda: brute_force_star(G, True), InvalidPath,
                     r"^max_len must be an int"),
    "tol 'x'": (lambda: A.allclose(A, "x"), TypeError, r"^tol must be"),
    "tol None": (lambda: A.allclose(A, None), TypeError, r"^tol must be"),
    "token of 'x'": (lambda: to_token("x"), TypeError, r"^v must be"),
    "token of None": (lambda: to_token(None), TypeError, r"^v must be"),
}


@pytest.mark.parametrize("case", sorted(ILL_VALUED))
def test_an_ill_valued_argument_raises_the_documented_error(case):
    call, error, message = ILL_VALUED[case]
    with pytest.raises(error, match=message):
        call()


def test_well_valued_arguments_still_pass():
    # int subclasses other than bool are ints, and int tolerances are
    # numbers
    class Node(int):
        pass

    g = WeightedDigraph(Node(2), [[Node(1), 2, 1.0]], MX)
    assert path_weight(g, Path((Node(1), 2))) == 1.0
    assert A.allclose(A, 0) and to_token(3) == "3"
