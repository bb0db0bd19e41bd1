"""Ill-valued arguments of public calls raise the documented error.

The rule (README, "Install and test"): an argument of the wrong type
raises ``TypeError`` naming the parameter, and an ill-valued argument
raises the documented ``SemiringError`` subclass.  One row per call:
the ill-formed call and what it must raise; each call once returned a
value instead, or raised an ``AttributeError`` from inside.
"""

import pytest

from conftest import descriptor
from semiralg import (Matrix, Path, WeightedDigraph, back_substitution,
                      brute_force_star, closure, closure_gauss_jordan,
                      closure_iterative, forward_substitution, from_token,
                      graph_to_matrix, identity, ldm_factorize, lift_semiring,
                      make_interval, matrix_to_graph, matrix_to_json,
                      max_profit, path_weight, real_matrix_star,
                      shortest_paths, solve_bellman, solve_ldm,
                      symmetric_factorize, to_token, widest_paths, zeros)
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
    # wrong-typed arguments, each of which once raised AttributeError
    "closure of lists": (lambda: closure([[1.0]]), TypeError,
                         r"^A must be a Matrix, got list$"),
    "gauss_jordan of 'x'": (lambda: closure_gauss_jordan("x"), TypeError,
                            r"^A must be a Matrix, got str$"),
    "ldm of lists": (lambda: ldm_factorize([[1.0]]), TypeError,
                     r"^A must be a Matrix, got list$"),
    "symmetric ldm of lists": (lambda: symmetric_factorize([[1.0]]),
                               TypeError, r"^A must be a Matrix, got list$"),
    "invert of lists": (lambda: real_matrix_star([[1.0]]), TypeError,
                        r"^A must be a Matrix, got list$"),
    "closure options 'block'": (lambda: closure(A, "block"), TypeError,
                                r"^options must be a ClosureOptions"),
    "closure options 0": (lambda: closure(A, 0), TypeError,
                          r"^options must be a ClosureOptions, got int$"),
    "series options 'block'": (lambda: closure_iterative(A, "block"),
                               TypeError, r"^options must be a ClosureOptions"),
    "solve options 'block'": (lambda: solve_bellman(A, A, "block"),
                              TypeError, r"^options must be a ClosureOptions"),
    "lift of None": (lambda: lift_semiring(None), TypeError,
                     r"^base must be a SemiringDescriptor, got NoneType$"),
    "shortest paths of lists": (lambda: shortest_paths([[1.0]]), TypeError,
                                r"^g must be a WeightedDigraph, got list$"),
    "widest paths of None": (lambda: widest_paths(None), TypeError,
                             r"^g must be a WeightedDigraph, got NoneType$"),
    "profit of None": (lambda: max_profit(None, [0.0], 1), TypeError,
                       r"^g must be a WeightedDigraph, got NoneType$"),
    "token 5": (lambda: from_token(5), TypeError,
                r"^text must be a str, got int$"),
    "matrix over None": (lambda: Matrix(None, [[1.0]]), TypeError,
                         r"^descriptor must be a SemiringDescriptor"),
    "graph over None": (lambda: WeightedDigraph(2, ((1, 2, 1.0),), None),
                        TypeError, r"^descriptor must be a SemiringDescriptor"),
    "solve of no triple": (lambda: solve_ldm(None, [1.0]), TypeError,
                           r"^triple must be a LdmTriple, got NoneType$"),
    "identity over None": (lambda: identity(None, 2), TypeError,
                           r"^descriptor must be a SemiringDescriptor, "
                           r"got NoneType$"),
    "zeros over None": (lambda: zeros(None, 1, 1), TypeError,
                        r"^descriptor must be a SemiringDescriptor, "
                        r"got NoneType$"),
    "interval over None": (lambda: make_interval(None, 0.0, 1.0), TypeError,
                           r"^base must be a SemiringDescriptor, "
                           r"got NoneType$"),
    "matrix of None": (lambda: graph_to_matrix(None), TypeError,
                       r"^g must be a WeightedDigraph, got NoneType$"),
    "graph of lists": (lambda: matrix_to_graph([[1.0]]), TypeError,
                       r"^A must be a Matrix, got list$"),
    "path weight in None": (lambda: path_weight(None, Path((1,))), TypeError,
                            r"^g must be a WeightedDigraph, got NoneType$"),
    "brute force of None": (lambda: brute_force_star(None, 2), TypeError,
                            r"^g must be a WeightedDigraph, got NoneType$"),
    "forward substitution of None": (
        lambda: forward_substitution(None, [1.0]), TypeError,
        r"^L must be a Matrix, got NoneType$"),
    "back substitution of None": (
        lambda: back_substitution(None, [1.0]), TypeError,
        r"^M must be a Matrix, got NoneType$"),
    "json of lists": (lambda: matrix_to_json([[1.0]]), TypeError,
                      r"^A must be a Matrix, got list$"),
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
