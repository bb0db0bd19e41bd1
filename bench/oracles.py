"""Independent oracles for every job kind.

Imported only after the timed phase and after peak RSS is read, since
numpy, scipy and networkx are large.  Every check reads the job's plain
input data and the plain outcome; none calls into semiralg.

* minplus closure: ``scipy.sparse.csgraph.floyd_warshall``; maxplus: the
  same on the negated weights.
* boolean closure: ``networkx.transitive_closure`` (reflexive).
* maxmin closure: threshold reachability, one reachability pass per
  distinct weight.
* real_field and rplus: ``numpy.linalg.inv`` / ``numpy.linalg.solve``
  within ``REAL_TOL``.
* interval results: the endpoint pair of the scalar closures.
* factor triples: ``M* D* L*`` must equal ``A*``.
* CLI jobs: the parsed stdout in either format, or the documented exit
  code for a malformed input.

``check`` returns ``(verdict, reason)``; the verdict is ``"ok"``,
``"wrong"`` (an output that differs from the oracle) or ``"error"``
(the program raised, or exited with another code than expected).
"""

import json

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, floyd_warshall, shortest_path

from workloads import MAXMIN_BOUNDS, ZERO

REAL_TOL = 1e-9           # max |x - ref| <= REAL_TOL * max(1, max |ref|)
MAXMIN_TOP = MAXMIN_BOUNDS[1]
IDEMPOTENT = ("maxplus", "minplus", "maxmin", "boolean")


def array(data, carrier):
    if carrier == "boolean":
        return np.array(data, dtype=bool)
    conv = {"inf": np.inf, "-inf": -np.inf}
    return np.array([[conv.get(v, v) if isinstance(v, str) else v for v in row]
                     for row in data], dtype=float)


def endpoint(data, k):
    return [[cell[k] for cell in row] for row in data]


def star(carrier, W):
    """A* of a plain weight matrix, by an algorithm of another library."""
    n = W.shape[0]
    if carrier == "minplus":
        return floyd_warshall(csgraph_from_dense(W, null_value=np.inf))
    if carrier == "maxplus":
        return -floyd_warshall(csgraph_from_dense(-W, null_value=np.inf))
    if carrier == "boolean":
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(*np.nonzero(W)))
        out = np.zeros((n, n), dtype=bool)
        for i, j in nx.transitive_closure(g, reflexive=True).edges():
            out[i, j] = True
        return out
    if carrier == "maxmin":
        out = np.zeros((n, n))
        for t in np.unique(W[W > 0]):
            reach = np.isfinite(shortest_path(
                csgraph_from_dense((W >= t).astype(float)), unweighted=True))
            out[reach] = t
        np.fill_diagonal(out, MAXMIN_TOP)
        return out
    return np.linalg.inv(np.eye(n) - W)


def product(carrier, X, Y):
    if carrier == "maxplus":
        return (X[:, :, None] + Y[None, :, :]).max(axis=1)
    if carrier == "minplus":
        return (X[:, :, None] + Y[None, :, :]).min(axis=1)
    if carrier == "maxmin":
        return np.minimum(X[:, :, None], Y[None, :, :]).max(axis=1)
    if carrier == "boolean":
        return (X[:, :, None] & Y[None, :, :]).any(axis=1)
    return X @ Y


def scalar_star(carrier, d):
    if carrier == "maxplus":
        return 0.0 if d <= 0 else np.nan
    if carrier == "minplus":
        return 0.0 if d >= 0 else np.nan
    if carrier == "maxmin":
        return MAXMIN_TOP
    if carrier == "boolean":
        return True
    return 1.0 / (1.0 - d)


def diagonal(carrier, values):
    n = len(values)
    if carrier == "boolean":
        D = np.zeros((n, n), dtype=bool)
    else:
        zero = {"maxplus": -np.inf, "minplus": np.inf}.get(carrier, 0.0)
        D = np.full((n, n), zero)
    for i, v in enumerate(values):
        D[i, i] = scalar_star(carrier, v)
    return D


def same(carrier, got, ref):
    if got.shape != ref.shape:
        return False
    if carrier in IDEMPOTENT:
        return bool(np.array_equal(got, ref))
    scale = max(1.0, float(np.abs(ref).max()))
    return bool(np.abs(got - ref).max() <= REAL_TOL * scale)


class Oracle:
    """Checks outcomes; caches A* per input so shared inputs cost once."""

    def __init__(self):
        self._stars = {}
        self._ends = {}

    def endpoint(self, data, k):
        key = (id(data), k)
        if key not in self._ends:
            self._ends[key] = (data, endpoint(data, k))
        return self._ends[key][1]

    def star_of(self, carrier, data):
        key = (id(data), carrier)
        if key not in self._stars:
            self._stars[key] = (data, star(carrier, array(data, carrier)))
        return self._stars[key][1]

    # -- per result shape

    def closure_ok(self, carrier, A, got, interval):
        if interval:
            return all(self.closure_ok(carrier, self.endpoint(A, k), endpoint(got, k),
                                       False)
                       for k in (0, 1))
        return same(carrier, array(got, carrier), self.star_of(carrier, A))

    def bellman_ok(self, carrier, A, B, got, interval):
        if interval:
            return all(self.bellman_ok(carrier, self.endpoint(A, k), self.endpoint(B, k),
                                       endpoint(got, k), False) for k in (0, 1))
        ref = product(carrier, self.star_of(carrier, A), array(B, carrier))
        return same(carrier, array(got, carrier), ref)

    def triple_ok(self, carrier, A, got, interval):
        if interval:
            return all(self.triple_ok(carrier, self.endpoint(A, k),
                                      {"l": endpoint(got["l"], k),
                                       "d": [v[k] for v in got["d"]],
                                       "m": endpoint(got["m"], k)}, False)
                       for k in (0, 1))
        conv = {"inf": np.inf, "-inf": -np.inf}
        d = [conv.get(v, v) if isinstance(v, str) else v for v in got["d"]]
        L = star(carrier, array(got["l"], carrier))
        M = star(carrier, array(got["m"], carrier))
        ref = product(carrier, product(carrier, M, diagonal(carrier, d)), L)
        return same(carrier, ref, self.star_of(carrier, A))

    def solve_ok(self, A, b, got):
        n = len(A)
        ref = np.linalg.solve(np.eye(n) - np.array(A), np.array(b))
        return same("real", np.array(got, dtype=float)[:, None], ref[:, None])

    # -- per job

    def check(self, job, out):
        """Verdict on one outcome of ``job``."""
        if job.kind.startswith("cli."):
            return self.check_cli(job, out)
        if "raised" in out:
            return "error", f"raised {out['raised']}: {out['message']}"
        spec, c = job.spec, job.carrier
        iv = spec.get("interval", False)
        if job.kind in ("closure_block", "closure_gauss_jordan"):
            ok = self.closure_ok(c, spec["A"], out, iv)
        elif job.kind == "closure_iterative":
            ok = self.closure_ok(c, spec["A"], out["matrix"], iv)
        elif job.kind == "solve_bellman":
            ok = self.bellman_ok(c, spec["A"], spec["B"], out, iv)
        elif job.kind in ("ldm_factorize", "symmetric_factorize"):
            ok = self.triple_ok(c, spec["A"], out, iv)
        elif job.kind == "solve_ldm":
            ok = self.solve_ok(spec["A"], spec["b"], out)
        else:
            raise ValueError(f"no oracle for {job.kind}")
        return ("ok", "") if ok else ("wrong", f"{job.kind} differs from the oracle")

    def check_cli(self, job, out):
        if "raised" in out:
            return "error", f"raised {out['raised']} out of main: {out['message']}"
        code = out["exit"]
        if code != job.expect:
            return ("wrong" if code == 0 else "error"), \
                f"exit {code}, expected {job.expect}"
        if job.expect != 0:
            return "ok", ""
        try:
            result = parse_cli(job, out["stdout"])
        except (ValueError, KeyError, IndexError) as exc:
            return "wrong", f"unparsable stdout: {exc}"
        cmd = job.kind[4:]
        spec, c = job.spec, job.carrier
        if cmd in ("closure", "paths"):
            ok = self.closure_ok(c, spec["A"], result, False)
        elif cmd == "invert":
            ok = same("real", array(result, "real_field"),
                      star("real_field", array(spec["A"], "real_field")))
        elif cmd == "solve":
            ok = self.bellman_ok(c, spec["A"], spec["B"], result, False)
        elif cmd == "profit":
            b = [[v] for v in spec["b"]]
            ok = self.bellman_ok(c, spec["A"], b, [[v] for v in result], False)
        elif cmd == "factor":
            ok = self.triple_ok(c, spec["A"], result, False)
        else:
            raise ValueError(f"no oracle for {job.kind}")
        return ("ok", "") if ok else ("wrong", f"{cmd} output differs from the oracle")


# ---------------------------------------------------------------- CLI output

def _cell(text, carrier):
    if text == ".":
        return ZERO[carrier]
    if text in ("inf", "-inf"):
        return text
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _rows(lines, carrier):
    return [[_cell(t, carrier) for t in line.split()] for line in lines]


def parse_cli(job, stdout):
    """The result of a successful CLI run in the plain form of the oracles."""
    cmd = job.kind[4:]
    if job.spec.get("format", "json") == "json":
        result = json.loads(stdout)["result"]
        if cmd == "factor":
            return {"l": result["l"]["data"], "d": result["d"],
                    "m": result["m"]["data"]}
        return result if cmd == "profit" else result["data"]
    lines = stdout.rstrip("\n").split("\n")
    if cmd == "profit":
        return _rows(lines, job.carrier)[0]
    if cmd == "factor":
        at = {k: lines.index(k + ":") for k in ("L", "D", "M")}
        return {"l": _rows(lines[at["L"] + 1:at["D"]], job.carrier),
                "d": _rows(lines[at["D"] + 1:at["M"]], job.carrier)[0],
                "m": _rows(lines[at["M"] + 1:], job.carrier)}
    return _rows(lines, job.carrier)
