"""Descriptor catalog, carrier laws, star rules, coercion, tokens."""

import copy
import dataclasses
import math
import pickle

import pytest

from conftest import (ALL_NAMES, IDEMPOTENT_NAMES, KERNEL_CARRIERS, descriptor,
                      kernel_descriptor, kernel_rows, scalar_samples)
from semiralg import (NEG_INF, POS_INF, Interval, Matrix, from_token,
                      is_finite, laws, lift_semiring, make_semiring,
                      same_descriptor, to_token, usual_leq)
from semiralg.errors import (IllegalElement, InvalidBounds, ParseError,
                             StarUndefined, UnknownSemiring)
from semiralg.scalars import TOKENS
from semiralg.semirings import row_kernels
from semiralg.serialize import scalar_from_json

# ------------------------------------------------------------------- catalog


def test_catalog_flags():
    expected = {
        # name: (idempotent, complete, commutative_mul, positive)
        "rplus": (False, False, True, True),
        "rplus_complete": (False, True, True, True),
        "maxplus": (True, False, True, True),
        "maxplus_complete": (True, True, True, True),
        "minplus": (True, False, True, True),
        "maxmin": (True, True, True, True),
        "boolean": (True, True, True, True),
        "real_field": (False, False, True, False),
    }
    for name, (idem, complete, comm, pos) in expected.items():
        f = descriptor(name).flags
        assert (f.idempotent, f.complete, f.commutative_mul, f.positive) \
            == (idem, complete, comm, pos), name


def test_neutral_elements():
    assert descriptor("maxplus").zero is NEG_INF
    assert descriptor("maxplus").one == 0.0
    assert descriptor("minplus").zero is POS_INF
    assert descriptor("minplus").one == 0.0
    assert descriptor("rplus").zero == 0.0
    assert descriptor("rplus").one == 1.0
    assert descriptor("boolean").zero is False
    assert descriptor("boolean").one is True
    d = descriptor("maxmin")
    assert d.zero == 0.0 and d.one == 10.0
    assert descriptor("real_field").zero == 0.0


def test_labels_and_repr():
    assert descriptor("maxplus").label == "maxplus"
    assert descriptor("maxmin").label == "maxmin[0.0,10.0]"
    assert "maxmin[0.0,10.0]" in repr(descriptor("maxmin"))
    inf_lattice = make_semiring("maxmin", (NEG_INF, POS_INF))
    assert inf_lattice.label == "maxmin[-inf,inf]"
    assert inf_lattice.zero is NEG_INF and inf_lattice.one is POS_INF


def test_descriptors_are_cached():
    assert make_semiring("maxplus") is make_semiring("maxplus")
    assert make_semiring("maxmin", (0, 10)) is make_semiring("maxmin", (0.0, 10.0))
    assert make_semiring("maxmin", (0, 9)) is not make_semiring("maxmin", (0, 10))


def test_catalog_instances_pickle_as_themselves():
    # a catalog instance travels as its make_semiring call; a copy holds
    # closures and does not pickle, but copy.copy still copies it
    for d in (make_semiring("maxplus"), make_semiring("maxmin", (0, 10)),
              make_semiring("maxmin", (NEG_INF, POS_INF))):
        assert pickle.loads(pickle.dumps(d)) is d
        assert copy.copy(d) is d
        m = Matrix(d, [[d.zero, d.one]])
        back = pickle.loads(pickle.dumps(m))
        assert back.descriptor is d and back == m
    twin = dataclasses.replace(make_semiring("maxplus"))
    for obj in (twin, Matrix(twin, [[0.0]]), lift_semiring(twin),
                lift_semiring(make_semiring("maxplus"))):
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            pickle.dumps(obj)
    assert copy.copy(twin) is not twin


def test_make_semiring_rejections():
    with pytest.raises(UnknownSemiring) as exc:
        make_semiring("tropical")
    # the message lists the full catalog
    for name in ALL_NAMES:
        assert name.split("[")[0] in str(exc.value)
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin")            # bounds required
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin", (5, 5))    # a < b violated
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin", (7, 3))
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin", (1, 2, 3))
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin", (float("nan"), 1))
    with pytest.raises(InvalidBounds):
        make_semiring("maxplus", (0, 1))   # bounds only for maxmin


def test_integers_too_large_for_a_float_are_rejected():
    huge = 10 ** 400
    for name in ("rplus", "maxplus", "minplus", "maxmin", "real_field"):
        with pytest.raises(IllegalElement, match="too large"):
            descriptor(name).coerce(huge)
    with pytest.raises(InvalidBounds):
        make_semiring("maxmin", (0, huge))


def test_same_descriptor():
    import semiralg

    assert same_descriptor(descriptor("maxplus"), descriptor("maxplus"))
    assert not same_descriptor(descriptor("maxplus"), descriptor("minplus"))
    assert not same_descriptor(make_semiring("maxmin", (0, 10)),
                               make_semiring("maxmin", (0, 9)))
    lifted_max = semiralg.lift_semiring(descriptor("maxplus"))
    lifted_min = semiralg.lift_semiring(descriptor("minplus"))
    assert same_descriptor(lifted_max, lifted_max)
    assert not same_descriptor(lifted_max, lifted_min)
    assert not same_descriptor(lifted_max, descriptor("maxplus"))


# ---------------------------------------------------------------------- laws


@pytest.mark.parametrize("name", ALL_NAMES)
def test_full_law_suite(name):
    d = descriptor(name)
    assert laws.all_violations(d, scalar_samples(name)) == []


def _flagged(d, **flags):
    return dataclasses.replace(d, flags=dataclasses.replace(d.flags, **flags))


# law family, carrier, the copy with one thing broken, the first words of
# the violation it must report
_BROKEN = [
    (laws.semiring_axioms, "maxplus",
     lambda d: dataclasses.replace(d, add=lambda x, y: x),
     "add not commutative"),
    (laws.semiring_axioms, "maxplus",
     lambda d: dataclasses.replace(d, one=d.zero), "zero equals one"),
    (laws.idempotency_axioms, "rplus",
     lambda d: _flagged(d, idempotent=True), "x + x != x"),
    (laws.star_axioms, "rplus",
     lambda d: dataclasses.replace(d, star=lambda x: 1.0), "x* != 1 + x*x"),
    (laws.fused_accumulate_matches, "maxplus",
     lambda d: dataclasses.replace(d, fma=lambda acc, x, y: acc),
     "fma diverges"),
    (laws.positivity_axioms, "real_field",
     lambda d: _flagged(d, positive=True), "zero not below"),
]


@pytest.mark.parametrize("family, name, broken, message", _BROKEN,
                         ids=[m for *_, m in _BROKEN])
def test_law_checker_reports_a_broken_law(family, name, broken, message):
    d = broken(descriptor(name))
    found = family(d, scalar_samples(name))
    assert any(v.startswith(message) for v in found), found
    # all_violations runs the same family on the same copy
    assert set(found) <= set(laws.all_violations(d, scalar_samples(name)))


def test_all_violations_picks_families_by_flags():
    # rplus breaks the idempotency laws and real_field the positivity ones,
    # but all_violations runs each family only where the flag claims it
    for name, family, flag in (("rplus", laws.idempotency_axioms,
                                "idempotent"),
                               ("real_field", laws.positivity_axioms,
                                "positive")):
        d, samples = descriptor(name), scalar_samples(name)
        broken = family(d, samples)
        assert broken and laws.all_violations(d, samples) == []
        assert set(broken) <= set(
            laws.all_violations(_flagged(d, **{flag: True}), samples))


@pytest.mark.parametrize("name", ["rplus", "real_field"])
def test_field_like_laws_at_1e12(name, rng):
    """Associativity/distributivity hold to 1e-12 on tame random reals."""
    d = descriptor(name)
    lo = 0.0 if name == "rplus" else -2.0

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    for _ in range(300):
        x, y, z = (rng.uniform(lo, 2.0) for _ in range(3))
        assert close(d.add(d.add(x, y), z), d.add(x, d.add(y, z)))
        assert close(d.mul(d.mul(x, y), z), d.mul(x, d.mul(y, z)))
        assert close(d.add(x, y), d.add(y, x))
        assert close(d.mul(x, d.add(y, z)), d.add(d.mul(x, y), d.mul(x, z)))
        assert close(d.mul(d.add(x, y), z), d.add(d.mul(x, z), d.mul(y, z)))


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_idempotent_ops_are_exact(name):
    d = descriptor(name)
    for x in scalar_samples(name):
        assert d.eq(d.add(x, x), x)
    # equality is exact, not tolerance-based
    if name != "boolean":
        assert not d.eq(1.0, 1.0 + 1e-12)


def test_maxmin_fma_keeps_acc_on_ties_next_to_a_tag():
    # signed zeros tie; with or without a tag among the factors the
    # accumulator stays, as in the other catalog fma kernels
    d = make_semiring("maxmin", (NEG_INF, POS_INF))
    assert repr(d.fma(-0.0, POS_INF, 0.0)) == "-0.0"
    assert repr(d.fma(-0.0, 0.0, 1.0)) == "-0.0"


def test_maxmin_add_and_mul_keep_their_first_argument_on_ties():
    # as the row kernels do: max and min return the first of equal values,
    # also where an integer argument becomes a float first
    for d in (descriptor("maxmin"), make_semiring("maxmin", (NEG_INF, POS_INF))):
        for op in (d.add, d.mul):
            for zero in (0.0, 0):
                assert repr(op(zero, -0.0)) == "0.0"
                assert repr(op(-0.0, zero)) == "-0.0"


def test_maxmin_with_infinite_bounds_rejects_ieee_infinities():
    # its infinities are the tags; an IEEE inf is no element
    d = make_semiring("maxmin", (NEG_INF, POS_INF))
    for x, y in ((math.inf, 1.0), (1.0, math.inf), (math.inf, 0.0),
                 (-math.inf, 0.0), (POS_INF, -math.inf)):
        for op in (d.add, d.mul):
            with pytest.raises(IllegalElement, match="IEEE"):
                op(x, y)


def test_row_kernels_specialise_only_catalog_instances():
    # specialised kernels bring their own scalar product; the fold of
    # fma uses the descriptor's
    for label in ALL_NAMES + ["maxmin_inf"]:
        d = kernel_descriptor(label)
        assert (row_kernels(d).mul is not d.mul) == (label in KERNEL_CARRIERS)
        copy = dataclasses.replace(d)
        assert row_kernels(copy).mul is copy.mul
    lifted = lift_semiring(descriptor("maxplus"))
    assert row_kernels(lifted).mul is lifted.mul


def _same_value(got, want):
    # repr alone would take IEEE inf for the tag and 0.0 for -0.0
    assert type(got) is type(want) and repr(got) == repr(want)
    assert got is want or got == want


# boolean has no fold of its own: its kernels pack a row into an int, and
# LDM runs it on the fold of its fma (see tests/test_boolean_kernels.py)
@pytest.mark.parametrize("label", [c for c in KERNEL_CARRIERS if c != "boolean"])
def test_fold_matches_the_fma_fold(label, rng):
    d = kernel_descriptor(label)
    kernels = row_kernels(d)
    encode, decode = kernels.encode, kernels.decode
    zeros = [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]
    cases = [(acc, list(x), list(y)) for acc in (-0.0, 0.0) for x in zeros
             for y in zeros]
    cases += [(acc, [], []) for acc in kernel_rows(label, 1, 8, rng)[0]]
    for length in (0, 1, 2, 3, 8, 17):
        for extra in (0, 0, 2):
            acc, *xrow = kernel_rows(label, 1, length + 1, rng)[0]
            # the shorter row sets the length of the fold
            cases.append((acc, xrow, kernel_rows(label, 1, length + extra, rng)[0]))
    for acc, xrow, ycol in cases:
        want = acc
        for x, y in zip(xrow, ycol):
            want = d.fma(want, x, y)
        got = kernels.fold(encode([acc])[0], encode(xrow), encode(ycol))
        _same_value(decode([got])[0], want)


OVERFLOWING = {
    # carrier: a kernel value past the float range, a legal infinity
    "maxplus": (math.inf, -math.inf),
    "minplus": (-math.inf, math.inf),
    "rplus": (math.inf, None),
    "real_field": (-math.inf, None),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_decode_rejects_values_past_the_float_range(name):
    kernels = row_kernels(descriptor(name))
    bad, legal = OVERFLOWING[name]
    for row in ([1.0, bad], [bad, -bad], [math.nan, 1.0], [2.0, math.inf - math.inf]):
        with pytest.raises(IllegalElement, match="float range"):
            kernels.decode(row)
    # a row whose sum overflows is still legal entry by entry
    big = -1e308 if name == "minplus" else 1e308
    assert kernels.decode([big, big]) == [big, big]
    if legal is not None:
        assert kernels.decode([legal, 1.0]) == [descriptor(name).zero, 1.0]


# descriptors that run the fold of their own fma, and an overflowing value
FOLD_OVERFLOW = {
    "maxplus_complete": lambda: descriptor("maxplus_complete"),
    "rplus_complete": lambda: descriptor("rplus_complete"),
    "maxplus copy": lambda: dataclasses.replace(descriptor("maxplus")),
    "real_field copy": lambda: dataclasses.replace(descriptor("real_field")),
}


@pytest.mark.parametrize("label", sorted(FOLD_OVERFLOW))
def test_fold_decode_rejects_values_past_the_float_range(label):
    d = FOLD_OVERFLOW[label]()
    decode = row_kernels(d).decode
    for row in ([1.0, math.inf], [-math.inf, 2.0], [math.nan]):
        with pytest.raises(IllegalElement, match="float range"):
            decode(row)
    row = [d.zero, d.one, 1e308, 1e308]
    assert decode(row) == row and decode(row) is not row
    # a product that overflows raises, as on the IEEE kernels
    big = Matrix(d, [[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(IllegalElement, match="float range"):
        big.mul(big)


def test_fold_decode_checks_interval_endpoints():
    lifted = lift_semiring(descriptor("maxplus"))
    decode = row_kernels(lifted).decode
    with pytest.raises(IllegalElement, match="float range"):
        decode([lifted.one, Interval(1.0, math.inf)])
    assert decode([lifted.zero, lifted.one]) == [lifted.zero, lifted.one]


def test_field_like_eq_tolerance():
    d = descriptor("rplus")
    assert d.eq(0.1 + 0.2, 0.3)
    assert not d.eq(1.0, 1.01)
    dc = descriptor("rplus_complete")
    assert dc.eq(POS_INF, POS_INF)    # tags compare by identity
    assert not dc.eq(POS_INF, 1e300)  # a tag never equals a float


# ---------------------------------------------------------------------- star


def test_star_known_values():
    assert descriptor("rplus").star(0.5) == 2.0
    with pytest.raises(StarUndefined):
        descriptor("rplus").star(1.0)
    with pytest.raises(StarUndefined):
        descriptor("rplus").star(2.0)
    assert descriptor("rplus_complete").star(1.0) is POS_INF
    assert descriptor("rplus_complete").star(POS_INF) is POS_INF

    with pytest.raises(StarUndefined):
        descriptor("maxplus").star(3.0)
    assert descriptor("maxplus_complete").star(3.0) is POS_INF
    assert descriptor("maxplus").star(0.0) == 0.0
    assert descriptor("maxplus").star(-2.0) == 0.0

    assert descriptor("minplus").star(0.0) == 0.0
    assert descriptor("minplus").star(5.0) == 0.0
    assert descriptor("minplus").star(POS_INF) == 0.0
    with pytest.raises(StarUndefined):
        descriptor("minplus").star(-1.0)

    d = descriptor("maxmin")
    for x in scalar_samples("maxmin"):
        assert d.star(x) == 10.0

    assert descriptor("boolean").star(False) is True
    assert descriptor("boolean").star(True) is True

    assert descriptor("real_field").star(0.5) == 2.0
    assert descriptor("real_field").star(2.0) == -1.0
    with pytest.raises(StarUndefined):
        descriptor("real_field").star(1.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_star_of_zero_is_one(name):
    d = descriptor(name)
    assert d.eq(d.star(d.zero), d.one)


def test_star_error_carries_element():
    with pytest.raises(StarUndefined) as exc:
        descriptor("maxplus").star(4.0)
    assert exc.value.element == 4.0
    assert exc.value.location is None


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "real_field"])
def test_truncated_series_below_star(name):
    """1 + x + ... + x^20 stays below x* on the positive carriers."""
    d = descriptor(name)
    for x in scalar_samples(name):
        try:
            s = d.star(x)
        except StarUndefined:
            continue
        partial = power = d.one
        for _ in range(20):
            power = d.mul(power, x)
            partial = d.add(partial, power)
            assert d.leq(partial, s)


def test_truncated_series_real_field_on_unit_interval():
    d = descriptor("real_field")
    for x in [0.0, 0.1, 0.25, 0.5, 0.9]:
        s = d.star(x)
        partial = power = d.one
        for _ in range(20):
            power = d.mul(power, x)
            partial = d.add(partial, power)
            assert partial <= s + 1e-12


# ---------------------------------------------------------------- isomorphism


def test_minplus_is_negated_maxplus(rng):
    mn = descriptor("minplus")
    mx = descriptor("maxplus")

    def neg(v):
        if v is POS_INF:
            return NEG_INF
        if v is NEG_INF:
            return POS_INF
        return -v

    assert neg(mn.zero) is mx.zero
    assert mn.one == -mx.one == 0.0
    pool = [POS_INF] + [float(rng.randint(0, 9)) for _ in range(20)]
    for x in pool:
        for y in pool:
            assert mn.add(x, y) == neg(mx.add(neg(x), neg(y))) \
                or mn.add(x, y) is neg(mx.add(neg(x), neg(y)))
            assert mn.mul(x, y) == neg(mx.mul(neg(x), neg(y))) \
                or mn.mul(x, y) is neg(mx.mul(neg(x), neg(y)))
        assert mn.star(x) == -mx.star(neg(x)) if x is not POS_INF \
            else mn.star(x) == 0.0


# ------------------------------------------------------------------ coercion


def test_coercion_rejections():
    with pytest.raises(IllegalElement):
        descriptor("rplus").coerce(-1.0)
    with pytest.raises(IllegalElement):
        descriptor("rplus").coerce(float("inf"))     # IEEE inf never legal
    with pytest.raises(IllegalElement):
        descriptor("rplus").coerce(NEG_INF)
    with pytest.raises(IllegalElement):
        descriptor("rplus").coerce(POS_INF)          # only the completion has it
    assert descriptor("rplus_complete").coerce(POS_INF) is POS_INF

    with pytest.raises(IllegalElement):
        descriptor("maxplus").coerce(POS_INF)
    assert descriptor("maxplus_complete").coerce(POS_INF) is POS_INF
    with pytest.raises(IllegalElement):
        descriptor("maxplus").coerce(float("-inf"))  # use the tag instead
    with pytest.raises(IllegalElement):
        descriptor("minplus").coerce(NEG_INF)

    with pytest.raises(IllegalElement):
        descriptor("boolean").coerce(1)
    with pytest.raises(IllegalElement):
        descriptor("boolean").coerce(0.0)
    assert descriptor("boolean").coerce(True) is True

    with pytest.raises(IllegalElement):
        descriptor("maxmin").coerce(11.0)
    with pytest.raises(IllegalElement):
        descriptor("maxmin").coerce(-0.5)
    with pytest.raises(IllegalElement):
        descriptor("real_field").coerce(float("nan"))
    with pytest.raises(IllegalElement):
        descriptor("real_field").coerce("3")


def test_coercion_normalizes_ints_to_floats():
    for name in ALL_NAMES:
        if name == "boolean":
            continue
        v = descriptor(name).coerce(2)
        assert type(v) is float and v == 2.0


def test_strict_add_mul_validate_inputs():
    with pytest.raises(IllegalElement):
        descriptor("rplus").add(1.0, -3.0)
    with pytest.raises(IllegalElement):
        descriptor("maxplus").mul(float("inf"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("maxplus").add(float("inf"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("rplus").add(float("inf"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("rplus").mul(float("inf"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("minplus").mul(float("-inf"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("real_field").add(float("nan"), 1.0)
    with pytest.raises(IllegalElement):
        descriptor("real_field").mul(1.0, float("inf"))


# carrier, operation, arguments -> the result past the float range
INF = math.inf
SCALAR_OVERFLOW = [
    ("real_field", "add", 1e308, INF),
    ("real_field", "add", -1e308, -INF),
    ("real_field", "mul", 1e308, INF),
    ("real_field", "mul", -1e308, INF),
    ("real_field", "mul", (1e308, -1e308), -INF),
    ("rplus", "add", 1e308, INF),
    ("rplus", "mul", 1e308, INF),
    ("rplus_complete", "add", 1e308, INF),
    ("rplus_complete", "mul", 1e308, INF),
    ("maxplus", "mul", 1e308, INF),
    ("maxplus_complete", "mul", 1e308, INF),
    ("minplus", "mul", -1e308, -INF),
]


@pytest.mark.parametrize("name, op, args, past", SCALAR_OVERFLOW)
def test_scalar_results_past_the_float_range_are_rejected(name, op, args, past):
    d = descriptor(name)
    x, y = args if isinstance(args, tuple) else (args, args)
    message = (f"a result left the float range ({past!r}); it is not a "
               f"{name} element")
    with pytest.raises(IllegalElement) as info:
        getattr(d, op)(x, y)
    assert str(info.value) == message
    # as the matrix kernels do, on both kernel families
    for desc in (d, dataclasses.replace(d)):
        with pytest.raises(IllegalElement, match="float range"):
            getattr(Matrix(desc, [[x]]), op)(Matrix(desc, [[y]]))


@pytest.mark.parametrize("name, big", [("maxplus", -1e308),
                                       ("maxplus_complete", -1e308),
                                       ("minplus", 1e308)])
def test_scalar_product_overflowing_to_the_zero_is_the_zero(name, big):
    d = descriptor(name)
    assert d.mul(big, big) is d.zero
    assert d.mul(big, big) is Matrix(d, [[big]]).mul(Matrix(d, [[big]]))[0, 0]
    # fma and add(acc, mul(x, y)) still agree there
    for acc in (d.zero, d.one, big):
        assert d.fma(acc, big, big) == d.add(acc, d.mul(big, big))
    assert d.add(big, big) == big


# ---------------------------------------------------------------- tag algebra


def test_infinity_tag_arithmetic():
    mxc = descriptor("maxplus_complete")
    # bottom absorbs top under multiplication
    assert mxc.mul(NEG_INF, POS_INF) is NEG_INF
    assert mxc.mul(POS_INF, NEG_INF) is NEG_INF
    assert mxc.add(NEG_INF, POS_INF) is POS_INF
    assert mxc.mul(POS_INF, -5.0) is POS_INF

    rpc = descriptor("rplus_complete")
    assert rpc.mul(POS_INF, 0.0) == 0.0
    assert rpc.mul(0.0, POS_INF) == 0.0
    assert rpc.mul(POS_INF, 2.0) is POS_INF
    assert rpc.add(0.0, POS_INF) is POS_INF

    mn = descriptor("minplus")
    assert mn.mul(POS_INF, 3.0) is POS_INF
    assert mn.add(POS_INF, 3.0) == 3.0


def test_infinity_singletons_survive_pickling():
    assert pickle.loads(pickle.dumps(NEG_INF)) is NEG_INF
    assert pickle.loads(pickle.dumps(POS_INF)) is POS_INF


# --------------------------------------------------------------- order, tokens


def test_leq_worked_examples():
    mx = descriptor("maxplus")
    for x in scalar_samples("maxplus"):
        assert mx.leq(NEG_INF, x)
    assert mx.leq(2.0, 5.0)
    assert not mx.leq(5.0, 2.0)
    # minplus zero (+inf) is least in the canonical order
    mn = descriptor("minplus")
    assert mn.leq(POS_INF, 3.0)
    assert not mn.leq(3.0, POS_INF)
    assert mn.leq(5.0, 3.0)          # smaller journey time is larger
    bool_d = descriptor("boolean")
    assert bool_d.leq(False, True) and not bool_d.leq(True, False)


def test_usual_leq_with_tags():
    assert usual_leq(NEG_INF, POS_INF)
    assert usual_leq(NEG_INF, NEG_INF)
    assert not usual_leq(POS_INF, 1e300)
    assert usual_leq(1e300, POS_INF)


def test_is_finite():
    for v in (0.0, -0.0, -3.5, 1e308, 7):
        assert is_finite(v)
    for v in (NEG_INF, POS_INF, math.inf, math.nan, True, False, "1.0", None):
        assert not is_finite(v)


def test_tokens_round_trip():
    for v in [NEG_INF, POS_INF, True, False, 0.0, -3.5, 7.0]:
        assert from_token(to_token(v)) is v or from_token(to_token(v)) == v
    assert from_token("  2.5 ") == 2.5
    with pytest.raises(ValueError):
        from_token("nan")
    with pytest.raises(ValueError):
        from_token("garbage")
    with pytest.raises(ValueError):
        from_token("inf inf")


def test_one_token_table_serves_text_and_json():
    for v in (NEG_INF, POS_INF, True, False):
        assert TOKENS[to_token(v)] is v
    assert from_token("+inf") is POS_INF
    for token, v in TOKENS.items():
        d = descriptor("boolean" if isinstance(v, bool) else
                       "maxplus_complete")
        assert from_token(f" {token} ") is v
        assert scalar_from_json(d, token) is v
    # a number is written bare in JSON; as a string it is no token
    with pytest.raises(ParseError, match="unknown scalar token"):
        scalar_from_json(descriptor("maxplus"), "-2.0")
