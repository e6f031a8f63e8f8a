"""A seeded pass carries the float evaluation's values to the bit.

``geometry.jet``, ``symmetry.closure_fit`` and the ledger read an
evaluator's values off the one seeded pass that gives its derivatives.
That is sound only while the value part of every ``Dual`` operation is the
float operation itself: ``a / b``, ``c / a`` and ``a ** n``, not
``a * (1 / b)`` or ``a ** (n - 1) * a``, which differ in the last bit.
These tests pin that by ``float.hex``: for each of those operations on
draws that include signed zeros, subnormals and +-1e300, and for every
evaluator the suites differentiate, at the suites' own points.
"""

import numpy as np
import pytest

from nckepler import duals
from nckepler.duals import Dual
from nckepler.suites import SUITE_NAMES, SUITES, VerifyConfig

SMALL = VerifyConfig(samples=24, deformation_sets=3)

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5, 3.0, -3.0]


def _draws(n: int, seed: int) -> list:
    """``n`` floats: half uniform in (-3, 3), half of random sign and
    magnitude over every binade, then the edge values."""
    rng = np.random.default_rng(seed)
    moderate = rng.uniform(-3.0, 3.0, n // 2)
    wide = rng.choice([-1.0, 1.0], n - n // 2) * np.ldexp(rng.uniform(1.0, 2.0, n - n // 2),
                                                         rng.integers(-1074, 1023, n - n // 2))
    return moderate.tolist() + wide.tolist() + EDGES


def _outcome(thunk):
    """The bits of ``thunk()``, or the name of the error it raises."""
    try:
        v = thunk()
    except (ZeroDivisionError, OverflowError, ValueError) as e:
        return type(e).__name__
    if isinstance(v, Dual):
        v = v.a
    return repr(v) if isinstance(v, complex) else float(v).hex()


def _mismatches(op, xs, ys) -> list:
    return [(x, y) for x, y in zip(xs, ys)
            if _outcome(lambda: op(Dual(x, (1.0,)), y)) != _outcome(lambda: op(x, y))]


N = 100_000
XS = _draws(N, 0)
YS = _draws(N, 1)
# every edge value against every edge value, besides the paired draws
XS_ALL = XS + [x for x in EDGES for _ in EDGES]
YS_ALL = YS + EDGES * len(EDGES)


def test_quotient_value_is_the_float_quotient():
    assert _mismatches(lambda a, b: a / b, XS_ALL, YS_ALL) == []
    assert _mismatches(lambda a, b: a / Dual(b, (1.0,)), XS_ALL, YS_ALL) == []


def test_reflected_quotient_value_is_the_float_quotient():
    assert _mismatches(lambda a, b: b / a, XS_ALL, YS_ALL) == []


@pytest.mark.parametrize("n", [2, 3, 4, 7, -1, -2, -3, 1.5])
def test_power_value_is_the_float_power(n):
    # where the tangent's power a ** (n - 1) is out of range (a negative n
    # at a tiny a), the seeded pass raises, as a float ** out of range does
    def expected(x):
        if _outcome(lambda: x ** (n - 1)) == "OverflowError":
            return "OverflowError"
        return _outcome(lambda: x**n)

    assert [x for x in XS if _outcome(lambda: Dual(x, (1.0,)) ** n) != expected(x)] == []


# -- every evaluator the suites differentiate ----------------------------------


def _bits(v):
    """``v`` as nested tuples of ``float.hex`` strings, a ``Dual`` as its
    value's bits and its tangents' bits."""
    if isinstance(v, Dual):
        return ("dual", _bits(v.a), _bits(v.b))
    if isinstance(v, np.ndarray):
        return tuple(float(e).hex() for e in v.tolist())
    if isinstance(v, (list, tuple)):
        return tuple(_bits(e) for e in v)
    return float(v).hex()


def _values(v):
    """The value part of each ``Dual`` of the outermost layer in ``v``."""
    if isinstance(v, Dual):
        return v.a
    if isinstance(v, (list, tuple)):
        return [_values(e) for e in v]
    return v


def _agrees(func, coords) -> bool:
    """Whether the values of a seeded pass of ``func`` at ``coords`` are its
    values at ``coords`` (an outer layer included), bit for bit."""
    return _bits(_values(duals.seeded_pass(func, coords))) == _bits(func(coords))


@pytest.fixture(scope="module")
def differentiated():
    """``(suite, evaluator, coordinates)`` of every seeded pass the five
    suites take at ``SMALL``, outer layers included."""
    seen = []
    seeded = duals.seeded_pass

    def record(func, coords):
        coords = list(coords)
        seen.append((func, coords))
        return seeded(func, coords)

    out = []
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(duals, "seeded_pass", record)
        for name in SUITE_NAMES:
            SUITES[name](SMALL)
            out += [(name, func, coords) for func, coords in seen]
            seen.clear()
    finally:
        mp.undo()
    return out


def _top_level(records):
    return [(s, f, c) for s, f, c in records if not any(isinstance(e, Dual) for e in c)]


def test_every_suite_differentiates_through_seeded_pass(differentiated):
    # the guard below sees every suite; batches and single points both occur
    assert {s for s, _, _ in differentiated} == set(SUITE_NAMES)
    top = _top_level(differentiated)
    assert any(isinstance(c[0], np.ndarray) for _, _, c in top)
    assert any(isinstance(c[0], float) for _, _, c in top)
    assert len(top) < len(differentiated)  # nested passes: brackets of brackets, Hessians


def test_seeded_values_equal_the_float_evaluation_as_a_batch_and_nested(differentiated):
    # each pass as the suite took it: on a batch, at a point, or inside an
    # outer layer (a Hessian column, a bracket of brackets)
    bad = [(s, f) for s, f, c in differentiated if not _agrees(f, c)]
    assert bad == []


def test_seeded_values_equal_the_float_evaluation_at_each_point(differentiated):
    bad = []
    for suite, func, coords in _top_level(differentiated):
        if isinstance(coords[0], np.ndarray):
            for k in range(len(coords[0])):
                if not _agrees(func, [float(c[k]) for c in coords]):
                    bad.append((suite, func, k))
    assert bad == []


def test_seeded_values_equal_the_float_evaluation_under_an_outer_layer(differentiated):
    # the Hessian case: one coordinate carries a tangent of an outer layer,
    # so the values compared are duals of that layer, tangents included
    bad = []
    for n, (suite, func, coords) in enumerate(_top_level(differentiated)):
        i = n % len(coords)
        outer = list(coords)
        outer[i] = Dual(coords[i], (np.ones_like(coords[i]) if isinstance(coords[i], np.ndarray) else 1.0,))
        if not _agrees(func, outer):
            bad.append((suite, func, i))
    assert bad == []

