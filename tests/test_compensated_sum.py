"""The verify reports do not depend on how ``sum()`` rounds floats.

From CPython 3.12, ``sum()`` adds exact floats with Neumaier's compensated
algorithm (gh-100425); 3.11 and earlier add them left to right.  The
package supports both, so no report may rest on a float ``sum()``.
``neumaier_sum`` models the 3.12 ``builtin_sum`` step by step: an int fast
path, a compensated float fast path that also takes ints, and the generic
``+`` for anything else (numpy scalars and arrays among them), with the
compensation added in before it leaves the float path.
"""

import ast
import builtins
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nckepler
from nckepler import reduced
from nckepler.charts import convert
from nckepler.deformation import transform_coordinates
from nckepler.errors import NCKeplerError
from nckepler.geometry import Chart, PhasePoint
from nckepler.hierarchy import _matmul
from nckepler.suites import SUITES, VerifyConfig

LONG_MAX = 2**63 - 1


def neumaier_sum(iterable, /, start=0):
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):  # exact, whatever the C fast path's range
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
                continue
            if isinstance(item, int) and abs(item) <= LONG_MAX:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


def test_the_model_compensates_floats_only():
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert neumaier_sum([0.1] * 10) == 1.0
    assert neumaier_sum([-0.0, -0.0], -0.0).hex() == (-0.0).hex()
    assert neumaier_sum([3, True, 2**70]) == 4 + 2**70
    assert neumaier_sum([[1], [2.5]], []) == [1, 2.5]
    # a numpy scalar or array leaves the float path, compensation added in
    got = neumaier_sum([1e100, 1.0, -1e100, np.float64(0.5), np.array([1.0, 2.0])])
    assert got.tolist() == [2.5, 3.5]


@pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum() compensates from CPython 3.12")
def test_the_model_equals_the_builtin_sum():
    rng = np.random.default_rng(3)
    for _ in range(200):
        terms = (rng.standard_normal(50) * 10.0 ** rng.uniform(-20, 20, 50)).tolist()
        assert neumaier_sum(terms).hex() == sum(terms).hex()


# ``1e100 + 1.0`` rounds the 1.0 away, so a left fold of these terms gives
# 0.0 where the compensated sum gives 1.0.
CANCELLING = [1e100, 1.0, -1e100]


def test_matmul_folds_left(monkeypatch):
    assert neumaier_sum(CANCELLING) == 1.0
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert _matmul([CANCELLING, [0.5, 0.25, 0.0]], [[1.0], [1.0], [1.0]]) == [[0.0], [0.75]]


def test_transform_coordinates_folds_left(monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    zero = [[0.0] * 3] * 3
    ones = (1.0,) * 6
    # transform_coordinates reads only the two matrices, here not antisymmetric
    assert transform_coordinates(ones, SimpleNamespace(alpha=[CANCELLING] * 3, lam=zero)) \
        == [1.0] * 6
    assert transform_coordinates(ones, SimpleNamespace(alpha=zero, lam=[CANCELLING] * 3)) \
        == [1.0] * 6


def test_quadratic_condition_value_folds_left(monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    monkeypatch.setattr(reduced, "lambda_matrix", lambda rp, phi: [CANCELLING] * 3)
    x = PhasePoint((1.0, 1.0, 1.0, 0.0, 0.0, 0.0), Chart.CARTESIAN)
    assert reduced.quadratic_condition_value(x, VerifyConfig().reduced) == 0.0


# Package modules whose float sums are all explicit left folds
# (``geometry.dot`` or a loop from 0.0).  Their sums have at most two
# nonzero terms, of antisymmetric or diagonal matrices, where the
# compensated sum and a left fold agree, so the guard below keeps them so.
FOLDED_MODULES = ("charts", "deformation", "hierarchy", "kepler", "master", "reduced")


def sum_calls(source: str) -> list:
    """Line numbers of the calls of the bare name ``sum`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]


def test_scan_finds_a_bare_sum_call_only():
    assert sum_calls("a = sum(v for v in x)\nb = np.sum(x)\nc = dot(u, v)\n") == [1]


@pytest.mark.parametrize("module", FOLDED_MODULES)
def test_folded_module_calls_no_sum(module):
    source = (Path(nckepler.__file__).parent / f"{module}.py").read_text()
    assert sum_calls(source) == []


def _reports(seed: int) -> dict:
    cfg = VerifyConfig(samples=24, seed=seed)
    return {name: suite(cfg).to_json() for name, suite in SUITES.items()}


@pytest.mark.parametrize("seed", [0, 4, 5, 7, 42])
def test_every_report_keeps_its_bytes_under_a_compensated_sum(seed, monkeypatch):
    plain = _reports(seed)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    compensated = _reports(seed)
    assert [name for name in plain if compensated[name] != plain[name]] == []


def _conversions(states, rp) -> list:
    """Each state's coordinates by ``float.hex`` in the spherical,
    action-angle and Delaunay charts, or the message it fails with."""
    out = []
    for c in states:
        for target in (Chart.SPHERICAL, Chart.ACTION_ANGLE, Chart.DELAUNAY):
            try:
                out.append([v.hex() for v in convert(PhasePoint(c, Chart.CARTESIAN), target, rp).coords])
            except NCKeplerError as err:
                out.append(f"{type(err).__name__}: {err}")
    return out


def test_chart_conversions_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # about half the states are unbound, so the action-angle and Delaunay
    # conversions fail with a message there
    rng = np.random.default_rng(11)
    states = [tuple(c) for c in rng.uniform([-1.6] * 3 + [-1.1] * 3, [1.6] * 3 + [1.1] * 3,
                                            size=(3_000, 6)).tolist()]
    rp = VerifyConfig().reduced
    plain = _conversions(states, rp)
    assert 0 < sum(isinstance(v, str) for v in plain) < len(plain)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    compensated = _conversions(states, rp)
    assert [i for i, v in enumerate(plain) if compensated[i] != v] == []
