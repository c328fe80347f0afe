"""The two bracketing roots share one contract: a root within xtol / 2 (plus
the iterate's rounding) of a sign change, no evaluation at an end the
caller gave, an exact zero returned as it is, BracketError for a bracket
without a sign change or an empty one, and at most MAX_ITER steps."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikappa import rootfind
from pikappa.errors import BracketError
from pikappa.rootfind import bisect, brent

EPS = sys.float_info.epsilon
ROOTS = pytest.mark.parametrize("root", [bisect, brent],
                                ids=["bisect", "brent"])


def _shape(kind, t, w):
    """An increasing g(u) whose one sign change is at u = 0; t in
    [-0.5, 0.5] places a kink or step and w > 0 sets its size."""
    return {
        "linear": lambda u: u,
        "cubic": lambda u: u + w * u ** 3,
        "atan": lambda u: math.atan(w * u),
        "expm1": lambda u: math.expm1(min(w, 30.0) * u),
        # slope 1 left of t, 1 + w right of it
        "kink": lambda u: u + w * (max(0.0, u - t) - max(0.0, -t)),
        # like threshold_etas' sign_of_excess: a jump of w at t
        "step": lambda u: u + w * ((u > t) - (0.0 > t)),
        # a jump across 0 at u = 0 with no zero
        "jump": lambda u: u + w if u >= 0.0 else u - w,
        # the sign alone: |f| ties at every pair of points
        "sign": lambda u: 1.0 if u >= 0.0 else -1.0,
        # 0 on [-w, w]
        "flat": lambda u: math.copysign(max(0.0, abs(u) - w), u),
    }[kind]


SHAPES = ["linear", "cubic", "atan", "expm1", "kink", "step", "jump", "sign",
          "flat"]


def _log(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _problem(kind, center, left, right, sign, t, w):
    """f(x) = sign g((x - center) / scale) on [center - left,
    center + right]."""
    lo, hi = center - left, center + right
    scale = hi - lo
    g = _shape(kind, t, w)
    return (lambda x: sign * g((x - center) / scale)), lo, hi


def _near_sign_change(f, x, lo, hi, xtol):
    # f is monotone, so a sign change lies within d of x when f differs in
    # sign (or vanishes) at x - d and x + d, clipped to the bracket
    if f(x) == 0.0:
        return True
    d = 0.5 * xtol + 2.0 * EPS * abs(x)
    fa, fb = f(max(lo, x - d)), f(min(hi, x + d))
    return fa == 0.0 or fb == 0.0 or (fa > 0) != (fb > 0)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(kind=st.sampled_from(SHAPES), center=st.floats(-1e3, 1e3),
       left=_log(1e-6, 1e3), right=_log(1e-6, 1e3),
       sign=st.sampled_from([1.0, -1.0]), t=st.floats(-0.5, 0.5),
       w=_log(1e-3, 1e3), rel=_log(1e-13, 1e-3), given_ends=st.booleans())
def test_root_lies_at_a_sign_change(kind, center, left, right, sign, t, w,
                                    rel, given_ends):
    f, lo, hi = _problem(kind, center, left, right, sign, t, w)
    xtol = rel * max(1.0, abs(lo), abs(hi))
    flo, fhi = f(lo), f(hi)
    results = {}
    for root in (bisect, brent):
        seen = []

        def recorded(x):
            seen.append(x)
            return f(x)
        ends = dict(flo=flo, fhi=fhi) if given_ends else {}
        res = root(recorded, lo, hi, xtol=xtol, **ends)
        assert lo <= res.root <= hi
        assert res.iterations < rootfind.MAX_ITER
        assert _near_sign_change(f, res.root, lo, hi, xtol), (root, res)
        inner = seen if given_ends else seen[2:]
        assert lo not in inner and hi not in inner
        assert len(inner) == res.iterations
        results[root] = res.root
    if kind != "flat":
        # one sign change, so both roots sit within their bounds of it
        a, b = results[brent], results[bisect]
        assert abs(a - b) <= xtol + 2.0 * EPS * (abs(a) + abs(b))


@ROOTS
def test_converges_in_fewer_steps_on_a_smooth_root(root):
    # f(x) = x^3 - 2 on [0, 2]; bisection needs ceil(log2(2 / 1e-12)) = 41
    res = root(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-12)
    assert res.root == pytest.approx(2.0 ** (1.0 / 3.0), abs=5e-13)
    assert res.iterations == (41 if root is bisect else 7)


@ROOTS
@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("given_ends", [False, True])
def test_exact_zero_at_an_end_is_returned(root, end, given_ends):
    lo, hi = 0.25, 3.0
    zero = lo if end == "lo" else hi
    f = lambda x: x - zero
    ends = dict(flo=f(lo), fhi=f(hi)) if given_ends else {}
    res = root(f, lo, hi, **ends)
    assert (res.root, res.iterations) == (zero, 0)


@ROOTS
def test_exact_zero_at_the_first_step_is_returned(root):
    # the first step of both is 0.5: bisection's midpoint, and brent's
    # bisection step, since |f| ties at the two ends
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.5
    res = root(f, 0.0, 1.0, xtol=1e-12, flo=-0.5, fhi=0.5)
    assert (res.root, res.iterations) == (0.5, 1)
    assert seen == [0.5]


@ROOTS
@pytest.mark.parametrize("given_ends", [False, True])
def test_ends_of_one_sign_raise(root, given_ends):
    f = lambda x: x + 1.0
    ends = dict(flo=f(0.0), fhi=f(1.0)) if given_ends else {}
    with pytest.raises(BracketError, match="no sign change"):
        root(f, 0.0, 1.0, **ends)


@ROOTS
def test_empty_bracket_raises_before_evaluating(root):
    def f(x):
        raise AssertionError(f"f evaluated at {x}")
    with pytest.raises(BracketError, match="empty bracket"):
        root(f, 1.0, 0.5)
    with pytest.raises(BracketError, match="empty bracket"):
        root(f, 1.0, 0.5, flo=-1.0, fhi=1.0)


@ROOTS
def test_steps_stop_at_max_iter(root, monkeypatch):
    # a cap of 3 steps returns the midpoint of the third bracket, inside the
    # one the caller gave, without an error
    monkeypatch.setattr(rootfind, "MAX_ITER", 3)
    seen = []

    def f(x):
        seen.append(x)
        return math.atan(1e3 * (x - 0.3))
    res = root(f, 0.0, 1.0, xtol=1e-15)
    assert res.iterations == 3 == len(seen) - 2
    assert 0.0 < res.root < 1.0
