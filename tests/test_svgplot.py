import math

import pytest

from lambda_mixer.svgplot import _ticks

N = 6  # _ticks' default tick count

SPANS = {
    "zero to the least subnormal": (0.0, 5e-324),
    "subnormal": (5e-321, 1e-320),
    "negative subnormal": (-1e-320, -5e-321),
    "one ulp": (1e20, math.nextafter(1e20, math.inf)),
    "nine ulps": (1.0941042394357657e-253, 1.0941042394357666e-253),
    "negative nine ulps": (-1.0941042394357666e-253, -1.0941042394357657e-253),
    "ordinary": (-20.0, 100.0),
    "ordinary negative": (-3e5, -1.25e5),
    "log10 of depths": (-2.0, 2.0),
    "1e308 wide": (0.0, 1.7e308),
    "negative 1e308 wide": (-1.7e308, 0.0),
    "span overflowing to inf": (-1e308, 1e308),
}


@pytest.mark.parametrize("lo, hi", SPANS.values(), ids=SPANS.keys())
def test_ticks_are_few_finite_increasing_and_within_the_span(lo, hi):
    ticks = _ticks(lo, hi, N)
    assert 1 <= len(ticks) <= N + 1
    assert all(map(math.isfinite, ticks))
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    # the step is at most twice the span over N - 1, and the loop admits 1e-9 step beyond hi;
    # the first tick, ceil(lo / step) * step, may lie one ulp below lo where lo / step rounds
    # down to a whole number, or a tiny fraction of step below it where it is snapped to 0
    slack = 1e-9 * 2 * (hi / (N - 1) - lo / (N - 1))
    assert lo - slack - math.ulp(lo) <= ticks[0] and ticks[-1] <= hi + slack
