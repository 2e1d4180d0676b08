import cmath
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bakerbench.core import (
    EXP_MAX,
    OverflowSignal,
    PlanePoint,
    apply_f,
    orbit,
    orbits,
    safe_exp,
    step,
)
from scalar_reference import cmath_step, scalar_orbit

# Frozen with a 60-digit mpmath evaluation, rounded to double.
F_1_1 = (2.1353352832366127, 3.1353352832366127)
F_1_2 = (3.049787068367864, 5.018315638888734)


class TestSafeExp:
    def test_zero(self):
        assert safe_exp(0j) == 1 + 0j

    def test_euler_identity(self):
        assert abs(safe_exp(1j * math.pi) - (-1 + 0j)) < 1e-15

    def test_overflow(self):
        with pytest.raises(OverflowSignal):
            safe_exp(800 + 0j)

    def test_threshold_edge(self):
        assert cmath.isfinite(safe_exp(EXP_MAX + 0j))
        with pytest.raises(OverflowSignal):
            safe_exp(EXP_MAX + 1e-8 + 0j)

    def test_underflow_is_silent_zero(self):
        assert safe_exp(-800 + 0j) == 0j


class TestApplyF:
    def test_origin(self):
        img = apply_f(PlanePoint(0j, 0j))
        assert img == PlanePoint(1 + 0j, 2 + 0j)

    def test_one_one(self):
        img = apply_f(PlanePoint(1 + 0j, 1 + 0j))
        assert abs(img.z - F_1_1[0]) < 1e-15
        assert abs(img.w - F_1_1[1]) < 1e-15

    def test_one_two(self):
        # image of (1, 2), i.e. (zeta, 2 zeta) at zeta = 1:
        # (e^-3 + 3, e^-4 + 5)
        img = apply_f(PlanePoint(1 + 0j, 2 + 0j))
        assert abs(img.z - F_1_2[0]) < 1e-15
        assert abs(img.w - F_1_2[1]) < 1e-15

    def test_overflow_signalled(self):
        with pytest.raises(OverflowSignal):
            apply_f(PlanePoint(-400 + 0j, -400 + 0j))

    def test_never_returns_nonfinite(self):
        # 2w leaves double range even though the exponentials underflow
        with pytest.raises(OverflowSignal):
            apply_f(PlanePoint(1 + 0j, 9.5e307 + 0j))


class TestOrbit:
    def test_zero_steps(self):
        z, w, d = orbit(PlanePoint(0j, 0j), 0)
        assert z.tolist() == [0j] and w.tolist() == [0j] and d.tolist() == [0j]

    def test_one_step(self):
        z, w, d = orbit(PlanePoint(0j, 0j), 1)
        assert z.tolist() == [0j, 1 + 0j]
        assert w.tolist() == [0j, 2 + 0j]
        assert d.tolist() == [0j, 1 + 0j]

    def test_growth_after_forty_steps(self):
        z, w, _ = orbit(PlanePoint(2 + 0j, 4 + 0j), 40)
        assert z.size == 41
        # oracle: Re w_40 ~ 5.4977e12, far above 2*4 + 20
        assert w[-1].real > 2 * 4 + 20

    def test_overflow_truncation(self):
        z, w, d = orbit(PlanePoint(-400 + 0j, -400 + 0j), 5)
        assert z.size == w.size == d.size == 1
        assert z[0] == w[0] == -400

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            orbit(PlanePoint(0j, 0j), -1)

    def test_determinism(self):
        a = orbit(PlanePoint(2 + 1j, 4 - 3j), 25)
        b = orbit(PlanePoint(2 + 1j, 4 - 3j), 25)
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_consistency(self):
        z, w, _ = orbit(PlanePoint(1.5 + 0.5j, 3 + 0j), 20)
        for k in range(z.size - 1):
            assert apply_f(PlanePoint(z[k], w[k])) == PlanePoint(z[k + 1], w[k + 1])

    @pytest.mark.parametrize("seed, n, length", [
        # Re w passes W_CUT = 373 at step 7, where e^{-2w} underflows.
        (PlanePoint(2 + 0.5j, 4 - 1j), 12, 13),
        # Applying F to state 2 overflows.
        (PlanePoint(-4.8 - 0.4j, -1.8 + 1.8j), 8, 3),
    ])
    def test_matches_scalar_reference_bit_for_bit(self, seed, n, length):
        got = orbit(seed, n)
        ref = [np.array(c) for c in zip(*scalar_orbit(seed.z, seed.w, n))]
        assert got[0].size == length
        assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]


seeds = st.tuples(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(0, 15), st.integers(0, 15))
def test_orbit_prefix_property(coords, m, n):
    if m > n:
        m, n = n, m
    seed = PlanePoint(complex(coords[0], coords[1]), complex(coords[2], coords[3]))
    long = orbit(seed, n)
    short = orbit(seed, m)
    if long[0].size == n + 1:
        assert short[0].size == m + 1
    if short[0].size == m + 1:
        assert [x[: m + 1].tobytes() for x in long] == [x.tobytes() for x in short]


# Python's cmath.exp evaluates e^x as e^(x-1)*e above log(DBL_MAX/4), one
# more rounding than np.exp; below that threshold the two agree bit for bit.
CMATH_EXP_SCALED = math.log(sys.float_info.max / 4)

parts = st.one_of(st.floats(-1000, 1000),
                  st.floats(allow_nan=False, allow_infinity=False))
states = st.tuples(*[st.builds(complex, parts, parts)] * 3)


def bits(c: complex) -> bytes:
    return struct.pack("<2d", c.real, c.imag)


@settings(max_examples=300, deadline=None)
@given(st.lists(states, min_size=1, max_size=8))
# exponents with real part just above EXP_MAX, where e^x is still finite
@example([(-709.5 + 0j, 0j, 0j), (0j, -354.6 + 0j, 0j), (-100 + 1j, -100 - 1j, 5 + 0j)])
def test_step_matches_cmath_reference(batch):
    z, w, d = (np.array(col, dtype=np.complex128) for col in zip(*batch))
    z1, w1, d1, ok = step(z, w, d)
    for k, (zk, wk, dk) in enumerate(batch):
        ref = cmath_step(zk, wk, dk)
        assert bool(ok[k]) == (ref is not None)
        if ref is None:
            continue
        got = (complex(z1[k]), complex(w1[k]), complex(d1[k]))
        if max((-(zk + wk)).real, (-2 * wk).real) <= CMATH_EXP_SCALED:
            assert list(map(bits, got)) == list(map(bits, ref))
        else:
            for g, r in zip(got, ref):
                assert abs(g - r) <= 4 * sys.float_info.epsilon * abs(r)


# Real parts of s = z + w and of 2w on both sides of 746, above which
# e^{-746} < 2^-1076 underflows to zero.
EDGES = (745.0, 745.5, 746.0, 746.5, 747.0)
FAR_EDGE = 746.0
IMAGS = (0.0, -0.0, 1.5, -2.5)
INF_IMAGS = ((math.inf, 0.0), (-0.0, -math.inf), (math.inf, -math.inf), (-math.inf, 1.5))
# d = -1 makes d + 1 zero, so an e^{-745} dropped from the margin shows.
MARGINS = (complex(-1, 0.0), complex(-1, -0.0), complex(-0.0, -0.0),
           complex(0.0, 3.0), complex(2.5, -0.0))


def boundary_states():
    """(z, w, d) with Re s and 2 Re w on EDGES, and signed zeros and
    infinities in the imaginary parts; then states whose z or w has a real
    part of +-0, so one exponential is far and the other is not."""
    states = []
    for re_s in EDGES:
        for re_2w in EDGES:
            w_re = re_2w / 2
            z_re = re_s - w_re  # exact: s has real part re_s
            for zi in IMAGS:
                for wi in IMAGS:
                    states += [(complex(z_re, zi), complex(w_re, wi), d) for d in MARGINS]
            states += [(complex(z_re, zi), complex(w_re, wi), MARGINS[0])
                       for zi, wi in INF_IMAGS]
    for x in EDGES:
        for zero in (0.0, -0.0):
            for d in MARGINS:
                states.append((complex(zero, -0.0), complex(x / 2, zero), d))
                states.append((complex(x, zero), complex(zero, -0.0), d))
    return states


def far_in_s(z, w, d):
    return (z + w).real > FAR_EDGE


def far_in_w(z, w, d):
    return 2 * w.real > FAR_EDGE


BATCHES = {
    "near": lambda st: not far_in_s(*st) and not far_in_w(*st),
    "far": lambda st: far_in_s(*st) and far_in_w(*st),
    "mixed": lambda st: True,
}


@pytest.mark.parametrize("batch", BATCHES)
def test_step_at_the_underflow_cut_matches_exp_everywhere(batch):
    """On both sides of the underflow cut, where exp gives +-0, the bits of
    step, signed zeros included, must be those of the scalar reference."""
    picked = [st for st in boundary_states() if BATCHES[batch](st)]
    z, w, d = (np.array(col, dtype=np.complex128) for col in zip(*picked))
    z1, w1, d1, ok = step(z, w, d)
    for k, st in enumerate(picked):
        ref = cmath_step(*st)
        assert bool(ok[k]) == (ref is not None), st
        if ref is not None:
            got = (complex(z1[k]), complex(w1[k]), complex(d1[k]))
            assert list(map(bits, got)) == list(map(bits, ref)), st
    assert ok.any() and not ok.all()


@pytest.mark.parametrize("batch", BATCHES)
def test_step_keeps_its_bits_under_a_raising_errstate(batch):
    """exp underflows on states near and past the cut, as at (700, 40),
    where e^{-740} is subnormal; step silences that, and the overflow and
    invalid operations it tests for, even where its caller raises on
    every floating-point error."""
    picked = [st for st in boundary_states() if BATCHES[batch](st)]
    picked.append((700 + 0j, 40 + 0j, -660 + 0j))
    z, w, d = (np.array(col, dtype=np.complex128) for col in zip(*picked))
    default = step(z, w, d)
    with np.errstate(all="raise"):
        raising = step(z, w, d)
    for a, b in zip(raising, default, strict=True):
        assert a.tobytes() == b.tobytes()


def test_f_is_exact_in_the_exp_free_regime():
    """Along orbits that start in R_inf = {Re(z + w) > 746, Re w > 373},
    F is (z + w, 2w + 1) and the margin rises by exactly fl(d + 1), for the
    array kernel and for the exp-everywhere scalar reference alike."""
    rng = np.random.default_rng(20261018)
    n, steps = 64, 50
    w = rng.uniform(373.0, 400.0, n) + 1j * rng.uniform(-1e3, 1e3, n)
    z = rng.uniform(373.0, 400.0, n) + 1j * rng.uniform(-1e3, 1e3, n)
    z.imag[:8], w.imag[:8] = 0.0, -0.0
    w.real[8:16] = np.nextafter(373.0, np.inf)
    z.real[8:16] = 746.0 - w.real[8:16] + 1e-12
    assert ((z + w).real > 746.0).all() and (w.real > 373.0).all()

    def assert_exact(z, w, d):
        """z, w, d hold the states k = 0..steps along their first axis."""
        assert np.array_equal(z[1:], z[:-1] + w[:-1])  # == ignores the sign of a zero
        assert np.array_equal((2 * w[:-1] + 1).view(np.uint64), w[1:].view(np.uint64))
        assert np.array_equal((d.real[:-1] + 1).view(np.uint64), d.real[1:].view(np.uint64))

    states = [(zk, wk, dk) for _, _, zk, wk, dk in orbits(z, w, steps)]
    assert len(states) == steps + 1
    assert_exact(*map(np.array, zip(*states)))
    for k in range(n):
        ref = scalar_orbit(complex(z[k]), complex(w[k]), steps)
        assert len(ref) == steps + 1
        assert_exact(*map(np.array, zip(*ref)))
