"""Orbits in R_inf = {Re(z + w) > 746, Re w > 373}: core.orbits iterates a
chunk wholly in R_inf on F's exact image there.  domain.invariance and
domain.growth leave a chunk once it lies in the far field R, which holds
R_inf, and their statistics are final.  Both must give the bits of
step-by-step iteration, here the scalar reference run to the end of every
orbit."""

import numpy as np
import pytest

from bakerbench import core, domain
from bakerbench.core import orbit, orbits
from bakerbench.domain import growth, invariance, telescoping_residuals
from bakerbench.suites import growth_suite, invariance_suite, telescoping_suite
from scalar_reference import scalar_orbit


def states(zr, zi, wr, wi):
    """Seeds (z, w) from their parts, signed zeros kept."""
    z = np.empty(np.size(zr), np.complex128)
    w = np.empty_like(z)
    z.real, z.imag, w.real, w.imag = zr, zi, wr, wi
    return z, w


def far_z():
    """|Re z| far above Re w: in R_inf from step 0 or 1 where Re z > 0,
    overflowing at step 1 where Re z < 0."""
    g = np.random.default_rng(1)
    zr = np.concatenate((g.choice([-1.0, 1.0], 40) * 10.0 ** g.uniform(15, 25, 40),
                         [1e20, 1e20, -1e20, 2.0 ** 60]))
    wr = np.concatenate((g.uniform(300, 1e4, 40), [400.0, 300.0, 400.0, 374.0]))
    return states(zr, g.uniform(-1e3, 1e3, 44), wr, g.uniform(-1e3, 1e3, 44))


def thrown():
    """Re w_0 far below 0: e^{-2w} throws the state into R_inf at step 1.
    The exponents stay below 708, where cmath.exp rounds as np.exp."""
    g = np.random.default_rng(2)
    return states(g.uniform(-5, 50, 40), g.uniform(-3, 3, 40),
                  g.uniform(-354, -300, 40), g.uniform(-3, 3, 40))


def edge():
    """Re w near 2^1023: in R_inf, and overflowing within a few steps."""
    g = np.random.default_rng(3)
    return states(g.uniform(-0.5, 1.0, 40) * 2.0 ** 1023, g.normal(0, 1e300, 40),
                  2.0 ** g.uniform(1018, 1023, 40), g.normal(0, 1e300, 40))


def signed_zeros():
    """Parts of +-0, with real parts 0 or in R_inf."""
    parts = [(zr, zi, wr, wi) for zr in (0.0, -0.0, 800.0) for zi in (0.0, -0.0)
             for wr in (0.0, -0.0, 400.0) for wi in (0.0, -0.0)]
    return states(*np.array(parts).T)


def partly():
    """States in R_inf interleaved with states of L near the origin."""
    g = np.random.default_rng(5)
    far = states(g.uniform(400, 600, 20), g.uniform(-9, 9, 20),
                 g.uniform(400, 600, 20), g.uniform(-9, 9, 20))
    zr = g.uniform(1, 5, 20)
    near = states(zr, g.uniform(-9, 9, 20), zr + g.uniform(1.5, 10, 20),
                  g.uniform(-9, 9, 20))
    return tuple(np.stack((f, n), axis=1).ravel() for f, n in zip(far, near))


def sum_overflows():
    """States in R_inf whose parts are finite while their sums overflow:
    Re z and Im z near the largest double, and Re w near 2^1021."""
    zr = np.array([1.6e308, 1.5e308, 1.7e308, 500.0, 500.0, 500.0])
    zi = np.array([1.7e308, 1.7e308, -0.0, 0.0, 0.0, 0.0])
    wr = np.array([500.0, 600.0, 700.0, 2.0 ** 1021, 1.5 * 2.0 ** 1021, 2.0 ** 1020])
    return states(zr, zi, wr, np.zeros(6))


def margin_overflows():
    """States in R_inf whose margin d_0 = w_0 - z_0 overflows in its
    imaginary part while z_0 and w_0 stay finite, beside one whose margin
    is finite: step drops the first three at step 1, where d_0 + 1 is not
    finite, although their images z_1 and w_1 are."""
    return states([500.0, 500.0, 800.0, 500.0], [1.7e308, -1.7e308, 1.7e308, 0.0],
                  [500.0, 500.0, 400.0, 500.0], [-0.5e308, 0.5e308, -1.7e308, 0.0])


FAMILIES = {f.__name__: f for f in (far_z, thrown, edge, signed_zeros, partly,
                                    sum_overflows, margin_overflows)}


def all_seeds():
    return tuple(np.concatenate(c) for c in zip(*(f() for f in FAMILIES.values())))


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def reference(z, w, n):
    """Each seed's orbit, one scalar step at a time, to step n or to its
    last finite state."""
    return [scalar_orbit(complex(a), complex(b), n) for a, b in zip(z, w)]


def reference_invariance(z, w, alpha, n):
    first, least = [], []
    for orb, a in zip(reference(z, w, n), alpha):
        outside = [k for k, (zk, wk, dk) in enumerate(orb)
                   if not (dk.real > a and zk.real > 1.0 and wk.real > 1.0)]
        first.append(outside[0] if outside else -1)
        m = np.inf
        for _, _, dk in orb:
            m = np.minimum(m, dk.real - a)
        least.append(m)
    return np.array(first), np.array(least)


def reference_growth(z, w, n):
    min_w, min_z = [], []
    for orb, z0, w0 in zip(reference(z, w, n), z.real, w.real):
        mw = mz = np.inf
        for k, (zk, wk, _) in enumerate(orb[1:], 1):
            mw = np.minimum(mw, wk.real - 2.0 * w0 - k / 2.0)
            mz = np.minimum(mz, zk.real - z0 - k / 2.0)
        min_w.append(mw)
        min_z.append(mz)
    return np.array(min_w), np.array(min_z)


CHUNKS = [2048, 3]  # the default, and chunks that mix the families


@pytest.fixture(params=CHUNKS, ids=[f"chunk={c}" for c in CHUNKS])
def chunk(request, monkeypatch):
    monkeypatch.setattr(core, "ORBIT_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("family", [*FAMILIES, "all"])
@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_orbits_match_scalar_orbits(family, n, chunk):
    z, w = all_seeds() if family == "all" else FAMILIES[family]()
    got = [[] for _ in z]
    for k, idx, zk, wk, dk in orbits(z, w, n):
        for i, state in zip(idx.tolist(), zip(zk, wk, dk)):
            assert len(got[i]) == k
            got[i].append(state)
    for seed, ref in zip(got, reference(z, w, n)):
        assert bits(seed) == bits(ref)


@pytest.mark.parametrize("family", ["thrown", "edge", "sum_overflows", "partly",
                                    "margin_overflows"])
def test_orbit_concatenates_to_the_scalar_orbit(family):
    # 1,100 steps: every one of these orbits overflows before the end
    z, w = FAMILIES[family]()
    for a, b in zip(z, w):
        ref = scalar_orbit(complex(a), complex(b), 1100)
        assert len(ref) < 1101
        got = orbit(core.PlanePoint(complex(a), complex(b)), 1100)
        assert [bits(x) for x in got] == [bits(x) for x in zip(*ref)]


def test_sum_overflows_keeps_every_state():
    """The finiteness filter fails on these sums at every step, and the
    per-state test keeps each state until its own image overflows: 2w + 1
    at step 3 from Re w = 2^1021 and 1.5 * 2^1021."""
    z, w = sum_overflows()
    with np.errstate(over="ignore"):
        assert not np.isfinite(z.sum() + w.sum())
    kept = [idx.size for k, idx, *_ in orbits(z, w, 3)]
    assert kept == [6, 6, 6, 4]


@pytest.mark.parametrize("family", [*FAMILIES, "all"])
@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_invariance_matches_stepwise(family, n, chunk):
    z, w = all_seeds() if family == "all" else FAMILIES[family]()
    alpha = np.random.default_rng(n).uniform(-10, 10, z.size)
    got = invariance(z, w, alpha, n)
    ref = reference_invariance(z, w, alpha, n)
    assert [bits(x) for x in got] == [bits(x) for x in ref]


@pytest.mark.parametrize("family", [*FAMILIES, "all"])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_growth_matches_stepwise(family, n, chunk):
    z, w = all_seeds() if family == "all" else FAMILIES[family]()
    got = growth(z, w, n)
    ref = reference_growth(z, w, n)
    assert [bits(x) for x in got] == [bits(x) for x in ref]


def test_growth_slack_of_a_far_z_keeps_falling():
    """z_{k+1} = fl(z_k + w_k) stays 1e20 while w_k < 8192, half the
    spacing of doubles there, so the z slack is -k/2 through step 5; a
    chunk left at step 1 would report -0.5."""
    z, w = states([1e20], [0.0], [400.0], [0.0])
    _, min_z = growth(z, w, 30)
    assert min_z[0] == reference_growth(z, w, 30)[1][0] == -2.5


def test_telescoping_matches_stepwise(chunk):
    """The terms of a chunk in R_inf are skipped: the residuals keep their
    bits.  Only seeds whose orbits stay finite and of moderate size to
    step n take part."""
    n = 30
    z, w = (np.concatenate(c) for c in zip(far_z(), signed_zeros(), partly()))
    orbs = reference(z, w, n)
    keep = np.array([len(o) == n + 1 for o in orbs])
    got = telescoping_residuals(z[keep], w[keep], n)
    ref = []
    for orb, a, b in zip([o for o, k in zip(orbs, keep) if k], z[keep], w[keep]):
        rhs = complex(b) - complex(a) + n
        for zk, wk, _ in orb[:-1]:
            rhs += np.exp(-2 * wk) - np.exp(-(zk + wk))
        lhs = orb[-1][2]
        ref.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert keep.sum() > 90
    assert bits(got) == bits(np.array(ref))


def test_margin_overflows_drops_its_seeds_at_step_1():
    """The images of these seeds at step 1 are finite, and so is their
    sum; only the margin shows the overflow, as in step."""
    z, w = margin_overflows()
    with np.errstate(over="ignore"):
        assert not np.isfinite(w - z).all()
    kept = [idx.tolist() for k, idx, *_ in orbits(z, w, 2)]
    assert kept == [[0, 1, 2, 3], [3], [3]]


def test_telescoping_raises_where_the_margin_overflows():
    z, w = margin_overflows()
    for i in range(3):
        with pytest.raises(core.OverflowSignal):
            telescoping_residuals(z[i:i + 1], w[i:i + 1], 1)
    assert np.isfinite(telescoping_residuals(z[3:], w[3:], 1)).all()


@pytest.mark.parametrize("family, calls", [
    ("sum_overflows", 0), ("far_z", 1), ("thrown", 2), ("partly", 7),
    ("margin_overflows", 1),
])
def test_orbits_call_step_only_outside_r_inf(family, calls, monkeypatch):
    """Of 40 steps, orbits makes step calls only until every state left
    in the chunk is in R_inf: none where the seeds are, one where a seed
    with Re w_0 < 373 or Re z_0 < 0 overflows or enters at step 1, or
    where a seed's margin is not finite at step 0, two
    where e^{-2w} throws the seeds far, into R_inf or out of range, and
    seven for the seeds of L near
    the origin."""
    made = []
    step = core.step
    monkeypatch.setattr(core, "step", lambda *a: made.append(1) or step(*a))
    list(orbits(*FAMILIES[family](), 40))
    assert len(made) == calls


@pytest.mark.parametrize("suite", [invariance_suite, growth_suite])
def test_suites_leave_their_chunks_in_the_far_field(suite, monkeypatch):
    """At acceptance size, five chunks of 30 steps, iterating every chunk
    to the end makes 150 step calls and takes 155 yields of orbits.  The
    chunks lie in the far field R (domain.in_far_field) after one or two
    steps, where the suite leaves them; they would reach R_inf only after
    about six."""
    calls, taken = [], []
    step, chunk_orbits = core.step, domain.chunk_orbits
    monkeypatch.setattr(core, "step", lambda *a: calls.append(1) or step(*a))

    def counted(*args):
        for state in chunk_orbits(*args):
            taken.append(state[0])
            yield state

    monkeypatch.setattr(domain, "chunk_orbits", counted)
    assert suite(10_000, 104, 30).passed
    assert 0 < len(calls) <= 10
    assert len(taken) <= 15


@pytest.mark.parametrize("seed", [104, 20260823])
def test_telescoping_tests_r_inf_until_it_holds(seed, monkeypatch):
    """A chunk stays in R_inf once it lies there, so telescoping_residuals
    tests R_inf on it only until the test holds: here on 8 of the 31
    states of the one chunk, not on each of the 30 before step n."""
    calls = []
    all_in_r_inf = domain.all_in_r_inf
    monkeypatch.setattr(domain, "all_in_r_inf", lambda *a: calls.append(1) or all_in_r_inf(*a))
    assert telescoping_suite(1_000, seed, 30).passed
    assert 0 < len(calls) <= 10


def test_growth_leaves_a_chunk_only_once_all_of_it_is_in_the_far_field():
    """At step 1 the second seed lies in R and passes the guard, while the
    first has Re w_1 = 0.38 and passes the guard too, yet its z slack
    falls by 0.12 at step 2: a chunk left at step 1 would miss that."""
    z, w = states([100.0, 20.0], [0.0, 0.0], [0.1, 20.0], [np.pi / 2, 0.0])
    got = growth(z, w, 5)
    ref = reference_growth(z, w, 5)
    assert ref[1][0] < -0.5  # -0.4 at step 1
    assert [bits(x) for x in got] == [bits(x) for x in ref]
