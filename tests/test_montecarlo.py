import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hahnramsey import montecarlo
from hahnramsey.analytic import closed_form_signal
from hahnramsey.montecarlo import (BLOCK_SIZE, McConfig, _bloch_path,
                                   _bloch_rotation, _cos_sin, _pulse_steps,
                                   _sampler, _z_rotation, run_mc)
from hahnramsey.noise import _WINDOW_INTEGRALS, NoiseKind, NoiseParams
from hahnramsey.spincore import Delay, PulseParams, SequenceKind, build_sequence
from spin_oracle import (SIGMA_X, SIGMA_Y, SIGMA_Z, UP, analytic_density_matrix_hr,
                         free_phase, long_time_density_matrix, pulse_unitary,
                         sigma_z)

FIG_NOISE = NoiseParams(2.5, 2 * np.pi * 0.1)
QUIET = NoiseParams(2.5, 0.0)
THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3


def test_noiseless_matches_matrix_exactly():
    taus = np.linspace(0.0, 3.0, 7)
    cfg = McConfig(n_trajectories=50, master_seed=1)
    for kind, theta, delta in [(SequenceKind.RAMSEY, np.pi / 2, 1.3),
                               (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
                               (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]:
        curve = run_mc(kind, theta, delta, QUIET, taus, cfg)
        ref = closed_form_signal(kind, theta, delta, QUIET, taus)
        assert_allclose(curve.means, ref, atol=1e-12)
        assert (curve.stderrs == 0).all()


def test_ou_agreement_with_closed_forms():
    taus = np.linspace(0.3, 4.0, 6)
    cfg = McConfig(n_trajectories=20_000, master_seed=42)
    for kind, theta, delta in [(SequenceKind.RAMSEY, np.pi / 2, DELTA),
                               (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
                               (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]:
        curve = run_mc(kind, theta, delta, FIG_NOISE, taus, cfg)
        ref = closed_form_signal(kind, theta, delta, FIG_NOISE, taus)
        z = np.abs(curve.means - ref) / curve.stderrs
        assert (z < 4).all(), f"{kind}: z-scores {z}"
        assert (z < 3).sum() >= len(taus) - 1


def test_agreeing_noisy_trajectories_have_zero_stderr():
    # at tau 0 the noise has no time to act: every trajectory gives the
    # same sigma_z, and the variance must not be rounding residue
    curve = run_mc(SequenceKind.HAHN_RAMSEY, 0.6283, 1.885,
                   NoiseParams(2.5, 0.6283), [0.0, 0.5],
                   McConfig(20_000, master_seed=7))
    assert curve.stderrs[0] == 0.0
    assert curve.stderrs[1] > 0.0


def test_renewal_agreement_small_strength():
    # Gaussian phase averaging is approximate for renewal noise; at
    # gamma/lambda = 0.1 the non-Gaussian corrections are negligible
    p = NoiseParams(2.5, 0.25, NoiseKind.RENEWAL)
    taus = np.linspace(0.5, 4.0, 4)
    cfg = McConfig(n_trajectories=20_000, master_seed=9)
    curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, p, taus, cfg)
    ref = closed_form_signal(SequenceKind.HAHN_RAMSEY, THETA, DELTA,
                             NoiseParams(2.5, 0.25), taus)
    z = np.abs(curve.means - ref) / curve.stderrs
    assert (z < 3).all(), f"z-scores {z}"


def test_bitwise_reproducibility():
    # byte identity at any --workers is checked at the command line
    taus = np.linspace(0.2, 2.0, 5)
    a = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=5))
    b = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=5))
    assert (a.means == b.means).all() and (a.stderrs == b.stderrs).all()
    d = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=6))
    assert (a.means != d.means).any()


def test_every_tau_point_runs_on_the_caller_in_order(monkeypatch):
    estimate, calls = montecarlo._point_estimate, []

    def recorded(sample, noisy, cfg, point_idx, tau):
        calls.append((threading.get_ident(), point_idx))
        return estimate(sample, noisy, cfg, point_idx, tau)

    monkeypatch.setattr(montecarlo, "_point_estimate", recorded)
    taus = np.linspace(0.2, 2.0, 6)
    run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
           McConfig(300, master_seed=5))
    assert calls == [(threading.get_ident(), i) for i in range(taus.size)]


@pytest.mark.parametrize("failing_point", [0, 3, 5])
def test_an_exception_at_any_tau_point_reaches_the_caller(failing_point, monkeypatch):
    # it must raise, not leave a mean unset
    estimate = montecarlo._point_estimate

    def failing(sample, noisy, cfg, point_idx, tau):
        if point_idx == failing_point:
            raise FloatingPointError(f"point {point_idx}")
        return estimate(sample, noisy, cfg, point_idx, tau)

    monkeypatch.setattr(montecarlo, "_point_estimate", failing)
    with pytest.raises(FloatingPointError, match=f"point {failing_point}"):
        run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE,
               np.linspace(0.2, 2.0, 6), McConfig(300, master_seed=5))


def test_renewal_bitwise_reproducibility():
    p = NoiseParams(2.5, 0.4, NoiseKind.RENEWAL)
    taus = np.linspace(0.2, 2.0, 4)
    a, b = (run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, p, taus,
                   McConfig(2 * BLOCK_SIZE + 5, master_seed=8)) for _ in range(2))
    assert (a.means == b.means).all() and (a.stderrs == b.stderrs).all()


def test_stderr_scales_with_sqrt_n():
    taus = np.linspace(0.5, 3.0, 8)
    small = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                   McConfig(4000, master_seed=21))
    big = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                 McConfig(8000, master_seed=22))
    ratio = (small.stderrs / big.stderrs).mean()
    assert ratio == pytest.approx(np.sqrt(2), rel=0.10)


def _fill_tuple_free_lists():
    """CPython keeps up to 2000 freed tuples of each length below 20 for
    reuse, and tracemalloc counts one freed while tracing as held.  Filled
    before tracing, the lists take no tuple the run frees, and the tuples
    the run takes from them were allocated before it, so they read as no
    growth."""
    held = [tuple([None] * k) for k in range(1, 20) for _ in range(2000)]
    del held


def test_memory_does_not_grow_by_a_sequence_per_tau_point():
    # the sequence, its timeline and the sampler are built once per curve:
    # past the result arrays and the taus (24 B per tau point) memory stays
    # flat in the tau count, where holding every tau point's sampler read
    # about 1000 B per tau point and its timeline about 1800 B; with the
    # free lists filled, a tuple freed per tau point reads as nothing
    # (89 B per tau point unfilled)
    def peak(count):
        _fill_tuple_free_lists()
        tracemalloc.start()
        run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE,
               np.linspace(0.05, 7.0, count), McConfig(4, master_seed=3))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    peak(10)     # first-call caches
    assert (peak(400) - peak(10)) / 390 < 64


def test_run_mc_builds_the_sequence_once_per_curve(monkeypatch):
    # every delay is tau, so a tau point only sets the delays' length; the
    # checks read the timeline of the same sequence
    calls = []
    build = montecarlo.build_sequence
    monkeypatch.setattr(montecarlo, "build_sequence",
                        lambda *a: calls.append(a) or build(*a))
    taus = np.linspace(0.0, 7.0, 400)
    for extra in ({}, {"pulse_model": "finite", "rabi": 2 * np.pi}):
        calls.clear()
        run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(4, master_seed=3, **extra))
        assert calls == [(SequenceKind.HAHN_RAMSEY, THETA, DELTA, 7.0)]


@pytest.mark.parametrize("noise_kind", ["ou", "renewal"])
@pytest.mark.parametrize("extra", [{}, {"pulse_model": "finite", "rabi": 2 * np.pi}],
                         ids=["instantaneous", "finite"])
@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, np.pi / 2, DELTA),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, -DELTA)])
def test_sampler_at_any_tau_is_the_sampler_built_at_it(kind, theta, delta, extra,
                                                       noise_kind):
    # a sampler built at the longest tau gives at each shorter tau, zero
    # included, the very values of one built at that tau
    noise, cfg = _NOISES[noise_kind], McConfig(1, **extra)
    longest = _sampler(build_sequence(kind, theta, delta, 5.0), delta, noise, cfg)
    for tau in (0.0, 0.3, 5.0):
        at_tau = _sampler(build_sequence(kind, theta, delta, tau), delta, noise, cfg)
        for rng in (lambda: None, lambda: np.random.default_rng(19)):
            assert np.array_equal(longest(rng(), 50, tau), at_tau(rng(), 50))


@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA)])
def test_echo_readout_folds_through_both_delays(kind, theta, delta, monkeypatch):
    # with instantaneous pulses no sample rotates the state through a delay;
    # finite pulses do, once per delay
    calls = []
    rotate = montecarlo._z_rotation
    monkeypatch.setattr(montecarlo, "_z_rotation",
                        lambda *a: calls.append(1) or rotate(*a))
    seq = build_sequence(kind, theta, delta, 0.7)
    for cfg, count in ((McConfig(1), 0),
                       (McConfig(1, pulse_model="finite", rabi=2 * np.pi), 2)):
        sample = _sampler(seq, delta, FIG_NOISE, cfg)
        for rng in (None, np.random.default_rng(3)):
            calls.clear()
            assert sample(rng, 100).shape == (100,)
            assert len(calls) == count


def test_stderr_bound():
    taus = np.linspace(0.5, 2.0, 3)
    curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                   McConfig(2000, master_seed=2))
    assert (curve.stderrs <= 2 / np.sqrt(2000)).all()


class _CountingRng:
    """Delegates to a numpy Generator and counts the values it draws."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def __getattr__(self, name):
        draw = getattr(self._gen, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._counts[name] = self._counts.get(name, 0) + np.size(out)
            return out

        return counted


@pytest.mark.parametrize("kind, theta, delta, n_delays", [
    (SequenceKind.RAMSEY, np.pi / 2, DELTA, 1),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, 2),
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA, 2)])
def test_ou_draws_one_normal_per_noisy_window_and_no_start(
        kind, theta, delta, n_delays, monkeypatch):
    # exact window kernel: one normal per delay, whatever the delay length,
    # from the law of its phase given the phases already drawn, and no
    # draw for the stationary start; zero-length delays (tau 0) leave no
    # window, so nothing is drawn at all.  Each normal is a Box-Muller one
    # (noise._normals): n uniforms per window for the even block sizes
    counts = {}
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: _CountingRng(make(*a), counts))
    n = BLOCK_SIZE + 100
    for tau in (0.0, 1e-6, 0.7, 40.0):
        counts.clear()
        run_mc(kind, theta, delta, FIG_NOISE, [tau], McConfig(n, master_seed=7))
        assert counts == ({"random": n * n_delays} if tau else {})


def test_ou_instantaneous_bytes_ignore_time_step(tmp_path):
    taus = np.linspace(0.0, 3.0, 5)
    paths = []
    for step in (0.01, 0.5):
        curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                       McConfig(3000, master_seed=11, time_step=step))
        paths.append(tmp_path / f"step_{step}.csv")
        curve.to_csv(paths[-1], "same header")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_input_validation():
    with pytest.raises(ValueError):
        McConfig(0)
    with pytest.raises(ValueError):
        run_mc(SequenceKind.HAHN_RAMSEY, THETA, np.nan, FIG_NOISE, [1.0],
               McConfig(10))
    with pytest.raises(ValueError):
        run_mc(SequenceKind.HAHN_ECHO, np.pi / 2, 1.0, FIG_NOISE, [1.0],
               McConfig(10))
    with pytest.raises(ValueError):
        run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, [],
               McConfig(10))


# --------------------------------------------------------------------------
# instantaneous pulses on the Bloch vector


def _spinor_sampler(seq, delta, noise):
    """Oracle: sample(rng, m) propagating the complex spinor, one (2, 2)
    matmul per pulse and a pair of phase factors per delay; same draws,
    one kernel call per delay from the stationary start state None, the
    last one without the end state."""
    ops = [el if isinstance(el, Delay) else pulse_unitary(el)
           for el in seq.elements]
    last = max(i for i, op in enumerate(ops) if isinstance(op, Delay))
    window_integrals = _WINDOW_INTEGRALS.get(noise.kind)

    def sample(rng, m):
        state = None
        psi = np.tile(UP, (m, 1))
        for i, op in enumerate(ops):
            if isinstance(op, Delay):
                x = 0.0
                if rng is not None:
                    state, x = window_integrals(rng, state, noise.lam, noise.gamma,
                                                op.duration, m, i != last)
                phi = op.detuning_sign * delta * op.duration + x
                psi[:, 0] *= np.exp(-0.5j * phi)
                psi[:, 1] *= np.exp(+0.5j * phi)
            else:
                psi = psi @ op.T
        return (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2).real

    return sample


_NOISES = {"ou": FIG_NOISE, "renewal": NoiseParams(2.5, 0.6, NoiseKind.RENEWAL),
           "none": NoiseParams(2.5, 0.0, NoiseKind.NONE)}


@pytest.mark.parametrize("noise_kind", sorted(_NOISES))
@pytest.mark.parametrize("tau", [0.0, 0.3, 2.0])
@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, np.pi / 2, DELTA),
    (SequenceKind.RAMSEY, 0.45 * np.pi, -1.3),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA),
    (SequenceKind.HAHN_RAMSEY, 0.45 * np.pi, -1.3),
    (SequenceKind.HAHN_RAMSEY, np.pi / 2, DELTA)])
def test_bloch_sampler_matches_the_spinor_oracle(kind, theta, delta, tau,
                                                 noise_kind):
    # hahn sequences mirror their pi pulse (-theta), so both tilt signs run
    noise = _NOISES[noise_kind]
    seq = build_sequence(kind, theta, delta, tau)
    got = _sampler(seq, delta, noise, McConfig(1))
    want = _spinor_sampler(seq, delta, noise)
    assert_allclose(got(None, 3), want(None, 3), rtol=0, atol=2e-15)
    if noise_kind != "none":
        a = got(np.random.default_rng(17), 500)
        b = want(np.random.default_rng(17), 500)
        assert a.shape == (500,)
        assert_allclose(a, b, rtol=0, atol=2e-15)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("theta", [0.2 * np.pi, 0.7, np.pi / 2])
def test_bloch_rotation_is_the_adjoint_of_the_pulse_unitary(theta, sign):
    sigmas = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    for beta in (0.0, 0.3, np.pi / 2, np.pi, 3 * np.pi / 2, 5.0):
        p = PulseParams(theta, beta, sign)
        u = pulse_unitary(p)
        adjoint = np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real
                             for sj in sigmas] for si in sigmas])
        assert_allclose(_bloch_rotation(p), adjoint, rtol=0, atol=1e-15)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("theta", [0.2 * np.pi, 0.7, np.pi / 2])
def test_bloch_rotation_is_a_proper_rotation(theta, sign):
    for beta in (0.0, 0.3, np.pi / 2, np.pi, 3 * np.pi / 2, 5.0):
        r = np.array(_bloch_rotation(PulseParams(theta, beta, sign)))
        assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-15)
        assert abs(np.linalg.det(r) - 1.0) <= 1e-15


def test_cos_sin_is_within_two_ulp_of_numpy():
    rng = np.random.default_rng(5)
    odd_pi = (2 * np.arange(-500, 500) + 1) * np.pi     # odd multiples up to 1e3 pi
    phi = np.concatenate([[0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi], odd_pi,
                          rng.uniform(-1e12, 1e12, 20000),
                          rng.uniform(-1e20, 1e20, 20000)])
    c, s = _cos_sin(phi)
    assert_allclose(c, np.cos(phi), rtol=0, atol=4.5e-16)
    assert_allclose(s, np.sin(phi), rtol=0, atol=4.5e-16)
    assert np.abs(c * c + s * s - 1.0).max() <= 4.5e-16
    assert _cos_sin(0.0) == (1.0, 0.0)


def test_z_rotation_matches_the_cos_sin_rotation():
    # a delay rotates straight from t = tan(phi/2), cos phi = 1 - t sin phi;
    # against np.cos and np.sin within 1e-15 absolute per unit of the
    # vector's length (3 ulp of 1 measured), and |(x, y)| kept within 4 ulp
    rng = np.random.default_rng(7)
    odd_pi = (2 * np.arange(-500, 500) + 1) * np.pi     # odd multiples up to 1e3 pi
    phi = np.concatenate([[0.0, np.pi, -np.pi], odd_pi,
                          rng.uniform(-1e12, 1e12, 20000),
                          rng.uniform(-10.0, 10.0, 20000),
                          rng.uniform(-1e-6, 1e-6, 2000)])
    ang = rng.uniform(-np.pi, np.pi, phi.size)
    for scale in (1.0, 0.37, 1e3):
        x, y = scale * np.cos(ang), scale * np.sin(ang)
        xr, yr = _z_rotation(x, y, phi)
        c, s = np.cos(phi), np.sin(phi)
        assert_allclose(xr, x * c - y * s, rtol=0, atol=1e-15 * scale)
        assert_allclose(yr, x * s + y * c, rtol=0, atol=1e-15 * scale)
        norm = np.hypot(x, y)
        assert np.abs(np.hypot(xr, yr) - norm).max() <= 4 * np.finfo(float).eps * scale
    assert _z_rotation(0.3, -0.2, 0.0) == (0.3, -0.2)


@pytest.mark.parametrize("noise_kind", ["ou", "renewal", "none"])
@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, 0.45 * np.pi, 1.3),
    (SequenceKind.RAMSEY, 0.45 * np.pi, -1.3),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA),
    (SequenceKind.HAHN_RAMSEY, THETA, -DELTA)])
def test_pulled_back_readout_matches_the_spinor_oracle(kind, theta, delta,
                                                       noise_kind):
    # the last delay, the pulse before it and the readout fold into three
    # rows; checked out to delta tau about 1e4, and at tau 0, where no
    # delay is left to fold and the readout row is applied as it stands
    noise = _NOISES[noise_kind]
    if noise_kind == "renewal":
        noise = NoiseParams(0.01, 0.6, NoiseKind.RENEWAL)   # few events out to 7700
    for tau in (0.0, 0.05, 3.0, 770.0, 7700.0):
        seq = build_sequence(kind, theta, delta, tau)
        got = _sampler(seq, delta, noise, McConfig(1))
        want = _spinor_sampler(seq, delta, noise)
        assert_allclose(got(None, 3), want(None, 3), rtol=0, atol=2e-15)
        if noise_kind != "none":
            a = got(np.random.default_rng(29), 300)
            b = want(np.random.default_rng(29), 300)
            assert a.shape == (300,)
            assert_allclose(a, b, rtol=0, atol=2e-15)


# --------------------------------------------------------------------------
# finite-duration pulses


def _finite_block_samples_cos_sin(seq, delta, noise, cfg, rng, m):
    """Oracle: the finite pulses as a spinor stepped in extended precision
    (np.clongdouble), each step's half-angle from np.cos and np.sin of
    ang / 2; same float draws from the stationary start state None, the
    last step without the end state, on its own window timeline of
    (kind, duration, sigma_z rate, sigma_x rate)."""
    windows = []
    for el in seq.elements:
        if isinstance(el, Delay):
            windows.append(("delay", el.duration, el.detuning_sign * delta, 0.0))
        else:
            det = cfg.rabi / math.tan(el.theta) if el.theta < math.pi / 2 else 0.0
            windows.append(("pulse", el.beta / math.hypot(cfg.rabi, det),
                            el.detuning_sign * det, cfg.rabi))
    lam, gamma = noise.lam, noise.gamma
    noisy = gamma > 0.0 and rng is not None
    window_integrals = _WINDOW_INTEGRALS.get(noise.kind)
    state = None
    psi = np.zeros((m, 2), dtype=np.clongdouble)
    psi[:, 0] = 1
    last = max(i for i, w in enumerate(windows) if w[1] > 0.0)
    for i, (kind, dur, nz_rate, nx_rate) in enumerate(windows):
        if dur == 0.0:
            continue
        steps = 1
        if noisy and kind == "pulse":
            steps = _pulse_steps(dur, lam, cfg.time_step)
        h = np.longdouble(dur / steps)
        nx = np.longdouble(nx_rate)
        for k in range(steps):
            nz = np.full(m, np.longdouble(nz_rate))
            if noisy:
                with_end = (i, k) != (last, steps - 1)
                state, x = window_integrals(rng, state, lam, gamma, float(h), m,
                                            with_end)
                nz = nz + x.astype(np.longdouble) / h
            w = np.sqrt(nz * nz + nx * nx)
            ang = w * h
            c = np.cos(ang / 2)
            s = np.where(w > 0, np.sin(ang / 2) / np.maximum(w, 1e-300), 0.5 * h)
            a0 = (c - 1j * s * nz) * psi[:, 0] - 1j * s * nx * psi[:, 1]
            a1 = -1j * s * nx * psi[:, 0] + (c + 1j * s * nz) * psi[:, 1]
            psi[:, 0], psi[:, 1] = a0, a1
    return (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2).astype(float)


@pytest.mark.parametrize("noise_kind", sorted(_NOISES))
@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, np.pi / 2, DELTA),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA)])
def test_finite_sampler_matches_the_cos_sin_oracle(kind, theta, delta,
                                                   noise_kind):
    noise = _NOISES[noise_kind]
    cfg = McConfig(1, time_step=0.01, pulse_model="finite", rabi=2 * np.pi)
    for tau in (0.0, 0.7):
        seq = build_sequence(kind, theta, delta, tau)
        got = _sampler(seq, delta, noise, cfg)(np.random.default_rng(23), 400)
        want = _finite_block_samples_cos_sin(seq, delta, noise, cfg,
                                             np.random.default_rng(23), 400)
        assert got.shape == (400,)
        assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("noise_kind", sorted(_NOISES))
@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, np.pi / 2, -DELTA),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
    (SequenceKind.HAHN_RAMSEY, THETA, -DELTA)])
def test_finite_sampler_long_delays_match_the_cos_sin_oracle(kind, theta, delta,
                                                             noise_kind):
    # a finite-pulse timeline ends in a pulse window, so its readout is not
    # pulled back; its delays rotate by _z_rotation out to delta tau 13
    noise = _NOISES[noise_kind]
    cfg = McConfig(1, time_step=0.01, pulse_model="finite", rabi=2 * np.pi)
    seq = build_sequence(kind, theta, delta, 7.0)
    got = _sampler(seq, delta, noise, cfg)(np.random.default_rng(31), 300)
    want = _finite_block_samples_cos_sin(seq, delta, noise, cfg,
                                         np.random.default_rng(31), 300)
    assert_allclose(got, want, rtol=0, atol=1e-14)


def test_finite_pulses_noiseless_match_instantaneous():
    # constant-generator windows make each pulse exactly the tilted-axis
    # rotation, so the noiseless finite-pulse result is exact for any rabi
    taus = np.linspace(0.0, 2.0, 5)
    cfg = McConfig(10, master_seed=1, time_step=0.001, pulse_model="finite",
                   rabi=20.0)
    for kind, theta, delta in [(SequenceKind.RAMSEY, np.pi / 2, 1.3),
                               (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
                               (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]:
        curve = run_mc(kind, theta, delta, QUIET, taus, cfg)
        ref = closed_form_signal(kind, theta, delta, QUIET, taus)
        assert_allclose(curve.means, ref, rtol=0, atol=1e-12)
        assert (curve.stderrs == 0).all()


def test_finite_pulse_matches_rotation_composition():
    # single resonant pulse area pi/2 at theta = pi/2, 1000 steps
    cfg = McConfig(1, master_seed=1, time_step=np.pi / 2 / 20 / 1000,
                   pulse_model="finite", rabi=20.0)
    taus = np.array([0.0])
    curve = run_mc(SequenceKind.RAMSEY, np.pi / 2, 0.0, QUIET, taus, cfg)
    # pi/2 then 3pi/2 about x is the identity on <sigma_z>
    u = pulse_unitary(PulseParams(np.pi / 2, 3 * np.pi / 2)) @ \
        pulse_unitary(PulseParams(np.pi / 2, np.pi / 2))
    ref = sigma_z(u @ UP)
    assert curve.means[0] == pytest.approx(ref, abs=1e-6)


def test_finite_pulses_converge_to_instantaneous_with_noise():
    # noise runs through the pulses; shorter pulses converge to the
    # instantaneous model
    taus = np.array([1.0])
    ref = closed_form_signal(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus)
    errs = []
    for rabi in (5.0, 50.0):
        cfg = McConfig(8000, master_seed=33, time_step=0.002,
                       pulse_model="finite", rabi=rabi)
        curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE,
                       taus, cfg)
        errs.append(abs(curve.means[0] - ref[0]))
        stderr = curve.stderrs[0]
    assert errs[1] < 4 * stderr


def test_finite_pulses_renewal_small_strength():
    p = NoiseParams(2.5, 0.25, NoiseKind.RENEWAL)
    cfg = McConfig(8000, master_seed=61, time_step=0.002,
                   pulse_model="finite", rabi=50.0)
    taus = np.array([1.0])
    curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, p, taus, cfg)
    ref = closed_form_signal(SequenceKind.HAHN_RAMSEY, THETA, DELTA,
                             NoiseParams(2.5, 0.25), taus)
    assert abs(curve.means[0] - ref[0]) < 4 * curve.stderrs[0]


def test_finite_pulse_warning_for_coarse_steps():
    cfg = McConfig(4, master_seed=1, time_step=0.5, pulse_model="finite",
                   rabi=10.0)
    curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, QUIET,
                   np.array([1.0]), cfg)
    assert curve.warnings


def test_pulse_model_selects_the_sampler():
    # a finite-pulse config must not silently run instantaneous pulses
    taus = np.array([0.5, 1.0])
    inst, fin = (run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                        McConfig(200, master_seed=3, **extra))
                 for extra in ({}, {"pulse_model": "finite", "rabi": 2 * np.pi}))
    assert not np.array_equal(inst.means, fin.means)


def test_finite_config_requires_rabi():
    with pytest.raises(ValueError):
        McConfig(10, pulse_model="finite")


# --------------------------------------------------------------------------
# Bloch trajectories


def test_bloch_trajectory_invariants():
    t, x, y, z = _bloch_path(SequenceKind.HAHN_RAMSEY, THETA, DELTA, 1.3, 40).T
    assert (x[0], y[0], z[0]) == (0.0, 0.0, 1.0)
    assert np.abs(x ** 2 + y ** 2 + z ** 2 - 1).max() < 1e-10
    ref = closed_form_signal(SequenceKind.HAHN_RAMSEY, THETA, DELTA, QUIET, 1.3)
    assert z[-1] == pytest.approx(ref, abs=1e-10)


def test_bloch_z_constant_during_delays():
    t, _, _, z = _bloch_path(SequenceKind.RAMSEY, np.pi / 2, 3.0, 2.0, 25).T
    # strictly interior times belong to the delay (pulses advance no time)
    assert np.ptp(z[(0 < t) & (t < 2.0)]) < 1e-12


def _bloch_per_sample(seq_kind, theta, delta, tau, samples):
    """Oracle: one pulse unitary or one free phase per sample."""
    def xyz(psi):
        z01 = psi[0].conjugate() * psi[1]
        return (2 * z01.real, 2 * z01.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2)

    psi, t = UP, 0.0
    pts = [(t, *xyz(psi))]
    for el in build_sequence(seq_kind, theta, delta, tau).elements:
        start = psi
        for k in range(1, samples + 1):
            if isinstance(el, PulseParams):
                part = PulseParams(el.theta, el.beta * k / samples,
                                   el.detuning_sign)
                psi = pulse_unitary(part) @ start
                pts.append((t, *xyz(psi)))
            else:
                dt = el.duration * k / samples
                phi = el.detuning_sign * delta * dt
                psi = free_phase(phi) @ start
                pts.append((t + dt, *xyz(psi)))
        if not isinstance(el, PulseParams):
            t += el.duration
    return np.array(pts)


@pytest.mark.parametrize("kind, theta, delta, tau, samples", [
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA, 1.0, 60),
    (SequenceKind.HAHN_RAMSEY, 0.45 * np.pi, -2.0, 2.7, 13),
    (SequenceKind.RAMSEY, np.pi / 2, 3.0, 2.0, 25),
    (SequenceKind.RAMSEY, 0.6, 1.885, 0.0, 1),
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, 0.7, 7)])
def test_bloch_trajectory_matches_the_per_sample_path(kind, theta, delta, tau,
                                                      samples):
    got = _bloch_path(kind, theta, delta, tau, samples)
    want = _bloch_per_sample(kind, theta, delta, tau, samples)
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    assert_allclose(got[:, 1:], want[:, 1:], rtol=0, atol=1e-15)


def test_bloch_tilt_families_distinct():
    # the qualitative trajectory families differ with tilt angle
    finals = []
    for th in (0.49 * np.pi, 0.3 * np.pi, 0.2 * np.pi):
        finals.append(_bloch_path(SequenceKind.HAHN_RAMSEY, th, DELTA, 1.0, 30)[-1, 3])
    assert len({round(f, 6) for f in finals}) == 3


# --------------------------------------------------------------------------
# long-time mixed state


def test_mc_density_matrix_reaches_long_time_limit(sample_ou_ensemble):
    # average the pre-readout density matrix over noise at lambda*tau >> 1
    tau, n = 40.0, 6000
    p = FIG_NOISE
    grid = np.linspace(0.0, 2 * tau, 2001)
    vals = sample_ou_ensemble(p, grid, n, 314)
    half = grid <= tau
    x1 = np.trapezoid(vals[:, half], grid[half], axis=1)
    x2 = np.trapezoid(vals[:, ~half], grid[~half], axis=1)
    # state after pi/2, phase, mirrored pi, phase (no readout pulse)
    rhos = np.empty((n, 2, 2), dtype=complex)
    for i in range(n):
        f = (DELTA * tau + x1[i]) / 2
        g = (-DELTA * tau + x2[i]) / 2
        rhos[i] = analytic_density_matrix_hr(THETA, f, g)
    mean = rhos.mean(axis=0)
    se = rhos.std(axis=0, ddof=1) / np.sqrt(n)
    expected = long_time_density_matrix(THETA)
    assert (np.abs(mean - expected) <= 3 * se + 1e-4).all()
