import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hahnramsey.analytic import hahn_echo_signal, hahn_ramsey_signal, ramsey_signal
from hahnramsey.montecarlo import (BLOCK_SIZE, BlochPoint, McConfig,
                                   _bloch_rotation, _cos_sin, _pulse_steps,
                                   _sampler, bloch_trajectory, bloch_to_csv,
                                   run_mc)
from hahnramsey.noise import _WINDOW_INTEGRALS, NoiseKind, NoiseParams
from hahnramsey.spincore import (SIGMA_X, SIGMA_Y, SIGMA_Z, Delay, PulseParams,
                                 SequenceKind, SPIN_UP,
                                 analytic_density_matrix_hr, build_sequence,
                                 long_time_density_matrix, rotation_matrix)

FIG_NOISE = NoiseParams(2.5, 2 * np.pi * 0.1)
QUIET = NoiseParams(2.5, 0.0)
THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3


def test_noiseless_matches_matrix_exactly():
    taus = np.linspace(0.0, 3.0, 7)
    cfg = McConfig(n_trajectories=50, master_seed=1)
    for kind, theta, delta, ref in [
            (SequenceKind.RAMSEY, np.pi / 2, 1.3,
             ramsey_signal(1.3, QUIET, taus)),
            (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0,
             hahn_echo_signal(QUIET, taus)),
            (SequenceKind.HAHN_RAMSEY, THETA, DELTA,
             hahn_ramsey_signal(THETA, DELTA, QUIET, taus))]:
        curve = run_mc(kind, theta, delta, QUIET, taus, cfg)
        assert_allclose(curve.means, ref, atol=1e-12)
        assert (curve.stderrs == 0).all()


def test_ou_agreement_with_closed_forms():
    taus = np.linspace(0.3, 4.0, 6)
    cfg = McConfig(n_trajectories=20_000, master_seed=42)
    for kind, theta, delta, ref in [
            (SequenceKind.RAMSEY, np.pi / 2, DELTA,
             ramsey_signal(DELTA, FIG_NOISE, taus)),
            (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0,
             hahn_echo_signal(FIG_NOISE, taus)),
            (SequenceKind.HAHN_RAMSEY, THETA, DELTA,
             hahn_ramsey_signal(THETA, DELTA, FIG_NOISE, taus))]:
        curve = run_mc(kind, theta, delta, FIG_NOISE, taus, cfg)
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
    ref = hahn_ramsey_signal(THETA, DELTA, NoiseParams(2.5, 0.25), taus)
    z = np.abs(curve.means - ref) / curve.stderrs
    assert (z < 3).all(), f"z-scores {z}"


def test_bitwise_reproducibility_and_worker_independence():
    taus = np.linspace(0.2, 2.0, 5)
    a = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=5, workers=1))
    b = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=5, workers=1))
    c = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=5, workers=4))
    assert (a.means == b.means).all() and (a.stderrs == b.stderrs).all()
    assert (a.means == c.means).all() and (a.stderrs == c.stderrs).all()
    d = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
               McConfig(3 * BLOCK_SIZE + 17, master_seed=6))
    assert (a.means != d.means).any()


def test_renewal_bitwise_reproducibility():
    p = NoiseParams(2.5, 0.4, NoiseKind.RENEWAL)
    taus = np.linspace(0.2, 2.0, 4)
    a = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, p, taus,
               McConfig(2 * BLOCK_SIZE + 5, master_seed=8, workers=1))
    b = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, p, taus,
               McConfig(2 * BLOCK_SIZE + 5, master_seed=8, workers=3))
    assert (a.means == b.means).all() and (a.stderrs == b.stderrs).all()


def test_stderr_scales_with_sqrt_n():
    taus = np.linspace(0.5, 3.0, 8)
    small = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                   McConfig(4000, master_seed=21))
    big = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, taus,
                 McConfig(8000, master_seed=22))
    ratio = (small.stderrs / big.stderrs).mean()
    assert ratio == pytest.approx(np.sqrt(2), rel=0.10)


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
def test_ou_draws_the_start_and_two_normals_per_delay_less_the_unread_end(
        kind, theta, delta, n_delays, monkeypatch):
    # exact window kernel: one stationary start value, then two normals
    # per delay, whatever the delay length, except that the end value of
    # the last delay is never drawn; zero-length delays (tau 0) leave no
    # window to read the start value, so nothing is drawn at all
    counts = {}
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: _CountingRng(make(*a), counts))
    n = BLOCK_SIZE + 100
    for tau in (0.0, 1e-6, 0.7, 40.0):
        counts.clear()
        run_mc(kind, theta, delta, FIG_NOISE, [tau], McConfig(n, master_seed=7))
        assert counts == ({"normal": n * 2 * n_delays} if tau else {})


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
    one kernel call per delay, the last one without the end value."""
    ops = [el if isinstance(el, Delay) else rotation_matrix(el)
           for el in seq.elements]
    last = max(i for i, op in enumerate(ops) if isinstance(op, Delay))
    window_integrals = _WINDOW_INTEGRALS.get(noise.kind)

    def sample(rng, m):
        f = None if rng is None else rng.normal(0.0, noise.gamma, m)
        psi = np.tile(SPIN_UP, (m, 1))
        for i, op in enumerate(ops):
            if isinstance(op, Delay):
                x = 0.0
                if f is not None:
                    f, x = window_integrals(rng, f, noise.lam, noise.gamma,
                                            op.duration, i != last)
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
        u = rotation_matrix(p)
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


# --------------------------------------------------------------------------
# finite-duration pulses


def _finite_block_samples_cos_sin(seq, delta, noise, cfg, rng, m):
    """Oracle: the finite pulses as a spinor stepped in extended precision
    (np.clongdouble), each step's half-angle from np.cos and np.sin of
    ang / 2; same float draws, the last step without the end value, on
    its own window timeline of (kind, duration, sigma_z rate, sigma_x
    rate)."""
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
    f = rng.normal(0.0, gamma, m) if noisy else None
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
                f, x = window_integrals(rng, f, lam, gamma, float(h), with_end)
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


def test_finite_pulses_noiseless_match_instantaneous():
    # constant-generator windows make each pulse exactly the tilted-axis
    # rotation, so the noiseless finite-pulse result is exact for any rabi
    taus = np.linspace(0.0, 2.0, 5)
    cfg = McConfig(10, master_seed=1, time_step=0.001, pulse_model="finite",
                   rabi=20.0)
    for kind, theta, delta, ref in [
            (SequenceKind.RAMSEY, np.pi / 2, 1.3,
             ramsey_signal(1.3, QUIET, taus)),
            (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0,
             hahn_echo_signal(QUIET, taus)),
            (SequenceKind.HAHN_RAMSEY, THETA, DELTA,
             hahn_ramsey_signal(THETA, DELTA, QUIET, taus))]:
        curve = run_mc(kind, theta, delta, QUIET, taus, cfg)
        assert_allclose(curve.means, ref, rtol=0, atol=1e-12)
        assert (curve.stderrs == 0).all()


def test_finite_pulse_matches_rotation_composition():
    # single resonant pulse area pi/2 at theta = pi/2, 1000 steps
    cfg = McConfig(1, master_seed=1, time_step=np.pi / 2 / 20 / 1000,
                   pulse_model="finite", rabi=20.0)
    taus = np.array([0.0])
    curve = run_mc(SequenceKind.RAMSEY, np.pi / 2, 0.0, QUIET, taus, cfg)
    # pi/2 then 3pi/2 about x is the identity on <sigma_z>
    u = rotation_matrix(PulseParams(np.pi / 2, 3 * np.pi / 2)) @ \
        rotation_matrix(PulseParams(np.pi / 2, np.pi / 2))
    psi = u @ SPIN_UP
    ref = float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)
    assert curve.means[0] == pytest.approx(ref, abs=1e-6)


def test_finite_pulses_converge_to_instantaneous_with_noise():
    # noise runs through the pulses; shorter pulses converge to the
    # instantaneous model
    taus = np.array([1.0])
    ref = hahn_ramsey_signal(THETA, DELTA, FIG_NOISE, taus)
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
    ref = hahn_ramsey_signal(THETA, DELTA, NoiseParams(2.5, 0.25), taus)
    assert abs(curve.means[0] - ref[0]) < 4 * curve.stderrs[0]


def test_finite_pulse_warning_for_coarse_steps():
    cfg = McConfig(4, master_seed=1, time_step=0.5, pulse_model="finite",
                   rabi=10.0)
    curve = run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, QUIET,
                   np.array([1.0]), cfg)
    assert curve.warnings


def test_finite_pulses_worker_independent():
    p = NoiseParams(2.5, 0.4, NoiseKind.RENEWAL)
    taus = np.linspace(0.2, 1.5, 4)
    runs = [run_mc(SequenceKind.HAHN_RAMSEY, THETA, DELTA, noise, taus,
                   McConfig(300, master_seed=4, time_step=0.005,
                            pulse_model="finite", rabi=2 * np.pi,
                            workers=workers))
            for noise in (FIG_NOISE, p) for workers in (1, 3)]
    for a, b in (runs[:2], runs[2:]):
        assert a.means.tobytes() == b.means.tobytes()
        assert a.stderrs.tobytes() == b.stderrs.tobytes()


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
    pts = bloch_trajectory(SequenceKind.HAHN_RAMSEY, THETA, DELTA, 1.3,
                           samples_per_segment=40)
    assert (pts[0].x, pts[0].y, pts[0].z) == (0.0, 0.0, 1.0)
    norms = np.array([p.x ** 2 + p.y ** 2 + p.z ** 2 for p in pts])
    assert np.abs(norms - 1).max() < 1e-10
    ref = hahn_ramsey_signal(THETA, DELTA, QUIET, 1.3)
    assert pts[-1].z == pytest.approx(ref, abs=1e-10)


def test_bloch_z_constant_during_delays():
    pts = bloch_trajectory(SequenceKind.RAMSEY, np.pi / 2, 3.0, 2.0,
                           samples_per_segment=25)
    # strictly interior times belong to the delay (pulses advance no time)
    zs = [p.z for p in pts if 0 < p.t < 2.0]
    assert np.ptp(zs) < 1e-12


def test_bloch_csv(tmp_path):
    pts = bloch_trajectory(SequenceKind.HAHN_RAMSEY, THETA, DELTA, 0.9, 10)
    path = tmp_path / "bloch.csv"
    bloch_to_csv(pts, path, "demo")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,x,y,z"
    assert len(lines) == 2 + len(pts)


def _bloch_per_sample(seq_kind, theta, delta, tau, samples):
    """Oracle: one rotation_matrix or one pair of phases per sample."""
    def xyz(psi):
        z01 = psi[0].conjugate() * psi[1]
        return (2 * z01.real, 2 * z01.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2)

    psi, t = SPIN_UP.copy(), 0.0
    pts = [(t, *xyz(psi))]
    for el in build_sequence(seq_kind, theta, delta, tau).elements:
        start = psi
        for k in range(1, samples + 1):
            if isinstance(el, PulseParams):
                part = PulseParams(el.theta, el.beta * k / samples,
                                   el.detuning_sign)
                psi = rotation_matrix(part) @ start
                pts.append((t, *xyz(psi)))
            else:
                dt = el.duration * k / samples
                phi = el.detuning_sign * delta * dt
                psi = np.array([np.exp(-0.5j * phi) * start[0],
                                np.exp(+0.5j * phi) * start[1]])
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
    pts = bloch_trajectory(kind, theta, delta, tau, samples)
    assert all(type(p) is BlochPoint for p in pts)
    got = np.array([(p.t, p.x, p.y, p.z) for p in pts])
    want = _bloch_per_sample(kind, theta, delta, tau, samples)
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    assert_allclose(got[:, 1:], want[:, 1:], rtol=0, atol=1e-15)


def test_bloch_tilt_families_distinct():
    # the qualitative trajectory families differ with tilt angle
    finals = []
    for th in (0.49 * np.pi, 0.3 * np.pi, 0.2 * np.pi):
        pts = bloch_trajectory(SequenceKind.HAHN_RAMSEY, th, DELTA, 1.0, 30)
        finals.append(pts[-1].z)
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
        rhos[i] = analytic_density_matrix_hr(THETA, f, g).entries
    mean = rhos.mean(axis=0)
    se = rhos.std(axis=0, ddof=1) / np.sqrt(n)
    expected = long_time_density_matrix(THETA).entries
    assert (np.abs(mean - expected) <= 3 * se + 1e-4).all()
