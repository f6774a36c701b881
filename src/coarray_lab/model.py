"""Narrowband far-field signal model for sparse linear arrays.

Sources are uncorrelated zero-mean circular complex Gaussians with
per-source powers, observed in white circular complex Gaussian noise.
All angles are in radians internally; command-line front ends convert
from degrees. Sensor positions are in half-wavelengths, so a source at
theta reaches position p with phase pi p sin(theta).

Monte Carlo trials see their data only through the sample covariance,
so they draw it directly from its complex Wishart law,
N R_hat ~ CW_M(N, R). A block of trials draws its covariances as one
stack with :func:`sample_covariance_draws`, each from its own trial's
stream read in the same order as the one-trial
:func:`sample_covariance_draw`, which is the stack's one-seed case.
:func:`simulate_snapshots` and :func:`sample_covariance` form it the
long way, for single estimates with a snapshot dump and as the
reference the draw is tested against.

Covariances are plain M x M Hermitian arrays. The vectorization
convention throughout the package is column-major stacking:
``vec(R)[p + q * M] = R[p, q]`` with zero-based indices; it is applied
here and in the selection matrix F of :mod:`geometry`, whose product
z = F vec(R) :func:`virtual_observation` forms as a lag average, with
no F, for one covariance or a block's whole stack.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import geometry

__all__ = [
    'SourceScenario',
    'steering_vector', 'steering_matrix', 'true_covariance',
    'simulate_snapshots', 'sample_covariance', 'sample_covariance_draw',
    'sample_covariance_draws', 'virtual_observation',
    'vec', 'unvec', 'dump_snapshots_csv',
]


def vec(a):
    """Column-major vectorization of a matrix."""
    return np.asarray(a).reshape(-1, order='F')


def unvec(x, m, n=None):
    """Inverse of :func:`vec` for an m x n matrix."""
    n = m if n is None else n
    return np.asarray(x).reshape((m, n), order='F')


@dataclass(frozen=True)
class SourceScenario:
    """Source directions, powers, and the noise floor.

    Attributes:
        doas: Strictly increasing source angles in radians, inside
            (-pi/2, pi/2).
        powers: Positive per-source powers, one per direction.
        noise_power: Positive noise variance per sensor.
    """

    doas: tuple[float, ...]
    powers: tuple[float, ...]
    noise_power: float

    def __post_init__(self):
        # One pass over each tuple; when several checks fail, the first
        # in the order raised below wins.
        edge = np.pi / 2
        doas, inside, ordered, last = [], True, True, -np.inf
        for t in self.doas:
            t = float(t)
            inside = inside and -edge < t < edge
            ordered = ordered and last < t
            last = t
            doas.append(t)
        powers, positive = [], True
        for p in self.powers:
            p = float(p)
            positive = positive and 0 < p < np.inf
            powers.append(p)
        if not doas:
            raise ValueError('at least one source is required')
        if len(powers) != len(doas):
            raise ValueError('need one power per source')
        if not inside:
            raise ValueError('DOAs must lie strictly inside (-pi/2, pi/2)')
        if not ordered:
            raise ValueError('DOAs must be strictly increasing')
        if not positive:
            raise ValueError('source powers must be finite and positive')
        if not 0 < self.noise_power < np.inf:
            raise ValueError('noise power must be finite and positive')
        object.__setattr__(self, 'doas', tuple(doas))
        object.__setattr__(self, 'powers', tuple(powers))
        object.__setattr__(self, 'noise_power', float(self.noise_power))

    @classmethod
    def with_snr(cls, doas, snr_db, power=1.0):
        """Scenario with unit-reference powers and a noise floor set by SNR.

        The SNR convention is ``10 log10(min_k p_k / noise_power)``.
        DOAs and powers are converted to floats once, by the scenario.
        """
        powers = (power,) * len(doas) if np.isscalar(power) else power
        try:
            noise = float(min(powers)) * 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:
            raise ValueError(f'SNR {snr_db} dB is out of range') from None
        return cls(doas, powers, noise)

    @property
    def n_sources(self):
        return len(self.doas)

    def snr_db(self):
        return 10.0 * np.log10(min(self.powers) / self.noise_power)

    def scaled(self, factor):
        """Scenario with powers and noise jointly scaled by ``factor``."""
        return SourceScenario(self.doas,
                              tuple(factor * p for p in self.powers),
                              factor * self.noise_power)


def steering_vector(geom, theta):
    """Array response a(theta) with elements exp(j * pos_i * phi).

    Here ``phi = pi sin(theta)``, the phase per half-wavelength of
    position. The first element is 1 only when the first sensor sits at
    the origin.
    """
    return _response(geom.position_array(), [theta])[:, 0]


def steering_matrix(geom, scenario):
    """Steering matrix and its derivative for all scenario sources.

    Args:
        geom: Array geometry.
        scenario: A :class:`SourceScenario`.

    Returns:
        Tuple ``(A, A_dot)`` of M x K complex matrices; column k of
        ``A_dot`` is the derivative of column k of ``A`` with respect
        to the k-th DOA: ``j * phi_dot_k * diag(pos) @ a(theta_k)``
        with ``phi_dot_k = pi cos(theta_k)``.
    """
    return _steering(geom.position_array(), scenario.doas)


def _response(pos, theta):
    """Steering matrix over positions ``pos``, without its derivative.

    Element (i, k) is ``exp(j * pi * pos_i * sin(theta_k))``, positions
    in half-wavelengths. A stack of DOA sets, S x K, gives S x M x K
    stacks, each equal bit for bit to its own call.
    """
    return np.exp(1j * np.pi * (pos[:, None] * np.sin(theta)[..., None, :]))


def _steering(pos, theta):
    """:func:`_response` over positions ``pos`` and its DOA derivative."""
    theta = np.asarray(theta)
    a = _response(pos, theta)
    a_dot = 1j * np.pi * np.cos(theta)[..., None, :] * pos[:, None] * a
    return a, a_dot


def true_covariance(geom, scenario):
    """Exact model covariance R = A P A^H + noise_power * I, M x M."""
    a, _ = steering_matrix(geom, scenario)
    p = np.asarray(scenario.powers)
    r_mat = (a * p) @ a.conj().T + scenario.noise_power * np.eye(geom.n_sensors)
    return 0.5 * (r_mat + r_mat.conj().T)


def _trial_streams(seed):
    """Two independent counter-based generators (signal, noise)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    sig_ss, noise_ss = seed.spawn(2)
    return (np.random.Generator(np.random.Philox(sig_ss)),
            np.random.Generator(np.random.Philox(noise_ss)))


def simulate_snapshots(geom, scenario, n_snapshots, seed):
    """Simulate array snapshots y(t) = A x(t) + n(t), t = 1..N.

    Signals and noise come from separate counter-based streams derived
    from ``seed``, so the whole trial is reproducible from its seed
    alone, independent of process or thread layout. Draws are
    sequential per stream, so a longer run extends a shorter one with
    the same seed column for column.

    Args:
        geom: Array geometry.
        scenario: Source scenario.
        n_snapshots: Number of snapshots N >= 1.
        seed: Integer or ``numpy.random.SeedSequence``.

    Returns:
        Complex matrix Y of shape (M, N), one snapshot per column.
    """
    if n_snapshots < 1:
        raise ValueError('need at least one snapshot')
    rng_sig, rng_noise = _trial_streams(seed)
    k = scenario.n_sources
    m = geom.n_sensors
    a, _ = steering_matrix(geom, scenario)
    amp = np.sqrt(np.asarray(scenario.powers) / 2.0)
    # each (re, im) pair of normal draws is read in place as one complex
    sig = rng_sig.standard_normal((n_snapshots, k, 2)).view(complex)[..., 0]
    x = amp * sig
    nse = rng_noise.standard_normal((n_snapshots, m, 2)).view(complex)[..., 0]
    noise = np.sqrt(scenario.noise_power / 2.0) * nse
    return a @ x.T + noise.T


def sample_covariance(snapshots):
    """Sample covariance R_hat = Y Y^H / N, Hermitian-symmetrized, M x M."""
    y = np.asarray(snapshots)
    if y.ndim != 2:
        raise ValueError('snapshots must be an M x N matrix')
    r_mat = y @ y.conj().T / y.shape[1]
    return 0.5 * (r_mat + r_mat.conj().T)


def sample_covariance_draws(chol, n_snapshots, seeds):
    """Sample covariances of N snapshots, one per seed, from their Wishart law.

    For N independent CN(0, R) snapshots, N R_hat is complex Wishart
    CW_M(N, R). With R = L L^H this draws N R_hat = (L T)(L T)^H from
    the Bartlett factor T, an M x min(M, N) lower-trapezoidal matrix
    with CN(0, 1) entries below the diagonal and
    T_ii = sqrt(chi^2_{2(N - i)} / 2) on it (zero-based i). For N < M
    the draw is the singular Wishart, of rank N. It costs O(M^2)
    draws whatever N is, against O(MN) for :func:`simulate_snapshots`
    followed by :func:`sample_covariance`; the two have one law but
    are different draws for the same seed.

    Each seed is its own Philox stream, read in its own order; only the
    products and the symmetrization after the draws act on the whole
    stack, per slice, so slice b equals the one-seed draw of
    ``seeds[b]`` bit for bit.

    Args:
        chol: Lower Cholesky factor L of the model covariance R.
        n_snapshots: Number of snapshots N >= 1.
        seeds: Sequence of B integers or ``numpy.random.SeedSequence``,
            each of one Philox stream: first the below-diagonal entries
            of T, row-major, then its diagonal.

    Returns:
        B x M x M stack of Hermitian-symmetrized sample covariances.
    """
    if n_snapshots < 1:
        raise ValueError('need at least one snapshot')
    chol = np.asarray(chol)
    m = chol.shape[0]
    p = min(m, n_snapshots)
    rows, cols = np.nonzero(np.tri(m, p, -1, dtype=bool))
    diag = np.arange(p)
    shapes = n_snapshots - diag
    normals = np.empty((len(seeds), rows.size, 2))
    gammas = np.empty((len(seeds), p))
    for seed, normal, gamma in zip(seeds, normals, gammas):
        rng = np.random.Generator(np.random.Philox(seed))
        rng.standard_normal(out=normal)
        # chi^2_{2k} / 2 is Gamma(k, 1)
        rng.standard_gamma(shapes, out=gamma)
    t = np.zeros((len(seeds), m, p), dtype=complex)
    # CN(0, 1): each (re, im) pair of N(0, 1) draws, scaled by sqrt(1/2),
    # is read in place as one complex
    t[:, rows, cols] = np.sqrt(0.5) * normals.view(complex)[..., 0]
    t[:, diag, diag] = np.sqrt(gammas)
    lt = chol @ t
    r_mat = lt @ np.swapaxes(lt.conj(), -1, -2) / n_snapshots
    return 0.5 * (r_mat + np.swapaxes(r_mat.conj(), -1, -2))


def sample_covariance_draw(chol, n_snapshots, seed):
    """The one-seed case of :func:`sample_covariance_draws`, M x M."""
    return sample_covariance_draws(chol, n_snapshots, [seed])[0]


def virtual_observation(co, r_mat):
    """Coarray-domain observation z = F vec(R), as a lag average.

    Entry mv - 1 + l of z averages the entries R[p, q] whose positions
    differ by the lag l, |l| < mv. They are summed per lag over
    :func:`geometry._lag_gather`, in column-major order, and each sum
    is divided once by its weight w(l); no F is formed. Slice b of a
    stack is summed in the same order as its own call, so the two are
    equal bit for bit.

    Args:
        co: :class:`geometry.CoarrayStructure` of the array.
        r_mat: M x M covariance of that array, or a B x M x M stack.

    Returns:
        Complex z of length 2 * mv - 1, or B x (2 * mv - 1) for a stack.
        For a Hermitian R the result is conjugate-symmetric about its
        central entry.
    """
    r_mat = np.asarray(r_mat)
    m = co.geometry.n_sensors
    if r_mat.ndim not in (2, 3) or r_mat.shape[-2:] != (m, m):
        raise ValueError(f'{co.geometry.name} takes an M x M covariance or '
                         f'a B x M x M stack with M = {m}, got shape '
                         f'{r_mat.shape}')
    cols, rows, _ = geometry._lag_gather(co)
    lead = r_mat.shape[:-2]
    r_vec = np.swapaxes(r_mat, -1, -2).reshape(lead + (m * m,))
    z = np.zeros(lead + (2 * co.mv - 1,), dtype=complex)
    np.add.at(z, (..., rows), r_vec[..., cols])
    z /= np.bincount(rows)
    return z


def dump_snapshots_csv(snapshots, path):
    """Write snapshots as CSV rows (t, sensor, re, im)."""
    y = np.asarray(snapshots)
    with open(path, 'w', newline='') as fh:
        writer = csv.writer(fh)
        writer.writerow(['t', 'sensor', 're', 'im'])
        for t in range(y.shape[1]):
            for i in range(y.shape[0]):
                writer.writerow([t, i, repr(float(y[i, t].real)),
                                 repr(float(y[i, t].imag))])
