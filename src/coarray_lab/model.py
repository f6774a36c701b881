"""Narrowband far-field signal model for sparse linear arrays.

Sources are uncorrelated zero-mean circular complex Gaussians with
per-source powers, observed in white circular complex Gaussian noise.
All angles are in radians internally; command-line front ends convert
from degrees.

The vectorization convention throughout the package is column-major
stacking: ``vec(R)[p + q * M] = R[p, q]`` with zero-based indices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    'SourceScenario', 'CovarianceSet',
    'steering_vector', 'steering_matrix', 'true_covariance',
    'simulate_snapshots', 'sample_covariance', 'virtual_observation',
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
        doas = tuple(float(t) for t in self.doas)
        powers = tuple(float(p) for p in self.powers)
        if len(doas) == 0:
            raise ValueError('at least one source is required')
        if len(powers) != len(doas):
            raise ValueError('need one power per source')
        if any(not -np.pi / 2 < t < np.pi / 2 for t in doas):
            raise ValueError('DOAs must lie strictly inside (-pi/2, pi/2)')
        if any(b <= a for a, b in zip(doas, doas[1:])):
            raise ValueError('DOAs must be strictly increasing')
        if any(p <= 0 for p in powers):
            raise ValueError('source powers must be positive')
        if not self.noise_power > 0:
            raise ValueError('noise power must be positive')
        object.__setattr__(self, 'doas', doas)
        object.__setattr__(self, 'powers', powers)
        object.__setattr__(self, 'noise_power', float(self.noise_power))

    @classmethod
    def with_snr(cls, doas, snr_db, power=1.0):
        """Scenario with unit-reference powers and a noise floor set by SNR.

        The SNR convention is ``10 log10(min_k p_k / noise_power)``.
        """
        doas = tuple(float(t) for t in doas)
        powers = ((float(power),) * len(doas) if np.isscalar(power)
                  else tuple(float(p) for p in power))
        noise = min(powers) * 10.0 ** (-float(snr_db) / 10.0)
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


@dataclass(frozen=True)
class CovarianceSet:
    """A covariance matrix with its vectorized view.

    Attributes:
        R: M x M Hermitian covariance.
        r: vec(R), column-major.
        n_snapshots: Snapshot count behind a sample estimate, or None
            for an exact model covariance.
    """

    R: np.ndarray
    r: np.ndarray
    n_snapshots: int = None


def _phase_rate(geom):
    """Phase per unit position: 2 pi d0 / wavelength."""
    return 2.0 * np.pi * geom.d0 / geom.wavelength


def steering_vector(geom, theta):
    """Array response a(theta) with elements exp(j * pos_i * phi).

    Here ``phi = 2 pi d0 sin(theta) / wavelength`` and positions are in
    units of d0. The first element is 1 only when the first sensor sits
    at the origin.
    """
    a, _ = _steering(geom.position_array(), [theta], _phase_rate(geom))
    return a[:, 0]


def steering_matrix(geom, scenario):
    """Steering matrix and its derivative for all scenario sources.

    Args:
        geom: Array geometry.
        scenario: A :class:`SourceScenario`.

    Returns:
        Tuple ``(A, A_dot)`` of M x K complex matrices; column k of
        ``A_dot`` is the derivative of column k of ``A`` with respect
        to the k-th DOA: ``j * phi_dot_k * diag(pos) @ a(theta_k)``
        with ``phi_dot_k = 2 pi d0 cos(theta_k) / wavelength``.
    """
    return _steering(geom.position_array(), scenario.doas, _phase_rate(geom))


def _steering(pos, theta, rate):
    """Steering matrix over positions ``pos`` and its DOA derivative.

    Element (i, k) is ``exp(j * rate * pos_i * sin(theta_k))``, with
    ``rate`` the phase per unit position (see :func:`_phase_rate`).
    """
    theta = np.asarray(theta)
    a = np.exp(1j * rate * np.outer(pos, np.sin(theta)))
    a_dot = 1j * rate * np.cos(theta)[None, :] * pos[:, None] * a
    return a, a_dot


def true_covariance(geom, scenario):
    """Exact model covariance R = A P A^H + noise_power * I.

    Returns:
        A :class:`CovarianceSet` holding R and r = vec(R).
    """
    a, _ = steering_matrix(geom, scenario)
    p = np.asarray(scenario.powers)
    r_mat = (a * p) @ a.conj().T + scenario.noise_power * np.eye(geom.n_sensors)
    r_mat = 0.5 * (r_mat + r_mat.conj().T)
    return CovarianceSet(R=r_mat, r=vec(r_mat))


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
    """Sample covariance R_hat = Y Y^H / N, Hermitian-symmetrized.

    Returns:
        A :class:`CovarianceSet` with the snapshot count attached.
    """
    y = np.asarray(snapshots)
    if y.ndim != 2:
        raise ValueError('snapshots must be an M x N matrix')
    n = y.shape[1]
    r_mat = y @ y.conj().T / n
    r_mat = 0.5 * (r_mat + r_mat.conj().T)
    return CovarianceSet(R=r_mat, r=vec(r_mat), n_snapshots=n)


def virtual_observation(f, r):
    """Coarray-domain observation z = F r.

    Args:
        f: Selection matrix from :func:`geometry.selection_matrix`.
        r: Vectorized covariance of matching length.

    Returns:
        Complex vector z of length 2 * mv - 1. For a Hermitian R the
        result is conjugate-symmetric about its central entry.
    """
    r = np.asarray(r)
    if f.shape[1] != r.shape[0]:
        raise ValueError(f'selection matrix expects length {f.shape[1]}, '
                         f'got {r.shape[0]}')
    return f @ r


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
