"""Asymptotic performance analysis for coarray MUSIC.

This module provides the closed-form first-order DOA error statistics
of coarray MUSIC on sparse linear arrays and the stochastic Cramer-Rao
bound for the joint DOA/power/noise parameter vector. The MSE
expressions hold for either augmentation (direct or spatially smoothed)
since both share the same first-order error. The tests check the MSE
against its expansion over the covariance-perturbation moments in
:mod:`coarray_lab.reference`.

All angles are radians; MSE values are rad^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# selection_matrix is unused here but stays bound: bench/selftest.py
# checks that the tracer wraps it at this lookup site.
from .geometry import _lag_gather, difference_coarray, selection_matrix  # noqa: F401
from .model import (SourceScenario, _phase_rate, _steering, steering_matrix,
                    true_covariance, vec)

__all__ = [
    'ErrorTerms', 'CrbReport', 'NumericalFailure', 'CrbUndefined',
    'error_terms', 'analytical_mse', 'limiting_mse', 'model_jacobian',
    'crb', 'efficiency_kappa', 'resolution_predict', 'resolution_threshold',
]

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
_RANK_RCOND = 1e-10

# Separations (radians) scanned for the first resolution crossing, and
# the stride of the coarse pass over them.
_THRESHOLD_SCAN = np.geomspace(np.deg2rad(1e-3), np.deg2rad(6.0), 80)
_THRESHOLD_STRIDE = 8

# The last error-term build, keyed by (geometry, DOAs). One entry: the
# sweeps vary SNR and N innermost, and the terms depend on neither.
_TERMS_CACHE = {}


class NumericalFailure(RuntimeError):
    """A computation could not be completed reliably."""


class CrbUndefined(NumericalFailure):
    """The CRB does not exist for the requested scenario."""


@dataclass(frozen=True)
class ErrorTerms:
    """First-order DOA error functionals of coarray MUSIC.

    For each source k the signed estimation error is asymptotically

        theta_hat_k - theta_k  =  -Re(xi_k^T dr) / (gamma_k * p_k),

    where dr = vec(R_hat - R) is the sample-covariance perturbation.

    Attributes:
        mv: Virtual-ULA size backing the terms.
        alpha: K x mv rows; row k is the k-th row of the negated
            pseudo-inverse of the virtual steering matrix.
        beta: K x mv rows; row k is the orthogonal-complement projection
            of the virtual steering derivative for source k.
        gamma: Length-K positive curvatures
            ``a_dot_v^H proj_perp a_dot_v``.
        xi: K x M^2 rows; row k maps dr directly to the error of
            source k.
    """

    mv: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class CrbReport:
    """Cramer-Rao bound evaluation with rank diagnostics.

    Attributes:
        fim: Real symmetric (2K + 1) x (2K + 1) Fisher information
            N Re(J^H (R^T ox R)^(-1) J) of (DOAs, powers, noise power).
        crb: Real symmetric K x K DOA block of the inverse FIM, or
            None when the bound is undefined.
        jacobian_rank: Numerical rank of the whitened model Jacobian.
        required_rank: 2K + 1; the bound exists only at full rank.
        gram_condition: Condition number of the projected Gram matrix
            that is inverted for the DOA block (NaN when undefined).
    """

    fim: np.ndarray
    crb: np.ndarray
    jacobian_rank: int
    required_rank: int
    gram_condition: float

    @property
    def defined(self):
        return self.crb is not None


def error_terms(geom, scenario):
    """First-order error functionals for every source in a scenario.

    The terms depend on the array and the DOAs only, not on powers or
    noise, so the last build is kept and returned again for an equal
    (geometry, DOAs) pair. Its arrays are read-only.

    Args:
        geom: Array geometry.
        scenario: Source scenario with K < mv sources.

    Returns:
        An :class:`ErrorTerms` instance.
    """
    key = (geom, scenario.doas)
    terms = _TERMS_CACHE.get(key)
    if terms is None:
        _TERMS_CACHE.clear()
        terms = _TERMS_CACHE[key] = _build_error_terms(geom, scenario)
    return terms


def _build_error_terms(geom, scenario):
    co = difference_coarray(geom)
    mv = co.mv
    k = scenario.n_sources
    if k >= mv:
        raise ValueError(f'need K < mv = {mv} sources, got K = {k}')
    # virtual-ULA steering matrix and its derivative, mv x K
    av, av_dot = _steering(np.arange(mv), scenario.doas, _phase_rate(geom))
    av_pinv = np.linalg.pinv(av, rcond=_RANK_RCOND)
    alpha = -av_pinv
    beta = av_dot - av @ (av_pinv @ av_dot)
    gamma = np.real(np.sum(av_dot.conj() * beta, axis=0))
    if np.any(gamma <= 0):
        raise NumericalFailure('nonpositive curvature: sources too close '
                               'to degenerate for first-order analysis')
    # Gamma^T (beta ox alpha) is the full correlation of alpha_j with
    # beta_j, laid out over lags -(mv-1) .. mv-1; xi_j is F^T of it.
    folded = np.stack([np.convolve(beta[::-1, j], alpha[j, :], mode='full')
                       for j in range(k)])
    cols, rows, vals = _lag_gather(co)
    xi = np.zeros((k, geom.n_sensors ** 2), dtype=complex)
    xi[:, cols] = folded[:, rows] * vals
    terms = ErrorTerms(mv=mv, alpha=alpha, beta=beta.T.copy(),
                       gamma=gamma, xi=xi)
    for arr in (terms.alpha, terms.beta, terms.gamma, terms.xi):
        arr.setflags(write=False)
    return terms


def analytical_mse(geom, scenario, n_snapshots):
    """Closed-form asymptotic second moments of the DOA errors.

    Entry (k1, k2) is the first-order value of
    ``E[(theta_hat_k1 - theta_k1)(theta_hat_k2 - theta_k2)]``:

        Re[xi_k1^H (R ox R^T) xi_k2] / (N p_k1 p_k2 gamma_k1 gamma_k2),

    evaluated on the exact model covariance. Scaling all powers and the
    noise floor jointly leaves the result unchanged, so it depends on
    the sources only through their SNRs.

    Args:
        geom: Array geometry.
        scenario: Source scenario (K < mv).
        n_snapshots: Snapshot count N.

    Returns:
        Real symmetric K x K matrix with positive diagonal (rad^2).
    """
    terms = error_terms(geom, scenario)
    m = geom.n_sensors
    k = scenario.n_sources
    rt = true_covariance(geom, scenario).T
    # the stacked X_k = unvec(xi_k) and their sandwiches R^T X_k R^T
    xi_mats = terms.xi.reshape(k, m, m).transpose(0, 2, 1)
    sandwich = rt @ xi_mats @ rt
    # One entrywise reduction per row, not one BLAS product: at high SNR
    # the form cancels to a few significant digits, so a BLAS summation
    # order would move the result by up to 1e-10 relative.
    quad = np.stack([np.sum(x.conj() * sandwich, axis=(1, 2))
                     for x in xi_mats])
    scale = np.asarray(scenario.powers) * terms.gamma
    mse = quad.real / (n_snapshots * scale[:, None] * scale[None, :])
    return 0.5 * (mse + mse.T)


def limiting_mse(geom, scenario):
    """High-SNR limit of the per-source MSE, scaled by N.

    For equal source powers the MSE of source k converges, as all SNRs
    grow, to ``limit_k / N`` with

        limit_k = || xi_k^H (A ox A*) ||^2 / gamma_k^2.

    The limit vanishes for a single source, and is strictly positive
    when the sources outnumber the sensors.

    Args:
        geom: Array geometry.
        scenario: Equal-power scenario (rejected otherwise).

    Returns:
        Length-K vector of N-scaled limits (rad^2 times snapshots).
    """
    powers = np.asarray(scenario.powers)
    if not np.allclose(powers, powers[0], rtol=1e-12, atol=0.0):
        raise ValueError('the high-SNR limit assumes equal source powers')
    terms = error_terms(geom, scenario)
    a, _ = steering_matrix(geom, scenario)
    basis = np.kron(a, a.conj())
    proj = terms.xi.conj() @ basis
    return np.sum(np.abs(proj) ** 2, axis=1) / terms.gamma ** 2


def model_jacobian(geom, scenario):
    """Jacobian of r = vec(R) in the parameters (DOAs, powers, noise).

    Columns are ordered [d r / d theta_1 .. K, d r / d p_1 .. K,
    d r / d noise_power], with the self-Khatri-Rao structure

        d r / d theta_k = p_k (conj(a_dot_k) ox a_k + conj(a_k) ox a_dot_k),
        d r / d p_k     = conj(a_k) ox a_k,
        d r / d noise   = vec(I).

    Returns:
        Complex M^2 x (2K + 1) matrix.
    """
    a, a_dot = steering_matrix(geom, scenario)
    return _jacobian_columns(a, a_dot, scenario.powers,
                             np.eye(geom.n_sensors))


def _jacobian_columns(a, a_dot, powers, noise):
    """vec of p_k d(a_k a_k^H)/d theta_k, of a_k a_k^H, and of ``noise``.

    Column k of the Khatri-Rao product kr(x, y) is vec(y_k x_k^T).
    """
    m = a.shape[0]

    def kr(x, y):
        return np.einsum('ik,jk->ijk', x, y).reshape(m * m, -1)

    a_d = kr(a.conj(), a)
    a_d_dot = kr(a_dot.conj(), a) + kr(a.conj(), a_dot)
    return np.concatenate(
        [a_d_dot * np.asarray(powers)[None, :], a_d, vec(noise)[:, None]],
        axis=1)


def _whitened_jacobian(geom, scenario):
    """Model Jacobian left-multiplied by (R^T ox R)^(-1/2).

    The inverse square root acts column-wise as C -> W C W with the
    Hermitian W = R^(-1/2), so W a a^H W = (W a)(W a)^H: the whitened
    columns are the Jacobian columns of the whitened steering (W A,
    W A_dot), with W W for the noise. Only the eigensystem of the M x M
    covariance is needed, no M^2 x M^2 factorization.
    """
    a, a_dot = steering_matrix(geom, scenario)
    r_mat = true_covariance(geom, scenario)
    lam, u = np.linalg.eigh(r_mat)
    if lam[0] <= 0:
        raise NumericalFailure('model covariance is not positive definite')
    r_isqrt = (u * (1.0 / np.sqrt(lam))) @ u.conj().T
    return _jacobian_columns(r_isqrt @ a, r_isqrt @ a_dot, scenario.powers,
                             r_isqrt @ r_isqrt)


def crb(geom, scenario, n_snapshots):
    """Cramer-Rao bound on the DOAs with nuisance powers and noise.

    The DOA block of the inverse FIM is evaluated through the whitened
    Jacobian: with M_theta the whitened DOA columns and M_s the
    whitened power/noise columns,

        CRB = (1 / N) * (M_theta^H P_perp(M_s) M_theta)^(-1).

    The bound requires the whitened Jacobian to have full column rank
    2K + 1; otherwise the report carries ``crb=None`` and the observed
    rank. The bound is invariant to joint scaling of all powers and
    the noise floor.

    Returns:
        A :class:`CrbReport`.
    """
    k = scenario.n_sources
    white = _whitened_jacobian(geom, scenario)
    fim_mat = n_snapshots * np.real(white.conj().T @ white)
    fim_mat = 0.5 * (fim_mat + fim_mat.T)
    svals = np.linalg.svd(white, compute_uv=False)
    rank = int(np.sum(svals > _RANK_RCOND * svals[0]))
    required = 2 * k + 1
    if rank < required:
        return CrbReport(fim=fim_mat, crb=None, jacobian_rank=rank,
                         required_rank=required, gram_condition=float('nan'))
    m_theta = white[:, :k]
    m_s = white[:, k:]
    coeff, *_ = np.linalg.lstsq(m_s, m_theta, rcond=None)
    residual = m_theta - m_s @ coeff
    gram = np.real(m_theta.conj().T @ residual)
    gram = 0.5 * (gram + gram.T)
    gram_cond = float(np.linalg.cond(gram))
    if not np.isfinite(gram_cond) or gram_cond > 1.0 / _RANK_RCOND ** 2:
        return CrbReport(fim=fim_mat, crb=None, jacobian_rank=rank,
                         required_rank=required, gram_condition=gram_cond)
    crb_mat = np.linalg.inv(gram) / n_snapshots
    crb_mat = 0.5 * (crb_mat + crb_mat.T)
    return CrbReport(fim=fim_mat, crb=crb_mat, jacobian_rank=rank,
                     required_rank=required, gram_condition=gram_cond)


def efficiency_kappa(crb_report, mse_matrix):
    """Asymptotic statistical efficiency trace(CRB) / sum_k MSE_k.

    Args:
        crb_report: A defined :class:`CrbReport` (raises
            :class:`CrbUndefined` otherwise).
        mse_matrix: K x K matrix from :func:`analytical_mse`, or an
            empirical counterpart with per-source MSEs on the diagonal.

    Returns:
        The efficiency ratio as a float in (0, 1] up to first-order
        accuracy.
    """
    if not crb_report.defined:
        raise CrbUndefined('CRB undefined: whitened Jacobian rank '
                           f'{crb_report.jacobian_rank} < '
                           f'{crb_report.required_rank}')
    return float(np.trace(crb_report.crb) / np.trace(np.atleast_2d(mse_matrix)))


def resolution_predict(mse_matrix, delta_theta):
    """Analytic two-source resolvability verdict.

    Two sources separated by ``delta_theta`` (radians) are declared
    resolvable when the sum of their RMS errors stays below the
    separation. Both sides of the comparison are angles in radians, so
    the verdict does not depend on the angular unit.

    Args:
        mse_matrix: 2 x 2 analytic MSE matrix of the pair.
        delta_theta: Separation in radians.

    Returns:
        True when the pair is predicted resolvable.
    """
    mse_matrix = np.atleast_2d(mse_matrix)
    if mse_matrix.shape != (2, 2):
        raise ValueError('the resolution criterion applies to source pairs')
    rms_sum = np.sqrt(mse_matrix[0, 0]) + np.sqrt(mse_matrix[1, 1])
    return bool(rms_sum < delta_theta)


def resolution_threshold(geom, n_snapshots, center=np.deg2rad(30.0),
                         power=1.0, noise_power=1.0):
    """Predicted resolution threshold separation for a source pair.

    Finds the separation at which the summed RMS error of two
    equal-power sources straddling ``center`` equals the separation
    itself; below it the pair is predicted unresolvable. The crossing
    is bracketed on a log-spaced scan of 1e-3 .. 6 degrees, coarse to
    fine. The coarse pass takes every 8th scan point and the last one,
    in order, up to the first pair where the excess of RMS sum over
    separation turns from positive to non-positive. The fine pass
    takes the scan points from that pair's first point on, up to the
    first such turn between neighbours, which bisection polishes down
    to adjacent floats. Where the excess turns at most once between
    coarse points, this is the first crossing of the full scan.

    Returns:
        Threshold separation in radians.

    Raises:
        NumericalFailure: If no crossing is found inside the scan.
    """
    def excess(delta):
        scenario = SourceScenario(
            (center - delta / 2.0, center + delta / 2.0),
            (power, power), noise_power)
        mse = analytical_mse(geom, scenario, n_snapshots)
        return np.sqrt(mse[0, 0]) + np.sqrt(mse[1, 1]) - delta

    values = {}

    def first_turn(points):
        """First neighbours of ``points`` where the excess turns <= 0."""
        for i, j in zip(points, points[1:]):
            for n in (i, j):
                if n not in values:
                    values[n] = excess(_THRESHOLD_SCAN[n])
            if values[i] > 0 and values[j] <= 0:
                return i, j
        raise NumericalFailure('no resolution crossing inside the scan range')

    last = _THRESHOLD_SCAN.size - 1
    start, _ = first_turn([*range(0, last, _THRESHOLD_STRIDE), last])
    i, j = first_turn(range(start, last + 1))
    a, b = _THRESHOLD_SCAN[i], _THRESHOLD_SCAN[j]
    for _ in range(60):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            # a and b are adjacent floats: whichever side mid takes,
            # the bracket collapses onto mid
            break
        if excess(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
