"""Asymptotic performance analysis for coarray MUSIC.

This module provides the closed-form first-order DOA error statistics
of coarray MUSIC on sparse linear arrays, the exact second moments of
the sample-covariance perturbation that underpin them, and the
stochastic Cramer-Rao bound for the joint DOA/power/noise parameter
vector. The MSE expressions hold for either augmentation (direct or
spatially smoothed) since both share the same first-order error.

All angles are radians; MSE values are rad^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import difference_coarray, selection_matrix
from .model import (_phase_rate, _steering, steering_matrix, true_covariance,
                    unvec, vec)

__all__ = [
    'ErrorTerms', 'CrbReport', 'NumericalFailure', 'CrbUndefined',
    'error_terms', 'analytical_mse', 'analytical_mse_via_moments',
    'limiting_mse', 'model_jacobian', 'fim', 'crb', 'efficiency_kappa',
    'resolution_predict', 'resolution_threshold',
    'delta_r_moment_oracle', 'structured_cross_matrix',
]

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
_RANK_RCOND = 1e-10


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
        fim: Real symmetric (2K + 1) x (2K + 1) Fisher information.
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

    Args:
        geom: Array geometry.
        scenario: Source scenario with K < mv sources.

    Returns:
        An :class:`ErrorTerms` instance.
    """
    co = difference_coarray(geom)
    f = selection_matrix(co)
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
    xi = np.empty((k, geom.n_sensors ** 2), dtype=complex)
    for j in range(k):
        # Gamma^T (beta ox alpha) is the full correlation of alpha_j
        # with beta_j, laid out over lags -(mv-1) .. mv-1.
        folded = np.convolve(beta[::-1, j], alpha[j, :], mode='full')
        xi[j] = f.T @ folded
    return ErrorTerms(mv=mv, alpha=alpha, beta=beta.T.copy(),
                      gamma=gamma, xi=xi)


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
    r_mat = true_covariance(geom, scenario).R
    rt = r_mat.T
    xi_mats = [unvec(terms.xi[j], m) for j in range(k)]
    sandwich = [rt @ x @ rt for x in xi_mats]
    scale = np.asarray(scenario.powers) * terms.gamma
    mse = np.empty((k, k))
    for k1 in range(k):
        for k2 in range(k):
            quad = np.sum(xi_mats[k1].conj() * sandwich[k2])
            mse[k1, k2] = quad.real / (n_snapshots * scale[k1] * scale[k2])
    return 0.5 * (mse + mse.T)


def structured_cross_matrix(a, b):
    """Block matrix C with block (m, n) equal to a_n b_m^T.

    Here a_n is the n-th column of ``a`` and b_m the m-th column of
    ``b``; both inputs must be M x M, and the result is M^2 x M^2 with
    ``C[m * M + r, n * M + s] = a[r, n] * b[s, m]`` (zero-based).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m = a.shape[0]
    if a.shape != (m, m) or b.shape != (m, m):
        raise ValueError('both factors must be square and equally sized')
    return np.einsum('rn,sm->mrns', a, b).reshape(m * m, m * m)


def delta_r_moment_oracle(r_mat, n_snapshots):
    """Exact second moments of dr = vec(R_hat - R) for Gaussian data.

    For N independent circular complex Gaussian snapshots the real and
    imaginary parts of the covariance perturbation have closed-form
    second moments built from Kronecker products of Re(R), Im(R) and
    the block rearrangements of :func:`structured_cross_matrix`.

    Args:
        r_mat: Exact M x M covariance.
        n_snapshots: Snapshot count N.

    Returns:
        Tuple ``(m_rr, m_ii, m_ri)`` of real M^2 x M^2 matrices:
        ``E[Re(dr) Re(dr)^T]``, ``E[Im(dr) Im(dr)^T]``, and
        ``E[Re(dr) Im(dr)^T]``.
    """
    r_re = np.asarray(r_mat).real
    r_im = np.asarray(r_mat).imag
    kron_rr = np.kron(r_re, r_re)
    kron_ii = np.kron(r_im, r_im)
    c_rr = structured_cross_matrix(r_re, r_re)
    c_ii = structured_cross_matrix(r_im, r_im)
    scale = 1.0 / (2.0 * n_snapshots)
    m_rr = scale * (kron_rr + kron_ii + c_rr - c_ii)
    m_ii = scale * (kron_rr + kron_ii + c_ii - c_rr)
    m_ri = scale * (np.kron(r_im, r_re) - np.kron(r_re, r_im)
                    + structured_cross_matrix(r_re, r_im)
                    + structured_cross_matrix(r_im, r_re))
    return m_rr, m_ii, m_ri


def analytical_mse_via_moments(geom, scenario, n_snapshots):
    """DOA error second moments assembled from the dr moment matrices.

    This expands the error bilinear form term by term against the
    closed-form moments of :func:`delta_r_moment_oracle` instead of the
    simplified Kronecker quadratic form; both routes must agree and the
    acceptance suite holds them to 1e-10 relative.
    """
    terms = error_terms(geom, scenario)
    r_mat = true_covariance(geom, scenario).R
    m_rr, m_ii, m_ri = delta_r_moment_oracle(r_mat, n_snapshots)
    xi_re = terms.xi.real
    xi_im = terms.xi.imag
    cross = xi_re @ m_ri @ xi_im.T
    raw = xi_re @ m_rr @ xi_re.T + xi_im @ m_ii @ xi_im.T - cross - cross.T
    scale = np.asarray(scenario.powers) * terms.gamma
    mse = raw / np.outer(scale, scale)
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
    m = geom.n_sensors
    powers = np.asarray(scenario.powers)

    def kr(x, y):
        return np.einsum('ik,jk->ijk', x, y).reshape(m * m, -1)

    a_d = kr(a.conj(), a)
    a_d_dot = kr(a_dot.conj(), a) + kr(a.conj(), a_dot)
    return np.concatenate(
        [a_d_dot * powers[None, :], a_d, vec(np.eye(m))[:, None]], axis=1)


def _whitened_jacobian(geom, scenario):
    """Model Jacobian left-multiplied by (R^T ox R)^(-1/2).

    The inverse square root acts column-wise as
    ``vec(R^(-1/2) C R^(-1/2))``, which only needs the eigensystem of
    the M x M covariance rather than any M^2 x M^2 factorization.
    """
    jac = model_jacobian(geom, scenario)
    r_mat = true_covariance(geom, scenario).R
    lam, u = np.linalg.eigh(r_mat)
    if lam[0] <= 0:
        raise NumericalFailure('model covariance is not positive definite')
    r_isqrt = (u * (1.0 / np.sqrt(lam))) @ u.conj().T
    m = geom.n_sensors
    cols = np.empty_like(jac)
    for c in range(jac.shape[1]):
        cols[:, c] = vec(r_isqrt @ unvec(jac[:, c], m) @ r_isqrt)
    return cols


def fim(geom, scenario, n_snapshots):
    """Fisher information for (DOAs, powers, noise power).

    Computed as ``N J^H (R^T ox R)^(-1) J`` with J the model Jacobian,
    using the covariance eigensystem for the central inverse. The
    result is returned as its real part, symmetrized.

    Returns:
        Real symmetric (2K + 1) x (2K + 1) matrix.
    """
    white = _whitened_jacobian(geom, scenario)
    out = n_snapshots * np.real(white.conj().T @ white)
    return 0.5 * (out + out.T)


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
                         power=1.0, noise_power=1.0,
                         lo=np.deg2rad(1e-3), hi=np.deg2rad(6.0)):
    """Predicted resolution threshold separation for a source pair.

    Finds the separation at which the summed RMS error of two
    equal-power sources straddling ``center`` equals the separation
    itself; below it the pair is predicted unresolvable. The crossing
    is bracketed on a log-spaced scan of [lo, hi] and polished by
    bisection.

    Returns:
        Threshold separation in radians.

    Raises:
        NumericalFailure: If no crossing exists inside [lo, hi].
    """
    from .model import SourceScenario

    def excess(delta):
        scenario = SourceScenario(
            (center - delta / 2.0, center + delta / 2.0),
            (power, power), noise_power)
        mse = analytical_mse(geom, scenario, n_snapshots)
        return np.sqrt(mse[0, 0]) + np.sqrt(mse[1, 1]) - delta

    deltas = np.geomspace(lo, hi, 80)
    values = np.array([excess(d) for d in deltas])
    sign_change = np.nonzero((values[:-1] > 0) & (values[1:] <= 0))[0]
    if sign_change.size == 0:
        raise NumericalFailure('no resolution crossing inside the scan range')
    a, b = deltas[sign_change[0]], deltas[sign_change[0] + 1]
    for _ in range(60):
        mid = 0.5 * (a + b)
        if excess(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
