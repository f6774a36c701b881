"""Asymptotic performance analysis for coarray MUSIC.

This module provides the closed-form first-order DOA error statistics
of coarray MUSIC on sparse linear arrays and the stochastic Cramer-Rao
bound for the joint DOA/power/noise parameter vector. The MSE
expressions hold for either augmentation (direct or spatially smoothed)
since both share the same first-order error. The tests check the MSE
against its expansion over the covariance-perturbation moments in
:mod:`coarray_lab.reference`.

The MSE numerator Re[xi_k1^H (R ox R^T) xi_k2] is a quadratic in the
noise power sigma^2: with R = S + sigma^2 I and S = A P A^H,

    R ox R^T = S ox S^T + sigma^2 (S ox I + I ox S^T) + sigma^4 I,

so the numerator is Q0 + sigma^2 Q1 + sigma^4 Q2 with real K x K
coefficients that depend on neither the SNR nor N
(:func:`mse_coefficients`). Each Q is a Gram matrix, so its diagonal
is a sum of non-negative terms and nothing cancels at high SNR. Q0 is
the paper's high-SNR saturation term: it vanishes for a single source
and is strictly positive when the sources outnumber the sensors.

The CRB follows the same split. Only sigma^2 in R = S + sigma^2 I moves
along an SNR sweep, and R shares its eigenvectors U with S, so the
model Jacobian is built once in that eigenbasis
(:func:`crb_coefficients`). There the whitening by (R^T ox R)^(-1/2)
is a scaling of the rows by products of (lam + sigma^2)^(-1/2), and a
fan of noise powers costs one stacked QR, triangle only, of the scaled
Jacobians (:meth:`CrbCoefficients.reports`). The null eigenvalues of S
are exact zeros, so the noise eigenvalues of R keep full precision at
any SNR. Both sets of coefficients evaluate a whole fan of SNR and N
points in one call, each point equal bit for bit to its own call.

The error terms and MSE coefficients of many DOA sets are built as one
stack (:func:`_mse_stack`), each row equal bit for bit to its own
one-row call; :func:`error_terms` and :func:`mse_coefficients` are that
one-row case. The resolution threshold evaluates its whole separation
scan as one stack of source pairs, shared by every SNR and N, and only
its false-position polish goes one separation at a time.

All angles are radians; MSE values are rad^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# selection_matrix is unused here but stays bound: bench/selftest.py
# checks that the tracer wraps it at this lookup site.
from .geometry import _lag_gather, difference_coarray, selection_matrix  # noqa: F401
from .model import (SourceScenario, _response, _steering,
                    steering_matrix, vec)

__all__ = [
    'ErrorTerms', 'MseCoefficients', 'CrbReport', 'CrbCoefficients',
    'NumericalFailure', 'CrbUndefined', 'error_terms', 'mse_coefficients',
    'analytical_mse', 'limiting_mse', 'model_jacobian',
    'crb_coefficients', 'crb', 'efficiency_kappa', 'resolution_predict',
    'resolution_threshold',
]

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
_RANK_RCOND = 1e-10

# The first separations (radians) scanned for the resolution crossing.
_THRESHOLD_SCAN = np.geomspace(np.deg2rad(1e-3), np.deg2rad(6.0), 80)

_NONPOSITIVE_CURVATURE = ('nonpositive curvature: sources too close to '
                          'degenerate for first-order analysis')


class NumericalFailure(RuntimeError):
    """A computation could not be completed reliably."""


class CrbUndefined(NumericalFailure):
    """The CRB does not exist for the requested scenario."""


def _snapshot_counts(n_snapshots):
    """Snapshot counts N as an array, each finite and positive.

    Raises:
        ValueError: If an N is not finite and positive.
    """
    n = np.asarray(n_snapshots)
    if not ((n > 0) & (n < np.inf)).all():
        raise ValueError('snapshot counts must be finite and positive, got '
                         f'{n_snapshots!r}')
    return n


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

    The stacked builder :func:`_mse_stack` returns the same fields with
    a leading axis of S DOA sets.
    """

    mv: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class MseCoefficients:
    """SNR-free coefficients of the closed-form DOA error moments.

    The first-order second moment of the errors of sources k1 and k2 is

        (q0 + s q1 + s^2 q2)[k1, k2] / (N scale[k1, k2])

    at noise power s and N snapshots.

    Attributes:
        q0: K x K Gram form of the signal part alone; its diagonal is
            the high-SNR saturation term.
        q1: K x K Gram form of the signal-noise cross terms.
        q2: K x K Gram form of the error functionals xi.
        scale: K x K outer product of p_k gamma_k with itself.
    """

    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    scale: np.ndarray

    def mse(self, noise_power, n_snapshots):
        """First-order MSE matrices at noise powers and N.

        Scalars give one K x K matrix; arrays of noise powers and N
        broadcast against each other and give a stack of them, each
        equal bit for bit to its scalar call.

        Raises:
            ValueError: If an N is not finite and positive.
        """
        n = _snapshot_counts(n_snapshots)[..., None, None]
        s = np.asarray(noise_power)[..., None, None]
        quad = self.q0 + s * self.q1 + s ** 2 * self.q2
        mse = quad / (n * self.scale)
        return 0.5 * (mse + mse.swapaxes(-1, -2))


@dataclass(frozen=True)
class CrbReport:
    """Cramer-Rao bound evaluation with rank diagnostics.

    Attributes:
        fim: Real symmetric (2K + 1) x (2K + 1) Fisher information
            N Re(J^H (R^T ox R)^(-1) J) of (DOAs, powers, noise power).
        crb: Real symmetric K x K DOA block of the inverse FIM, or
            None when the bound is undefined.
        jacobian_rank: Numerical rank of the whitened model Jacobian
            with its power columns scaled by p_k and its noise column
            by sigma^2, a rank that no joint scaling of the powers and
            the noise moves.
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


@dataclass(frozen=True)
class CrbCoefficients:
    """SNR-free factors of the CRB at one array, DOA set and powers.

    Attributes:
        lam: Length-M eigenvalues of the signal covariance S = A P A^H,
            its M - rank(A) null eigenvalues exactly 0.
        jac: Real M^2 x (2K + 1) model Jacobian in the eigenbasis U of
            S, in Hermitian coordinates: row i holds entry
            ``rows[:, i]`` of U^H C U for each column matrix C, the
            diagonal first, then sqrt(2) Re and sqrt(2) Im of the upper
            triangle.
        rows: 2 x M^2 eigen-index pair (m, n) of each row of ``jac``.
        powers: Length-K source powers.
    """

    lam: np.ndarray
    jac: np.ndarray
    rows: np.ndarray
    powers: np.ndarray

    def report(self, noise_power, n_snapshots):
        """The :class:`CrbReport` at one noise power and N: the one-point
        case of :meth:`reports`.

        Raises:
            ValueError: If N is not finite and positive.
        """
        return self.reports((noise_power,), (n_snapshots,))[0]

    def reports(self, noise_powers, n_snapshots):
        """The :class:`CrbReport` at each noise power and N of a fan.

        Row (m, n) of the Jacobian is scaled by d_m d_n with
        d = (lam + sigma^2)^(-1/2), which whitens it. The power columns
        are scaled by p_k and the noise column by sigma^2, so that every
        column is invariant to a joint scaling of the powers and the
        noise. One real QR X = Q R of the result gives the FIM N R^T R
        (unscaled back to DOAs, powers and noise), the rank from the
        singular values of R, and the DOA block of the inverse FIM,

            CRB = (1 / N) * R^(-1)[:K] R^(-1)[:K]^T,

        which the column scaling leaves unchanged. This block is the
        inverse of the projected Gram matrix M_theta^H P_perp(M_s)
        M_theta of the whitened DOA columns M_theta and power/noise
        columns M_s. No singular vectors are formed.

        The points are evaluated as one stack: one stacked QR of the S
        scaled Jacobians, then the FIMs, ranks, Gram inverses and their
        eigenvalues on the stack. Each step acts on every point on its
        own, so a point's report is that of its own length-1 call bit
        for bit.

        The bound requires full column rank 2K + 1; otherwise the report
        carries ``crb=None`` and the observed rank.

        Args:
            noise_powers: Length-S noise powers.
            n_snapshots: Length-S snapshot counts.

        Returns:
            A list of S reports, in the order of the points.

        Raises:
            ValueError: If an N is not finite and positive.
        """
        n = _snapshot_counts(n_snapshots)[:, None, None]
        k = self.powers.size
        required = 2 * k + 1
        s = np.asarray(noise_powers, dtype=float)
        d = 1.0 / np.sqrt(self.lam + s[:, None])
        col_scale = np.concatenate(
            (np.ones((s.size, k)), np.broadcast_to(self.powers, (s.size, k)),
             s[:, None]), axis=1)
        x = (d[:, self.rows[0]] * d[:, self.rows[1]])[:, :, None] \
            * col_scale[:, None, :]
        x *= self.jac
        r = np.linalg.qr(x, mode='r')
        del x  # the scaled stack is the fan's largest array
        fim = (n * (np.swapaxes(r, 1, 2) @ r)
               / (col_scale[:, :, None] * col_scale[:, None, :]))
        fim = 0.5 * (fim + np.swapaxes(fim, 1, 2))
        sv = np.linalg.svd(r, compute_uv=False)
        rank = np.sum(sv > _RANK_RCOND * sv[:, :1], axis=1)
        full = np.flatnonzero(rank >= required)
        # R is wide only if M^2 < 2K + 1, and then no point is full rank
        r_theta = np.linalg.inv(r[full][..., :r.shape[1]])[:, :k]
        gram_inv = r_theta @ np.swapaxes(r_theta, 1, 2)
        gram_inv = 0.5 * (gram_inv + np.swapaxes(gram_inv, 1, 2))
        crbs, conds = [None] * s.size, [float('nan')] * s.size
        for i, ev, g in zip(full, np.linalg.eigvalsh(gram_inv),
                            gram_inv / n[full]):
            conds[i] = float(ev[-1] / ev[0]) if ev[0] > 0 else float('inf')
            if np.isfinite(conds[i]) and conds[i] <= 1.0 / _RANK_RCOND ** 2:
                crbs[i] = g
        return [CrbReport(fim=f, crb=c, jacobian_rank=int(r),
                          required_rank=required, gram_condition=cond)
                for f, c, r, cond in zip(fim, crbs, rank, conds)]


def _pinv(a):
    """``np.linalg.pinv(a, rcond=_RANK_RCOND)`` of a stack, step for step.

    The same SVD, cutoff and product as numpy's, without its argument
    handling, which costs more than the arithmetic on a small stack.
    """
    u, s, vt = np.linalg.svd(a.conj(), full_matrices=False)
    large = s > _RANK_RCOND * s.max(axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.swapaxes(-1, -2) @ (s[..., None] * u.swapaxes(-1, -2))


def _mse_stack(geom, doas, powers):
    """Error terms and MSE coefficients for a stack of DOA sets.

    The one builder behind :func:`error_terms`, :func:`mse_coefficients`
    and the scans of :func:`resolution_threshold`. Row s of ``doas`` is
    one set of K DOAs, and every array field of the results carries that
    leading axis of S rows. No row raises: a row whose curvature gamma
    is not positive keeps it as it is, and its coefficients mean
    nothing. Each step acts on every row on its own (a stacked ``pinv``
    cuts each matrix at its own rcond, products are per-slice, and each
    row and source takes its own ``np.convolve``), so a row equals its
    own one-row call bit for bit.

    Args:
        geom: Array geometry.
        doas: S x K DOAs in radians, K < mv.
        powers: Length-K source powers, shared by every row.

    Returns:
        Tuple ``(terms, coeffs)``: an :class:`ErrorTerms` and an
        :class:`MseCoefficients` with stacked fields.
    """
    co = difference_coarray(geom)
    mv = co.mv
    doas = np.asarray(doas, dtype=float)
    n_rows, k = doas.shape
    if k >= mv:
        raise ValueError(f'need K < mv = {mv} sources, got K = {k}')
    # virtual-ULA steering matrices and their derivatives, S x mv x K
    av, av_dot = _steering(np.arange(mv), doas)
    av_pinv = _pinv(av)
    alpha = -av_pinv
    beta = av_dot - av @ (av_pinv @ av_dot)
    gamma = (av_dot.conj() * beta).sum(axis=-2).real
    # Gamma^T (beta ox alpha) is the full correlation of alpha_j with
    # beta_j, laid out over lags -(mv-1) .. mv-1; xi_j is F^T of it.
    folded = np.empty((n_rows, k, 2 * mv - 1), dtype=complex)
    for i, (b, al) in enumerate(zip(beta, alpha)):
        for j in range(k):
            folded[i, j] = np.convolve(b[::-1, j], al[j], mode='full')
    # only the lag copy and xi, each S x K x M^2, are live at the gather
    del av, av_dot, av_pinv
    cols, rows, vals = _lag_gather(co)
    gathered = folded.take(rows, axis=-1)
    del folded
    gathered *= vals
    m = geom.n_sensors
    xi = np.zeros((n_rows, k, m * m), dtype=complex)
    xi[..., cols] = gathered
    del gathered
    powers = np.asarray(powers, dtype=float)
    aw = (_response(geom.position_array(), doas) * np.sqrt(powers))[:, None]
    x = xi.reshape(n_rows, k, m, m)
    vt = aw.conj().swapaxes(-1, -2) @ x
    scale = powers * gamma
    terms = ErrorTerms(mv=mv, alpha=alpha, beta=beta.swapaxes(-1, -2),
                       gamma=gamma, xi=xi)
    coeffs = MseCoefficients(
        q0=_gram(vt @ aw), q1=_gram(vt) + _gram(x @ aw), q2=_gram(xi),
        scale=scale[..., :, None] * scale[..., None, :])
    return terms, coeffs


def _one_row(geom, scenario):
    """The one-row :func:`_mse_stack` of a scenario, fields still stacked.

    Raises:
        NumericalFailure: If a curvature gamma_k is not positive.
    """
    terms, coeffs = _mse_stack(geom, [scenario.doas], scenario.powers)
    if (terms.gamma <= 0).any():
        raise NumericalFailure(_NONPOSITIVE_CURVATURE)
    return terms, coeffs


def error_terms(geom, scenario):
    """First-order error functionals for every source in a scenario.

    The terms depend on the array and the DOAs only, not on powers or
    noise. This is the one-row case of the stacked builder that also
    gives :func:`mse_coefficients`.

    Args:
        geom: Array geometry.
        scenario: Source scenario with K < mv sources.

    Returns:
        An :class:`ErrorTerms` instance.
    """
    terms = _one_row(geom, scenario)[0]
    return ErrorTerms(mv=terms.mv, alpha=terms.alpha[0], beta=terms.beta[0],
                      gamma=terms.gamma[0], xi=terms.xi[0])


def _gram(z):
    """Re(conj(z) z^T) per row of an S x K stack, over its trailing axes.

    Read as reals, each source's flattened block interleaves its real
    and imaginary parts, so one real product per row sums Re * Re +
    Im * Im without a copy.
    """
    flat = z.reshape(*z.shape[:2], math.prod(z.shape[2:])).view(float)
    return flat @ flat.swapaxes(-1, -2)


def mse_coefficients(geom, scenario):
    """The SNR-free coefficients of :func:`analytical_mse`.

    With aw = A diag(sqrt(p)) and X_k the M x M matrix of xi_k in row
    order, the numerator Re[xi_k1^H (R ox R^T) xi_k2] splits as

        Q0 = gram(aw^H X aw),
        Q1 = gram(aw^H X) + gram(X aw),
        Q2 = gram(xi),

    times 1, sigma^2 and sigma^4, where gram(z) = Re(conj(z) z^T) over
    each source's flattened block. The coefficients depend on the
    array, the DOAs and the powers, not on the noise power or N, so a
    sweep over SNR and N builds them once. Like :func:`error_terms`,
    this is the one-row case of the stacked builder.

    Args:
        geom: Array geometry.
        scenario: Source scenario (K < mv); its noise power is unused.

    Returns:
        An :class:`MseCoefficients` instance.
    """
    coeffs = _one_row(geom, scenario)[1]
    return MseCoefficients(q0=coeffs.q0[0], q1=coeffs.q1[0], q2=coeffs.q2[0],
                           scale=coeffs.scale[0])


def analytical_mse(geom, scenario, n_snapshots):
    """Closed-form asymptotic second moments of the DOA errors.

    Entry (k1, k2) is the first-order value of
    ``E[(theta_hat_k1 - theta_k1)(theta_hat_k2 - theta_k2)]``:

        Re[xi_k1^H (R ox R^T) xi_k2] / (N p_k1 p_k2 gamma_k1 gamma_k2),

    evaluated on the exact model covariance. The numerator is the
    quadratic Q0 + sigma^2 Q1 + sigma^4 Q2 in the noise power of
    :func:`mse_coefficients`, whose Gram-form coefficients keep full
    precision at any SNR; Q0 is the saturation term that remains as
    sigma^2 -> 0. Scaling all powers and the noise floor jointly leaves
    the result unchanged, so it depends on the sources only through
    their SNRs.

    Args:
        geom: Array geometry.
        scenario: Source scenario (K < mv).
        n_snapshots: Snapshot count N.

    Returns:
        Real symmetric K x K matrix with positive diagonal (rad^2).

    Raises:
        ValueError: If N is not finite and positive, or K >= mv.
        NumericalFailure: If a curvature gamma_k is not positive.
    """
    return mse_coefficients(geom, scenario).mse(scenario.noise_power,
                                                n_snapshots)


def limiting_mse(geom, scenario):
    """High-SNR limit of the per-source MSE, scaled by N.

    For equal source powers the MSE of source k converges, as all SNRs
    grow, to ``limit_k / N`` with

        limit_k = Q0[k, k] / (p_k gamma_k)^2,

    the saturation term of :func:`mse_coefficients` over its scale.
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
    coeffs = mse_coefficients(geom, scenario)
    return np.diag(coeffs.q0) / np.diag(coeffs.scale)


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


def crb_coefficients(geom, scenario):
    """The SNR-free factors of :func:`crb` at one array, DOAs and powers.

    With aw = A diag(sqrt(p)) = U Sigma V^H (one full SVD), the signal
    covariance is S = U diag(lam) U^H with lam = Sigma^2, padded with
    exact zeros to length M, and R = U diag(lam + sigma^2) U^H. The
    whitening (R^T ox R)^(-1/2) acts on the vec of a Hermitian matrix C
    as C -> W C W with W = R^(-1/2), and in the eigenbasis U that is
    the row scaling (U^H C U)[m, n] -> d_m d_n (U^H C U)[m, n] with
    d = (lam + sigma^2)^(-1/2). So the Jacobian columns are built once
    in the eigenbasis, and each noise power only rescales their rows.

    Args:
        geom: Array geometry.
        scenario: Source scenario; its noise power is unused.

    Returns:
        A :class:`CrbCoefficients` instance.
    """
    m = geom.n_sensors
    powers = np.asarray(scenario.powers)
    a, a_dot = steering_matrix(geom, scenario)
    u, sv, _ = np.linalg.svd(a * np.sqrt(powers))
    lam = np.zeros(m)
    lam[:sv.size] = sv ** 2
    uh = u.conj().T
    cols = _jacobian_columns(uh @ a, uh @ a_dot, powers, np.eye(m))
    # real Hermitian coordinates: the diagonal, then sqrt(2) Re and
    # sqrt(2) Im of the upper triangle, so the real Gram matrix is the
    # Frobenius one of the Hermitian column matrices
    iu, ju = np.triu_indices(m, 1)
    diag = np.arange(m)
    upper = cols[iu + ju * m]
    jac = np.concatenate((cols[diag * (m + 1)].real,
                          np.sqrt(2.0) * upper.real,
                          np.sqrt(2.0) * upper.imag))
    rows = np.stack((np.concatenate((diag, iu, iu)),
                     np.concatenate((diag, ju, ju))))
    return CrbCoefficients(lam=lam, jac=jac, rows=rows, powers=powers)


def crb(geom, scenario, n_snapshots):
    """Cramer-Rao bound on the DOAs with nuisance powers and noise.

    The paper's CRB_theta = (1 / N) (M_theta^H P_perp(M_s) M_theta)^(-1),
    with M = (R^T ox R)^(-1/2) dr/d eta, evaluated in the eigenbasis of
    the signal covariance: see :func:`crb_coefficients` and
    :meth:`CrbCoefficients.reports`. A sweep over SNR and N at fixed
    array, DOAs and powers builds the coefficients once and evaluates
    all of its points in one ``reports`` call; this function does both
    for one point.

    The bound requires the whitened Jacobian to have full column rank
    2K + 1; otherwise the report carries ``crb=None`` and the observed
    rank. The bound is invariant to joint scaling of all powers and
    the noise floor.

    Returns:
        A :class:`CrbReport`.

    Raises:
        ValueError: If N is not finite and positive.
    """
    return crb_coefficients(geom, scenario).report(scenario.noise_power,
                                                   n_snapshots)


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
    resolvable when the sum of their RMS errors does not exceed the
    separation. Both sides of the comparison are angles in radians, so
    the verdict does not depend on the angular unit.

    Args:
        mse_matrix: 2 x 2 analytic MSE matrix of the pair.
        delta_theta: Separation in radians.

    Returns:
        True when the pair is predicted resolvable.
    """
    return bool(_rms_sum(mse_matrix) <= delta_theta)


def _rms_sum(mse_matrix):
    """Sum of the two RMS errors of a source pair's MSE matrix."""
    mse_matrix = np.atleast_2d(mse_matrix)
    if mse_matrix.shape != (2, 2):
        raise ValueError('the resolution criterion applies to source pairs')
    return float(np.sqrt(mse_matrix[0, 0]) + np.sqrt(mse_matrix[1, 1]))


def _threshold_scan(geom, center):
    """Separations (radians) scanned for the first resolution crossing.

    :data:`_THRESHOLD_SCAN` continued at its ratio up to four virtual
    beamwidths, 8 / mv. No point, of the base scan or
    its continuation, passes 1.98 (pi/2 - |center|), which keeps both
    sources off endfire.
    """
    edge = 1.98 * (np.pi / 2 - abs(center))
    last = _THRESHOLD_SCAN[-1]
    ratio = _THRESHOLD_SCAN[1] / _THRESHOLD_SCAN[0]
    top = min(8.0 / difference_coarray(geom).mv, edge)
    more = int(np.log(max(top / last, 1.0)) / np.log(ratio))
    return np.concatenate((_THRESHOLD_SCAN[_THRESHOLD_SCAN <= edge],
                           last * ratio ** np.arange(1, more + 1)))


def _false_position(excess, a, b, ga, gb):
    """Shrink a sign change of ``excess`` down to adjacent floats.

    Safeguarded false position (the Illinois method) on a bracket with
    ga = excess(a) > 0 >= excess(b) = gb; a NaN excess counts as > 0,
    as it does in ``excess(x) <= 0``. Each step tries the secant point
    of (a, ga) and (b, gb) and takes the midpoint instead when that
    point is not strictly inside (a, b), which covers a NaN, or when
    the last two steps together did not halve the bracket. An end kept
    twice in a row has its excess halved, so a curved excess does not
    pin one end. The invariant holds at every step.

    Any three steps at least halve the bracket, so this takes at most
    three times as many steps as bisection; on a smooth excess it takes
    a handful before it reaches the excess's rounding noise.

    Returns:
        The final (a, b), adjacent floats.
    """
    kept = None
    width2, width1 = np.inf, np.inf  # widths two steps and one step back
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a, b
        x = b - gb * (b - a) / (gb - ga)
        if b - a > 0.5 * width2:
            x = mid
        elif not a < x < b:
            x = mid
        width2, width1 = width1, b - a
        gx = excess(x)
        if gx <= 0:
            b, gb = x, gx
            if kept == 'a':
                ga *= 0.5
            kept = 'a'
        else:
            a, ga = x, gx
            if kept == 'b':
                gb *= 0.5
            kept = 'b'


@lru_cache(maxsize=128)
def _scan_stack(geom, center, power):
    """The separations of :func:`_threshold_scan`, their S x 2 DOA pairs
    center -/+ delta / 2, the stacked :class:`MseCoefficients` of two
    sources of ``power`` at those pairs, and the rows whose curvature is
    not positive, all read-only. The coefficients depend on neither the
    noise power nor N, so one build serves every SNR and N."""
    scan = _threshold_scan(geom, center)
    pairs = np.stack((center - scan / 2.0, center + scan / 2.0), axis=-1)
    terms, coeffs = _mse_stack(geom, pairs, (power, power))
    failed = np.any(terms.gamma <= 0, axis=1)
    for a in (scan, pairs, failed, coeffs.q0, coeffs.q1, coeffs.q2,
              coeffs.scale):
        a.setflags(write=False)
    return scan, pairs, coeffs, failed


def resolution_threshold(geom, n_snapshots, center=np.deg2rad(30.0),
                         power=1.0, noise_power=1.0):
    """Predicted resolution threshold separation for a source pair.

    Finds the separation at which the summed RMS error of two
    equal-power sources straddling ``center`` equals the separation
    itself; below it the pair is predicted unresolvable. The crossing
    is the first turn of :func:`resolution_predict` from False to True
    (an exact tie of RMS sum and separation is True) between
    neighbouring points of a log-spaced scan from 1e-3 degrees to 6
    degrees or four virtual beamwidths.

    The scan is evaluated as one stack (:func:`_scan_stack`), shared by
    every SNR and N at the same array, centre and power. A pair whose
    first-order analysis fails raises :class:`NumericalFailure` only
    where a read of the scan in order, stopping at the first turn,
    would meet it.

    The verdict is exactly ``g(delta) <= 0`` for the signed excess
    g = RMS sum - delta, since for floats x - y <= 0 iff x <= y. A
    safeguarded false position on g (:func:`_false_position`) polishes
    the turn's bracket down to adjacent floats, one separation per call
    of the builder, where bisection took about 45 evaluations. Near the
    root g is rounding noise and any float where the verdict turns is a
    root; the result can differ from bisection's in its last digits.

    Returns:
        Threshold separation in radians.

    Raises:
        ValueError: If the centre, power or noise power is invalid, as
            in a :class:`SourceScenario`, or N is not finite and
            positive.
        NumericalFailure: If no crossing is found inside the scan, or a
            pair the scan reads has a nonpositive curvature.
    """
    SourceScenario((center,), (power,), noise_power)  # ValueError if bad
    scan, pairs, coeffs, failed = _scan_stack(geom, center, power)
    # a failed row may divide by a zero curvature; it is never read
    with np.errstate(divide='ignore', invalid='ignore'):
        mse = coeffs.mse(noise_power, n_snapshots)
    sums = np.sqrt(mse[:, 0, 0]) + np.sqrt(mse[:, 1, 1])
    ok = sums - scan <= 0
    # neighbours (i, i + 1) where the verdict turns, and where a read in
    # order meets a failed row: at i, or at i + 1 when i is unresolvable
    turns = ~ok[:-1] & ok[1:]
    stops = failed[:-1] | (~ok[:-1] & failed[1:])
    hits = np.flatnonzero(turns | stops)
    if hits.size == 0:
        raise NumericalFailure('no resolution crossing inside the scan range')
    i = hits[0]
    if stops[i]:
        raise NumericalFailure(_NONPOSITIVE_CURVATURE)
    # RMS sum per DOA pair: near the end of the polish center -/+
    # delta / 2 stops changing before delta does, so a pair can come back
    rms = {tuple(pairs[j]): sums[j] for j in (i, i + 1)}

    def excess(delta):
        doas = center - delta / 2.0, center + delta / 2.0
        if doas not in rms:
            rms[doas] = _rms_sum(analytical_mse(
                geom, SourceScenario(doas, (power, power), noise_power),
                n_snapshots))
        return rms[doas] - delta

    a, b = _false_position(excess, scan[i], scan[i + 1],
                           excess(scan[i]), excess(scan[i + 1]))
    return 0.5 * (a + b)
