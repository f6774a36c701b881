"""Reference routes that the tests hold the production pipeline to.

Each computes the long way what :mod:`estimator` or :mod:`analysis`
computes in a compact form: the coarray subarrays and the dense
stacking matrix Gamma behind the augmentations, the MUSIC spectrum
from explicit steering vectors, and the asymptotic MSE assembled from
the exact second moments of the covariance perturbation, the
high-SNR limit as a projection onto the signal Kronecker basis, and the
CRB from the Jacobian whitened by the eigendecomposition of R, and
the resolution threshold scanned one separation at a time. No
``coarray-lab`` command calls them.
"""

from __future__ import annotations

import numpy as np

from .analysis import (_RANK_RCOND, CrbReport, NumericalFailure,
                       _false_position, _jacobian_columns, _rms_sum,
                       _threshold_scan, analytical_mse, error_terms)
from .model import (SourceScenario, _response, steering_matrix,
                    true_covariance)

__all__ = [
    'subarray_select', 'gamma_stack', 'music_spectrum',
    'structured_cross_matrix', 'delta_r_moment_oracle',
    'analytical_mse_via_moments', 'limiting_mse_via_projection',
    'crb_via_whitening', 'resolution_threshold',
]


def subarray_select(z, i, mv):
    """The i-th coarray subarray z_i (1-based i as is conventional).

    Subarray i selects entries i .. i + mv - 1 of z when entries are
    numbered from 1, i.e. lags i - mv .. i - 1.
    """
    z = np.asarray(z)
    if z.shape[0] != 2 * mv - 1:
        raise ValueError(f'z must have length {2 * mv - 1}, got {z.shape[0]}')
    if not 1 <= i <= mv:
        raise ValueError(f'subarray index must be in 1..{mv}, got {i}')
    return z[i - 1:i - 1 + mv]


def gamma_stack(mv):
    """Dense stacking matrix Gamma with vec(Rv1) = Gamma @ z.

    Block b (zero-based, b = 0 .. mv - 1) of the result selects
    subarray mv - b, so columns of the direct augmentation appear in
    the vec order of :func:`estimator.augment_direct`.
    """
    gamma = np.zeros((mv * mv, 2 * mv - 1))
    for b in range(mv):
        for j in range(mv):
            gamma[b * mv + j, mv - 1 - b + j] = 1.0
    gamma.setflags(write=False)
    return gamma


def music_spectrum(en, grid):
    """MUSIC pseudo-spectrum 1 / (a^H E_n E_n^H a) over a grid.

    Args:
        en: Noise-subspace basis, mv x (mv - k).
        grid: Angles in radians.

    Returns:
        Strictly positive spectrum values, one per grid angle.
    """
    en = np.asarray(en)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    a = _response(np.arange(en.shape[0]), grid)
    d = np.sum(np.abs(en.conj().T @ a) ** 2, axis=0)
    return 1.0 / np.maximum(d, np.finfo(float).tiny)


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
    r_mat = true_covariance(geom, scenario)
    m_rr, m_ii, m_ri = delta_r_moment_oracle(r_mat, n_snapshots)
    xi_re = terms.xi.real
    xi_im = terms.xi.imag
    cross = xi_re @ m_ri @ xi_im.T
    raw = xi_re @ m_rr @ xi_re.T + xi_im @ m_ii @ xi_im.T - cross - cross.T
    scale = np.asarray(scenario.powers) * terms.gamma
    mse = raw / np.outer(scale, scale)
    return 0.5 * (mse + mse.T)


def limiting_mse_via_projection(geom, scenario):
    """High-SNR limit of the N-scaled MSE from the Kronecker projection.

    For equal source powers the limit of source k is

        || xi_k^H (A ox A*) ||^2 / gamma_k^2,

    the squared projection of the error functional onto the signal
    Kronecker basis, formed here as the dense M^2 x K^2 product.
    """
    terms = error_terms(geom, scenario)
    a, _ = steering_matrix(geom, scenario)
    proj = terms.xi.conj() @ np.kron(a, a.conj())
    return np.sum(np.abs(proj) ** 2, axis=1) / terms.gamma ** 2


def crb_via_whitening(geom, scenario, n_snapshots):
    """The CRB report from the Jacobian whitened by R^(-1/2) itself.

    W = R^(-1/2) comes from the eigendecomposition of the model
    covariance R, and the whitened columns vec(W C W) are the Jacobian
    columns of the whitened steering (W A, W A_dot), with W W for the
    noise. One complex thin SVD of that M^2 x (2K + 1) matrix gives the
    rank, the FIM and the DOA block of its inverse, with the rank and
    Gram-condition rules of :func:`analysis.crb`, but without its
    column scaling.
    """
    a, a_dot = steering_matrix(geom, scenario)
    lam, u = np.linalg.eigh(true_covariance(geom, scenario))
    r_isqrt = (u * (1.0 / np.sqrt(lam))) @ u.conj().T
    jac = _jacobian_columns(r_isqrt @ a, r_isqrt @ a_dot, scenario.powers,
                            r_isqrt @ r_isqrt)
    k = scenario.n_sources
    required = 2 * k + 1
    _, sv, vh = np.linalg.svd(jac, full_matrices=False)
    fim = n_snapshots * np.real((vh.conj().T * sv ** 2) @ vh)
    fim = 0.5 * (fim + fim.T)
    rank = int(np.sum(sv > _RANK_RCOND * sv[0]))
    if rank < required:
        return CrbReport(fim=fim, crb=None, jacobian_rank=rank,
                         required_rank=required, gram_condition=float('nan'))
    v_theta = vh[:, :k].conj().T
    gram_inv = np.real((v_theta / sv ** 2) @ v_theta.conj().T)
    gram_inv = 0.5 * (gram_inv + gram_inv.T)
    ev = np.linalg.eigvalsh(gram_inv)
    cond = float(ev[-1] / ev[0]) if ev[0] > 0 else float('inf')
    defined = np.isfinite(cond) and cond <= 1.0 / _RANK_RCOND ** 2
    return CrbReport(fim=fim, crb=gram_inv / n_snapshots if defined else None,
                     jacobian_rank=rank, required_rank=required,
                     gram_condition=cond)


def resolution_threshold(geom, n_snapshots, center=np.deg2rad(30.0),
                         power=1.0, noise_power=1.0):
    """The resolution threshold read one MSE evaluation at a time.

    :func:`analysis.resolution_threshold` evaluates the scan as one
    stack and must return this value exactly, and raise where this
    raises.

    Reads the scan of :func:`analysis._threshold_scan` in order, one
    pair of neighbours at a time, up to the first pair where
    :func:`resolution_predict` turns from False to True (an exact tie
    of RMS sum and separation is True), and polishes that bracket by
    the safeguarded false position :func:`_false_position` on the
    signed excess g = RMS sum - delta, one MSE evaluation per step.

    Returns:
        Threshold separation in radians.

    Raises:
        NumericalFailure: If no crossing is found inside the scan, or a
            pair the scan reads has a nonpositive curvature.
    """
    # RMS sum per DOA pair: near the end of the polish center -/+
    # delta / 2 stops changing before delta does, so a pair can come back
    rms, noise = {}, noise_power / power

    def excess(delta):
        doas = (center - delta / 2.0, center + delta / 2.0)
        if doas not in rms:
            rms[doas] = _rms_sum(analytical_mse(
                geom, SourceScenario(doas, (1.0, 1.0), noise), n_snapshots))
        return rms[doas] - delta

    scan = _threshold_scan(geom, center)
    for i in range(scan.size - 1):
        if not excess(scan[i]) <= 0 and excess(scan[i + 1]) <= 0:
            a, b = _false_position(excess, scan[i], scan[i + 1],
                                   excess(scan[i]), excess(scan[i + 1]))
            return 0.5 * (a + b)
    raise NumericalFailure('no resolution crossing inside the scan range')
