"""Coarray-domain MUSIC estimators.

The virtual observation z (length 2 * mv - 1) is rearranged into an
mv x mv augmented covariance in one of two ways: direct rearrangement
into a Toeplitz-like matrix, or spatial smoothing over the mv coarray
subarrays. On a conjugate-symmetric z, as every Hermitian covariance
gives, the smoothed matrix is Rv2 = Rv1^2 / mv, so the two share their
eigenvectors and MUSIC applied to either yields the same asymptotic
behavior. :func:`run_music` therefore decomposes the direct
augmentation only: DA takes the eigenvectors with the smallest
eigenvalues, SS those with the smallest |eigenvalue|.

On the virtual uniform array the MUSIC null spectrum
a(phi)^H E_n E_n^H a(phi) is a real trigonometric polynomial of
degree mv - 1 in the phase phi,

    d(phi) = c_0 + 2 Re sum_{l=1}^{mv-1} c_l exp(j l phi),

where c_l sums the l-th superdiagonal of P = E_n E_n^H (the
observation behind root-MUSIC). :func:`estimate_doas` forms the mv
coefficients once per call and works in phi throughout: one real FFT
of the coefficients evaluates d on a uniform circular phase grid, and
Newton steps on the analytic derivatives refine all kept minima at
once. Only the final angles are mapped back through
theta = arcsin(phi / (2 pi d0 / wavelength)).

What a call needs besides its data is memoized on scalars: the scan
plan (phase count and grid indices) per (mv, grid step, d0,
wavelength), and per mv the Toeplitz index of :func:`augment_direct`
and the Newton steps' lags, as the vector j l of their exponents and
the (mv, 2) stack of l and l^2 that weighs the coefficients. Each memo
returns read-only arrays.

The subarray, Gamma-matrix and steering-vector routes that the tests
check this module against live in :mod:`coarray_lab.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    'DoaEstimate', 'augment_direct', 'augment_spatial_smoothing',
    'noise_subspace', 'estimate_doas', 'run_music', 'default_grid',
    'scan_size', 'MAX_SCAN_SIZE',
]

# Newton steps that refine each grid minimum of the null spectrum.
_NEWTON_STEPS = 3

# The most phases one scan of the null spectrum takes: at d0 =
# wavelength / 2 a broadside grid step down to about 1.1e-4 deg.
MAX_SCAN_SIZE = 1 << 20

# The last run_music input, keyed by (z, mv, k, estimator keywords):
# its eigensystem and the estimate for each noise column set scanned so
# far. One entry, so the DA and SS calls of a trial share one eigh.
_TRIAL_CACHE = {}


@dataclass(frozen=True)
class DoaEstimate:
    """MUSIC estimation outcome.

    Attributes:
        angles: Estimated DOAs in radians, ascending. Holds fewer than
            the requested number of entries when ``resolved`` is False.
        resolved: True when the spectrum produced the requested number
            of peaks and no end of the scanned arc hides a deeper one
            (see :func:`estimate_doas`).
        refined: Per-angle flag, True where the Newton refinement
            converged inside its phase cell (False entries fall back to
            the grid point).
    """

    angles: np.ndarray
    resolved: bool
    refined: np.ndarray


def augment_direct(z, mv):
    """Direct augmentation, the mv x mv Rv1: column c is subarray mv - c.

    With zero-based columns, ``Rv1[:, c] = z[mv - 1 - c : 2 * mv - 1 - c]``,
    so ``Rv1[a, c] = z[mv - 1 + a - c]`` depends on a - c only. On an
    exact conjugate-symmetric z the result is Hermitian Toeplitz.
    """
    z = np.asarray(z)
    if z.shape[0] != 2 * mv - 1:
        raise ValueError(f'z must have length {2 * mv - 1}, got {z.shape[0]}')
    return z.take(_toeplitz_index(mv))


@lru_cache(maxsize=128)
def _toeplitz_index(mv):
    """Index of z at each entry of Rv1, ``idx[a, c] = mv - 1 + a - c``."""
    idx = np.arange(mv)[:, None] + (mv - 1 - np.arange(mv))[None, :]
    idx.setflags(write=False)
    return idx


def augment_spatial_smoothing(z, mv):
    """Spatially smoothed mv x mv augmentation Rv2 = sum_i z_i z_i^H / mv.

    Always positive semidefinite. On an exact model z it equals
    Rv1 @ Rv1 / mv, so it shares eigenvectors with the direct
    augmentation.
    """
    z = np.asarray(z)
    if z.shape[0] != 2 * mv - 1:
        raise ValueError(f'z must have length {2 * mv - 1}, got {z.shape[0]}')
    cols = z[np.arange(mv)[:, None] + np.arange(mv)[None, :]]
    rv = cols @ cols.conj().T / mv
    return 0.5 * (rv + rv.conj().T)


def noise_subspace(rv, k, return_eigensystem=False):
    """Orthonormal noise-subspace basis of an augmented covariance.

    Eigenvalues are sorted ascending by algebraic value and the first
    mv - k eigenvectors form the basis; this matches the smallest-
    eigenvalue convention and needs no detection logic. Sample direct
    augmentations may be indefinite, which is fine here.

    Args:
        rv: Hermitian mv x mv matrix.
        k: Number of sources, 1 <= k < mv.
        return_eigensystem: Also return the eigensystem the basis was
            taken from.

    Returns:
        Complex mv x (mv - k) matrix with orthonormal columns; with
        ``return_eigensystem`` the tuple ``(basis, values, vectors)``,
        eigenvalues ascending and eigenvectors as columns.
    """
    rv = np.asarray(rv)
    mv = rv.shape[0]
    if not 1 <= k < mv:
        raise ValueError(f'need 1 <= k < mv = {mv}, got k = {k}')
    values, vectors = np.linalg.eigh(rv)
    basis = vectors[:, :mv - k]
    return (basis, values, vectors) if return_eigensystem else basis


def _noise_columns(values, k, method):
    """Ascending indices of a method's mv - k noise eigenvectors of Rv1.

    ``values`` are the eigenvalues of the direct augmentation Rv1,
    ascending. DA keeps the first mv - k. SS keeps the mv - k smallest
    in absolute value: Rv2 = Rv1^2 / mv has eigenvalues lambda^2 / mv
    on the same eigenvectors.
    """
    n = values.shape[0] - k
    if method == 'da':
        return tuple(range(n))
    cols = np.abs(values).argsort(kind='stable')[:n]
    cols.sort()
    return tuple(cols.tolist())


def _null_polynomial(en):
    """Coefficients c_0 .. c_{mv-1} of the null spectrum.

    c_l is the sum of the l-th superdiagonal of P = E_n E_n^H. P is
    written into the left half of an mv x 2 mv buffer and the right
    half is zeroed; reading the same memory with rows one entry longer
    shifts row m left by m, so P[m, m + l] lands in column l. That read
    never reaches the mv entries past the buffer's rows, which stay
    unset.
    """
    mv = en.shape[0]
    buf = np.empty(mv * (2 * mv + 1), dtype=complex)
    rows = buf[:2 * mv * mv].reshape(mv, 2 * mv)
    rows[:, mv:] = 0.0
    np.matmul(en, en.conj().T, out=rows[:, :mv])
    return buf.reshape(mv, 2 * mv + 1)[:, :mv].sum(axis=0)


def _null_scan(coef, n):
    """Null spectrum d(2 pi i / n), i = 0 .. n - 1, by one real FFT.

    The inverse transform is taken unscaled (``norm='forward'``). That
    is n times the default 1 / n scaled one to the bit, since n is a
    power of two (:func:`scan_size`) and so the scale is exact.
    """
    return np.fft.irfft(coef, n, norm='forward')


def _newton_minima(coef, phi, step):
    """Newton steps on d'(phi) = 0 from every grid minimum at once.

    With S_p = sum_l l^p c_l exp(j l phi), d' = -2 Im S_1 and
    d'' = -2 Re S_2, so each step moves phi by -Im S_1 / Re S_2.
    Returns (phases, refined): a phase that is not finite or ends more
    than ``step`` from its start falls back to the start, unrefined.
    """
    ilags, powers = _lag_powers(coef.shape[0])
    weights = powers * coef[:, None]
    x = phi
    for _ in range(_NEWTON_STEPS):
        s = np.exp(x[:, None] * ilags) @ weights
        x = x - s[:, 0].imag / s[:, 1].real
    refined = np.abs(x - phi) <= step
    return np.where(refined, x, phi), refined


@lru_cache(maxsize=128)
def _lag_powers(mv):
    """The lags l = 0 .. mv - 1 of the null polynomial times 1j, and the
    (mv, 2) stack of each l and l^2."""
    lags = np.arange(mv)
    ilags = 1j * lags
    powers = np.stack([lags, lags * lags], axis=1)
    ilags.setflags(write=False)
    powers.setflags(write=False)
    return ilags, powers


def _find_peaks(d):
    """Indices of interior local minima of the null power d."""
    inner = d[1:-1]
    minima = inner < d[:-2]
    minima &= inner <= d[2:]
    return minima.nonzero()[0] + 1


def default_grid(grid_step=np.deg2rad(0.1)):
    """An angle grid over (-pi/2, pi/2) at the given step, for plots."""
    if not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f'grid step must be finite and positive, got '
                         f'{grid_step}')
    return np.arange(-np.pi / 2 + grid_step, np.pi / 2, grid_step)


def scan_size(mv, grid_step, d0=0.5, wavelength=1.0):
    """The number n of phases :func:`estimate_doas` scans.

    n is the smallest power of two, and >= 2 mv, whose step 2 pi / n is
    no coarser than ``grid_step`` at broadside.

    Raises:
        ValueError: If the grid step or d0 / wavelength is not finite
            and positive, or n would pass :data:`MAX_SCAN_SIZE`.
    """
    if not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f'grid step must be finite and positive, got '
                         f'{grid_step}')
    ratio = d0 / wavelength if wavelength else np.nan
    if not (np.isfinite(ratio) and ratio > 0):
        raise ValueError(f'spacing d0 / wavelength must be finite and '
                         f'positive, got {d0} / {wavelength}')
    # in products, so that a step too fine to invert fails here too
    if not (ratio * grid_step * MAX_SCAN_SIZE >= 1.0
            and 2 * mv <= MAX_SCAN_SIZE):
        raise ValueError(f'a grid step of {grid_step} rad at mv = {mv} '
                         f'needs more than {MAX_SCAN_SIZE} scan phases')
    return 1 << int(np.ceil(np.log2(max(1.0 / (ratio * grid_step),
                                        2.0 * mv))))


@lru_cache(maxsize=32)
def _scan_plan(mv, grid_step, d0, wavelength):
    """What :func:`estimate_doas` scans, by float grid step, d0 and wavelength.

    Returns ``(n, half, gather, arc)``: the scan covers the grid indices
    ``i = -half, -half + 1, ...`` of the phases 2 pi i / n, ascending,
    and ``gather`` holds each i modulo n. That is the arc between its two
    ends (``arc`` True), or the whole circle with one point repeated
    past each end, so that every point on it has both neighbours.
    """
    n = scan_size(mv, grid_step, d0, wavelength)
    ratio = d0 / wavelength
    arc = ratio < 0.5
    half = min(int(ratio * n), n // 2)
    gather = np.arange(-half, half + 1 + (not arc)) % n
    gather.setflags(write=False)
    return n, half, gather, arc


def estimate_doas(en, k, grid_step=np.deg2rad(0.1), d0=0.5, wavelength=1.0):
    """MUSIC on a noise-subspace basis: a phase-grid scan, then Newton.

    One real FFT evaluates the null spectrum d on n phases 2 pi i / n,
    n the smallest power of two (and >= 2 mv) whose step is no coarser
    than ``grid_step`` at broadside (:func:`scan_size`, at most
    :data:`MAX_SCAN_SIZE`). The k deepest local minima are kept
    (ties toward the smaller angle) and refined together by Newton steps
    on d' = 0; one that leaves its grid cell keeps its grid phase. Each
    angle is arcsin(phi / (2 pi d0 / wavelength)), phi wrapped into
    (-pi, pi]. At d0 = wavelength / 2 the whole circle is scanned: an
    endfire source is found, on either side of +-90 deg, which share
    phi = +-pi. For smaller d0 only the arc |phi| <= 2 pi d0 / wavelength
    is scanned, and the estimate is unresolved when d falls at an end of
    the arc to below the weakest kept peak: a spurious peak then stands
    in for an endfire source. With fewer than k minima it is unresolved
    and holds the peaks that were found.

    The basis is scanned as given, never decomposed: from an augmented
    covariance ``rv`` pass ``noise_subspace(rv, k)``. The scan plan (n
    and the scanned grid indices) is memoized per (mv, grid step, d0,
    wavelength), keyed on their float values, so a float, an
    ``np.float64`` and a 0-d array step share one plan.

    Args:
        en: mv x (mv - k) noise-subspace basis with orthonormal columns.
        k: Number of sources to estimate, 1 <= k < mv.
        grid_step: Broadside-equivalent grid spacing in radians.
        d0: Virtual-ULA spacing.
        wavelength: Carrier wavelength.

    Returns:
        A :class:`DoaEstimate` with ascending angles.
    """
    en = np.asarray(en)
    mv = en.shape[0]
    if not 1 <= k < mv or en.shape != (mv, mv - k):
        raise ValueError(f'need an mv x (mv - k) basis with 1 <= k < mv, '
                         f'got shape {en.shape} and k = {k}')
    try:
        n, half, gather, arc = _scan_plan(mv, float(grid_step),
                                          float(d0), float(wavelength))
    except (TypeError, ValueError):
        # the message names the values as the caller gave them
        scan_size(mv, grid_step, d0, wavelength)
        raise
    coef = _null_polynomial(en)
    d = _null_scan(coef, n).take(gather)
    peaks = _find_peaks(d)
    # scan indices ascend, so a stable sort breaks ties toward the
    # smaller angle
    kept = peaks[d[peaks].argsort(kind='stable')[:k]]
    resolved = kept.shape[0] == k
    if resolved and arc:
        worst = d[kept].max()
        resolved = not (d[0] < d[1] and d[0] < worst
                        or d[-1] < d[-2] and d[-1] < worst)

    step = 2.0 * np.pi / n
    phi, refined = _newton_minima(coef, (kept - half) * step, step)
    wrapped = np.pi - (np.pi - phi) % (2.0 * np.pi)
    sines = wrapped / (2.0 * np.pi * (d0 / wavelength))
    if arc:
        # np.clip(sines, -1, 1) without its dispatch; NaN stays NaN. On
        # the whole circle |wrapped| <= pi <= 2 pi d0 / wavelength, so
        # the sines are within [-1, 1] already
        np.minimum(np.maximum(sines, -1.0, out=sines), 1.0, out=sines)
    angles = np.arcsin(sines)
    order = angles.argsort()
    return DoaEstimate(angles=angles[order], resolved=resolved,
                       refined=refined[order])


def run_music(z, mv, k, method='ss', *, grid_step=np.deg2rad(0.1), d0=0.5,
              wavelength=1.0):
    """Coarray MUSIC on a virtual observation.

    Both methods read their noise subspace off one eigendecomposition,
    that of the direct augmentation Rv1 (:func:`augment_direct`). DA
    takes the mv - k eigenvectors with the smallest eigenvalues, SS the
    mv - k with the smallest |eigenvalue|: since the spatially smoothed
    Rv2 equals Rv1^2 / mv, those span the noise subspace of Rv2, which
    is never formed. The eigensystem of the last input (z, mv, k and
    the keyword values) is kept with the estimate of each noise column
    set, so the second method on the same input makes no second
    decomposition, and no second scan when both methods pick the same
    columns (the usual case). Results may thus be shared between calls;
    their arrays are read-only.

    Args:
        z: Virtual observation of length 2 * mv - 1.
        mv: Virtual-ULA size.
        k: Number of sources.
        method: ``'ss'`` for spatial smoothing, ``'da'`` for direct
            augmentation.
        grid_step, d0, wavelength: As for :func:`estimate_doas`.

    Returns:
        A :class:`DoaEstimate`.
    """
    if method not in ('ss', 'da'):
        raise ValueError(f"method must be 'ss' or 'da', got {method!r}")
    z = np.asarray(z)
    options = (float(grid_step), float(d0), float(wavelength))
    key = (z.dtype.str, z.shape, z.tobytes(), mv, k, options)
    trial = _TRIAL_CACHE.get(key)
    if trial is None:
        _TRIAL_CACHE.clear()
        _, values, vectors = noise_subspace(augment_direct(z, mv), k,
                                            return_eigensystem=True)
        trial = _TRIAL_CACHE[key] = (values, vectors, {})
    values, vectors, estimates = trial
    cols = _noise_columns(values, k, method)
    est = estimates.get(cols)
    if est is None:
        est = estimate_doas(vectors.take(cols, axis=1), k, *options)
        est.angles.setflags(write=False)
        est.refined.setflags(write=False)
        estimates[cols] = est
    return est
