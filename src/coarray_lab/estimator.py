"""Coarray-domain MUSIC estimators.

The virtual observation z (length 2 * mv - 1) is rearranged into an
mv x mv augmented covariance in one of two ways: direct rearrangement
into a Toeplitz-like matrix, or spatial smoothing over the mv coarray
subarrays. On a conjugate-symmetric z, as every Hermitian covariance
gives, the smoothed matrix is Rv2 = Rv1^2 / mv, so the two share their
eigenvectors and MUSIC applied to either yields the same asymptotic
behavior. :func:`run_music` therefore decomposes the direct
augmentation only: DA takes the eigenvectors with the smallest
eigenvalues, SS those with the smallest |eigenvalue|, of Rv1 in the real
form that unitary MUSIC uses (Lee 1980; Huarng and Yeh 1991).

On the virtual uniform array the MUSIC null spectrum
a(phi)^H E_n E_n^H a(phi) is a real trigonometric polynomial of
degree mv - 1 in the phase phi,

    d(phi) = c_0 + 2 Re sum_{l=1}^{mv-1} c_l exp(j l phi),

where c_l sums the l-th superdiagonal of P = E_n E_n^H (the
observation behind root-MUSIC). :func:`estimate_doas` forms the mv
coefficients once per call and works in phi throughout: one real FFT
of the coefficients evaluates d on a uniform circular phase grid, and
Newton steps on the analytic derivatives refine all kept minima at
once. The virtual array has half-wavelength spacing, so phi = pi sin
theta, and only the final angles are mapped back through
theta = arcsin(phi / pi).

What a call needs besides its data is memoized on scalars: the scan
plan (phase count and grid indices) per (mv, grid step), and per mv
the gather of Rv1's real form and the Newton steps' lags, as the vector
j l of their exponents and the (mv, 2) stack of l and l^2 that weighs
the coefficients. Each memo returns read-only
arrays.

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

# The most phases one scan of the null spectrum takes: a broadside grid
# step down to about 1.1e-4 deg.
MAX_SCAN_SIZE = 1 << 20

# The last run_music input, keyed by (z, mv, k, grid step):
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
            of peaks.
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
    return z[mv - 1 + np.arange(mv)[:, None] - np.arange(mv)]


def _real_augmentation(z, mv):
    """T = Q^H Rv1 Q (:func:`_unitary_gather`) from the lags >= 0 of z."""
    if z.shape[0] != 2 * mv - 1:
        raise ValueError(f'z must have length {2 * mv - 1}, got {z.shape[0]}')
    lags = z[mv - 1:]
    index, weight = _unitary_gather(mv)
    terms = np.concatenate((lags.real, lags.imag, [0.0])).take(index)
    terms *= weight
    return np.add(terms[0], terms[1], out=terms[0])


@lru_cache(maxsize=128)
def _unitary_gather(mv):
    """Slots and weights, (2, mv, mv), of T = Q^H Rv1 Q as w1 v[i1] + w2 v[i2].

    Q = [[I, 0, jI], [0, sqrt(2), 0], [J, 0, -jJ]] / sqrt(2), J the p x p
    exchange, p = mv // 2, the middle row and column for an odd mv only;
    v = [Re z_0 .. Re z_{mv-1}, Im z_0 .. Im z_{mv-1}, 0]. With t = |a - c|,
    h = mv - 1 - a - c and s = sign(a - c), a, c < p, T's blocks are
    Re z_t + Re z_h, -s Im z_t - Im z_h (top) and s Im z_t - Im z_h,
    Re z_t - Re z_h (bottom); its middle row and column hold
    sqrt(2) Re z_{p-a} at a, Re z_0 at p and -sqrt(2) Im z_{p-a} at p + 1 + a.
    """
    p = mv // 2
    a, c = np.ogrid[:p, :p]
    t, h, s = abs(a - c), mv - 1 - a - c, np.sign(a - c)
    im_t = np.where(s == 0, 2 * mv, mv + t)
    top, bottom = slice(0, p), slice(mv - p, mv)
    index = np.full((2, mv, mv), 2 * mv)
    weight = np.zeros((2, mv, mv))
    for rows, cols, term, slot, w in (
            (top, top, 0, t, 1.0), (top, top, 1, h, 1.0),
            (top, bottom, 0, im_t, -s), (top, bottom, 1, mv + h, -1.0),
            (bottom, top, 0, im_t, s), (bottom, top, 1, mv + h, -1.0),
            (bottom, bottom, 0, t, 1.0), (bottom, bottom, 1, h, -1.0)):
        index[term, rows, cols] = slot
        weight[term, rows, cols] = w
    if mv % 2:
        lag = p - np.arange(p)
        index[0, :, p] = index[0, p] = np.concatenate((lag, [0], mv + lag))
        weight[0, :, p] = weight[0, p] = np.repeat(
            [np.sqrt(2.0), 1.0, -np.sqrt(2.0)], (p, 1, p))
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _unitary_basis(vectors):
    """Q V by slicing: (V1 + j V2) / sqrt(2) over J (V1 - j V2) / sqrt(2),
    V1 and V2 the top and bottom p rows of V, and V's middle row if any."""
    mv, p = vectors.shape[0], vectors.shape[0] // 2
    en = np.empty(vectors.shape, dtype=complex)
    top = en[:p]
    top.real = vectors[:p]
    top.imag = vectors[mv - p:]
    top *= np.sqrt(0.5)
    en[mv - p:] = top[::-1].conj()
    en[p:mv - p] = vectors[p:mv - p]
    return en


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
        rv: Hermitian mv x mv matrix; a real symmetric one, a real basis.
        k: Number of sources, 1 <= k < mv.
        return_eigensystem: Also return the eigensystem the basis was
            taken from.

    Returns:
        mv x (mv - k) matrix with orthonormal columns; with
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

    ``values`` are the eigenvalues of the direct augmentation Rv1, or of
    its real form, ascending. DA keeps the first mv - k. SS keeps the
    mv - k smallest in absolute value: Rv2 = Rv1^2 / mv has eigenvalues
    lambda^2 / mv on the same eigenvectors.
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


def scan_size(mv, grid_step):
    """The number n of phases :func:`estimate_doas` scans.

    n is the smallest power of two, and >= 2 mv, whose step 2 pi / n is
    no coarser than ``grid_step`` at broadside, where the phase moves pi
    times as far as the angle: n >= 2 / grid_step.

    Raises:
        ValueError: If the grid step is not finite and positive, or n
            would pass :data:`MAX_SCAN_SIZE`.
    """
    if not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f'grid step must be finite and positive, got '
                         f'{grid_step}')
    # compared before inverting, so that a step too fine to invert
    # fails here too
    if not (grid_step >= 2.0 / MAX_SCAN_SIZE and 2 * mv <= MAX_SCAN_SIZE):
        raise ValueError(f'a grid step of {grid_step} rad at mv = {mv} '
                         f'needs more than {MAX_SCAN_SIZE} scan phases')
    return 1 << int(np.ceil(np.log2(max(2.0 / grid_step, 2.0 * mv))))


@lru_cache(maxsize=32)
def _scan_plan(mv, grid_step):
    """What :func:`estimate_doas` scans, by mv and float grid step.

    Returns ``(n, gather)``: the scan covers the grid indices
    ``i = -n / 2, ..., n / 2 + 1`` of the phases 2 pi i / n, ascending,
    and ``gather`` holds each i modulo n. That is the whole circle with
    one point repeated past each end, so that every point on it has
    both neighbours.
    """
    n = scan_size(mv, grid_step)
    gather = np.arange(-(n // 2), n // 2 + 2) % n
    gather.setflags(write=False)
    return n, gather


def estimate_doas(en, k, grid_step=np.deg2rad(0.1)):
    """MUSIC on a noise-subspace basis: a phase-grid scan, then Newton.

    One real FFT evaluates the null spectrum d on n phases 2 pi i / n,
    the whole circle, n the smallest power of two (and >= 2 mv) whose
    step is no coarser than ``grid_step`` at broadside
    (:func:`scan_size`, at most :data:`MAX_SCAN_SIZE`). The k deepest
    local minima are kept (ties toward the smaller angle) and refined
    together by Newton steps on d' = 0; one that leaves its grid cell
    keeps its grid phase. Each angle is arcsin(phi / pi), phi wrapped
    into (-pi, pi]. An endfire source is found, on either side of
    +-90 deg, which share phi = +-pi. With fewer than k minima the
    estimate is unresolved and holds the peaks that were found.

    The basis is scanned as given, never decomposed: from an augmented
    covariance ``rv`` pass ``noise_subspace(rv, k)``. The scan plan (n
    and the scanned grid indices) is memoized per (mv, grid step), keyed
    on the step's float value, so a float, an ``np.float64`` and a 0-d
    array step share one plan.

    Args:
        en: mv x (mv - k) noise-subspace basis with orthonormal columns.
        k: Number of sources to estimate, 1 <= k < mv.
        grid_step: Broadside-equivalent grid spacing in radians.

    Returns:
        A :class:`DoaEstimate` with ascending angles.
    """
    en = np.asarray(en)
    mv = en.shape[0]
    if not 1 <= k < mv or en.shape != (mv, mv - k):
        raise ValueError(f'need an mv x (mv - k) basis with 1 <= k < mv, '
                         f'got shape {en.shape} and k = {k}')
    try:
        n, gather = _scan_plan(mv, float(grid_step))
    except (TypeError, ValueError):
        # the message names the step as the caller gave it
        scan_size(mv, grid_step)
        raise
    coef = _null_polynomial(en)
    d = _null_scan(coef, n).take(gather)
    peaks = _find_peaks(d)
    # scan indices ascend, so a stable sort breaks ties toward the
    # smaller angle
    kept = peaks[d[peaks].argsort(kind='stable')[:k]]

    step = 2.0 * np.pi / n
    phi, refined = _newton_minima(coef, (kept - n // 2) * step, step)
    wrapped = np.pi - (np.pi - phi) % (2.0 * np.pi)
    angles = np.arcsin(wrapped / np.pi)
    order = angles.argsort()
    return DoaEstimate(angles=angles[order], resolved=kept.shape[0] == k,
                       refined=refined[order])


def run_music(z, mv, k, method='ss', *, grid_step=np.deg2rad(0.1)):
    """Coarray MUSIC on a virtual observation.

    Both methods read their noise subspace off one eigendecomposition,
    that of the direct augmentation Rv1 (:func:`augment_direct`). Rv1 is
    Hermitian Toeplitz, so centro-Hermitian, and T = Q^H Rv1 Q is real
    symmetric for the sparse unitary Q of Lee (1980), as in unitary MUSIC
    (Huarng and Yeh, 1991); T is decomposed and its eigenvectors V map
    back as Q V. Only the lags >= 0, ``z[mv - 1:]``, are read: the lower
    triangle of Rv1, all that a Hermitian eigensolver reads. DA takes the
    mv - k eigenvectors with the smallest eigenvalues, SS the mv - k
    with the smallest |eigenvalue|: since the spatially smoothed Rv2
    equals Rv1^2 / mv, those span the noise subspace of Rv2, which is
    never formed. The eigensystem of the last input (z, mv, k and the
    grid step) is kept with the estimate of each noise column set,
    so the second method on the same input makes no second
    decomposition, and no second scan when both methods pick the same
    columns (the usual case). Results may thus be shared between calls;
    their arrays are read-only.

    Args:
        z: Virtual observation of length 2 * mv - 1.
        mv: Virtual-ULA size.
        k: Number of sources.
        method: ``'ss'`` for spatial smoothing, ``'da'`` for direct
            augmentation.
        grid_step: As for :func:`estimate_doas`.

    Returns:
        A :class:`DoaEstimate`.
    """
    if method not in ('ss', 'da'):
        raise ValueError(f"method must be 'ss' or 'da', got {method!r}")
    z = np.asarray(z)
    grid_step = float(grid_step)
    key = (z.dtype.str, z.shape, z.tobytes(), mv, k, grid_step)
    trial = _TRIAL_CACHE.get(key)
    if trial is None:
        _TRIAL_CACHE.clear()
        _, values, vectors = noise_subspace(_real_augmentation(z, mv), k,
                                            return_eigensystem=True)
        trial = _TRIAL_CACHE[key] = (values, vectors, {})
    values, vectors, estimates = trial
    cols = _noise_columns(values, k, method)
    est = estimates.get(cols)
    if est is None:
        est = estimate_doas(_unitary_basis(vectors.take(cols, axis=1)), k,
                            grid_step)
        est.angles.setflags(write=False)
        est.refined.setflags(write=False)
        estimates[cols] = est
    return est
