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
coefficients once per call and evaluates d in that form, both for the
grid scan (one product with a cached table of exp(j l phi)) and for
the sub-grid refinement, which runs on all kept peaks at once.

The subarray, Gamma-matrix and steering-vector routes that the tests
check this module against live in :mod:`coarray_lab.reference`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    'DoaEstimate', 'augment_direct', 'augment_spatial_smoothing',
    'noise_subspace', 'estimate_doas', 'run_music', 'default_grid',
]

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

# Golden-section steps of the sub-grid refinement of each peak.
_REFINE_ITERS = 5

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
            of peaks and neither grid edge hides a deeper one (see
            :func:`estimate_doas`).
        refined: Per-angle flag, True where sub-grid refinement
            succeeded (False entries fall back to the best grid or
            search point).
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
    idx = np.arange(mv)[:, None] + (mv - 1 - np.arange(mv))[None, :]
    return z[idx]


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
    return tuple(np.sort(np.argsort(np.abs(values), kind='stable')[:n])
                 .tolist())


def _phase_table(mv, phi):
    """exp(j * l * phi) for l = 1 .. mv - 1, one column per phase."""
    return np.exp(np.arange(1, mv)[:, None] * (1j * phi))


@functools.lru_cache(maxsize=None)
def _grid_table(mv, step, ratio):
    """Read-only grid angles and phase table; step and ratio are floats."""
    grid = default_grid(step)
    table = _phase_table(mv, 2.0 * np.pi * ratio * np.sin(grid))
    grid.setflags(write=False)
    table.setflags(write=False)
    return grid, table


def _null_polynomial(en):
    """Coefficients (c_0, 2 c_1 .. 2 c_{mv-1}) of the null spectrum.

    c_l is the sum of the l-th superdiagonal of P = E_n E_n^H. P is
    written into the left half of an mv x 2 mv buffer; reading the
    same memory with rows one entry longer shifts row m left by m, so
    P[m, m + l] lands in column l.
    """
    mv = en.shape[0]
    buf = np.zeros(mv * (2 * mv + 1), dtype=complex)
    buf[:2 * mv * mv].reshape(mv, 2 * mv)[:, :mv] = en @ en.conj().T
    coef = buf.reshape(mv, 2 * mv + 1)[:, :mv].sum(axis=0)
    return coef[0].real, 2.0 * coef[1:]


def _null_eval(c0, w, table):
    """Null spectrum d = c_0 + Re(w @ table) at the phases of a phase table."""
    return c0 + (w @ table).real


def _parabola_vertex(x_mid, h, y0, y1, y2):
    """Vertices of the parabolas through three equally spaced points.

    The points are (x_mid - h, y0), (x_mid, y1) and (x_mid + h, y2),
    elementwise over arrays. Returns (vertex, valid) where ``valid``
    marks an upward parabola whose vertex lies within h of x_mid.
    """
    den = y0 - 2.0 * y1 + y2
    up = den > 0
    vertex = x_mid - 0.5 * h * (y2 - y0) / np.where(up, den, 1.0)
    return vertex, up & (np.abs(vertex - x_mid) <= h)


def _refine_peaks(dfun, theta, step, d_left, d_mid, d_right):
    """Sub-grid refinement of every kept peak inside its grid cell.

    Quadratic interpolation on the grid triple seeds a candidate, then a
    golden-section search of :data:`_REFINE_ITERS` steps over the cell
    with a final parabolic fit polishes it; the candidate with the
    smallest (null power, angle) wins. All peaks advance together, so
    each step makes one call of ``dfun`` on an array of angles. Returns
    (angles, refined_flags).
    """
    vertex, vertex_ok = _parabola_vertex(theta, step, d_left, d_mid, d_right)
    a, b = theta - step, theta + step
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    f_vertex, fc, fd = dfun(np.concatenate((vertex, c, d))).reshape(3, -1)
    for _ in range(_REFINE_ITERS):
        # keep the interior point with the smaller null power, shrink
        # the bracket around it and probe the mirrored golden point
        left = fc <= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        t = _INV_PHI * (b - a)
        new = np.where(left, b - t, a + t)
        f_new = dfun(new)
        c, d = np.where(left, new, keep), np.where(left, keep, new)
        fc, fd = np.where(left, f_new, f_keep), np.where(left, f_keep, f_new)
    mid, h = 0.5 * (a + b), 0.5 * (b - a)
    y0, y1, y2 = dfun(np.concatenate((mid - h, mid, mid + h))).reshape(3, -1)
    polish, polish_ok = _parabola_vertex(mid, h, y0, y1, y2)
    values = np.array((d_mid, np.where(vertex_ok, f_vertex, np.inf), fc, fd,
                       np.where(h > 0, y1, np.inf),
                       np.where(polish_ok, dfun(polish), np.inf)))
    angles = np.array((theta, vertex, c, d, mid, polish))
    best = np.lexsort((angles, values), axis=0)[0]
    best_theta = angles[best, np.arange(theta.shape[0])]
    return best_theta, best_theta != theta


def _find_peaks(d):
    """Indices of interior local minima of the null power d."""
    left = d[1:-1] < d[:-2]
    right = d[1:-1] <= d[2:]
    return np.nonzero(left & right)[0] + 1


def default_grid(grid_step=np.deg2rad(0.1)):
    """The default search grid over (-pi/2, pi/2) at the given step."""
    if not (np.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f'grid step must be finite and positive, got '
                         f'{grid_step}')
    return np.arange(-np.pi / 2 + grid_step, np.pi / 2, grid_step)


def estimate_doas(en, k, grid_step=np.deg2rad(0.1), d0=0.5, wavelength=1.0):
    """Grid MUSIC with sub-grid refinement on a noise-subspace basis.

    Peaks are interior local maxima of the pseudo-spectrum; the k
    largest are kept (ties broken toward the larger spectrum value,
    then the smaller angle) and each is refined within its grid cell.
    When fewer than k local maxima exist the estimate is returned with
    ``resolved=False`` and the peaks that were found. It is also
    unresolved when the null spectrum still falls at a grid edge (the
    edge value lies below its neighbour) and lies there below the
    weakest kept peak: a source at endfire, beyond the grid, then has
    its place taken by a spurious peak.

    The basis is scanned as given, never decomposed: from an augmented
    covariance ``rv`` pass ``noise_subspace(rv, k)``. The scanned
    pseudo-spectrum is ``reference.music_spectrum(en, default_grid())``.

    Args:
        en: mv x (mv - k) noise-subspace basis with orthonormal columns.
        k: Number of sources to estimate, 1 <= k < mv.
        grid_step: Grid spacing in radians.
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
    c0, w = _null_polynomial(en)
    ratio = d0 / wavelength
    rate = 2.0 * np.pi * ratio
    grid, table = _grid_table(mv, float(grid_step), float(ratio))
    d = _null_eval(c0, w, table)
    peaks = _find_peaks(d)
    order = np.lexsort((grid[peaks], d[peaks]))
    kept = peaks[order[:k]]
    edges = d[[0, -1]][d[[0, -1]] < d[[1, -2]]]
    resolved = kept.shape[0] == k and not np.any(edges < d[kept].max())

    dfun = lambda theta: _null_eval(
        c0, w, _phase_table(mv, rate * np.sin(theta)))
    angles, refined = _refine_peaks(
        dfun, grid[kept], grid_step, d[kept - 1], d[kept], d[kept + 1])
    order = np.argsort(angles)
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
        est = estimate_doas(vectors[:, list(cols)], k, *options)
        est.angles.setflags(write=False)
        est.refined.setflags(write=False)
        estimates[cols] = est
    return est
