"""Sparse linear array geometries and their difference coarrays.

Sensor positions live on the integer grid, in units of half a
wavelength, so no coarray aliases. The difference coarray of an array
collects all pairwise position differences; its central contiguous
segment determines the size of the virtual uniform linear array that
coarray-based estimators can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    'ArrayGeometry', 'CoarrayStructure',
    'ula', 'nested', 'coprime', 'mra', 'custom', 'make_array',
    'difference_coarray', 'selection_matrix', 'MAX_SENSORS',
]

# The most sensors an array may have, far above the designs studied
# here: difference_coarray's M x M int64 lag matrix stays within 8 MB.
MAX_SENSORS = 1024

# Minimum-redundancy arrays with hole-free coarrays, from the classic
# published tables (Ishiguro 1980). Keys are sensor counts, values are
# positions in half-wavelengths.
_MRA_TABLE = {
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 4, 7, 9),
    6: (0, 1, 6, 9, 11, 13),
    7: (0, 1, 8, 11, 13, 15, 17),
    8: (0, 1, 4, 10, 16, 18, 21, 23),
    9: (0, 1, 4, 10, 16, 22, 24, 27, 29),
    10: (0, 1, 4, 10, 16, 22, 28, 30, 33, 35),
    11: (0, 1, 6, 14, 22, 30, 32, 34, 37, 39, 41),
    12: (0, 1, 6, 14, 22, 30, 38, 40, 42, 45, 47, 49),
}


@dataclass(frozen=True)
class ArrayGeometry:
    """A sparse linear array on the integer grid.

    Attributes:
        positions: Strictly increasing integer sensor positions, in
            half-wavelengths.
        name: Human-readable label used in reports and CSV output.

    Instances are immutable and hashable, so they are safe to share
    across worker processes and to use as cache keys.
    """

    positions: tuple[int, ...]
    name: str = 'custom'

    def __post_init__(self):
        _check_size(len(self.positions))  # before a ula's range is built
        pos = tuple(int(p) for p in self.positions)
        if len(pos) < 2:
            raise ValueError('an array needs at least two sensors')
        if any(p != q for p, q in zip(pos, self.positions)):
            raise ValueError('sensor positions must be integers '
                             '(half-wavelengths)')
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError('sensor positions must be strictly increasing')
        object.__setattr__(self, 'positions', pos)

    @property
    def n_sensors(self):
        return len(self.positions)

    @property
    def aperture(self):
        return self.positions[-1] - self.positions[0]

    def position_array(self):
        """Positions as a float vector in half-wavelengths."""
        return np.asarray(self.positions, dtype=float)


@dataclass(frozen=True)
class CoarrayStructure:
    """Difference coarray of an :class:`ArrayGeometry`.

    Attributes:
        geometry: The physical array this coarray belongs to.
        diff_matrix: M x M integer matrix of pairwise differences,
            ``diff_matrix[p, q] = positions[p] - positions[q]``.
        weights: Mapping from lag ``l`` to its multiplicity ``w(l)``,
            the number of sensor pairs at difference ``l``.
        mv: Size of the central contiguous segment: the largest integer
            such that every lag in ``0 .. mv - 1`` has positive weight.
    """

    geometry: ArrayGeometry
    diff_matrix: np.ndarray = field(compare=False)
    weights: dict = field(compare=False)
    mv: int = 0


def _check_size(m):
    """Refuse ``m`` sensors past the cap, before positions are built."""
    if m > MAX_SENSORS:
        raise ValueError(f'an array takes at most {MAX_SENSORS} sensors, '
                         f'got {m}')


def ula(m):
    """Uniform linear array with ``m`` sensors at 0, 1, ..., m - 1."""
    return ArrayGeometry(range(m), name=f'ula({m})')


def nested(n1, n2):
    """Two-level nested array.

    The dense level places ``n1`` sensors at 1, ..., n1; the sparse
    level places ``n2`` sensors at (n1 + 1) * k for k = 1, ..., n2.
    The difference coarray is hole-free with mv = n2 * (n1 + 1).

    References:
        P. Pal and P. P. Vaidyanathan, "Nested arrays: a novel approach
        to array processing with enhanced degrees of freedom," 2010.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError('nested levels need n1 >= 1 and n2 >= 1')
    _check_size(n1 + n2)
    pos = tuple(range(1, n1 + 1)) + tuple((n1 + 1) * k for k in range(1, n2 + 1))
    return ArrayGeometry(pos, name=f'nested({n1},{n2})')


def coprime(q, q2=None):
    """Co-prime array for the pair (q, q2), extended form.

    Sensors sit at the union of two uniform grids,

        {0, q, 2q, ..., q2 * q}  and  {q2, 2 * q2, ..., (2q - 1) * q2},

    for co-prime q < q2. With one argument the pair (q, q + 1) is used,
    which yields 3q sensors and a hole-free central coarray segment of
    q * (q + 2) lags. The doubled span of the first grid is what makes
    the central segment exceed the sensor count.

    References:
        P. Pal and P. P. Vaidyanathan, "Coprime sampling and the MUSIC
        algorithm," 2011.
    """
    q = int(q)
    q2 = q + 1 if q2 is None else int(q2)
    if q < 2 or q2 <= q:
        raise ValueError('co-prime pair needs 2 <= q < q2')
    if gcd(q, q2) != 1:
        raise ValueError(f'({q}, {q2}) is not a co-prime pair')
    _check_size(q2 + 2 * q - 1)  # the two grids share only 0 and q * q2
    grid_a = set(q * k for k in range(q2 + 1))
    grid_b = set(q2 * k for k in range(1, 2 * q))
    pos = tuple(sorted(grid_a | grid_b))
    return ArrayGeometry(pos, name=f'coprime({q},{q2})')


def mra(m):
    """Minimum-redundancy array with ``m`` sensors, from a static table.

    Only tabulated sizes are supported; larger designs would require an
    exhaustive search that is out of scope here.
    """
    if m not in _MRA_TABLE:
        sizes = ', '.join(str(k) for k in sorted(_MRA_TABLE))
        raise ValueError(f'no tabulated MRA with {m} sensors (available: {sizes})')
    return ArrayGeometry(_MRA_TABLE[m], name=f'mra({m})')


def custom(positions):
    """Array at explicitly given integer positions (half-wavelengths)."""
    geom = ArrayGeometry(tuple(positions))
    label = 'custom[' + ','.join(str(p) for p in geom.positions) + ']'
    return ArrayGeometry(geom.positions, name=label)


_KINDS = {'ula': ula, 'nested': nested, 'coprime': coprime, 'mra': mra}


def make_array(kind, *params):
    """Construct an array by kind name.

    Args:
        kind: One of ``'ula'``, ``'coprime'``, ``'nested'``, ``'mra'``,
            ``'custom'``.
        *params: Integer parameters of the chosen kind. For ``custom``
            pass a single iterable of positions.

    Returns:
        An :class:`ArrayGeometry`.
    """
    kind = str(kind).lower()
    if kind == 'custom':
        if len(params) != 1:
            raise ValueError('custom arrays take one iterable of positions')
        return custom(params[0])
    if kind not in _KINDS:
        known = ', '.join(sorted(_KINDS) + ['custom'])
        raise ValueError(f'unknown array kind {kind!r} (known: {known})')
    try:
        return _KINDS[kind](*params)
    except TypeError as exc:
        raise ValueError(f'bad parameters for {kind}: {params}') from exc


@lru_cache(maxsize=128)
def difference_coarray(geom):
    """Difference coarray of an array.

    Args:
        geom: An :class:`ArrayGeometry`.

    Returns:
        A :class:`CoarrayStructure` with the difference matrix, the lag
        weight function, and the contiguous-segment size ``mv``.
    """
    pos = np.asarray(geom.positions, dtype=np.int64)
    diff = pos[:, None] - pos[None, :]
    lags, counts = np.unique(diff, return_counts=True)
    weights = {int(l): int(c) for l, c in zip(lags, counts)}
    mv = 1
    while weights.get(mv, 0) > 0:
        mv += 1
    diff.setflags(write=False)
    return CoarrayStructure(geometry=geom, diff_matrix=diff, weights=weights, mv=mv)


@lru_cache(maxsize=128)
def _lag_gather(co):
    """The nonzeros of the selection matrix F, one per column at most.

    Column p + q * M of F holds diff[p, q] as its lag; it has a single
    nonzero, 1 / w(lag) in row lag + mv - 1, when the lag lies in the
    central segment, and none otherwise. So F^T y is a gather,
    ``out[cols] = y[rows] * vals`` and zero elsewhere, and F r sums
    ``r[cols]`` by ``rows`` (:func:`model.virtual_observation`).

    Memoized like :func:`difference_coarray`: a coarray hashes and
    compares by its geometry and mv, which the geometry fixes, and the
    gather is O(M^2) numbers where F would be O(mv M^2).

    Returns:
        Tuple ``(cols, rows, vals)`` of equal-length read-only vectors.
    """
    mv = co.mv
    # Column p + q * M holds diff[p, q]: the column-major ravel.
    lags = co.diff_matrix.ravel(order='F')
    cols = np.nonzero(np.abs(lags) <= mv - 1)[0]
    rows = lags[cols] + mv - 1
    # the number of entries in a row is the weight of its lag
    vals = 1.0 / np.bincount(rows, minlength=2 * mv - 1)[rows]
    for v in (cols, rows, vals):
        v.setflags(write=False)
    return cols, rows, vals


def selection_matrix(co):
    """Coarray selection (redundancy averaging) matrix F.

    F maps the vectorized covariance r = vec(R) (column-major stacking,
    so entry p + q * M of r is R[p, q] with zero-based p, q) onto the
    virtual observation z of length 2 * mv - 1. Row m of F averages all
    entries of R whose sensor-position difference equals the lag
    m - (mv - 1), each with weight 1 / w(lag):

        F[m, p + q * M] = 1 / w(m - mv + 1)   if diff[p, q] = m - mv + 1,
                          0                   otherwise.

    Rows are ordered by lag from -(mv - 1) to mv - 1.

    Args:
        co: A :class:`CoarrayStructure`.

    Returns:
        Real matrix of shape (2 * mv - 1, M ** 2), returned read-only.
    """
    cols, rows, vals = _lag_gather(co)
    f = np.zeros((2 * co.mv - 1, co.diff_matrix.size))
    f[rows, cols] = vals
    f.setflags(write=False)
    return f
