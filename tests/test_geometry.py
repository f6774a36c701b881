"""Geometry and coarray construction tests.

The coarray quantities have simple brute-force definitions, so every
computed structure here is compared against an independent rebuild from
the raw positions.
"""

import numpy as np
import pytest

from coarray_lab import geometry


def brute_weights(positions):
    """Lag weights by explicit pair counting."""
    weights = {}
    for p in positions:
        for q in positions:
            weights[p - q] = weights.get(p - q, 0) + 1
    return weights


def brute_mv(positions):
    """Largest l with lags 0..l-1 all present, by direct walking."""
    diffs = {p - q for p in positions for q in positions}
    mv = 1
    while mv in diffs:
        mv += 1
    return mv


def brute_selection(positions):
    """Selection matrix straight from its definition."""
    m = len(positions)
    weights = brute_weights(positions)
    mv = brute_mv(positions)
    f = np.zeros((2 * mv - 1, m * m))
    for row, lag in enumerate(range(-(mv - 1), mv)):
        for p in range(m):
            for q in range(m):
                if positions[p] - positions[q] == lag:
                    f[row, p + q * m] = 1.0 / weights[lag]
    return f


def test_ula_positions():
    assert geometry.ula(3).positions == (0, 1, 2)
    assert geometry.ula(5).positions == (0, 1, 2, 3, 4)


def test_nested_positions_match_published_set():
    assert geometry.nested(4, 6).positions == (1, 2, 3, 4, 5, 10, 15, 20, 25, 30)
    assert geometry.nested(2, 2).positions == (1, 2, 3, 6)


def test_coprime_positions_match_published_sets():
    assert geometry.coprime(3, 5).positions == (0, 3, 5, 6, 9, 10, 12, 15, 20, 25)
    assert geometry.coprime(2).positions == (0, 2, 3, 4, 6, 9)
    assert geometry.coprime(2, 3).positions == geometry.coprime(2).positions


def test_mra_positions():
    assert geometry.mra(10).positions == (0, 1, 4, 10, 16, 22, 28, 30, 33, 35)
    assert geometry.mra(3).positions == (0, 1, 3)
    assert geometry.mra(4).positions == (0, 1, 4, 6)


def test_mra_coarrays_are_hole_free():
    # tabulated restricted designs cover every lag up to the aperture
    for m in range(3, 13):
        geom = geometry.mra(m)
        assert brute_mv(geom.positions) == geom.aperture + 1


def test_constructor_rejections():
    with pytest.raises(ValueError):
        geometry.custom([0, 3, 3])
    with pytest.raises(ValueError):
        geometry.custom([4])
    with pytest.raises(ValueError):
        geometry.custom([0, 1.5, 3])
    with pytest.raises(ValueError):
        geometry.nested(0, 4)
    with pytest.raises(ValueError):
        geometry.coprime(4, 6)  # not coprime
    with pytest.raises(ValueError):
        geometry.coprime(5, 3)  # wrong order
    with pytest.raises(ValueError, match='available'):
        geometry.mra(42)


def test_sensor_count_is_capped_before_positions_are_built():
    # every constructor, and a geometry built directly, refuses more
    # than MAX_SENSORS sensors; the count is checked first, so a size
    # past the cap allocates nothing
    cap = geometry.MAX_SENSORS
    assert geometry.ula(cap).n_sensors == cap
    for build, m in ((lambda: geometry.ula(cap + 1), cap + 1),
                     (lambda: geometry.ula(10 ** 18), 10 ** 18),
                     (lambda: geometry.nested(cap // 2, cap // 2 + 1),
                      cap + 1),
                     (lambda: geometry.coprime(342), 1026),
                     (lambda: geometry.coprime(10 ** 9, 10 ** 9 + 1),
                      3 * 10 ** 9),
                     (lambda: geometry.custom(range(cap + 1)), cap + 1),
                     (lambda: geometry.make_array('ula', cap + 1), cap + 1)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == (f'an array takes at most {cap} sensors, '
                                  f'got {m}')


def test_make_array_dispatch():
    assert geometry.make_array('mra', 10) == geometry.mra(10)
    assert geometry.make_array('coprime', 2) == geometry.coprime(2)
    assert geometry.make_array('custom', (0, 1, 4)).positions == (0, 1, 4)
    with pytest.raises(ValueError):
        geometry.make_array('spiral', 3)
    with pytest.raises(ValueError):
        geometry.make_array('nested', 4)  # missing parameter


def test_positions_are_sorted_and_distinct():
    for geom in (geometry.coprime(3, 5), geometry.nested(4, 6),
                 geometry.mra(10), geometry.coprime(2)):
        pos = geom.positions
        assert len(set(pos)) == len(pos)
        assert all(b > a for a, b in zip(pos, pos[1:]))


def test_difference_coarray_against_brute_force():
    cases = [geometry.coprime(3, 5), geometry.nested(4, 6), geometry.mra(10),
             geometry.coprime(2), geometry.ula(4),
             geometry.custom([0, 1, 4])]
    rng = np.random.default_rng(7)
    for _ in range(20):
        pos = np.sort(rng.choice(40, size=rng.integers(2, 8), replace=False))
        cases.append(geometry.custom([int(p) for p in pos]))
    for geom in cases:
        co = geometry.difference_coarray(geom)
        assert co.weights == brute_weights(geom.positions)
        assert co.mv == brute_mv(geom.positions)
        pos = np.asarray(geom.positions)
        np.testing.assert_array_equal(co.diff_matrix,
                                      pos[:, None] - pos[None, :])


def test_benchmark_virtual_sizes():
    assert geometry.difference_coarray(geometry.coprime(3, 5)).mv == 18
    assert geometry.difference_coarray(geometry.nested(4, 6)).mv == 30
    assert geometry.difference_coarray(geometry.mra(10)).mv == 36
    assert geometry.difference_coarray(geometry.coprime(2)).mv == 8


def test_weight_symmetry_and_center():
    for geom in (geometry.coprime(3, 5), geometry.mra(7)):
        co = geometry.difference_coarray(geom)
        assert co.weights[0] == geom.n_sensors
        for lag, count in co.weights.items():
            assert co.weights[-lag] == count


def test_difference_coarray_is_cached():
    geom = geometry.mra(6)
    assert geometry.difference_coarray(geom) is geometry.difference_coarray(geom)


def test_selection_matrix_toy_array_exact():
    co = geometry.difference_coarray(geometry.custom([0, 1, 4]))
    assert co.mv == 2
    expected = np.array([
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [1 / 3, 0, 0, 0, 1 / 3, 0, 0, 0, 1 / 3],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
    ])
    np.testing.assert_array_equal(geometry.selection_matrix(co), expected)


def test_selection_matrix_against_brute_force():
    for geom in (geometry.ula(3), geometry.coprime(2), geometry.mra(5),
                 geometry.nested(2, 3), geometry.coprime(3, 5),
                 geometry.mra(10), geometry.custom([0, 2, 3, 7, 20])):
        co = geometry.difference_coarray(geom)
        np.testing.assert_allclose(geometry.selection_matrix(co),
                                   brute_selection(geom.positions),
                                   rtol=0, atol=0)


def test_selection_matrix_rows_average():
    # each row averages its lag's entries, so rows sum to one
    co = geometry.difference_coarray(geometry.nested(3, 4))
    f = geometry.selection_matrix(co)
    np.testing.assert_allclose(f.sum(axis=1), np.ones(2 * co.mv - 1),
                               rtol=0, atol=1e-15)


def test_selection_matrix_is_read_only():
    f = geometry.selection_matrix(geometry.difference_coarray(geometry.ula(3)))
    with pytest.raises(ValueError):
        f[0, 0] = 2.0


def test_selection_matrix_flip_transpose_symmetry():
    # reversing the lag order equals transposing each lag slice
    for geom in (geometry.coprime(2), geometry.mra(6)):
        co = geometry.difference_coarray(geom)
        m = geom.n_sensors
        f3 = geometry.selection_matrix(co).reshape(2 * co.mv - 1, m, m)
        np.testing.assert_array_equal(np.flip(f3, axis=0),
                                      f3.transpose(0, 2, 1))
