import numpy as np
from scipy.linalg import expm

from quasibr.dilation import DilationGroup, orbit_tangent

CASES = [
    np.eye(2),
    np.diag([1.0, 2.0]),
    np.array([[1.0, 1.0], [0.0, 1.0]]),        # Jordan block
    np.array([[1.0, -2.0], [2.0, 1.0]]),       # complex eigenvalues
    np.array([[2.0, 0.3], [0.1, 1.0]]),        # generic real spectrum
]


def test_power_matches_expm():
    ts = [0.1, 0.5, 1.0, 3.7, 64.0]
    for A in CASES:
        g = DilationGroup(A)
        for t in ts:
            want = expm(np.log(t) * A)
            got = g.power(t)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (A, t)


def test_power_vectorized_consistent():
    g = DilationGroup(CASES[3])
    ts = np.array([0.25, 1.0, 2.0, 9.0])
    batch = g.power(ts)
    for k, t in enumerate(ts):
        assert np.allclose(batch[k], g.power(t))


def test_group_law():
    for A in CASES:
        g = DilationGroup(A)
        P = g.power(2.0) @ g.power(3.0)
        assert np.allclose(P, g.power(6.0), rtol=1e-12)
        assert np.allclose(g.power(1.0), np.eye(2), atol=1e-14)


def test_inverse():
    for A in CASES:
        g = DilationGroup(A)
        assert np.allclose(g.power(5.0) @ g.power(1.0 / 5.0), np.eye(2),
                           atol=1e-12)


def test_apply_matches_matmul():
    g = DilationGroup(CASES[4])
    xi = np.random.default_rng(0).normal(size=(50, 2))
    got = g.apply(2.5, xi)
    want = (g.power(2.5) @ xi.T).T
    assert np.allclose(got, want, rtol=1e-12)


def test_matrix_power_helper():
    g = DilationGroup(np.diag([1.0, 2.0]))
    assert np.allclose(g.power(4.0), np.diag([4.0, 16.0]))


def test_orbit_tangent_finite_difference():
    g = DilationGroup(CASES[4])
    xi = np.array([3.0, -1.0])
    t = 1.7
    eps = 1e-6
    fd = (g.apply(t * (1 + eps), xi) - g.apply(t * (1 - eps), xi)) / (2 * eps * t)
    assert np.allclose(orbit_tangent(g, xi, t), fd, rtol=1e-5)


def test_apply_is_bit_equal_to_power_entries():
    # apply forms t^A xi from the entries of power(t) without building them
    rng = np.random.default_rng(1)
    xi = rng.normal(scale=20.0, size=(200, 2))
    for A in CASES + [3.0 * np.eye(2)]:
        g = DilationGroup(A)
        for t in (0.3, np.exp(rng.normal(size=200))):
            P = g.power(t)
            want = np.stack([P[..., 0, 0] * xi[:, 0] + P[..., 0, 1] * xi[:, 1],
                             P[..., 1, 0] * xi[:, 0] + P[..., 1, 1] * xi[:, 1]],
                            axis=-1)
            assert np.array_equal(g.apply(t, xi), want), (A, t)


def test_scalar_is_set_exactly_for_multiples_of_the_identity():
    assert DilationGroup(2.5 * np.eye(2)).scalar == 2.5
    for A in CASES[1:]:
        assert DilationGroup(A).scalar is None
