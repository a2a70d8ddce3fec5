"""Property tests of the batched rotation kernels near 0, near pi and in between.

Hypothesis runs derandomized, so the suite stays deterministic and fast.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posepriors import rotations

from oracles import coefficients_oracle, det3_grad_oracle, exp_oracle, exp_vjp_oracle

PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)

axes = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda a: np.linalg.norm(a) > 0.1)
    .map(lambda a: a / np.linalg.norm(a))
)
tiny = st.floats(-12.0, -2.0).map(lambda e: 10.0**e)  # log-uniform in [1e-12, 1e-2]
seeds = st.integers(0, 2**32 - 1)


def _round_trip_error(w, allow_flip=False):
    back = rotations.log(rotations.exp(w))
    err = np.linalg.norm(back - w)
    if allow_flip:  # w and -w are the same rotation at pi
        err = min(err, np.linalg.norm(back + w))
    return err / np.linalg.norm(w)


@PROPERTY
@given(axes, tiny)
def test_round_trip_near_zero(axis, theta):
    assert _round_trip_error(theta * axis) <= 1e-12


@PROPERTY
@given(axes, st.one_of(st.just(0.0), tiny))
def test_round_trip_near_pi(axis, delta):
    w = (math.pi - delta) * axis
    assert _round_trip_error(w, allow_flip=delta == 0.0) <= 1e-12


@PROPERTY
@given(axes, st.one_of(tiny, st.floats(1e-2, math.pi - 1e-2)), seeds)
@example(np.array([0.6, 0.0, 0.8]), 1e-7, 0)
def test_exp_vjp_matches_central_differences(axis, theta, seed):
    w = theta * axis
    g = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
    h = 1e-5
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (np.sum(g * rotations.exp(w + e)) - np.sum(g * rotations.exp(w - e))) / (2 * h)
    assert np.abs(rotations.exp_vjp(w, *rotations._exp_forward(w), g) - fd).max() <= 1e-9


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 6), seeds)
def test_stack_matches_one_pose_at_a_time(n, joints, seed):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal((n, joints, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = rng.choice([0.0, 1e-9, 1e-3, 1.0, 2.0, math.pi - 1e-9, math.pi], (n, joints, 1))
    w = axis * angles
    r, coefficients = rotations._exp_forward(w)
    g = rng.standard_normal((n, joints, 3, 3))
    back = rotations.log(r)
    vjp = rotations.exp_vjp(w, r, coefficients, g)
    det_r, det_g = rotations.det3(r), rotations.det3(g)
    proj = rotations.project_to_rotations(g)
    for i in range(n):
        assert np.array_equal(r[i], rotations.exp(w[i]))
        assert np.array_equal(back[i], rotations.log(r[i]))
        assert np.array_equal(vjp[i], rotations.exp_vjp(w[i], *rotations._exp_forward(w[i]), g[i]))
        assert np.array_equal(det_r[i], rotations.det3(r[i]))
        assert np.array_equal(det_g[i], rotations.det3(g[i]))
        assert np.array_equal(proj[i], rotations.project_to_rotations(g[i]))


@PROPERTY
@given(seeds, st.booleans())
def test_polar_is_a_rotation_with_exact_vjp(seed, reflect):
    rng = np.random.default_rng(seed)
    a = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
    a[0] *= -1.0 if reflect else 1.0  # det A < 0 still projects to det +1
    g = rng.uniform(-1.0, 1.0, (3, 3))
    q, vjp = rotations.polar(a)
    assert np.abs(q @ q.T - np.eye(3)).max() <= 1e-14
    assert abs(rotations.det3(q) - 1.0) <= 1e-14
    # The nearest rotation maximizes tr(Q^T A): the singular values summed,
    # the smallest one negated when det A < 0.
    sigma = np.linalg.svd(a, compute_uv=False)
    sigma[2] *= np.sign(np.linalg.det(a))
    assert abs(np.trace(q.T @ a) - sigma.sum()) <= 1e-13
    h = 1e-6
    fd = np.empty((3, 3))
    for idx in np.ndindex(3, 3):
        up, down = a.copy(), a.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = np.sum(g * (rotations.polar(up)[0] - rotations.polar(down)[0])) / (2 * h)
    assert np.abs(vjp(g) - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())


def _assert_kernels_keep_oracle_bits(w, g):
    r, coefficients = rotations._exp_forward(w)
    theta = np.sqrt(rotations._dot(w, w))[..., None, None]
    for got, want in zip(coefficients, coefficients_oracle(theta)):
        assert got.tobytes() == want.tobytes()
    assert r.tobytes() == rotations.exp(w).tobytes() == exp_oracle(w).tobytes()
    vjp = rotations.exp_vjp(w, r, coefficients, g)
    assert vjp.tobytes() == exp_vjp_oracle(w, r, g).tobytes()
    for m in (r, g):
        assert rotations.det3_grad(m).tobytes() == det3_grad_oracle(m).tobytes()


def test_kernels_keep_np_cross_bits_on_a_large_stack():
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 1.5, (5000, 22, 3))
    _assert_kernels_keep_oracle_bits(w, rng.standard_normal((5000, 22, 3, 3)))


def test_kernels_keep_signed_zero_bits():
    rng = np.random.default_rng(1)
    w = rng.choice([0.0, -0.0, 1e-320, -1e-170, 1e-9, -1e-9, 0.5, -2.0], (200, 22, 3))
    w[::7] = 0.0  # whole poses at the identity
    w[1::7] = -0.0
    w[:, 3] = 0.0  # and all-zero joints within other poses
    g = rng.choice([0.0, -0.0, 1.0, -0.5], (200, 22, 3, 3))
    assert np.any(np.signbit(w) & (w == 0.0)) and np.any(np.signbit(g) & (g == 0.0))
    _assert_kernels_keep_oracle_bits(w, g)


def test_kernels_keep_bits_where_small_and_large_angles_mix():
    rng = np.random.default_rng(2)
    axis = rng.standard_normal((300, 22, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = rng.choice([1e-12, 1e-6, 9.99e-4, 1e-3, 1.001e-3, 0.3, 2.0], (300, 22, 1))
    theta = np.sqrt(rotations._dot(axis * angles, axis * angles))
    assert np.any(theta < 1e-3) and np.any(theta >= 1e-3)
    _assert_kernels_keep_oracle_bits(axis * angles, rng.standard_normal((300, 22, 3, 3)))


def test_kernels_keep_bits_at_pi():
    rng = np.random.default_rng(3)
    w = np.concatenate([math.pi * np.eye(3), -math.pi * np.eye(3)])[:, None, :]
    axis = rng.standard_normal((50, 1, 3))
    w = np.concatenate([w, math.pi * axis / np.linalg.norm(axis, axis=-1, keepdims=True)])
    _assert_kernels_keep_oracle_bits(w, rng.standard_normal((len(w), 1, 3, 3)))


def test_kernels_keep_bits_on_one_pose():
    # The shape a one-pose VAE query passes, alone and as a stack of one: signed
    # zeros, both sides of the series switch, ordinary angles and pi.
    rng = np.random.default_rng(4)
    axis = rng.standard_normal((22, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angles = np.array([1e-12, 1e-6, 9.99e-4, 1e-3, 1.001e-3, 0.3, 1.0, 2.0, 3.0, math.pi] * 2
                      + [0.0, 0.0])[:, None]
    w = axis * angles
    w[-1] = -0.0
    w[0, 1] = -0.0
    g = rng.standard_normal((22, 3, 3))
    _assert_kernels_keep_oracle_bits(w, g)
    _assert_kernels_keep_oracle_bits(w[None], g[None])
