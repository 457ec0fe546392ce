"""Tests for the shared optimization kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab.matrices import (
    RngStream,
    hs_norm,
    normalized_trace,
    operator_norm,
    sample_ginibre,
    sample_haar_unitary,
    tuple_hs_norm,
)
from mslab.optimize import (
    OptConfig,
    minimize_over_ball,
    minimize_over_unitaries,
    project_opnorm_ball,
)

from oracles import trace_norm_normalized


def test_project_clips_singular_values():
    rng = RngStream(11).generator()
    x = sample_ginibre(6, rng, size=(3,), scale=2.0)
    p = project_opnorm_ball(x, 1.0)
    for m in p:
        assert operator_norm(m) <= 1.0 + 1e-9


def test_project_is_identity_inside_and_idempotent():
    rng = RngStream(12).generator()
    x = sample_ginibre(5, rng, size=(2,))
    x = project_opnorm_ball(x, 0.7)
    again = project_opnorm_ball(x, 0.7)
    assert np.allclose(x, again, atol=1e-12)
    # a tuple already well inside the ball is untouched
    small = 0.1 * x
    assert np.allclose(project_opnorm_ball(small, 0.7), small, atol=1e-12)


def test_project_scalar_case():
    two_eye = 2.0 * np.eye(4, dtype=complex)[None]
    p = project_opnorm_ball(two_eye, 1.0)
    assert np.allclose(p[0], np.eye(4), atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(k=st.integers(1, 4), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.01, 5.0), radius=st.floats(0.1, 3.0),
       inside=st.floats(0.0, 1.0))
def test_project_property(k, n, seed, scale, radius, inside):
    x = sample_ginibre(n, RngStream(seed).generator(), size=(k,), scale=scale)
    p = project_opnorm_ball(x, radius)
    assert np.linalg.norm(p, ord=2, axis=(-2, -1)).max() <= radius + 1e-12
    assert np.abs(project_opnorm_ball(p, radius) - p).max() <= 1e-12
    # a stack already inside the ball comes back unchanged
    norms = np.linalg.norm(x, ord=2, axis=(-2, -1))
    x_in = x * (inside * radius / norms.max())
    assert np.abs(project_opnorm_ball(x_in, radius) - x_in).max() <= 1e-12


def test_ball_linear_objective_matches_trace_norm_duality():
    # sup_{||y||_op <= r} Re tr_n(y x*) = r * (1/n) sum of singular values.
    # Minimize the negation and compare with the SVD oracle.
    rng = RngStream(21).generator()
    for trial in range(4):
        n = 5 + trial
        x = sample_ginibre(n, rng)

        def obj(y):
            return -float(np.real(normalized_trace(y[0] @ np.conj(x.T))))

        def grad(y):
            return -x[None]

        for radius in (1.0, 2.5):
            res = minimize_over_ball(obj, grad, (1, n, n), radius,
                                     OptConfig(), RngStream(100 + trial))
            target = radius * trace_norm_normalized(x)
            assert res.value == pytest.approx(-target, rel=1e-6, abs=1e-9)
            assert operator_norm(res.witness[0]) <= radius + 1e-9


def test_ball_quadratic_recovers_feasible_center():
    rng = RngStream(31).generator()
    n = 6
    c = sample_ginibre(n, rng, size=(2,))
    c = project_opnorm_ball(c, 0.9)

    def obj(y):
        return float(tuple_hs_norm(y - c) ** 2)

    def grad(y):
        return 2.0 * (y - c)

    res = minimize_over_ball(obj, grad, (2, n, n), 1.0, OptConfig(), RngStream(32))
    assert res.value < 1e-10
    assert tuple_hs_norm(res.witness - c) < 1e-5


def test_ball_zero_objective_minimum_at_zero():
    def obj(y):
        return float(tuple_hs_norm(y) ** 2)

    def grad(y):
        return 2.0 * y

    res = minimize_over_ball(obj, grad, (1, 4, 4), 1.0, OptConfig(), RngStream(33))
    assert res.value < 1e-12
    assert res.converged


def test_ball_supplied_start_gives_one_sided_bound():
    # With a feasible point P passed as an extra start, the result can only
    # improve on obj(P).
    rng = RngStream(41).generator()
    n = 5
    a = sample_ginibre(n, rng)

    def obj(y):
        return float(np.real(normalized_trace((y[0] - a) @ (y[0] - a).conj().T)))

    def grad(y):
        return 2.0 * (y - a[None])

    p = project_opnorm_ball(sample_ginibre(n, rng)[None], 1.0)
    res = minimize_over_ball(obj, grad, (1, n, n), 1.0, OptConfig(),
                             RngStream(42), extra_starts=[p])
    assert res.value <= obj(p) + 1e-9


def test_ball_determinism():
    rng = RngStream(51).generator()
    n = 5
    a = sample_ginibre(n, rng)

    def obj(y):
        return -float(np.real(normalized_trace(y[0] @ np.conj(a.T))))

    def grad(y):
        return -a[None]

    r1 = minimize_over_ball(obj, grad, (1, n, n), 1.0, OptConfig(), RngStream(7))
    r2 = minimize_over_ball(obj, grad, (1, n, n), 1.0, OptConfig(), RngStream(7))
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)
    assert r1.start_index == r2.start_index


def _procrustes_objective(x, y):
    # f(U) = ||U x U* - y||_2^2 with gradient in the Re<G, dU> convention.
    def obj(u):
        return float(hs_norm(u @ x @ u.conj().T - y) ** 2)

    def grad(u):
        delta = u @ x @ u.conj().T - y
        # d/ds ||(U+sH) x (U+sH)* - y||^2 = 2 Re <delta, H x U* + U x H*>
        g = 2.0 * (delta @ u @ np.conj(x.T) + np.conj(delta.T) @ u @ x)
        return g

    return obj, grad


def test_unitary_conjugate_pair_reaches_zero():
    rng = RngStream(61).generator()
    n = 6
    x = sample_ginibre(n, rng)
    v = sample_haar_unitary(n, rng)
    y = v @ x @ v.conj().T
    obj, grad = _procrustes_objective(x, y)
    res = minimize_over_unitaries(obj, grad, n, OptConfig(), RngStream(62))
    assert res.value < 1e-8
    u = res.witness
    assert operator_norm(u @ u.conj().T - np.eye(n)) < 1e-9


def test_unitary_swap_diagonal():
    x = np.diag([0.0, 1.0]).astype(complex)
    y = np.diag([1.0, 0.0]).astype(complex)
    obj, grad = _procrustes_objective(x, y)
    res = minimize_over_unitaries(obj, grad, 2, OptConfig(), RngStream(63))
    assert res.value < 1e-8


def test_unitary_identity_objective_stays_put():
    rng = RngStream(64).generator()
    n = 4
    x = sample_ginibre(n, rng)
    obj, grad = _procrustes_objective(x, x.copy())
    res = minimize_over_unitaries(obj, grad, n, OptConfig(), RngStream(65))
    assert res.value < 1e-10


def test_unitary_determinism():
    rng = RngStream(66).generator()
    n = 5
    x = sample_ginibre(n, rng)
    v = sample_haar_unitary(n, rng)
    obj, grad = _procrustes_objective(x, v @ x @ v.conj().T)
    r1 = minimize_over_unitaries(obj, grad, n, OptConfig(), RngStream(8))
    r2 = minimize_over_unitaries(obj, grad, n, OptConfig(), RngStream(8))
    assert r1.value == r2.value
    assert np.array_equal(r1.witness, r2.witness)
