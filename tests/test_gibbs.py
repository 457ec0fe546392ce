"""Gibbs sampling, the quartic loop-equation oracle, and Hopf-Lax smoothing."""

import math

import numpy as np
import pytest

import oracles
from mslab.formulas import parse_formula
from mslab.gibbs import (
    LangevinState,
    Potential,
    dyson_schwinger_quartic,
    hopf_lax_iterate,
    hopf_lax_step,
    langevin_run,
    langevin_step,
    sample_gibbs_moments,
)
from mslab.matrices import (
    RngStream,
    hermitian_part,
    sample_gue,
    sample_ginibre,
    tuple_hs_norm,
)
from mslab.moments import reference_law
from mslab.optimize import OptConfig

H = 0.02  # default effective step used throughout


def quad_potential(c=1.0):
    return Potential(f"{c}*tr.re(x1 x1*)", lower_const=-0.1,
                     lower_quad=0.9 * c, upper_const=0.1, upper_quad=1.1 * c)


def sa_quad_potential():
    return Potential("0.5*tr.re(x1 x1)", lower_const=-0.1, lower_quad=0.4,
                     upper_const=0.1, upper_quad=0.6, self_adjoint=True)


def quartic_potential(g=0.1):
    # tr.re(x^4) >= tr.re(x^2)^2 >= 0 on the Hermitian slice, so the lower
    # bound is safe; the upper bound only has to hold on the gate's samples.
    return Potential(f"0.5*tr.re(x1 x1) + {g}*tr.re(x1 x1 x1 x1)",
                     lower_const=0.0, lower_quad=0.45,
                     upper_const=1.0, upper_quad=6.0, self_adjoint=True)


# ---------------------------------------------------------------------------
# Potential validation


def test_potential_rejects_quantifier():
    with pytest.raises(ValueError, match="quantifier"):
        Potential("sup{y1 in D(1.0)} (tr.re(x1 y1))", lower_const=-1.0,
                  lower_quad=0.1, upper_const=1.0, upper_quad=1.0)


def test_potential_requires_coercive_lower_bound():
    with pytest.raises(ValueError, match="lower_quad"):
        Potential("tr.re(x1 x1*)", lower_const=0.0, lower_quad=0.0,
                  upper_const=0.0, upper_quad=1.0)
    with pytest.raises(ValueError, match="upper_quad"):
        Potential("tr.re(x1 x1*)", lower_const=0.0, lower_quad=1.0,
                  upper_const=0.0, upper_quad=0.5)


def test_bounds_gate_rejects_quadratic_cap_on_quartic():
    with pytest.raises(ValueError, match="bounds fail"):
        Potential("tr.re(x1 x1 x1 x1)", lower_const=-0.1, lower_quad=0.5,
                  upper_const=10.0, upper_quad=2.0, self_adjoint=True)


def test_bounds_gate_uses_general_samples_without_flag():
    # tr.re(x1 x1) goes negative off the Hermitian slice, so the same formula
    # that passes as self-adjoint fails the coercive lower bound without it
    with pytest.raises(ValueError, match="bounds fail"):
        Potential("0.5*tr.re(x1 x1)", lower_const=-0.1, lower_quad=0.4,
                  upper_const=0.1, upper_quad=0.6)
    sa_quad_potential()  # the flagged version constructs fine


def test_potential_d_and_value():
    pot = Potential("tr.re(x1 x2*) + tr.re(x2 x2*)", lower_const=-5.0,
                    lower_quad=0.2, upper_const=5.0, upper_quad=2.0)
    assert pot.d == 2
    x = np.stack([np.eye(3, dtype=complex), 2.0 * np.eye(3, dtype=complex)])
    assert float(pot.value(x)) == pytest.approx(2.0 + 4.0)


def test_potential_json_round_trip():
    pot = quartic_potential()
    clone = Potential.from_json(pot.to_json())
    assert clone.formula == pot.formula
    assert clone.lower_const == pot.lower_const
    assert clone.lower_quad == pot.lower_quad
    assert clone.upper_const == pot.upper_const
    assert clone.upper_quad == pot.upper_quad
    assert clone.self_adjoint is True


def test_potential_accepts_parsed_formula():
    pot = Potential(parse_formula("tr.re(x1 x1*)"), lower_const=-0.1,
                    lower_quad=0.9, upper_const=0.1, upper_quad=1.1)
    assert pot.d == 1


def test_gradient_matches_finite_differences():
    pot = quartic_potential()
    rng = RngStream(31).child("fd").generator()
    x = np.stack([0.7 * sample_gue(5, rng)])
    h = np.stack([0.5 * sample_gue(5, rng)])
    g = pot.gradient(x)
    pairing = float(np.real(np.sum(np.conj(g) * h)) / 5)
    eps = 1e-6
    fd = (float(pot.value(x + eps * h)) - float(pot.value(x - eps * h))) / (2 * eps)
    assert abs(fd - pairing) < 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# Langevin chain


def test_langevin_state_validation():
    with pytest.raises(ValueError, match="finite"):
        LangevinState(np.array([[[np.inf, 0], [0, 0]]], dtype=complex), 0.02)
    with pytest.raises(ValueError, match="step"):
        LangevinState(np.zeros((1, 2, 2), dtype=complex), 0.0)


def test_langevin_step_rejects_nonfinite_gradient():
    pot = quartic_potential()
    huge = np.stack([1e150 * np.eye(4, dtype=complex)])
    state = LangevinState(huge, 0.02)
    rng = RngStream(5).child("r").generator()
    with np.errstate(over="ignore", invalid="ignore"):
        after = langevin_step(state, pot, rng)
    assert np.array_equal(after.x, state.x)
    assert after.h == pytest.approx(0.01)
    assert after.rejections == 1


def test_langevin_preserves_hermitian_slice():
    pot = sa_quad_potential()
    rng = RngStream(3).child("x").generator()
    state = LangevinState(np.stack([0.5 * sample_gue(8, rng)]), H)
    for _ in range(100):
        state = langevin_step(state, pot, rng)
    resid = float(np.max(np.abs(state.x - hermitian_part(state.x))))
    assert resid < 1e-10


def test_langevin_run_divergence_abort():
    with pytest.raises(RuntimeError, match="diverged"):
        langevin_run(quad_potential(), n=8, steps=60, rng_stream=RngStream(4),
                     h=3.0)


def test_langevin_run_keep_every():
    _, kept = langevin_run(quad_potential(), n=6, steps=40,
                           rng_stream=RngStream(4), keep_every=10)
    assert len(kept) == 4
    assert kept[0].shape == (1, 6, 6)


def test_gibbs_moments_deterministic():
    pot = quad_potential()
    a = sample_gibbs_moments(pot, n=8, burn_in=100, samples=50, max_len=2,
                             rng_stream=RngStream(77))
    b = sample_gibbs_moments(pot, n=8, burn_in=100, samples=50, max_len=2,
                             rng_stream=RngStream(77))
    assert a.moments["x1 x1*"] == b.moments["x1 x1*"]
    assert a.tau == b.tau


def test_gibbs_quadratic_stationary_moment():
    # x' = (1-h)x + sqrt(2h)W gives E tr_n(x x*) = 1/(1 - h/2) exactly
    gm = sample_gibbs_moments(quad_potential(), n=32, burn_in=500, samples=400,
                              max_len=2, rng_stream=RngStream(7))
    m2 = gm.moments["x1 x1*"].real
    target = 1.0 / (1.0 - H / 2.0)
    assert abs(m2 - target) < 0.05 * target
    assert abs(m2 - target) < 4.0 * max(gm.ci["x1 x1*"], 1e-3)
    assert gm.tau >= 1.0
    assert gm.kept == 400


def test_gibbs_self_adjoint_quadratic_moment():
    # on the slice x' = (1-h/2)x + sqrt(h)G gives E tr_n(x^2) = 1/(1 - h/4)
    gm = sample_gibbs_moments(sa_quad_potential(), n=32, burn_in=500,
                              samples=400, max_len=2, rng_stream=RngStream(8))
    m2 = gm.moments["x1 x1"].real
    target = 1.0 / (1.0 - H / 4.0)
    assert abs(m2 - target) < 0.05 * target


def test_gibbs_quartic_matches_loop_equation():
    gm = sample_gibbs_moments(quartic_potential(0.1), n=48, burn_in=800,
                              samples=500, max_len=4, rng_stream=RngStream(21))
    ds = dyson_schwinger_quartic(0.1, max_len=4)
    m2, m2_ds = gm.moments["x1 x1"].real, ds["x1 x1"].real
    m4, m4_ds = gm.moments["x1 x1 x1 x1"].real, ds["x1 x1 x1 x1"].real
    assert abs(m2 - m2_ds) < 0.05 * m2_ds
    assert abs(m4 - m4_ds) < 0.08 * m4_ds  # m4 has a larger 1/n^2 bias


def test_gibbs_circular_family_reference():
    pot = Potential("tr.re(x1 x1*) + tr.re(x2 x2*)", lower_const=-0.1,
                    lower_quad=0.9, upper_const=0.1, upper_quad=1.1)
    gm = sample_gibbs_moments(pot, n=128, burn_in=400, samples=100, max_len=4,
                              rng_stream=RngStream(22))
    ref = reference_law("free_circular_family(2)", max_len=4)
    worst = 0.0
    for w in ref.words():
        if len(w) == 0 or w not in gm.moments:
            continue
        worst = max(worst, abs(gm.moments[w] - ref[w]))
    assert worst < 0.05


# ---------------------------------------------------------------------------
# Dyson-Schwinger quartic oracle


def test_loop_equation_semicircle_at_zero_coupling():
    mv = dyson_schwinger_quartic(0.0, max_len=8)
    assert mv["x1 x1"].real == pytest.approx(1.0, abs=1e-10)
    assert mv["x1 x1 x1 x1"].real == pytest.approx(2.0, abs=1e-9)
    assert mv["x1 x1 x1 x1 x1 x1"].real == pytest.approx(5.0, abs=1e-8)
    assert mv["x1"].real == 0.0
    assert mv["x1 x1 x1"].real == 0.0
    # stars are immaterial on the self-adjoint slice
    assert mv["x1 x1*"] == mv["x1 x1"]


def test_loop_equation_matches_closed_form():
    mv = dyson_schwinger_quartic(0.1, max_len=4)
    assert abs(mv["x1 x1"].real - oracles.quartic_m2_closed_form(0.1)) < 1e-10
    assert abs(mv["x1 x1 x1 x1"].real
               - oracles.quartic_density_moment(0.1, 4)) < 1e-5


def test_loop_equation_m2_decreasing_in_g():
    grid = (0.0, 0.025, 0.05, 0.075, 0.1)
    vals = [dyson_schwinger_quartic(g, max_len=2)["x1 x1"].real for g in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# m2, m4, m6, m8 at max_len=8 from the per-p Gauss-Seidel log-sum-exp solver
# that the Jacobi sweep replaced.
GAUSS_SEIDEL_MOMENTS = {
    0.0: (1.0000000000000002, 2.0000000000000138, 5.000000000000405,
          14.000000000008235),
    0.01: (0.9316864463920489, 1.7078388401987767, 3.888351314633031,
           9.884150003879162),
    0.025: (0.8576432117075772, 1.4235678829242278, 2.917185404909265,
            6.6550223952727725),
    0.05: (0.772819551369983, 1.1359022431500847, 2.048684297949406,
           4.101851236652324),
    0.075: (0.7131483274038106, 0.956172241987298, 1.5670813760677447,
            2.846145482619014),
    0.1: (0.6676214943748915, 0.8309462640627711, 1.2607418117175295,
          2.117172940398439),
    0.104: (0.661266828198949, 0.8142624322140649, 1.2218058273649834,
            2.028828978700589),
}


@pytest.mark.parametrize("g", sorted(GAUSS_SEIDEL_MOMENTS))
def test_loop_equation_matches_gauss_seidel_solver(g):
    mv = dyson_schwinger_quartic(g, max_len=8)
    for k, old in zip((2, 4, 6, 8), GAUSS_SEIDEL_MOMENTS[g]):
        assert mv[" ".join(["x1"] * k)].real == pytest.approx(old, rel=1e-12, abs=0)


def test_loop_equation_m2_matches_closed_form_on_grid():
    for g in np.linspace(0.0, 0.1, 21):
        m2 = dyson_schwinger_quartic(float(g), max_len=2)["x1 x1"].real
        assert abs(m2 - oracles.quartic_m2_closed_form(float(g))) < 1e-12


def test_loop_equation_insulation_boundary():
    dyson_schwinger_quartic(0.104, max_len=8)
    for g in (0.105, 0.12, 0.13, 0.5):
        with pytest.raises(RuntimeError, match=f"for g={g}"):
            dyson_schwinger_quartic(g, max_len=8)


def test_loop_equation_nonconvergence_for_large_g():
    with pytest.raises(RuntimeError):
        dyson_schwinger_quartic(0.3, max_len=2)


def test_loop_equation_domain():
    with pytest.raises(ValueError, match="0, 0.5"):
        dyson_schwinger_quartic(0.6)
    with pytest.raises(ValueError):
        dyson_schwinger_quartic(-0.1)


# ---------------------------------------------------------------------------
# Hopf-Lax single step


def hl_setup(n=16, c=0.7, seed=11):
    pot = quad_potential(c)
    rng = RngStream(seed).child("x").generator()
    x = np.stack([sample_ginibre(n, rng)])
    return pot, x, tuple_hs_norm(x) ** 2


def test_hopf_lax_quadratic_value():
    c, t = 0.7, 0.5
    pot, x, xsq = hl_setup()
    res = hopf_lax_step(pot, t, x, z_samples=1000,
                        cfg=OptConfig(num_starts=2, max_iter=300),
                        rng_stream=RngStream(5))
    exact = oracles.hopf_lax_quadratic_value(c, t, 1, xsq)
    assert abs(res.value - exact) < 1e-2 * abs(exact)
    assert res.z_samples == 1000
    assert res.t == t


def test_hopf_lax_quadratic_witness():
    # the empirical minimizer is -(2tc/(1+2tc))(x + mean z), so the witness
    # error is ~ sqrt(2t/S) / ||x||; the draw count must keep that below 1e-2
    c, t = 0.7, 0.2
    pot, x, _ = hl_setup()
    res = hopf_lax_step(pot, t, x, z_samples=10000,
                        cfg=OptConfig(num_starts=2, max_iter=400),
                        rng_stream=RngStream(5))
    expected = oracles.hopf_lax_quadratic_witness_scale(c, t) * x
    rel = tuple_hs_norm(res.witness - expected) / tuple_hs_norm(expected)
    assert rel < 1e-2


def test_hopf_lax_small_time_recovers_potential():
    pot, x, _ = hl_setup(n=8)
    res = hopf_lax_step(pot, 1e-4, x, z_samples=200,
                        cfg=OptConfig(num_starts=2, max_iter=200),
                        rng_stream=RngStream(6))
    assert abs(res.value - float(pot.value(x))) < 1e-2


def test_hopf_lax_monotone_in_potential():
    _, x, _ = hl_setup(n=8)
    cfg = OptConfig(num_starts=2, max_iter=300)
    lo = hopf_lax_step(quad_potential(0.5), 0.3, x, z_samples=500, cfg=cfg,
                       rng_stream=RngStream(13))
    hi = hopf_lax_step(quad_potential(0.7), 0.3, x, z_samples=500, cfg=cfg,
                       rng_stream=RngStream(13))
    assert lo.value <= hi.value + 1e-8


def test_hopf_lax_diffusion_offset_bound():
    # Phi_t V <= V(X) + 2ctd on the quadratic family (A = 0 is feasible)
    c, t = 0.7, 0.4
    pot, x, _ = hl_setup(n=8)
    res = hopf_lax_step(pot, t, x, z_samples=2000,
                        cfg=OptConfig(num_starts=2, max_iter=200),
                        rng_stream=RngStream(14))
    assert res.value <= float(pot.value(x)) + 2.0 * c * t * 1 + 0.05


def test_hopf_lax_value_decreasing_in_t_after_offset():
    c = 0.7
    pot, x, xsq = hl_setup(n=8)
    cfg = OptConfig(num_starts=2, max_iter=300)
    shifted = []
    for i, t in enumerate((0.2, 0.5, 1.0)):
        r = hopf_lax_step(pot, t, x, z_samples=2000, cfg=cfg,
                          rng_stream=RngStream(40 + i))
        shifted.append(r.value - 2.0 * c * t * 1)
    assert shifted[0] > shifted[1] - 0.02
    assert shifted[1] > shifted[2] - 0.02


def test_hopf_lax_single_draw_variant():
    pot, x, _ = hl_setup(n=8)
    res = hopf_lax_step(pot, 0.5, x, z_samples=500,
                        cfg=OptConfig(num_starts=2, max_iter=200),
                        rng_stream=RngStream(15), expectation=False)
    assert res.z_samples == 1
    assert math.isfinite(res.value)


def test_hopf_lax_deterministic():
    pot, x, _ = hl_setup(n=8)
    cfg = OptConfig(num_starts=2, max_iter=200)
    a = hopf_lax_step(pot, 0.5, x, z_samples=300, cfg=cfg, rng_stream=RngStream(5))
    b = hopf_lax_step(pot, 0.5, x, z_samples=300, cfg=cfg, rng_stream=RngStream(5))
    assert a.value == b.value
    assert np.array_equal(a.witness, b.witness)


def test_hopf_lax_argument_validation():
    pot, x, _ = hl_setup(n=4)
    with pytest.raises(ValueError, match="positive"):
        hopf_lax_step(pot, 0.0, x, z_samples=10)
    with pytest.raises(ValueError, match="z_samples"):
        hopf_lax_step(pot, 0.5, x, z_samples=0)
    with pytest.raises(ValueError, match="d="):
        hopf_lax_step(pot, 0.5, np.stack([x[0], x[0]]), z_samples=10)


# ---------------------------------------------------------------------------
# Hopf-Lax iteration


def test_iterate_k1_equals_single_step():
    pot, x, _ = hl_setup(n=8)
    cfg = OptConfig(num_starts=2, max_iter=200)
    it = hopf_lax_iterate(pot, 0.5, 1, x, z_samples=300, cfg=cfg,
                          rng_stream=RngStream(5))
    direct = hopf_lax_step(pot, 0.5, x, z_samples=300, cfg=cfg,
                           rng_stream=RngStream(5))
    assert it.ks == [1]
    assert it.value == direct.value


def test_iterate_reports_doubling_ladder():
    pot, x, _ = hl_setup(n=4)
    cfg = OptConfig(num_starts=1, max_iter=60)
    it = hopf_lax_iterate(pot, 0.1, 5, x, z_samples=50, cfg=cfg,
                          rng_stream=RngStream(6), sweeps=1)
    assert it.ks == [1, 2, 4, 5]
    assert len(it.values) == 4
    assert it.value == it.values[-1]


def test_iterate_quadratic_close_to_single_step():
    c, t = 0.7, 0.1
    pot, x, xsq = hl_setup(n=8)
    it = hopf_lax_iterate(pot, t, 4, x, z_samples=400,
                          cfg=OptConfig(num_starts=2, max_iter=300),
                          rng_stream=RngStream(9))
    single = oracles.hopf_lax_quadratic_value(c, t, 1, xsq)
    exact4 = oracles.hopf_lax_iterated_value(c, t, 4, 1, xsq)
    assert abs(it.value - single) < 2e-2 * abs(single)
    assert abs(it.value - exact4) < 1e-2 * abs(exact4)


def test_iterate_semigroup_shadow_k8():
    c, t = 0.7, 0.1
    pot, x, xsq = hl_setup(n=6)
    it = hopf_lax_iterate(pot, t, 8, x, z_samples=300,
                          cfg=OptConfig(num_starts=1, max_iter=200),
                          rng_stream=RngStream(10), sweeps=2)
    single = oracles.hopf_lax_quadratic_value(c, t, 1, xsq)
    for v in it.values:
        assert abs(v - single) < 2e-2 * abs(single)


def test_iterate_validation():
    pot, x, _ = hl_setup(n=4)
    with pytest.raises(ValueError, match="k"):
        hopf_lax_iterate(pot, 0.5, 0, x, z_samples=10)
