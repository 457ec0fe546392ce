"""Membership, volume and entropy estimation against closed-form anchors."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mslab.formulas import EvalConfig, eval_formula
from mslab.matrices import RngStream, operator_norm, sample_gue, sample_haar_unitary
from mslab.optimize import OptConfig
from mslab.microstates import (
    Constraint,
    FeasibilityError,
    GaussianProposal,
    McmcConfig,
    NeighborhoodSpec,
    covering_upper_bound,
    entropy_normalization,
    estimate_entropy,
    estimate_volume,
    existential_membership,
    independent_join_ratio,
    is_microstate,
    log_volume_from_mask,
    membership_mask,
)


def hs_ball_spec(d=1, hs_radius=1.0, ambient=4.0, kind="quantifier_free"):
    body = " + ".join(f"tr.re(x{j} x{j}*)" for j in range(1, d + 1))
    return NeighborhoodSpec(
        d, ambient, (Constraint(f"sqrt({body})", 0.0, hs_radius),), kind)


# ---------------------------------------------------------------------------
# Spec construction and serialization


def test_spec_json_roundtrip():
    spec = NeighborhoodSpec(2, 3.0, (
        Constraint("tr.re(x1 x2*)", 0.25, 0.05),
        Constraint("abs(tr.im(x2))", 0.0, 0.1),
    ), "full")
    back = NeighborhoodSpec.from_json(spec.to_json())
    assert back == spec
    data = json.loads(spec.to_json())
    assert set(data) == {"d", "r", "kind", "constraints"}


def test_spec_rejects_quantifier_in_qf_kind():
    with pytest.raises(ValueError, match="quantifier"):
        NeighborhoodSpec(1, 1.0, (
            Constraint("sup{y1 in D(1.0)} tr.re(y1 x1*)", 0.0, 0.5),),
            "quantifier_free")


def test_spec_rejects_bad_kind_and_tol():
    with pytest.raises(ValueError, match="kind"):
        NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x1)", 0.0, 0.5),), "open")
    with pytest.raises(ValueError, match="tolerance"):
        Constraint("tr.re(x1)", 0.0, 0.0)


def test_spec_rejects_variable_beyond_d():
    with pytest.raises(ValueError, match="beyond"):
        NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x2)", 0.0, 0.5),))


# ---------------------------------------------------------------------------
# Membership verdicts


def test_is_microstate_in_and_out():
    spec = hs_ball_spec()
    n = 4
    inside = np.zeros((1, n, n), dtype=complex)
    inside[0, 0, 0] = 0.5
    assert is_microstate(inside, spec) == "in"
    outside = 3.0 * np.eye(n, dtype=complex)[None]
    assert is_microstate(outside, spec) == "out"  # hs norm 3 > 1
    too_big = 5.0 * np.eye(n, dtype=complex)[None]
    assert is_microstate(too_big, spec) == "out"  # ambient opnorm check


def test_is_microstate_boundary_for_quantified_edge():
    # sup over the unit ball of Re tr_n(y x*) is the normalized trace norm;
    # at x = I the value is exactly 1.  With target 0.5 and tol 0.5 the
    # deviation sits exactly on the tolerance, inside the optimizer band.
    spec = NeighborhoodSpec(1, 2.0, (
        Constraint("sup{y1 in D(1.0)} tr.re(y1 x1*)", 0.5, 0.5),), "full")
    x = np.eye(4, dtype=complex)[None]
    assert is_microstate(x, spec) == "boundary"


def test_membership_mask_matches_pointwise_verdicts():
    spec = hs_ball_spec()
    rng = RngStream(7).child("mask").generator()
    x = GaussianProposal.isotropic(1, 1.0).sample(4, 64, rng)
    mask = membership_mask(spec, x)
    for i in range(64):
        assert mask[i] == (is_microstate(x[:, i], spec) == "in")


def test_membership_mask_full_kind_same_formulas_bitwise():
    qf = hs_ball_spec(kind="quantifier_free")
    full = hs_ball_spec(kind="full")
    rng = RngStream(11).child("kinds").generator()
    x = GaussianProposal.isotropic(1, 1.0).sample(4, 512, rng)
    assert np.array_equal(membership_mask(qf, x), membership_mask(full, x))


def box_spec(quantified=False):
    """Degree <= 4 moment box around the standard semicircle.

    ``quantified`` appends the normalized trace norm, as a sup, at 0.8 +- 0.2.
    """
    cons = [Constraint("tr.re(x1 x1*)", 1.0, 0.1)] + [
        Constraint("tr.re(%s)" % " ".join(["x1"] * k), t, 0.1)
        for k, t in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 2.0))]
    if quantified:
        cons.append(Constraint("sup{y1 in D(1.0)} (tr.re(y1 x1*))", 0.8, 0.2))
    return NeighborhoodSpec(1, 4.0, tuple(cons), "full" if quantified else "quantifier_free")


BOX_PROPOSAL = GaussianProposal((1.0,), (math.sqrt(0.03),))
# few, short optimizer runs: the tests below compare verdicts, not values
CHEAP_EVAL = EvalConfig(opt=OptConfig(max_iter=60, num_starts=2))


@pytest.mark.parametrize("n", [4, 8])
def test_membership_mask_survivors_match_full_batch_bitwise(n):
    spec = box_spec()
    x = BOX_PROPOSAL.sample(n, 20_000, RngStream(23).child(n).generator())
    ref = np.linalg.svd(x[0], compute_uv=False)[:, 0] <= spec.r
    passed = []
    for c in spec.constraints:
        vals = eval_formula(c.formula, x)  # every sample, every constraint
        ref &= np.abs(vals - c.target) < c.tol
        passed.append(int(ref.sum()))
        idx = np.flatnonzero(ref)
        assert np.array_equal(eval_formula(c.formula, x[:, idx]).view(np.uint64),
                              vals[idx].view(np.uint64))
    # the first constraint narrows the batch, and some samples pass them all
    assert passed[0] < x.shape[1] and passed[-1] > 0
    assert np.array_equal(membership_mask(spec, x), ref)


def test_full_type_prefilter_matches_pointwise_verdicts():
    # A thin shell plus a quantified constraint: many samples sit within
    # last bits of the shell's tolerance or of the ambient radius, where a
    # batched and a single-sample evaluation may round differently.
    n, r, shell, tol = 3, 1.0, 0.7, 0.05
    spec = NeighborhoodSpec(1, 2.0, (
        Constraint("tr.re(x1 x1*)", shell, tol),
        Constraint("sup{y1 in D(1.0)} (tr.re(y1 x1*))", 0.85, 0.2)), "full")
    rng = RngStream(29).child("prefilter").generator()
    g = GaussianProposal.isotropic(1, 1.0).sample(n, 48, rng)[0]
    hs2 = np.einsum("sij,sij->s", g.conj(), g).real / n
    edges = np.array([-1e-8, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-8])
    levels = np.concatenate([shell + tol * (1.0 + edges), shell - tol * (1.0 + edges),
                             shell + tol * np.linspace(-0.9, 0.9, 34)])
    x = (g * np.sqrt(levels / hs2)[:, None, None])[None]
    # unitaries at the ambient radius, just inside and just outside it
    u = sample_haar_unitary(n, rng, size=(len(edges),))
    x_edge = (u * (r * (1.0 + edges))[:, None, None])[None]
    spec_edge = replace(spec, r=r, constraints=(
        Constraint("tr.re(x1 x1*)", 1.0, tol),) + spec.constraints[1:])
    for sp, xs in ((spec, x), (spec_edge, x_edge)):
        mask = membership_mask(sp, xs, CHEAP_EVAL)
        ref = [is_microstate(xs[:, i], sp, CHEAP_EVAL) == "in"
               for i in range(xs.shape[1])]
        assert mask.tolist() == ref
        assert 0 < mask.sum() < mask.size
    assert operator_norm(x_edge[0, 0]) < r < operator_norm(x_edge[0, -2])


@settings(derandomize=True, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       count=st.integers(1, 300), quantified=st.booleans())
def test_membership_mask_permutes_with_the_batch(seed, n, count, quantified):
    spec = box_spec(quantified)
    rng = RngStream(seed).generator()
    x = BOX_PROPOSAL.sample(n, count, rng)
    perm = rng.permutation(count)
    assert np.array_equal(membership_mask(spec, x[:, perm], CHEAP_EVAL),
                          membership_mask(spec, x, CHEAP_EVAL)[perm])


# ---------------------------------------------------------------------------
# Proposal density


@pytest.mark.parametrize("d", [1, 2, 3])
def test_proposal_sample_matches_gue_composition_bitwise(d):
    prop = GaussianProposal(tuple(0.3 + 0.4 * j for j in range(d)),
                            tuple(0.17 + 0.5 * j for j in range(d)))
    for n in (1, 2, 5, 12):
        for count in (1, 3, 1000):
            ref_rng = RngStream(31).child((d, n, count)).generator()
            ref = np.empty((d, count, n, n), dtype=np.complex128)
            for j in range(d):
                g1 = sample_gue(n, ref_rng, size=(count,))
                g2 = sample_gue(n, ref_rng, size=(count,))
                ref[j] = prop.herm[j] * g1 + 1j * prop.skew[j] * g2
            rng = RngStream(31).child((d, n, count)).generator()
            x = prop.sample(n, count, rng)
            assert np.array_equal(x.view(np.uint64), ref.view(np.uint64))
            # the stream is left where the reference left it
            assert rng.standard_normal() == ref_rng.standard_normal()


def test_proposal_hs_scale():
    rng = RngStream(3).child("scale").generator()
    prop = GaussianProposal.isotropic(2, 1.0)
    x = prop.sample(8, 4000, rng)
    ms = np.mean(np.abs(x) ** 2 * 8, axis=(1, 2, 3))  # E tr_n(X X*) per variable
    assert np.allclose(ms, 1.0, atol=0.05)


def test_proposal_density_normalization_via_scale_invariance():
    # The same volume estimated under two different proposals must agree;
    # any error in the density constant would shift one estimate.
    spec = hs_ball_spec()
    v1 = estimate_volume(spec, 4, 40_000, RngStream(21),
                         proposal=GaussianProposal.isotropic(1, 1.0))
    v2 = estimate_volume(spec, 4, 40_000, RngStream(22),
                         proposal=GaussianProposal.isotropic(1, 0.8))
    assert abs(v1.log_vol - v2.log_vol) < v1.ci + v2.ci + 0.02


def test_proposal_rejects_bad_scales():
    with pytest.raises(ValueError, match="positive"):
        GaussianProposal((1.0,), (0.0,))
    with pytest.raises(ValueError, match="equal length"):
        GaussianProposal((1.0, 1.0), (1.0,))


# ---------------------------------------------------------------------------
# Volume estimates against the exact ball volume


def test_ball_volume_n4_matches_exact():
    spec = hs_ball_spec()
    est = estimate_volume(spec, 4, 200_000, RngStream(5),
                          proposal=GaussianProposal.isotropic(1, 1.0))
    exact = oracles.log_ball_volume(16, 1.0)
    assert est.hits > 50_000
    assert abs(est.log_vol - exact) < max(3.0 * est.ci, 0.02)


def test_ball_volume_radius_parameter():
    spec = hs_ball_spec(hs_radius=0.7)
    est = estimate_volume(spec, 4, 200_000, RngStream(6),
                          proposal=GaussianProposal.isotropic(1, 0.7))
    exact = oracles.log_ball_volume(16, 0.7)
    assert abs(est.log_vol - exact) < max(3.0 * est.ci, 0.02)


def test_ball_entropy_two_variables():
    spec = hs_ball_spec(d=2)
    est = estimate_volume(spec, 4, 200_000, RngStream(9),
                          proposal=GaussianProposal.isotropic(2, 1.0))
    exact = oracles.log_ball_volume(32, 1.0)
    assert abs(est.log_vol - exact) < max(3.0 * est.ci, 0.04)
    h = entropy_normalization(est.log_vol, 4, 2)
    assert abs(h - oracles.ball_entropy_normalized(4, 2, 1.0)) < 0.01


def test_zero_hits_reports_minus_infinity():
    spec = NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x1)", 50.0, 0.1),))
    est = estimate_volume(spec, 4, 2000, RngStream(13))
    assert est.log_vol == float("-inf")
    assert est.hits == 0
    assert est.ci == 0.0


def test_volume_determinism_bitwise():
    spec = hs_ball_spec()
    a = estimate_volume(spec, 4, 20_000, RngStream(17))
    b = estimate_volume(spec, 4, 20_000, RngStream(17))
    assert a.log_vol == b.log_vol and a.ci == b.ci and a.hits == b.hits


def test_volume_monotone_in_tolerance_shared_samples():
    # Same stream => identical proposal draws, so enlarging the constraint
    # tolerance can only add hits: monotonicity is exact, not statistical.
    base = hs_ball_spec(hs_radius=0.9)
    wider = hs_ball_spec(hs_radius=1.8)
    v1 = estimate_volume(base, 4, 20_000, RngStream(19))
    v2 = estimate_volume(wider, 4, 20_000, RngStream(19))
    assert v2.hits >= v1.hits
    assert v2.log_vol >= v1.log_vol


def test_volume_ambient_radius_stability():
    # With the hs constraint dominating, enlarging the ambient ball leaves
    # every verdict unchanged: identical hits and identical estimate.
    tight = hs_ball_spec(ambient=2.5)
    loose = hs_ball_spec(ambient=25.0)
    v1 = estimate_volume(tight, 4, 20_000, RngStream(23))
    v2 = estimate_volume(loose, 4, 20_000, RngStream(23))
    assert v1.hits == v2.hits
    assert v1.log_vol == v2.log_vol


def test_union_bound_at_counting_level():
    # 1_{A u B} <= 1_A + 1_B pointwise on shared samples gives the exact
    # inequality h(A u B) <= max(h(A), h(B)) + log(2)/n^2.
    n = 4
    rng = RngStream(29).child(("volume", n)).generator()
    prop = GaussianProposal.isotropic(1, 1.0)
    x = prop.sample(n, 30_000, rng)
    logw = -prop.log_density(x)
    spec_a = hs_ball_spec(hs_radius=0.95)
    spec_b = NeighborhoodSpec(1, 4.0, (Constraint("tr.re(x1 x1*)", 0.5, 0.45),))
    mask_a = membership_mask(spec_a, x)
    mask_b = membership_mask(spec_b, x)
    la, _, _ = log_volume_from_mask(mask_a, logw)
    lb, _, _ = log_volume_from_mask(mask_b, logw)
    lu, _, _ = log_volume_from_mask(mask_a | mask_b, logw)
    ha = entropy_normalization(la, n, 1)
    hb = entropy_normalization(lb, n, 1)
    hu = entropy_normalization(lu, n, 1)
    assert hu <= max(ha, hb) + math.log(2.0) / (n * n) + 1e-12


def test_volume_requires_minimum_samples():
    with pytest.raises(ValueError, match="10\\^3"):
        estimate_volume(hs_ball_spec(), 4, 100, RngStream(0))


# ---------------------------------------------------------------------------
# Entropy estimates


def test_entropy_ball_calibration_small():
    spec = hs_ball_spec()
    est = estimate_entropy(spec, [4, 6], 60_000, RngStream(31),
                           proposal=GaussianProposal.isotropic(1, 1.0))
    for n, h in zip(est.n_values, est.h_n):
        exact = oracles.ball_entropy_normalized(n, 1, 1.0)
        assert abs(h - exact) < 0.02
    assert est.trend_value == est.h_n[-1]
    # h_n = (1 + log pi) - log(n^2!)-ish correction: slope against 1/n^2 is
    # negative and the trend heads toward the limit from below.
    assert est.h_n[-1] > est.h_n[0]
    assert est.trend_slope < 0.0


def test_entropy_json_and_csv_shape():
    spec = hs_ball_spec()
    est = estimate_entropy(spec, [4], 5000, RngStream(37))
    data = json.loads(est.to_json())
    assert set(data) == {"n_values", "h_n", "ci_n", "hits", "samples", "trend"}
    csv = est.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,h_n,ci,hits,samples"
    assert len(lines) == 2 and lines[1].startswith("4,")


def test_entropy_minus_inf_encoding():
    spec = NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x1)", 50.0, 0.1),))
    est = estimate_entropy(spec, [4], 2000, RngStream(41))
    assert est.h_n[0] == float("-inf")
    assert json.loads(est.to_json())["h_n"][0] == "-inf"
    assert "-inf" in est.to_csv()


def test_entropy_n_cap_and_ordering():
    with pytest.raises(ValueError, match="cap"):
        estimate_entropy(hs_ball_spec(), [4, 32], 2000, RngStream(0))
    with pytest.raises(ValueError, match="ascending"):
        estimate_entropy(hs_ball_spec(), [8, 4], 2000, RngStream(0))


# ---------------------------------------------------------------------------
# Covering bound


def test_covering_bound_value_and_monotonicity():
    v = covering_upper_bound(1, 1.0, 0.5, 5.0)
    expected = (math.log(5.0) + math.log(math.pi) + 1.0
                + 2.0 * math.log(3.0) + math.log(0.5))
    assert abs(v - expected) < 1e-12
    assert covering_upper_bound(1, 1.0, 0.25, 5.0) < v
    assert covering_upper_bound(1, 1.0, 0.9, 5.0) > v


def test_covering_bound_dominates_ball_entropy():
    # The bound with modest constants sits above the exact ball entropy for
    # every eps that is not tiny; it crosses below as eps -> 0.
    exact = oracles.ball_entropy_limit(1, 1.0)
    assert covering_upper_bound(1, 1.0, 0.9, 2.0) > exact
    assert covering_upper_bound(1, 1.0, 1e-6, 2.0) < exact


def test_covering_bound_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="eps"):
            covering_upper_bound(1, 1.0, eps, 1.0)


# ---------------------------------------------------------------------------
# Existential membership


def test_existential_in_with_witness():
    # Some x2 in the ball is hs-close to a given x1: x2 = x1 works.
    dist2 = "tr.re(x1 x1*) - 2*tr.re(x1 x2*) + tr.re(x2 x2*)"
    spec = NeighborhoodSpec(2, 1.5, (Constraint(dist2, 0.0, 0.01),),
                            "existential")
    rng = RngStream(43).child("exist").generator()
    x = 0.4 * sample_gue(4, rng)[None]
    res = existential_membership(x, spec)
    assert res.verdict == "in"
    assert res.witness.shape == (1, 4, 4)
    w = res.witness[0]
    gap = np.abs(w - x[0])
    assert np.mean(gap ** 2) < 0.05


def test_existential_out_is_flagged():
    spec = NeighborhoodSpec(2, 1.0, (Constraint("tr.re(x2 x2*)", 9.0, 0.1),),
                            "existential")
    x = 0.1 * np.eye(4, dtype=complex)[None]
    res = existential_membership(x, spec)
    assert res.verdict == "out"
    assert "out-is-heuristic" in res.flags


def test_existential_with_no_trailing_block_matches_membership():
    spec = hs_ball_spec()
    espec = NeighborhoodSpec(1, spec.r, spec.constraints, "existential")
    rng = RngStream(47).child("m0").generator()
    for _ in range(5):
        x = GaussianProposal.isotropic(1, 1.0).sample(4, 1, rng)[:, 0]
        want = is_microstate(x, spec)
        got = existential_membership(x, espec).verdict
        assert got == ("in" if want == "in" else "out")


def test_existential_requires_existential_kind():
    with pytest.raises(ValueError, match="existential"):
        existential_membership(np.eye(4)[None], hs_ball_spec())


# ---------------------------------------------------------------------------
# Independent-join ratio


def test_join_ratio_marginal_only_is_exactly_one():
    spec1 = hs_ball_spec()
    spec2 = hs_ball_spec()
    joint = NeighborhoodSpec(2, 4.0, (
        Constraint("sqrt(tr.re(x1 x1*))", 0.0, 1.0),
        Constraint("sqrt(tr.re(x2 x2*))", 0.0, 1.0),
    ))
    cfg = McmcConfig(burn_in=50, pairs=60, thin=2)
    res = independent_join_ratio(spec1, spec2, joint, 4, RngStream(53), cfg)
    assert res.ratio == 1.0
    assert res.pairs == 60
    assert 0.0 < res.acceptance[0] <= 1.0


def test_join_ratio_impossible_cross_constraint_is_zero():
    spec1 = hs_ball_spec()
    spec2 = hs_ball_spec()
    joint = NeighborhoodSpec(2, 4.0, (
        Constraint("sqrt(tr.re(x1 x1*))", 0.0, 1.0),
        Constraint("sqrt(tr.re(x2 x2*))", 0.0, 1.0),
        Constraint("tr.re(x1 x2*)", 25.0, 0.5),
    ))
    cfg = McmcConfig(burn_in=50, pairs=40, thin=2)
    res = independent_join_ratio(spec1, spec2, joint, 4, RngStream(59), cfg)
    assert res.ratio == 0.0


def test_join_ratio_infeasible_factor_raises():
    bad = NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x1)", 50.0, 0.1),))
    joint = NeighborhoodSpec(2, 4.0, (
        Constraint("sqrt(tr.re(x1 x1*))", 0.0, 1.0),
        Constraint("tr.re(x2)", 50.0, 0.1),
    ))
    cfg = McmcConfig(burn_in=10, pairs=10, thin=1, init_tries=3000)
    with pytest.raises(FeasibilityError, match="feasible"):
        independent_join_ratio(hs_ball_spec(), bad, joint, 4, RngStream(61), cfg)


def test_join_ratio_dimension_check():
    with pytest.raises(ValueError, match="d1 \\+ d2"):
        independent_join_ratio(hs_ball_spec(), hs_ball_spec(), hs_ball_spec(),
                               4, RngStream(0))
