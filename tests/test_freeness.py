import json
import math

import numpy as np
import pytest

from mslab.formulas import (
    BOUND_OFFSET,
    Quantifier,
    StarWord,
    eval_formula,
    format_formula,
    formula_free_variables,
    parse_formula,
)
from mslab.freeness import (
    AdditivityReport,
    Example53Config,
    Example53Fixture,
    asymptotic_freeness_experiment,
    entropy_additivity_experiment,
    example_5_3_fixture,
    example_5_3_runner,
    free_convolution_experiment,
    product_spec,
    semicircle_measure,
    shift_variables,
    word_traces,
)
from mslab.matrices import RngStream, sample_gue
from mslab.moments import all_words
from mslab.microstates import Constraint, McmcConfig, NeighborhoodSpec, independent_join_ratio
from mslab.transport import SpectralMeasure

from oracles import arcsine_even_moment, catalan


# ---------------------------------------------------------------------------
# Semicircle quantile measure


def test_semicircle_measure_moments():
    sc = semicircle_measure(512)
    q = sc.locations()
    assert abs(float(np.mean(q)) ) < 1e-12
    assert abs(float(np.mean(q ** 2)) - 1.0) < 2e-3
    assert abs(float(np.mean(q ** 3))) < 1e-12
    assert abs(float(np.mean(q ** 4)) - 2.0) < 5e-3
    assert q.min() > -2.0 and q.max() < 2.0


def test_semicircle_measure_quantiles_are_atoms():
    sc = semicircle_measure(64)
    assert np.allclose(sc.quantiles(64), sc.locations())


def test_semicircle_measure_scales_with_radius():
    sc = semicircle_measure(256, radius=4.0)
    q = sc.locations()
    assert abs(float(np.mean(q ** 2)) - 4.0) < 1e-2


def test_semicircle_measure_validation():
    with pytest.raises(ValueError):
        semicircle_measure(0)
    with pytest.raises(ValueError):
        semicircle_measure(8, radius=0.0)


# ---------------------------------------------------------------------------
# Word-trace tables


def test_word_traces_match_direct_products():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    table = word_traces(g, 4)
    assert table[StarWord()] == 1.0
    mats = {(1, False): g[0], (1, True): g[0].conj().T,
            (2, False): g[1], (2, True): g[1].conj().T}
    checks = [
        StarWord(((1, False),)),
        StarWord(((2, True),)),
        StarWord(((1, False), (2, True))),
        StarWord(((2, False), (1, True), (2, False))),
        StarWord(((1, False), (2, True), (1, False), (2, False))),
        StarWord(((1, True), (1, True), (2, False), (2, True))),
    ]
    for w in checks:
        prod = np.eye(6, dtype=np.complex128)
        for letter in w.letters:
            prod = prod @ mats[letter]
        assert abs(table[w] - np.trace(prod) / 6) < 1e-12


def test_word_traces_cover_every_word():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    mats = {(j + 1, s): (g[j].conj().T if s else g[j]) for j in range(2) for s in (False, True)}
    for max_len in (3, 4):
        table = word_traces(g, max_len)
        # keyed by every word in all_words order; each value is its trace
        assert list(table) == all_words(2, max_len)
        for w, val in table.items():
            prod = np.eye(3, dtype=np.complex128)
            for letter in w.letters:
                prod = prod @ mats[letter]
            assert abs(val - np.trace(prod) / 3) < 1e-12, w


def test_word_traces_single_matrix_powers():
    rng = np.random.default_rng(3)
    h = sample_gue(5, rng)
    eigs = np.linalg.eigvalsh(h)
    table = word_traces(h, 5)
    for k in range(1, 6):
        w = StarWord(((1, False),) * k)
        assert abs(table[w] - np.mean(eigs ** k)) < 1e-10


def test_word_traces_rejects_non_square():
    with pytest.raises(ValueError):
        word_traces(np.zeros((2, 3, 4)), 2)


# ---------------------------------------------------------------------------
# Asymptotic freeness


def test_freeness_gue_spectra_close_at_n512():
    sc = semicircle_measure(512)
    rep = asymptotic_freeness_experiment(sc, sc, [512], 4, 3, RngStream(5))
    assert rep.worst_deviation[0] < 0.05
    assert rep.invariance_residual[0] < 1e-10


def test_freeness_scalar_factor_is_exact():
    rep = asymptotic_freeness_experiment(
        semicircle_measure(64), SpectralMeasure.point_mass(1.0),
        [64], 4, 2, RngStream(5))
    assert rep.worst_deviation[0] < 1e-10


def test_freeness_deviation_decreases_with_n():
    sc = semicircle_measure(512)
    rep = asymptotic_freeness_experiment(sc, sc, [64, 512], 4, 10, RngStream(5))
    assert rep.mean_deviation[1] < rep.mean_deviation[0]


def test_freeness_deviations_nonnegative_and_consistent():
    sc = semicircle_measure(32)
    rep = asymptotic_freeness_experiment(sc, sc, [32, 64], 3, 4, RngStream(1))
    for i, devs in enumerate(rep.trial_deviations):
        assert all(d >= 0.0 for d in devs)
        assert rep.worst_deviation[i] == max(devs)
        assert abs(rep.mean_deviation[i] - np.mean(devs)) < 1e-15


def test_freeness_exceed_frequency_tracks_eps():
    sc = semicircle_measure(32)
    loose = asymptotic_freeness_experiment(sc, sc, [32], 3, 4, RngStream(1),
                                           eps=10.0)
    tight = asymptotic_freeness_experiment(sc, sc, [32], 3, 4, RngStream(1),
                                           eps=1e-12)
    assert loose.exceed_frequency == [0.0]
    assert tight.exceed_frequency == [1.0]


def test_freeness_tuple_bases():
    pair = (semicircle_measure(32), SpectralMeasure.uniform([-1.0, 1.0]))
    single = semicircle_measure(32)
    rep = asymptotic_freeness_experiment(pair, single, [32], 3, 2, RngStream(8))
    assert rep.invariance_residual[0] < 1e-10
    assert all(math.isfinite(v) for v in rep.mean_deviation)


def test_freeness_reproducible():
    sc = semicircle_measure(24)
    a = asymptotic_freeness_experiment(sc, sc, [24], 3, 3, RngStream(42))
    b = asymptotic_freeness_experiment(sc, sc, [24], 3, 3, RngStream(42))
    assert a.to_json() == b.to_json()


def test_freeness_validation():
    sc = semicircle_measure(8)
    with pytest.raises(ValueError):
        asymptotic_freeness_experiment(sc, sc, [8], 2, 0, RngStream(0))
    with pytest.raises(ValueError):
        asymptotic_freeness_experiment((), sc, [8], 2, 1, RngStream(0))


# ---------------------------------------------------------------------------
# Free convolution


def test_convolve_with_point_mass_at_zero():
    rep = free_convolution_experiment(
        SpectralMeasure.point_mass(0.0), semicircle_measure(256),
        256, 3, 6, RngStream(9))
    assert rep.max_deviation < 1e-10


def test_convolve_semicircle_pair_at_n1024():
    sc = semicircle_measure(1024)
    rep = free_convolution_experiment(sc, sc, 1024, 4, 6, RngStream(9))
    assert abs(rep.empirical[1] - 2.0) < 0.05
    assert abs(rep.empirical[3] - 8.0) < 0.2
    for k in range(6):
        scale = max(1.0, abs(rep.predicted[k]))
        assert rep.deviation[k] < 0.05 * scale


def test_convolve_semicircle_prediction_doubles_variance():
    # freely adding two semicircles scales the semicircle: m_2k ~ Catalan * 2^k
    sc = semicircle_measure(1024)
    rep = free_convolution_experiment(sc, sc, 1024, 1, 6, RngStream(2))
    for k in (1, 2, 3):
        assert abs(rep.predicted[2 * k - 1] - catalan(k) * 2.0 ** k) < 0.1


def test_convolve_bernoulli_pair_gives_arcsine():
    bern = SpectralMeasure(((-1.0, 0.5), (1.0, 0.5)))
    rep = free_convolution_experiment(bern, bern, 1024, 4, 6, RngStream(11))
    for k in (1, 2, 3):
        assert abs(rep.predicted[2 * k - 1] - arcsine_even_moment(k)) < 1e-10
        assert abs(rep.predicted[2 * k - 2]) < 1e-10  # odd moments vanish
    for k in range(6):
        scale = max(1.0, abs(rep.predicted[k]))
        assert rep.deviation[k] < 0.05 * scale


def test_convolve_point_mass_shift_is_binomial():
    mu = SpectralMeasure.uniform([-1.5, -0.5, 0.5, 1.5])
    c = 0.7
    rep = free_convolution_experiment(mu, SpectralMeasure.point_mass(c),
                                      128, 2, 6, RngStream(3))
    a = mu.quantiles(128)
    base = [float(np.mean(a ** k)) for k in range(0, 7)]
    for k in range(1, 7):
        shifted = sum(math.comb(k, j) * c ** j * base[k - j]
                      for j in range(k + 1))
        assert abs(rep.predicted[k - 1] - shifted) < 1e-10
        assert abs(rep.empirical[k - 1] - shifted) < 1e-10


def test_convolve_reproducible_and_validated():
    sc = semicircle_measure(32)
    a = free_convolution_experiment(sc, sc, 32, 3, 4, RngStream(6))
    b = free_convolution_experiment(sc, sc, 32, 3, 4, RngStream(6))
    assert a.to_json() == b.to_json()
    with pytest.raises(ValueError):
        free_convolution_experiment(sc, sc, 32, 0, 4, RngStream(6))


# ---------------------------------------------------------------------------
# Variable shifting and product specs


def test_shift_variables_renames_free_variables():
    phi = parse_formula("tr.re(x1 x2*) + 0.5*abs(tr.im(x1))")
    shifted = shift_variables(phi, 3)
    assert formula_free_variables(shifted) == {4, 5}
    stack = np.zeros((5, 3, 3), dtype=np.complex128)
    rng = np.random.default_rng(0)
    stack[3] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    stack[4] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = eval_formula(phi, stack[3:])
    moved = eval_formula(shifted, stack)
    assert abs(float(direct) - float(moved)) < 1e-14


def test_shift_variables_preserves_bound_letters():
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(x1 y1))")
    shifted = shift_variables(phi, 2)
    assert isinstance(shifted, Quantifier)
    assert shifted.var >= BOUND_OFFSET
    assert formula_free_variables(shifted) == {3}
    assert "x3" in format_formula(shifted)


def test_shift_variables_rejects_negative_offset():
    with pytest.raises(ValueError):
        shift_variables(parse_formula("tr.re(x1)"), -1)


def test_product_spec_shifts_second_factor():
    s1 = NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))
    s2 = NeighborhoodSpec(2, 2.0, (Constraint("tr.re(x1 x2)", 0.0, 0.3),))
    joint = product_spec(s1, s2)
    assert joint.d == 3
    rendered = [format_formula(c.formula) for c in joint.constraints]
    assert rendered == ["tr.re(x1 x1*)", "tr.re(x2 x3)"]


def test_product_spec_accepts_cross_constraints():
    s1 = NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))
    joint = product_spec(s1, s1, (Constraint("tr.re(x1 x2)", 0.0, 0.2),))
    assert len(joint.constraints) == 3
    assert joint.kind == "quantifier_free"


def test_product_spec_radius_mismatch_rejected():
    s1 = NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))
    s2 = NeighborhoodSpec(1, 1.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))
    with pytest.raises(ValueError):
        product_spec(s1, s2)


def test_product_spec_kind_promotes_to_full():
    s1 = NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))
    s2 = NeighborhoodSpec(
        1, 2.0,
        (Constraint("sup{y1 in D(1.0)} (tr.re(x1 y1))", 0.5, 0.5),),
        kind="full")
    joint = product_spec(s1, s2)
    assert joint.kind == "full"


# ---------------------------------------------------------------------------
# Entropy additivity


def _quad_spec():
    return NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 1.0, 0.5),))


def test_additivity_exact_without_cross_constraints():
    rep = entropy_additivity_experiment(_quad_spec(), _quad_spec(),
                                        [4, 6], 20_000, RngStream(21))
    for i in range(2):
        total = rep.h_marginal_1[i] + rep.h_marginal_2[i]
        assert abs(rep.deficit[i]) < 1e-12
        assert abs(rep.h_joint[i] - total) < 1e-12
        assert rep.log_ratio[i] == 0.0


def test_additivity_contradictory_cross_gives_minus_inf():
    bad = Constraint("tr.re(x1 x1*)", 50.0, 0.1)
    rep = entropy_additivity_experiment(_quad_spec(), _quad_spec(),
                                        [4], 5_000, RngStream(21),
                                        cross_constraints=(bad,))
    assert rep.h_joint[0] == float("-inf")
    assert rep.deficit[0] == float("inf")
    assert rep.cross_hits[0] == 0
    data = json.loads(rep.to_json())
    assert data["h_joint"] == ["-inf"]
    assert data["deficit"] == ["inf"]


def test_additivity_near_freeness_cross_deficit_small():
    cross = Constraint("abs(tr.re(x1 x2))", 0.0, 0.1)
    rep = entropy_additivity_experiment(_quad_spec(), _quad_spec(),
                                        [8], 40_000, RngStream(21),
                                        cross_constraints=(cross,))
    assert 0.0 < rep.cross_hits[0] < rep.pair_hits[0]
    assert rep.deficit[0] < 0.1
    assert rep.h_joint[0] > rep.h_marginal_1[0] + rep.h_marginal_2[0] - 0.1


def test_additivity_cross_checked_by_join_ratio():
    # the same near-freeness box, probed by the independent uniform chains;
    # the wider tolerance keeps the acceptance probability high
    cross = Constraint("abs(tr.re(x1 x2))", 0.0, 0.25)
    joint = product_spec(_quad_spec(), _quad_spec(), (cross,))
    res = independent_join_ratio(
        _quad_spec(), _quad_spec(), joint, 8, RngStream(13),
        McmcConfig(burn_in=300, pairs=400, thin=3))
    assert res.ratio >= 0.8


def test_additivity_impossible_marginal_degenerates():
    far = NeighborhoodSpec(1, 2.0, (Constraint("tr.re(x1 x1*)", 80.0, 0.1),))
    rep = entropy_additivity_experiment(far, _quad_spec(), [4], 2_000,
                                        RngStream(4))
    assert rep.h_marginal_1[0] == float("-inf")
    assert rep.h_joint[0] == float("-inf")
    assert rep.deficit[0] == 0.0


def test_additivity_reproducible():
    a = entropy_additivity_experiment(_quad_spec(), _quad_spec(), [4], 2_000,
                                      RngStream(33))
    b = entropy_additivity_experiment(_quad_spec(), _quad_spec(), [4], 2_000,
                                      RngStream(33))
    assert a.to_json() == b.to_json()


def test_additivity_validation():
    with pytest.raises(ValueError):
        entropy_additivity_experiment(_quad_spec(), _quad_spec(), [4], 500,
                                      RngStream(0))


# ---------------------------------------------------------------------------
# The two-configuration fixture


def test_fixture_frozen_properties():
    fx = example_5_3_fixture()
    fx.validate()
    mx, my = fx.moments(4)
    assert abs(mx[0] - my[0]) < 1e-12
    assert abs(mx[1] - my[1]) < 1e-12
    assert abs(mx[3] - 1.0) < 1e-12
    assert abs(my[3] - 2.0) < 1e-12  # fourth moments separate the pair


def test_fixture_mismatch_is_rejected():
    fx = example_5_3_fixture()
    bad = Example53Fixture(fx.x, np.diag([2.0, 0.0, 0.0, 0.0]), 2)
    with pytest.raises(ValueError, match="fixture invalid"):
        bad.validate()


def test_fixture_json_round_trip():
    fx = example_5_3_fixture()
    back = Example53Fixture.from_json(fx.to_json())
    assert np.array_equal(back.x, fx.x)
    assert np.array_equal(back.y, fx.y)
    assert back.matched_degree == fx.matched_degree


def test_fixture_tiling_preserves_moments():
    fx = example_5_3_fixture()
    x8, y8 = fx.realize_at(8)
    assert abs(np.trace(x8 @ x8).real / 8 - 1.0) < 1e-12
    assert abs(np.trace(y8 @ y8).real / 8 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fx.realize_at(6)


def test_runner_separates_configurations():
    rep = example_5_3_runner(example_5_3_fixture(), 4,
                             Example53Config(trials=20), RngStream(77))
    assert max(rep.psi_same) < 1e-6
    assert min(rep.psi_cross) > 0.3
    assert rep.psi_gap > 0.2
    target = math.sqrt(2.0 - math.sqrt(2.0))
    assert abs(float(np.mean(rep.psi_cross)) - target) < 1e-6


def test_runner_moment_tables_agree_while_psi_differs():
    rep = example_5_3_runner(example_5_3_fixture(), 4,
                             Example53Config(trials=20), RngStream(77))
    assert rep.table_deviation < 0.05
    assert rep.psi_gap > 0.2
    for w in ("x1 x1", "x2 x2"):
        assert abs(rep.table_same[w] - 1.0) < 1e-10
        assert abs(rep.table_cross[w] - 1.0) < 1e-10


def test_runner_identical_fixture_is_indistinguishable():
    fx = example_5_3_fixture()
    twin = Example53Fixture(fx.x, fx.x.copy(), 2)
    rep = example_5_3_runner(twin, 4, Example53Config(trials=5), RngStream(77))
    assert rep.psi_same == rep.psi_cross
    assert rep.table_deviation == 0.0


def test_runner_tiled_sizes_keep_the_gap():
    rep = example_5_3_runner(example_5_3_fixture(), 8,
                             Example53Config(trials=5), RngStream(77))
    assert rep.psi_gap > 0.2


def test_runner_reproducible():
    a = example_5_3_runner(example_5_3_fixture(), 4,
                           Example53Config(trials=3), RngStream(1))
    b = example_5_3_runner(example_5_3_fixture(), 4,
                           Example53Config(trials=3), RngStream(1))
    assert a.to_json() == b.to_json()


def test_runner_rejects_invalid_fixture():
    fx = example_5_3_fixture()
    bad = Example53Fixture(fx.x, 0.5 * fx.y, 2)
    with pytest.raises(ValueError, match="fixture invalid"):
        example_5_3_runner(bad, 4, Example53Config(trials=2), RngStream(0))


# ---------------------------------------------------------------------------
# Report serialization


def test_reports_serialize_round_trip():
    sc = semicircle_measure(16)
    fr = asymptotic_freeness_experiment(sc, sc, [16], 2, 2, RngStream(3))
    data = json.loads(fr.to_json())
    assert data["n_values"] == [16]
    assert len(fr.to_csv().strip().split("\n")) == 2

    cv = free_convolution_experiment(sc, sc, 16, 2, 4, RngStream(3))
    data = json.loads(cv.to_json())
    assert len(data["empirical"]) == 4
    assert len(cv.to_csv().strip().split("\n")) == 5

    ad = entropy_additivity_experiment(_quad_spec(), _quad_spec(), [4], 2_000,
                                       RngStream(3))
    data = json.loads(ad.to_json())
    assert data["samples"] == 2_000
    assert len(ad.to_csv().strip().split("\n")) == 2

    ex = example_5_3_runner(example_5_3_fixture(), 4,
                            Example53Config(trials=2), RngStream(3))
    data = json.loads(ex.to_json())
    assert len(data["psi_same"]) == 2
    assert "x1 x2" in data["table_same"]
