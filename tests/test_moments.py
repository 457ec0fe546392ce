"""Tests for non-crossing partitions, cumulants, and free-probability oracles."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab.formulas import StarWord
from mslab.moments import (
    CumulantVector,
    MomentVector,
    all_words,
    cumulants_to_moments,
    enumerate_nc,
    free_convolve,
    free_product_moments,
    moments_to_cumulants,
    reference_law,
    subword_closure,
)

from oracles import (
    arcsine_even_moment,
    catalan,
    moments_from_free_cumulants_closed,
    noncrossing_partitions_bruteforce,
    semicircle_moment,
)


# ---------------------------------------------------------------------------
# Non-crossing partitions


def test_enumerate_nc_small_counts():
    assert len(enumerate_nc(1)) == 1
    assert len(enumerate_nc(3)) == 5
    assert len(enumerate_nc(4)) == 14


def test_enumerate_nc_catalan_counts():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n), n


def test_enumerate_nc_matches_bruteforce():
    # the brute-force oracle uses ground set {0..n-1}
    for n in range(1, 7):
        ours = {tuple(sorted(p.blocks)) for p in enumerate_nc(n)}
        brute = {tuple(sorted(tuple(q + 1 for q in sorted(b)) for b in blocks))
                 for blocks in noncrossing_partitions_bruteforce(n)}
        assert ours == brute, n


def test_enumerate_nc_unique_and_valid():
    parts = enumerate_nc(6)
    assert len({p.blocks for p in parts}) == len(parts)
    for p in parts:
        flat = sorted(q for b in p.blocks for q in b)
        assert flat == list(range(1, 7))


def test_enumerate_nc_range_check():
    with pytest.raises(ValueError):
        enumerate_nc(0)
    with pytest.raises(ValueError):
        enumerate_nc(13)


# ---------------------------------------------------------------------------
# Moment / cumulant transforms


def test_semicircle_moments_to_cumulants():
    mv = MomentVector.from_single_moments(
        [semicircle_moment(k) for k in range(1, 9)])
    cv = moments_to_cumulants(mv)
    x = StarWord.parse("x1 x1")
    assert cv[x] == pytest.approx(1.0, abs=1e-12)
    for w in cv.words():
        if len(w) not in (0, 2):
            assert abs(cv[w]) < 1e-12, w


def test_point_mass_cumulants():
    c = 0.7
    mv = MomentVector.from_single_moments([c**k for k in range(1, 5)])
    cv = moments_to_cumulants(mv)
    assert cv["x1"] == pytest.approx(c, abs=1e-12)
    # kappa_2 = m2 - m1^2 = 0 for a point mass
    assert cv["x1 x1"] == pytest.approx(0.0, abs=1e-12)
    assert cv["x1 x1 x1"] == pytest.approx(0.0, abs=1e-12)


def test_zero_moments_give_zero_cumulants():
    words = subword_closure([StarWord.parse("x1 x1* x1 x1*")])
    vals = {w: (1.0 if len(w) == 0 else 0.0) for w in words}
    cv = moments_to_cumulants(MomentVector(1, 4, vals))
    for w in cv.words():
        if len(w) >= 1:
            assert abs(cv[w]) < 1e-12


def test_cumulants_to_moments_circular():
    law = reference_law("circular", max_len=4)
    assert law["x1 x1*"] == pytest.approx(1.0, abs=1e-12)
    assert law["x1 x1"] == pytest.approx(0.0, abs=1e-12)
    assert law["x1 x1* x1 x1*"] == pytest.approx(2.0, abs=1e-12)


def test_single_variable_kappa2_gives_m4_2():
    kv = CumulantVector(1, 4, {StarWord.parse("x1 x1"): 1.0})
    words = [StarWord(((1, False),) * k) for k in range(1, 5)]
    mv = cumulants_to_moments(kv, words)
    assert mv["x1 x1 x1 x1"] == pytest.approx(2.0, abs=1e-12)


def test_moments_match_closed_forms_to_order_4():
    # independent check against hand-derived moment formulas in kappa_1..4
    rng = np.random.default_rng(5)
    k = rng.normal(size=4)
    kv = CumulantVector(1, 4, {
        StarWord(((1, False),) * j): k[j - 1] for j in range(1, 5)})
    words = [StarWord(((1, False),) * j) for j in range(1, 5)]
    mv = cumulants_to_moments(kv, words)
    closed = moments_from_free_cumulants_closed(k)
    for j in range(1, 5):
        assert mv[StarWord(((1, False),) * j)] == pytest.approx(closed[j - 1], abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roundtrip_random_moment_vectors(seed):
    # random moment vectors realized by random matrix tuples (d up to 3,
    # words up to length 8), on subsequence-closed word sets
    from mslab.formulas import StarPolynomial, eval_trace_polynomial
    from mslab.matrices import RngStream, sample_ginibre

    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    x = 0.8 * sample_ginibre(6, RngStream(100 + seed).generator(), size=(d,))
    base = []
    for _ in range(3):
        length = int(rng.integers(6, 9))
        letters = tuple((int(rng.integers(1, d + 1)), bool(rng.integers(0, 2)))
                        for _ in range(length))
        base.append(StarWord(letters))
    words = subword_closure(base)
    vals = {w: eval_trace_polynomial(StarPolynomial.monomial(w), x)
            for w in words}
    mv = MomentVector(d, 8, vals)
    cv = moments_to_cumulants(mv)
    back = cumulants_to_moments(cv, words)
    for w in words:
        assert back[w] == pytest.approx(mv[w], abs=1e-12)
    # and the other composition direction
    cv2 = moments_to_cumulants(back)
    for w in words:
        assert cv2[w] == pytest.approx(cv[w], abs=1e-12)


# ---------------------------------------------------------------------------
# Reference laws


def test_semicircular_reference_law():
    law = reference_law("semicircular", max_len=6)
    assert law["x1 x1"] == pytest.approx(1.0, abs=1e-12)
    assert law["x1 x1 x1 x1"] == pytest.approx(2.0, abs=1e-12)
    assert law["x1 x1 x1 x1 x1 x1"] == pytest.approx(5.0, abs=1e-12)
    assert law["x1 x1 x1"] == pytest.approx(0.0, abs=1e-12)
    # star pattern does not matter for a self-adjoint law
    assert law["x1 x1* x1 x1*"] == pytest.approx(2.0, abs=1e-12)
    law.validate()


def test_free_circular_family():
    law = reference_law("free_circular_family(2)", max_len=4)
    assert law["x1 x2*"] == pytest.approx(0.0, abs=1e-12)
    assert law["x1 x1*"] == pytest.approx(1.0, abs=1e-12)
    assert law["x2 x2*"] == pytest.approx(1.0, abs=1e-12)
    assert law["x1 x2 x1* x2*"] == pytest.approx(0.0, abs=1e-12)
    assert law["x1 x1* x2 x2*"] == pytest.approx(1.0, abs=1e-12)
    law.validate()


def test_reference_law_unknown_name():
    with pytest.raises(ValueError):
        reference_law("gaussian")


# ---------------------------------------------------------------------------
# Free products


def test_free_product_alternating_word_vanishes():
    a = reference_law("semicircular", max_len=4)
    b = reference_law("semicircular", max_len=4)
    joint = free_product_moments(a, b, 4)
    assert joint["x1 x2 x1 x2"] == pytest.approx(0.0, abs=1e-12)
    assert joint["x1 x1 x2 x2"] == pytest.approx(1.0, abs=1e-12)


def test_free_product_restriction_reproduces_factors():
    a = reference_law("circular", max_len=4)
    b = reference_law("semicircular", max_len=4)
    joint = free_product_moments(a, b, 4)
    for w in all_words(1, 4):
        assert joint[w] == pytest.approx(a[w], abs=1e-12), w
        shifted = StarWord(tuple((2, s) for _, s in w.letters))
        assert joint[shifted] == pytest.approx(b[w], abs=1e-12), w


def test_free_product_with_zero_point_mass():
    a = reference_law("semicircular", max_len=4)
    zero = MomentVector(1, 4, {w: (1.0 if len(w) == 0 else 0.0)
                               for w in all_words(1, 4)})
    joint = free_product_moments(a, zero, 4)
    assert joint["x1 x2"] == pytest.approx(0.0, abs=1e-12)
    assert joint["x2 x2*"] == pytest.approx(0.0, abs=1e-12)
    assert joint["x1 x1"] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Free convolution


def test_free_convolve_semicircles():
    s = reference_law("semicircular", max_len=6)
    sc = MomentVector.from_single_moments(s.single_moments())
    out = free_convolve(sc, sc, 6)
    assert out.single_moments()[1] == pytest.approx(2.0, abs=1e-12)
    assert out.single_moments()[3] == pytest.approx(8.0, abs=1e-12)
    # variance-2 semicircle: m6 = 5 * 2^3
    assert out.single_moments()[5] == pytest.approx(40.0, abs=1e-12)


def test_free_convolve_identity_element():
    mu = MomentVector.from_single_moments([0.3, 1.1, 0.2, 2.0])
    delta0 = MomentVector.from_single_moments([0.0, 0.0, 0.0, 0.0])
    out = free_convolve(mu, delta0, 4)
    for a, b in zip(out.single_moments(), mu.single_moments()):
        assert a == pytest.approx(b, abs=1e-12)


def test_free_convolve_point_masses_shift():
    a, b = 0.6, -1.3
    da = MomentVector.from_single_moments([a**k for k in range(1, 5)])
    db = MomentVector.from_single_moments([b**k for k in range(1, 5)])
    out = free_convolve(da, db, 4)
    for k, m in enumerate(out.single_moments(), start=1):
        assert m == pytest.approx((a + b) ** k, abs=1e-12)


def test_free_convolve_bernoulli_gives_arcsine():
    bern = MomentVector.from_single_moments([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    out = free_convolve(bern, bern, 6)
    ms = out.single_moments()
    for k in (1, 2, 3):
        assert ms[2 * k - 1] == pytest.approx(arcsine_even_moment(k), abs=1e-12)
        assert ms[2 * k - 2] == pytest.approx(0.0, abs=1e-12)


def test_free_convolve_commutative_associative():
    rng = np.random.default_rng(9)
    laws = []
    for _ in range(3):
        # moment sequences of small random atomic measures (guaranteed valid)
        atoms = rng.normal(size=3)
        weights = rng.dirichlet(np.ones(3))
        laws.append(MomentVector.from_single_moments(
            [float(np.sum(weights * atoms**k)) for k in range(1, 7)]))
    a, b, c = laws
    ab = free_convolve(a, b, 6)
    ba = free_convolve(b, a, 6)
    for x, y in zip(ab.single_moments(), ba.single_moments()):
        assert x == pytest.approx(y, abs=1e-12)
    ab_c = free_convolve(ab, c, 6)
    a_bc = free_convolve(a, free_convolve(b, c, 6), 6)
    for x, y in zip(ab_c.single_moments(), a_bc.single_moments()):
        assert x == pytest.approx(y, abs=1e-12)


def test_free_convolve_rejects_complex_moments():
    mu = MomentVector(1, 2, {StarWord.parse("x1"): 1.0j,
                             StarWord.parse("x1 x1"): 1.0})
    with pytest.raises(ValueError):
        free_convolve(mu, mu, 2)


# ---------------------------------------------------------------------------
# Vector plumbing


def test_momentvector_validation_catches_bad_unit():
    with pytest.raises(ValueError, match="empty-word"):
        MomentVector(1, 2, {StarWord(): 0.5}).validate()


def test_momentvector_validation_catches_conjugate_asymmetry():
    vals = {StarWord(): 1.0,
            StarWord.parse("x1"): 1.0 + 1.0j,
            StarWord.parse("x1*"): 1.0 + 1.0j}
    with pytest.raises(ValueError, match="conjugate"):
        MomentVector(1, 1, vals).validate()


def test_momentvector_validation_catches_closure_gap():
    vals = {StarWord(): 1.0, StarWord.parse("x1 x1"): 1.0}
    with pytest.raises(ValueError, match="closed"):
        MomentVector(1, 2, vals).validate()


def test_momentvector_json_roundtrip():
    law = reference_law("circular", max_len=4)
    again = MomentVector.from_json(law.to_json())
    assert again.d == law.d and again.max_len == law.max_len
    for w in law.words():
        assert again[w] == law[w]


def test_max_len_cap():
    with pytest.raises(ValueError, match="cap"):
        MomentVector(1, 11, {})


# ---------------------------------------------------------------------------
# The memoized NC sum against one loop per transform, bit for bit
#
# The references below walk every NC partition and build every block
# restriction afresh, one loop per transform, each in the same partition
# and block order, stopping a product at its first exact zero.


def _restrict(letters, block):
    return StarWord(tuple(letters[p - 1] for p in block))


def _ref_moments_to_cumulants(mv):
    kappa = {StarWord(): 0.0}
    for w in mv.words():
        k = len(w.letters)
        if k == 0:
            continue
        acc = mv.values[w]
        for part in enumerate_nc(k):
            if len(part) == 1:
                continue
            prod = 1.0 + 0.0j
            for b in part.blocks:
                prod *= kappa[_restrict(w.letters, b)]
                if prod == 0.0:
                    break
            acc -= prod
        kappa[w] = acc
    return CumulantVector(mv.d, mv.max_len, kappa)


def _ref_sum(w, kappa_of):
    total = 0.0 + 0.0j
    for part in enumerate_nc(len(w.letters)):
        prod = 1.0 + 0.0j
        for b in part.blocks:
            prod *= kappa_of(_restrict(w.letters, b))
            if prod == 0.0:
                break
        total += prod
    return total


def _ref_cumulants_to_moments(cv, words):
    out = {StarWord(): 1.0}
    for w in sorted(words, key=lambda w: (len(w), w.letters)):
        if w.letters:
            out[w] = _ref_sum(w, lambda sub: cv.values.get(sub, 0.0))
    return MomentVector(cv.d, cv.max_len, out)


def _ref_free_product_moments(mv_a, mv_b, max_len, words):
    ka = _ref_moments_to_cumulants(mv_a)
    kb = _ref_moments_to_cumulants(mv_b)

    def kappa(sub):
        families = {idx <= mv_a.d for idx, _ in sub.letters}
        if len(families) > 1:
            return 0.0
        if True in families:
            return ka.values[sub]
        return kb.values[StarWord(tuple((idx - mv_a.d, s) for idx, s in sub.letters))]

    out = {StarWord(): 1.0}
    for w in sorted(words, key=lambda w: (len(w), w.letters)):
        if w.letters:
            out[w] = _ref_sum(w, kappa)
    return MomentVector(mv_a.d + mv_b.d, max_len, out)


def _ref_reference_law_moments(cv, max_len):
    out = {StarWord(): 1.0}
    for w in all_words(cv.d, max_len):
        if not w.letters:
            continue
        total = 0.0 + 0.0j
        for part in enumerate_nc(len(w.letters)):
            if any(len(b) != 2 for b in part.blocks):
                continue
            prod = 1.0 + 0.0j
            for b in part.blocks:
                prod *= cv.values.get(_restrict(w.letters, b), 0.0)
                if prod == 0.0:
                    break
            total += prod
        out[w] = total
    return out


def _bits(table):
    """Every value's exact bits, signed zeros included."""
    return {w: struct.pack("<dd", v.real, v.imag) for w, v in table.values.items()}


def _random_value(rng):
    # exact zeros of both signs make products stop early and exercise the
    # sign of zero in the subtraction of moments_to_cumulants
    u = rng.random()
    if u < 0.15:
        return 0.0
    if u < 0.25:
        return complex(-0.0, -0.0)
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _random_closed_words(rng, d, max_len, count):
    letters = [(j, s) for j in range(1, d + 1) for s in (False, True)]
    base = [StarWord(tuple(letters[int(rng.integers(len(letters)))]
                           for _ in range(int(rng.integers(1, max_len + 1)))))
            for _ in range(count)]
    return subword_closure(base)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nc_transforms_match_per_loop_sums_bitwise(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(4):
        words = _random_closed_words(rng, d, 6, 3)
        mv = MomentVector(d, 6, {w: _random_value(rng) for w in words if w.letters})
        assert _bits(moments_to_cumulants(mv)) == _bits(_ref_moments_to_cumulants(mv))
        # a sparse cumulant vector: missing restrictions count as zero
        cv = CumulantVector(d, 6, {w: _random_value(rng) for w in words
                                   if w.letters and rng.random() < 0.6})
        assert (_bits(cumulants_to_moments(cv, words))
                == _bits(_ref_cumulants_to_moments(cv, words)))
    # all moments -0.0: every product is a zero, and its sign reaches kappa
    zeros = MomentVector(d, 4, {w: complex(-0.0, -0.0) for w in all_words(d, 4) if w.letters})
    assert _bits(moments_to_cumulants(zeros)) == _bits(_ref_moments_to_cumulants(zeros))


@pytest.mark.parametrize("da,db,max_len", [(1, 1, 5), (1, 2, 4), (2, 1, 4)])
def test_free_product_matches_per_loop_sum_bitwise(da, db, max_len):
    rng = np.random.default_rng(50 + 3 * da + db)
    mv_a = MomentVector(da, max_len, {w: _random_value(rng)
                                      for w in all_words(da, max_len) if w.letters})
    mv_b = MomentVector(db, max_len, {w: _random_value(rng)
                                      for w in all_words(db, max_len) if w.letters})
    every = all_words(da + db, max_len)
    some = [every[int(i)] for i in rng.choice(len(every), size=60, replace=False)]
    for words in (None, some):
        got = free_product_moments(mv_a, mv_b, max_len, words)
        want = _ref_free_product_moments(mv_a, mv_b, max_len,
                                         every if words is None else words)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("name,max_len", [("semicircular", 6), ("circular", 6),
                                          ("free_circular_family(2)", 5)])
def test_reference_law_matches_pair_partition_sum_bitwise(name, max_len):
    law = reference_law(name, max_len)
    d = law.d
    letters = [(j, s) for j in range(1, d + 1) for s in (False, True)]
    pairs = {StarWord((a, b)): law[StarWord((a, b))] for a in letters for b in letters}
    cv = CumulantVector(d, max_len, pairs)  # second moments = pair cumulants
    assert _bits(law) == _bits(MomentVector(d, max_len,
                                            _ref_reference_law_moments(cv, max_len)))


@pytest.mark.parametrize("missing", ["a", "b"])
def test_free_product_rejects_uncovered_restriction(missing):
    # a closed but short factor: x1 x1 is its longest word.  The message
    # names the restriction in the factor's own variables.
    short = MomentVector(1, 4, {"x1": 0.0, "x1 x1": 1.0})
    full = reference_law("semicircular", max_len=4)
    a, b = (short, full) if missing == "a" else (full, short)
    word = StarWord.parse("x1 x1 x1" if missing == "a" else "x2 x2 x2")
    with pytest.raises(ValueError, match="does not cover the restriction x1 x1 x1;"):
        free_product_moments(a, b, 4, [StarWord.parse("x1 x2"), word])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(1, 2), max_len=st.integers(1, 6), count=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_cumulant_round_trip_property(d, max_len, count, seed):
    rng = np.random.default_rng(seed)
    words = _random_closed_words(rng, d, max_len, count)
    mv = MomentVector(d, max_len, {
        w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in words if w.letters})
    back = cumulants_to_moments(moments_to_cumulants(mv), mv.words())
    assert max(abs(back[w] - mv[w]) for w in mv.words()) < 1e-12
