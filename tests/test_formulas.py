"""Tests for *-polynomials, formula evaluation, parsing and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab.formulas import (
    BOUND_OFFSET,
    Basic,
    Connective,
    EvalConfig,
    Quantifier,
    StarPolynomial,
    StarWord,
    cyclic_gradient,
    eval_formula,
    eval_formula_info,
    eval_polynomial,
    eval_trace_polynomial,
    format_formula,
    format_polynomial,
    formula_depth,
    formula_free_variables,
    parse_formula,
    parse_polynomial,
    word_trace_table,
)
from mslab.matrices import (
    RngStream,
    normalized_trace,
    sample_ginibre,
    sample_haar_unitary,
    tuple_hs_inner,
)
from mslab.moments import all_words
from mslab.optimize import OptConfig

from oracles import trace_norm_normalized


# ---------------------------------------------------------------------------
# Words and polynomials


def test_word_parse_str_roundtrip():
    for text in ["x1", "x2*", "x1 x2* x1", "y1 x3 y1*"]:
        w = StarWord.parse(text)
        assert str(w) == text
        assert StarWord.parse(str(w)) == w


def test_word_adjoint_involution():
    w = StarWord.parse("x1 x2* x3")
    assert w.adjoint() == StarWord.parse("x3* x2 x1*")
    assert w.adjoint().adjoint() == w


def test_polynomial_drops_zero_coefficients():
    p = StarPolynomial({StarWord.parse("x1"): 0.0, StarWord.parse("x2"): 2.0})
    assert len(p.terms) == 1


def test_polynomial_algebra():
    p = StarPolynomial.monomial("x1", 2.0)
    q = StarPolynomial.monomial("x2*", 1.0 + 1.0j)
    prod = p * q
    assert prod.terms == {StarWord.parse("x1 x2*"): 2.0 + 2.0j}
    assert (p + q - p).terms == q.terms
    assert (p * q).adjoint().terms == {StarWord.parse("x2 x1*"): 2.0 - 2.0j}


def test_eval_polynomial_identity_case():
    p = parse_polynomial("x1 x1*")
    eye = np.eye(3, dtype=complex)[None]
    assert np.allclose(eval_polynomial(p, eye), np.eye(3), atol=1e-14)


def test_eval_polynomial_commutator_of_diagonals():
    p = parse_polynomial("x1 x2 - x2 x1")
    x = np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex),
                  np.diag([-1.0, 0.5, 2.0]).astype(complex)])
    assert np.allclose(eval_polynomial(p, x), 0.0, atol=1e-14)


def test_eval_polynomial_nilpotent_square():
    p = parse_polynomial("x1 x1")
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)[None]
    assert np.allclose(eval_polynomial(p, x), 0.0, atol=1e-14)


def test_eval_polynomial_respects_adjoint():
    rng = RngStream(70).generator()
    x = sample_ginibre(5, rng, size=(2,))
    p = parse_polynomial("(0.5+2.0i) x1 x2* x1 - 3.0 x2 + 1.5 x1 x1")
    a = eval_polynomial(p.adjoint(), x)
    b = eval_polynomial(p, x)
    assert np.allclose(a, b.conj().T, atol=1e-12)


def test_trace_polynomial_matches_matrix_route():
    rng = RngStream(71).generator()
    x = sample_ginibre(4, rng, size=(3,))
    p = parse_polynomial(
        "x1 x2 x3* x1 + 2.0 x2 x2* - 0.5 x3 + (1.0-1.0i) x1* x2* x1 x3 + 4.0")
    direct = normalized_trace(eval_polynomial(p, x))
    fast = eval_trace_polynomial(p, x)
    assert fast == pytest.approx(direct, abs=1e-12)


def test_trace_polynomial_batched():
    rng = RngStream(72).generator()
    x = sample_ginibre(4, rng, size=(2, 7))  # d=2 tuple, batch of 7
    p = parse_polynomial("x1 x2* x1 - 0.25 x2 x2")
    vals = eval_trace_polynomial(p, x)
    assert vals.shape == (7,)
    for i in range(7):
        assert vals[i] == pytest.approx(
            complex(eval_trace_polynomial(p, x[:, i])), abs=1e-12)


def _reference_trace(word, x):
    """tr_n of a word by plain left-to-right products, one word at a time."""
    x = np.asarray(x, dtype=np.complex128)
    mats = [np.conj(np.swapaxes(x[i - 1], -1, -2)) if star else x[i - 1]
            for i, star in word.letters]
    n = x.shape[-1]
    if len(mats) == 1:
        return np.trace(mats[0], axis1=-2, axis2=-1) / n
    prefix = mats[0]
    for m in mats[1:-1]:
        prefix = prefix @ m
    return np.einsum("...ij,...ji->...", prefix, mats[-1]) / n


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_word_trace_table_bitwise_matches_left_to_right_products(d, batch):
    x = sample_ginibre(4, RngStream(74 + d).generator(), size=(d,) + batch)
    words = [w for w in all_words(d, 4) if w.letters]
    table = word_trace_table(words, x)
    assert table.shape == (len(words),) + batch
    assert table.dtype == np.complex128
    ref = np.array([_reference_trace(w, x) for w in words])
    assert table.tobytes() == ref.tobytes()
    for w, row in zip(words[:12], table):
        assert np.array_equal(
            row, eval_trace_polynomial(StarPolynomial.monomial(w), x))


def test_word_trace_table_any_order_repeats_and_empty_word():
    x = sample_ginibre(3, RngStream(76).generator(), size=(2, 4))
    # "x1 x2 x1" and "x1 x2* x1 x1" share no length-2 prefix: the star counts
    words = [StarWord.parse(t) for t in
             ["x2 x1*", "x1 x2* x1 x1", "x1", "x2 x1*", "x1 x2 x1"]] + [StarWord()]
    table = word_trace_table(words, x)
    assert table.shape == (6, 4)
    for w, row in zip(words[:5], table):
        assert row.tobytes() == _reference_trace(w, x).tobytes()
    assert np.array_equal(table[0], table[3])
    assert np.array_equal(table[5], np.ones(4))
    assert word_trace_table([], x).shape == (0, 4)


_LETTERS = st.tuples(st.integers(1, 2), st.booleans())
_WORD_CASES = dict(word=st.lists(_LETTERS, min_size=1, max_size=6),
                   n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**_WORD_CASES)
def test_word_trace_is_cyclic(word, n, seed):
    x = sample_ginibre(n, RngStream(seed).generator(), size=(2,))
    rotations = [StarWord(tuple(word[k:] + word[:k])) for k in range(len(word))]
    table = word_trace_table(rotations, x)
    assert np.allclose(table, table[0], rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**_WORD_CASES)
def test_word_trace_of_adjoint_is_conjugate(word, n, seed):
    x = sample_ginibre(n, RngStream(seed).generator(), size=(2,))
    w = StarWord(tuple(word))
    table = word_trace_table([w, w.adjoint()], x)
    assert abs(table[1] - np.conj(table[0])) <= 1e-12


# ---------------------------------------------------------------------------
# Formula evaluation (quantifier-free)


def test_basic_formula_equals_direct_trace():
    rng = RngStream(73).generator()
    x = sample_ginibre(6, rng, size=(2,))
    phi = parse_formula("tr.re(x1 x1*)")
    direct = float(np.real(normalized_trace(x[0] @ x[0].conj().T)))
    assert eval_formula(phi, x) == pytest.approx(direct, abs=1e-12)
    psi = parse_formula("tr.im(x1 x2)")
    assert eval_formula(psi, x) == pytest.approx(
        float(np.imag(normalized_trace(x[0] @ x[1]))), abs=1e-12)


def test_connectives_against_direct_computation():
    rng = RngStream(74).generator()
    x = sample_ginibre(4, rng, size=(2,))
    a = float(np.real(normalized_trace(x[0])))
    b = float(np.imag(normalized_trace(x[1] @ x[1])))
    cases = [
        ("2.0*tr.re(x1) - 3.0*tr.im(x2 x2) + 1.0", 2 * a - 3 * b + 1),
        ("tr.re(x1) * tr.im(x2 x2)", a * b),
        ("max(tr.re(x1), tr.im(x2 x2))", max(a, b)),
        ("min(tr.re(x1), tr.im(x2 x2), 0.25)", min(a, b, 0.25)),
        ("abs(tr.im(x2 x2))", abs(b)),
        ("sqrt(abs(tr.re(x1)))", np.sqrt(abs(a))),
    ]
    for text, want in cases:
        assert eval_formula(parse_formula(text), x) == pytest.approx(want, abs=1e-12), text


def test_constant_only_formula():
    x = np.eye(2, dtype=complex)[None]
    assert eval_formula(parse_formula("3.5"), x) == pytest.approx(3.5)
    assert eval_formula(parse_formula("2.0 - 0.5"), x) == pytest.approx(1.5)


def test_batched_eval_matches_loop():
    rng = RngStream(75).generator()
    x = sample_ginibre(5, rng, size=(2, 9))
    phi = parse_formula("max(tr.re(x1 x2*), abs(tr.im(x1)) - 0.5)")
    vals = eval_formula(phi, x)
    assert vals.shape == (9,)
    for i in range(9):
        assert vals[i] == pytest.approx(eval_formula(phi, x[:, i]), abs=1e-12)


def test_unitary_conjugation_invariance():
    rng = RngStream(76).generator()
    x = sample_ginibre(6, rng, size=(2,))
    u = sample_haar_unitary(6, rng)
    y = np.stack([u @ x[0] @ u.conj().T, u @ x[1] @ u.conj().T])
    phi = parse_formula("tr.re(x1 x2* x1 x1) + 0.5*abs(tr.im(x2 x2 x1))")
    assert eval_formula(phi, y) == pytest.approx(eval_formula(phi, x), abs=1e-10)


def test_unbound_variable_rejected():
    x = np.eye(2, dtype=complex)[None]
    with pytest.raises(ValueError, match="unbound"):
        eval_formula(parse_formula("tr.re(x2)"), x)


def test_sqrt_of_negative_rejected_nowhere_but_clamped():
    x = (-np.eye(2, dtype=complex))[None]
    phi = parse_formula("sqrt(tr.re(x1))")  # argument is -1
    info = eval_formula_info(phi, x)
    assert info.value == 0.0
    assert "sqrt-domain-clamped" in info.flags


def test_non_finite_value_raises():
    x = np.full((1, 2, 2), 1e200, dtype=complex)
    phi = parse_formula("tr.re(x1 x1 x1) * tr.re(x1 x1 x1)")
    with pytest.raises(FloatingPointError):
        eval_formula(phi, x)


# ---------------------------------------------------------------------------
# Parser / printer


ROUNDTRIP_SAMPLES = [
    "tr.re(x1)",
    "tr.im(x1 x2* x1)",
    "tr.re(2.0 x1 - 3.5 x2 x2* + (1.5+2.0i) x1 x1 + 1.0)",
    "tr.re(1.0i x1 - x2)",
    "2.0*tr.re(x1) - 3.0*tr.im(x2) + 1.0",
    "tr.re(x1) * tr.im(x2)",
    "2.5*(tr.re(x1) * tr.re(x2))",
    "max(tr.re(x1), tr.im(x2), 0.5)",
    "min(tr.re(x1), 0.0)",
    "abs(tr.im(x1 x1))",
    "sqrt(abs(tr.re(x1)))",
    "sup{y1 in D(1.0)} (tr.re(y1 x1*))",
    "inf{y1 in D(2.0)} (abs(tr.im(y1)) + tr.re(y1 y1* x1))",
    "sup{y1 in D(1.0)} (inf{y2 in D(0.5)} (tr.re(y1 y2 x1)))",
    "tr.re(x1) - (tr.re(x2) - tr.re(x1))",
]


@pytest.mark.parametrize("text", ROUNDTRIP_SAMPLES)
def test_parse_format_roundtrip(text):
    phi = parse_formula(text)
    printed = format_formula(phi)
    again = parse_formula(printed)
    assert again == phi
    # canonical form is a fixed point of parse/format
    assert format_formula(again) == printed


def test_polynomial_parse_format_roundtrip():
    texts = [
        "x1",
        "2.0 x1 x2*",
        "x1 x1* - x2 x2* + 0.5",
        "(0.5-1.5i) x1 x2 x1* + 3.0i x2",
    ]
    for text in texts:
        p = parse_polynomial(text)
        assert parse_polynomial(format_polynomial(p)) == p


def test_parser_rejects_garbage():
    for bad in ["tr.re(x1", "sup{x1 in D(1.0)} (tr.re(x1))", "tr.re(x0*)+",
                "max(tr.re(x1))", "tr.re(x1) ** tr.re(x1)", "frob(x1)",
                # numbers that are or overflow to inf
                "1e400*tr.re(x1)", "tr.re(1e400 x1)", "1e200*1e200*tr.re(x1)",
                "sup{y1 in D(1e400)} (tr.re(y1 x1*))", "1e308 + 1e308",
                "tr.re(1e308 x1 + 1e308 x1)", "tr.re(1e400i x1)",
                "tr.re((1.0-1e400i) x1)"]:
        with pytest.raises(ValueError):
            parse_formula(bad)
    # a coefficient group names its overflowing part ...
    for bad in ["tr.re((1.0-1e400i) x1)", "tr.re((1e400+1.0i) x1)"]:
        with pytest.raises(ValueError, match="is not finite"):
            parse_formula(bad)
    # ... and a malformed group keeps the generic message
    with pytest.raises(ValueError, match="must be complex coefficients"):
        parse_formula("tr.re((1.0+2.0) x1)")


def test_free_and_bound_variables():
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x2* x7))")
    assert formula_free_variables(phi) == {2, 7}
    assert formula_depth(phi) == 1
    # a y-variable outside any quantifier counts as free (and is reported)
    loose = parse_formula("tr.re(y1)")
    assert formula_free_variables(loose) == {1 + BOUND_OFFSET}


# ---------------------------------------------------------------------------
# Quantifiers


def _quant_cfg(seed=0):
    return EvalConfig(opt=OptConfig(), rng=RngStream(seed))


def test_sup_linear_matches_trace_norm_oracle():
    # sup over the unit ball of Re tr(y x*) equals the normalized trace norm.
    rng = RngStream(80).generator()
    for n in (4, 6):
        x = sample_ginibre(n, rng)
        phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1*))")
        val = eval_formula(phi, x[None], _quant_cfg(3))
        assert val == pytest.approx(trace_norm_normalized(x), rel=1e-6, abs=1e-8)


def test_sup_at_identity_is_one():
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1*))")
    eye = np.eye(4, dtype=complex)[None]
    assert eval_formula(phi, eye, _quant_cfg(4)) == pytest.approx(1.0, abs=1e-7)


def test_inf_abs_trace_is_zero():
    phi = parse_formula("inf{y1 in D(1.0)} (abs(tr.im(y1)))")
    x = np.eye(3, dtype=complex)[None]
    assert eval_formula(phi, x, _quant_cfg(5)) == pytest.approx(0.0, abs=1e-9)


def test_alpha_equivalence_bitwise():
    rng = RngStream(81).generator()
    x = sample_ginibre(4, rng)[None]
    a = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1* y1*))")
    b = parse_formula("sup{y7 in D(1.0)} (tr.re(y7 x1* y7*))")
    va = eval_formula(a, x, _quant_cfg(6))
    vb = eval_formula(b, x, _quant_cfg(6))
    assert va == vb


def test_sup_monotone_in_radius():
    rng = RngStream(82).generator()
    x = sample_ginibre(4, rng)[None]
    vals = []
    for r in (0.5, 1.0, 2.0):
        phi = parse_formula(f"sup{{y1 in D({r})}} (tr.re(y1 x1* y1* x1))")
        vals.append(eval_formula(phi, x, _quant_cfg(7)))
    assert vals[0] <= vals[1] + 1e-7
    assert vals[1] <= vals[2] + 1e-7


def test_quantifier_witness_attains_value():
    rng = RngStream(83).generator()
    x = sample_ginibre(5, rng)
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1*))")
    info = eval_formula_info(phi, x[None], _quant_cfg(8))
    var = 1 + BOUND_OFFSET
    assert var in info.witnesses
    w = info.witnesses[var]
    attained = float(np.real(normalized_trace(w @ np.conj(x.T))))
    assert attained == pytest.approx(info.value, abs=1e-9)


def test_depth_cap_enforced():
    phi = parse_formula(
        "sup{y1 in D(1.0)} (sup{y2 in D(1.0)} (sup{y3 in D(1.0)} "
        "(tr.re(y1 y2 y3 x1))))")
    x = np.eye(2, dtype=complex)[None]
    with pytest.raises(ValueError, match="depth"):
        eval_formula(phi, x, _quant_cfg(9))


def test_batched_quantifier_matches_per_sample():
    rng = RngStream(84).generator()
    x = sample_ginibre(3, rng, size=(1, 4))
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1*))")
    vals = eval_formula(phi, x, _quant_cfg(10))
    assert vals.shape == (4,)
    for i in range(4):
        oracle = trace_norm_normalized(x[0, i])
        assert vals[i] == pytest.approx(oracle, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# Cyclic gradients


def test_gradient_of_retrace_is_identity():
    phi = parse_formula("tr.re(x1)")
    x = sample_ginibre(4, RngStream(90).generator())[None]
    g = cyclic_gradient(phi, x)
    assert np.allclose(g[0], np.eye(4), atol=1e-12)


def test_gradient_of_hs_norm_squared():
    phi = parse_formula("tr.re(x1 x1*)")
    x = sample_ginibre(4, RngStream(91).generator())[None]
    g = cyclic_gradient(phi, x)
    assert np.allclose(g, 2.0 * x, atol=1e-12)


def test_gradient_of_square_is_twice_adjoint():
    phi = parse_formula("tr.re(x1 x1)")
    x = sample_ginibre(4, RngStream(92).generator())[None]
    g = cyclic_gradient(phi, x)
    assert np.allclose(g[0], 2.0 * x[0].conj().T, atol=1e-12)


def test_gradient_zero_at_stationary_point():
    phi = parse_formula("tr.re(x1 x1*)")
    x = np.zeros((1, 3, 3), dtype=complex)
    assert np.allclose(cyclic_gradient(phi, x), 0.0, atol=1e-14)


def test_gradient_rejects_quantifiers():
    phi = parse_formula("sup{y1 in D(1.0)} (tr.re(y1 x1*))")
    x = np.eye(2, dtype=complex)[None]
    with pytest.raises(ValueError, match="quantifier"):
        cyclic_gradient(phi, x)


def test_gradient_warns_at_max_tie():
    phi = parse_formula("max(tr.re(x1), tr.re(x1))")
    x = np.eye(2, dtype=complex)[None]
    with pytest.warns(RuntimeWarning, match="tie"):
        cyclic_gradient(phi, x)


def _random_smooth_formula(rng, d, max_terms=3):
    """Random quantifier-free formula built from smooth pieces."""

    def rand_poly():
        terms = {}
        for _ in range(rng.integers(1, max_terms + 1)):
            length = int(rng.integers(1, 5))
            letters = tuple(
                (int(rng.integers(1, d + 1)), bool(rng.integers(0, 2)))
                for _ in range(length))
            c = complex(rng.normal(), rng.normal())
            w = StarWord(letters)
            terms[w] = terms.get(w, 0.0) + c
        return StarPolynomial(terms)

    def leaf():
        return Basic("re" if rng.integers(0, 2) else "im", rand_poly())

    kind = rng.integers(0, 4)
    if kind == 0:
        return leaf()
    if kind == 1:
        k = int(rng.integers(2, 4))
        return Connective("affine", tuple(leaf() for _ in range(k)),
                          tuple(float(rng.normal()) for _ in range(k)),
                          float(rng.normal()))
    if kind == 2:
        return Connective("product", (leaf(), leaf()))
    # sqrt of something kept strictly positive
    inner = Connective("affine", (leaf(),), (0.1,), 25.0)
    return Connective("sqrt", (inner,))


@pytest.mark.parametrize("n", [4, 8])
def test_gradient_matches_finite_differences(n):
    rng = RngStream(93).generator()
    eps = 1e-5
    for trial in range(12):
        d = int(rng.integers(1, 3))
        phi = _random_smooth_formula(rng, d)
        x = sample_ginibre(n, rng, size=(d,))
        g = cyclic_gradient(phi, x)
        for _ in range(2):
            h = sample_ginibre(n, rng, size=(d,))
            fd = (eval_formula(phi, x + eps * h) -
                  eval_formula(phi, x - eps * h)) / (2 * eps)
            an = float(np.real(tuple_hs_inner(g, h)))
            scale = max(1.0, abs(fd))
            assert abs(fd - an) / scale < 1e-5, (trial, d)
