"""Trace polynomials of *-words and quantified formulas over matrix tuples.

The value language is built from normalized traces of noncommutative *-words:

* ``StarWord``: a word in letters x_j / x_j* (j >= 1),
* ``StarPolynomial``: complex linear combination of words,
* formulas: Re/Im of a trace polynomial (``Basic``), real connectives
  (``Connective`` with kinds affine / product / max / min / abs / sqrt), and
  norm-ball quantifiers (``Quantifier`` with kinds sup / inf over the
  operator-norm ball D(r)).

Text syntax (round-trips through ``parse_formula`` / ``format_formula``)::

    tr.re(x1 x2* x1 - 2 x2 + (0.5+1i) x1 x1*)
    0.5*tr.re(x1 x1) + max(tr.im(x2), abs(tr.re(x1)))
    sup{y1 in D(1.0)} (tr.re(y1 x1*))

Free variables are named ``x1, x2, ...``; quantifier-bound variables are
named ``y1, y2, ...`` and live in a disjoint index range internally, so
evaluation is invariant under renaming bound variables.

Quantified values are computed by multi-start projected gradient descent and
are one-sided: a ``sup`` value is a certified lower bound of the true
supremum, an ``inf`` value a certified upper bound (the witness is feasible).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .matrices import RngStream, normalized_trace
from .optimize import OptConfig, minimize_over_ball

__all__ = [
    "BOUND_OFFSET",
    "StarWord",
    "StarPolynomial",
    "Basic",
    "Connective",
    "Quantifier",
    "Formula",
    "EvalConfig",
    "EvalInfo",
    "eval_polynomial",
    "eval_trace_polynomial",
    "word_trace_table",
    "eval_formula",
    "eval_formula_info",
    "cyclic_gradient",
    "formula_free_variables",
    "formula_depth",
    "parse_formula",
    "format_formula",
    "parse_polynomial",
    "format_polynomial",
]

# Bound variables y_k are stored as index k + BOUND_OFFSET so that one integer
# index space serves both; anything below the offset is free.
BOUND_OFFSET = 1_000_000

Letter = Tuple[int, bool]  # (variable index, starred)


# ---------------------------------------------------------------------------
# Words and polynomials


@dataclass(frozen=True)
class StarWord:
    """A word in the letters x_j, x_j*; the empty word is the unit."""

    letters: Tuple[Letter, ...] = ()

    def __post_init__(self):
        for idx, star in self.letters:
            if not (isinstance(idx, int) and idx >= 1):
                raise ValueError(f"variable index must be a positive int, got {idx!r}")
            if not isinstance(star, bool):
                raise ValueError("star flag must be bool")

    def __len__(self) -> int:
        return len(self.letters)

    def adjoint(self) -> "StarWord":
        return StarWord(tuple((i, not s) for i, s in reversed(self.letters)))

    def variables(self) -> set:
        return {i for i, _ in self.letters}

    def __str__(self) -> str:
        return " ".join(_letter_name(i, s) for i, s in self.letters) if self.letters else "1"

    @staticmethod
    def parse(text: str) -> "StarWord":
        letters = []
        for tok in text.split():
            m = re.fullmatch(r"([xy])(\d+)(\*?)", tok)
            if not m:
                raise ValueError(f"bad letter {tok!r}")
            base = int(m.group(2)) + (BOUND_OFFSET if m.group(1) == "y" else 0)
            letters.append((base, m.group(3) == "*"))
        return StarWord(tuple(letters))


def _letter_name(idx: int, star: bool) -> str:
    if idx >= BOUND_OFFSET:
        root = f"y{idx - BOUND_OFFSET}"
    else:
        root = f"x{idx}"
    return root + ("*" if star else "")


@dataclass(frozen=True)
class StarPolynomial:
    """Finite complex combination sum_w c_w * w of *-words."""

    terms: Mapping[StarWord, complex]

    def __post_init__(self):
        cleaned = {w: complex(c) for w, c in dict(self.terms).items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def monomial(word: Union[str, StarWord], coeff: complex = 1.0) -> "StarPolynomial":
        if isinstance(word, str):
            word = StarWord.parse(word)
        return StarPolynomial({word: coeff})

    @staticmethod
    def parse(text: str) -> "StarPolynomial":
        return parse_polynomial(text)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def variables(self) -> set:
        out = set()
        for w in self.terms:
            out |= w.variables()
        return out

    def adjoint(self) -> "StarPolynomial":
        out: Dict[StarWord, complex] = {}
        for w, c in self.terms.items():
            wa = w.adjoint()
            out[wa] = out.get(wa, 0.0) + np.conj(c)
        return StarPolynomial(out)

    def __add__(self, other: "StarPolynomial") -> "StarPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0.0) + c
        return StarPolynomial(out)

    def __sub__(self, other: "StarPolynomial") -> "StarPolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, StarPolynomial):
            out: Dict[StarWord, complex] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = StarWord(w1.letters + w2.letters)
                    out[w] = out.get(w, 0.0) + c1 * c2
            return StarPolynomial(out)
        out = {w: c * complex(other) for w, c in self.terms.items()}
        return StarPolynomial(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Basic:
    """Re or Im of the normalized trace of a *-polynomial."""

    part: str  # "re" | "im"
    poly: StarPolynomial

    def __post_init__(self):
        if self.part not in ("re", "im"):
            raise ValueError("part must be 're' or 'im'")


@dataclass(frozen=True)
class Connective:
    """Real connective over subformulas.

    kinds: ``affine`` (const + sum coeff_i * arg_i; subsumes sums and scalar
    multiples), ``product``, ``max``, ``min``, ``abs``, ``sqrt``.
    """

    kind: str
    args: Tuple["Formula", ...]
    coeffs: Tuple[float, ...] = ()
    const: float = 0.0

    def __post_init__(self):
        if self.kind not in ("affine", "product", "max", "min", "abs", "sqrt"):
            raise ValueError(f"unknown connective kind {self.kind!r}")
        if self.kind == "affine" and len(self.coeffs) != len(self.args):
            raise ValueError("affine needs one coefficient per argument")
        if self.kind in ("abs", "sqrt") and len(self.args) != 1:
            raise ValueError(f"{self.kind} is unary")
        if self.kind in ("max", "min", "product") and len(self.args) < 2:
            raise ValueError(f"{self.kind} needs at least two arguments")


@dataclass(frozen=True)
class Quantifier:
    """sup/inf of the body over a bound variable in the op-norm ball D(radius)."""

    kind: str  # "sup" | "inf"
    var: int  # bound index (>= BOUND_OFFSET when built by the parser)
    radius: float
    body: "Formula"

    def __post_init__(self):
        if self.kind not in ("sup", "inf"):
            raise ValueError("kind must be 'sup' or 'inf'")
        if self.radius <= 0:
            raise ValueError("quantifier radius must be positive")


Formula = Union[Basic, Connective, Quantifier]


def formula_free_variables(phi: Formula, bound: frozenset = frozenset()) -> set:
    """Indices of free variables (bound occurrences excluded)."""
    if isinstance(phi, Basic):
        return {v for v in phi.poly.variables() if v not in bound}
    if isinstance(phi, Connective):
        out = set()
        for a in phi.args:
            out |= formula_free_variables(a, bound)
        return out
    return formula_free_variables(phi.body, bound | {phi.var})


def formula_depth(phi: Formula) -> int:
    """Maximum quantifier nesting depth."""
    if isinstance(phi, Basic):
        return 0
    if isinstance(phi, Connective):
        return max((formula_depth(a) for a in phi.args), default=0)
    return 1 + formula_depth(phi.body)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs; quantifier optimization delegates to OptConfig."""

    opt: OptConfig = field(default_factory=OptConfig)
    max_quantifier_depth: int = 2
    rng: RngStream = field(default_factory=lambda: RngStream(0))


@dataclass
class EvalInfo:
    """Value plus diagnostics: one-sided uncertainty and evaluation flags."""

    value: float
    uncertainty: float = 0.0
    flags: frozenset = frozenset()
    witnesses: Dict[int, np.ndarray] = field(default_factory=dict)


def _env_from(x) -> Dict[int, np.ndarray]:
    if isinstance(x, dict):
        return {int(k): np.asarray(v, dtype=np.complex128) for k, v in x.items()}
    arr = np.asarray(getattr(x, "arrays", x), dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim < 3 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected (d, ..., n, n) stack, got {arr.shape}")
    return {j + 1: arr[j] for j in range(arr.shape[0])}


def _letter_matrix(letter: Letter, env, adj_cache) -> np.ndarray:
    idx, star = letter
    if idx not in env:
        raise KeyError(f"no matrix bound for variable {_letter_name(idx, False)}")
    if not star:
        return env[idx]
    if idx not in adj_cache:
        adj_cache[idx] = np.conj(np.swapaxes(env[idx], -1, -2))
    return adj_cache[idx]


def eval_polynomial(poly: StarPolynomial, x) -> np.ndarray:
    """Matrix value of a *-polynomial at a matrix tuple, batched.

    ``x`` may be a MatrixTuple, a (d, n, n) stack, a (d, *batch, n, n) stack,
    or an index->matrix dict.  Returns an (..., n, n) array.  Linear in the
    coefficients and compatible with the involution:
    eval_polynomial(p.adjoint(), x) is the conjugate transpose.
    """
    env = _env_from(x)
    if not env:
        raise ValueError("cannot infer matrix dimension from an empty tuple")
    adj_cache: Dict[int, np.ndarray] = {}
    some = next(iter(env.values()))
    n = some.shape[-1]
    out = np.zeros_like(some)
    eye = np.zeros_like(some)
    eye[..., np.arange(n), np.arange(n)] = 1.0

    words = sorted(poly.terms.keys(), key=lambda w: w.letters)
    stack: list = []  # (letter, running prefix product)
    for w in words:
        c = poly.terms[w]
        if not w.letters:
            out = out + c * eye
            continue
        keep = 0
        while keep < len(stack) and keep < len(w.letters) and stack[keep][0] == w.letters[keep]:
            keep += 1
        del stack[keep:]
        while len(stack) < len(w.letters):
            letter = w.letters[len(stack)]
            m = _letter_matrix(letter, env, adj_cache)
            prod = m if not stack else stack[-1][1] @ m
            stack.append((letter, prod))
        out = out + c * stack[-1][1]
    return out


def _sorted_word_traces(words, env, n: int) -> list:
    """tr_n(w(X)) for each word of a letter-sorted list, in that order.

    One shared-prefix walk: only the current path of prefix products (at
    most L-1 stacks) is kept, each formed left to right, and the last letter
    is contracted straight into the trace.  The empty word gives 1.0.
    """
    adj_cache: Dict[int, np.ndarray] = {}
    stack: list = []  # (letter, running prefix product)
    traces = []
    for w in words:
        letters = w.letters
        if not letters:
            traces.append(1.0)
            continue
        keep = 0
        while keep < len(stack) and keep < len(letters) - 1 and stack[keep][0] == letters[keep]:
            keep += 1
        del stack[keep:]
        while len(stack) < len(letters) - 1:
            letter = letters[len(stack)]
            m = _letter_matrix(letter, env, adj_cache)
            # no local name for the product: a dropped prefix must be freed
            # before the next one is allocated
            stack.append((letter, m if not stack else stack[-1][1] @ m))
        last = _letter_matrix(letters[-1], env, adj_cache)
        if len(letters) == 1:
            traces.append(normalized_trace(last))
        else:
            traces.append(np.einsum("...ij,...ji->...", stack[-1][1], last) / n)
    return traces


def _batch_and_dim(env) -> Tuple[Tuple[int, ...], int]:
    some = next(iter(env.values()), None)
    return (some.shape[:-2], some.shape[-1]) if some is not None else ((), 1)


def word_trace_table(words: Sequence[StarWord], x) -> np.ndarray:
    """Normalized traces of many *-words at one matrix tuple, batched.

    ``x`` is anything ``eval_polynomial`` takes.  Returns a complex array of
    shape (len(words), *batch) whose row i is tr_n(words[i](X)); the words
    may come in any order and repeat, and the empty word gives 1.  All rows
    come from one walk in sorted letter order that shares prefix products.
    """
    env = _env_from(x)
    batch, n = _batch_and_dim(env)
    words = list(words)
    out = np.empty((len(words),) + batch, dtype=np.complex128)
    order = sorted(range(len(words)), key=lambda i: words[i].letters)
    traces = _sorted_word_traces([words[i] for i in order], env, n)
    for i, tr in zip(order, traces):
        out[i] = tr
    return out


def eval_trace_polynomial(poly: StarPolynomial, x) -> Union[complex, np.ndarray]:
    """Normalized trace of a *-polynomial at a matrix tuple, batched.

    Equivalent to normalized_trace(eval_polynomial(...)) but cheaper: the
    coefficient-weighted sum, in sorted word order, of the word traces from
    the shared-prefix walk behind ``word_trace_table``.
    """
    env = _env_from(x)
    batch, n = _batch_and_dim(env)
    total = np.zeros(batch, dtype=np.complex128)
    words = sorted(poly.terms.keys(), key=lambda w: w.letters)
    for w, tr in zip(words, _sorted_word_traces(words, env, n)):
        c = poly.terms[w]
        total = total + (c * tr if w.letters else c)
    return total if batch else complex(total)


def _poly_gradient(poly: StarPolynomial, env, wrt, part: str) -> Dict[int, np.ndarray]:
    """Gradient tuples G_j with d/ds part(tr_n p(X+sH)) = Re <G_j, H_j>."""
    adj_cache: Dict[int, np.ndarray] = {}
    some = next(iter(env.values()))
    grads = {j: np.zeros_like(some) for j in wrt}
    for w, c in poly.terms.items():
        if part == "im":
            c = -1j * c  # Im z = Re(-i z)
        letters = w.letters
        if not letters:
            continue
        mats = [_letter_matrix(l, env, adj_cache) for l in letters]
        k = len(letters)
        # the whole word's product is never read, so neither pass forms it
        prefixes = [None] * k  # product of letters [0:i)
        run = None
        for i in range(k - 1):
            prefixes[i] = run
            run = mats[i] if run is None else run @ mats[i]
        prefixes[k - 1] = run
        suffixes = [None] * k  # product of letters (i:k)
        run = None
        for i in range(k - 1, 0, -1):
            suffixes[i] = run
            run = mats[i] if run is None else mats[i] @ run
        suffixes[0] = run
        for i, (idx, star) in enumerate(letters):
            if idx not in grads:
                continue
            p, s = prefixes[i], suffixes[i]
            if not star:
                # d Re tr(c P H S) -> G += conj(c) P^* S^*
                term = _mul_opt(_adj_opt(p), _adj_opt(s), some)
                grads[idx] = grads[idx] + np.conj(c) * term
            else:
                # d Re tr(c P H^* S) -> G += c S P
                term = _mul_opt(s, p, some)
                grads[idx] = grads[idx] + c * term
    return grads


def _adj_opt(m):
    return None if m is None else np.conj(np.swapaxes(m, -1, -2))


def _mul_opt(a, b, like):
    n = like.shape[-1]
    if a is None and b is None:
        eye = np.zeros_like(like)
        eye[..., np.arange(n), np.arange(n)] = 1.0
        return eye
    if a is None:
        return b
    if b is None:
        return a
    return a @ b


def _n_from_env(env) -> int:
    return next(iter(env.values())).shape[-1]


def _eval(phi: Formula, env, cfg: EvalConfig, rng: RngStream, depth: int,
          bound: frozenset, collect: Optional[EvalInfo]):
    """Recursive evaluator; returns a real scalar or batch array."""
    if isinstance(phi, Basic):
        v = np.asarray(eval_trace_polynomial(phi.poly, env))
        return v.real if phi.part == "re" else v.imag
    if isinstance(phi, Connective):
        if phi.kind == "affine":
            out = phi.const
            for c, a in zip(phi.coeffs, phi.args):
                out = out + c * _eval(a, env, cfg, rng, depth, bound, collect)
            return out
        vals = [_eval(a, env, cfg, rng, depth, bound, collect) for a in phi.args]
        if phi.kind == "product":
            out = vals[0]
            for v in vals[1:]:
                out = out * v
            return out
        if phi.kind == "max":
            return np.maximum.reduce(vals)
        if phi.kind == "min":
            return np.minimum.reduce(vals)
        if phi.kind == "abs":
            return np.abs(vals[0])
        # sqrt: clamp tiny negatives; flag real violations.
        v = vals[0]
        if collect is not None and np.any(np.asarray(v) < -1e-12):
            collect.flags = collect.flags | {"sqrt-domain-clamped"}
        return np.sqrt(np.maximum(v, 0.0))
    # Quantifier
    if depth + 1 > cfg.max_quantifier_depth:
        raise ValueError(
            f"quantifier nesting depth {depth + 1} exceeds the configured "
            f"maximum {cfg.max_quantifier_depth}")
    if phi.var in bound:
        raise ValueError(f"bound variable {_letter_name(phi.var, False)} shadowed")
    some = next(iter(env.values()))
    if some.ndim > 2:
        # Batched env: optimize sample by sample with per-sample substreams.
        batch = some.shape[:-2]
        flat = int(np.prod(batch))
        out = np.empty(flat)
        for i in range(flat):
            sub = {j: m.reshape((flat,) + m.shape[-2:])[i] for j, m in env.items()}
            out[i] = _eval(phi, sub, cfg, rng.child(i), depth, bound, collect)
        return out.reshape(batch)
    n = _n_from_env(env)
    sign = -1.0 if phi.kind == "sup" else 1.0
    body, var = phi.body, phi.var

    def obj(y: np.ndarray) -> float:
        env2 = dict(env)
        env2[var] = y[0]
        return sign * float(_eval(body, env2, cfg, rng, depth + 1, bound | {var}, None))

    def grad(y: np.ndarray) -> np.ndarray:
        env2 = dict(env)
        env2[var] = y[0]
        g = _formula_gradient(body, env2, {var}, cfg, rng, depth + 1, bound | {var})
        return sign * g[var][None]

    # Stream label depends on nesting depth, not the bound variable's index,
    # so values are invariant under renaming bound variables.
    res = minimize_over_ball(obj, grad, (1, n, n), phi.radius, cfg.opt,
                             rng_stream=rng.child(("quant", depth)))
    value = sign * res.value
    if collect is not None:
        collect.witnesses[var] = res.witness[0]
        collect.uncertainty += max(res.start_spread, cfg.opt.grad_tol)
        if not res.converged:
            collect.flags = collect.flags | {"quantifier-not-converged"}
    return value


def _formula_gradient(phi: Formula, env, wrt, cfg, rng, depth, bound) -> Dict[int, np.ndarray]:
    """Gradient of a formula w.r.t. the variables in ``wrt`` (env-based).

    Quantifier nodes use the envelope rule: gradient of the body at the
    optimizer's witness, holding the witness fixed.
    """
    if isinstance(phi, Basic):
        return _poly_gradient(phi.poly, env, wrt, phi.part)
    some = next(iter(env.values()))
    zero = {j: np.zeros_like(some) for j in wrt}
    if isinstance(phi, Connective):
        if phi.kind == "affine":
            out = zero
            for c, a in zip(phi.coeffs, phi.args):
                g = _formula_gradient(a, env, wrt, cfg, rng, depth, bound)
                out = {j: out[j] + c * g[j] for j in wrt}
            return out
        if phi.kind == "product":
            vals = [float(_eval(a, env, cfg, rng, depth, bound, None)) for a in phi.args]
            out = zero
            for i, a in enumerate(phi.args):
                rest = 1.0
                for k, v in enumerate(vals):
                    if k != i:
                        rest *= v
                g = _formula_gradient(a, env, wrt, cfg, rng, depth, bound)
                out = {j: out[j] + rest * g[j] for j in wrt}
            return out
        if phi.kind in ("max", "min"):
            vals = [float(_eval(a, env, cfg, rng, depth, bound, None)) for a in phi.args]
            pick = int(np.argmax(vals) if phi.kind == "max" else np.argmin(vals))
            near = sorted(abs(v - vals[pick]) for k, v in enumerate(vals) if k != pick)
            if near and near[0] < 1e-12:
                warnings.warn(f"{phi.kind} tie at the evaluation point; "
                              "using the lowest-index branch subgradient",
                              RuntimeWarning, stacklevel=2)
            return _formula_gradient(phi.args[pick], env, wrt, cfg, rng, depth, bound)
        if phi.kind == "abs":
            v = float(_eval(phi.args[0], env, cfg, rng, depth, bound, None))
            g = _formula_gradient(phi.args[0], env, wrt, cfg, rng, depth, bound)
            if abs(v) < 1e-12:
                warnings.warn("abs at zero; using the zero subgradient",
                              RuntimeWarning, stacklevel=2)
            s = 1.0 if v > 0 else (-1.0 if v < 0 else 0.0)
            return {j: s * g[j] for j in wrt}
        # sqrt
        v = float(_eval(phi.args[0], env, cfg, rng, depth, bound, None))
        g = _formula_gradient(phi.args[0], env, wrt, cfg, rng, depth, bound)
        if v <= 1e-300:
            return zero
        return {j: g[j] / (2.0 * np.sqrt(v)) for j in wrt}
    # Quantifier: envelope (Danskin) gradient through the inner witness.
    info = EvalInfo(0.0)
    _eval(phi, env, cfg, rng, depth, bound, info)
    env2 = dict(env)
    env2[phi.var] = info.witnesses[phi.var]
    g = _formula_gradient(phi.body, env2, wrt, cfg, rng, depth + 1, bound | {phi.var})
    return {j: g[j] for j in wrt}


def eval_formula(phi: Formula, x, cfg: Optional[EvalConfig] = None):
    """Evaluate a formula at a matrix tuple.

    Quantifier-free formulas evaluate in batch when ``x`` carries batch axes
    (shape (d, *batch, n, n)) and the result has the batch shape.  With
    quantifiers the value is a float and carries the one-sided-bound
    semantics described in the module docstring.
    """
    cfg = cfg or EvalConfig()
    env = _env_from(x)
    _check_free_vars(phi, env)
    out = _eval(phi, env, cfg, cfg.rng, 0, frozenset(), None)
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("formula evaluated to a non-finite value")
    return float(out) if out.ndim == 0 else out


def eval_formula_info(phi: Formula, x, cfg: Optional[EvalConfig] = None) -> EvalInfo:
    """Like eval_formula, but also returns uncertainty, flags and witnesses."""
    cfg = cfg or EvalConfig()
    env = _env_from(x)
    _check_free_vars(phi, env)
    info = EvalInfo(0.0)
    val = _eval(phi, env, cfg, cfg.rng, 0, frozenset(), info)
    arr = np.asarray(val, dtype=float)
    info.value = float(arr) if arr.ndim == 0 else arr
    return info


def _check_free_vars(phi: Formula, env) -> None:
    free = formula_free_variables(phi)
    missing = sorted(v for v in free if v not in env)
    if missing:
        names = ", ".join(_letter_name(v, False) for v in missing)
        raise ValueError(f"formula has unbound variables: {names}")


def cyclic_gradient(phi: Formula, x, cfg: Optional[EvalConfig] = None) -> np.ndarray:
    """Gradient tuple of a quantifier-free formula at a matrix tuple.

    Returns G with shape (d, n, n) satisfying d/ds phi(X + sH)|_0 =
    Re <G, H> = Re sum_j tr_n(G_j^* H_j).  max/abs use one-sided branch
    selection at ties (lowest branch index), matching the evaluator.
    """
    if formula_depth(phi) > 0:
        raise ValueError("cyclic_gradient is defined for quantifier-free formulas")
    cfg = cfg or EvalConfig()
    env = _env_from(x)
    _check_free_vars(phi, env)
    d = max(env)
    wrt = set(range(1, d + 1))
    g = _formula_gradient(phi, env, wrt, cfg, cfg.rng, 0, frozenset())
    return np.stack([g[j] for j in range(1, d + 1)])


# ---------------------------------------------------------------------------
# Parser / printer

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<trre>tr\.re)|(?P<trim>tr\.im)|"
    r"(?P<kw>sup|inf|max|min|abs|sqrt|in|D)|"
    r"(?P<name>[xy]\d+\*?)|"
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|"
    r"(?P<imag>i)|"
    r"(?P<punct>[(){},*+\-])"
    r")"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize formula at: {text[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    out.append(("end", ""))
    return out


class _NotFinite(ValueError):
    pass


def _finite(value, what: str):
    """Every number a parsed formula stores must be finite."""
    if not np.isfinite(value):
        raise _NotFinite(f"{what} {value!r} is not finite")
    return value


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise ValueError(f"expected {value or kind}, got {v!r}")
        return v

    # formula grammar ------------------------------------------------------

    def formula(self) -> Formula:
        node = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input at token {self.peek()[1]!r}")
        return node

    def expr(self) -> Formula:
        """Affine chains: term (+|- term)*, folded into one affine node."""
        const, coeffs, args = 0.0, [], []
        sign = 1.0
        while True:
            c, a = self.term(sign)
            if a is None:
                const += c
            else:
                coeffs.append(c)
                args.append(a)
            k, v = self.peek()
            if k == "punct" and v in "+-":
                self.next()
                sign = 1.0 if v == "+" else -1.0
                continue
            break
        _finite(const, "constant")
        if not args:
            return Connective("affine", (), (), const)
        if const == 0.0 and len(args) == 1 and coeffs[0] == 1.0:
            return args[0]
        return Connective("affine", tuple(args), tuple(coeffs), const)

    def term(self, sign: float):
        """Products with scalar folding: returns (scalar, formula-or-None)."""
        scalar = sign
        factors = []
        while True:
            k, v = self.peek()
            if k == "punct" and v == "-":
                self.next()
                scalar = -scalar
                continue
            if k == "num":
                scalar *= self.number()
            else:
                factors.append(self.atom())
            k, v = self.peek()
            if k == "punct" and v == "*":
                self.next()
                continue
            break
        _finite(scalar, "scalar factor")
        if not factors:
            return scalar, None
        node = factors[0] if len(factors) == 1 else Connective("product", tuple(factors))
        return scalar, node

    def atom(self) -> Formula:
        k, v = self.peek()
        if k in ("trre", "trim"):
            self.next()
            self.expect("punct", "(")
            poly = self.poly()
            self.expect("punct", ")")
            return Basic("re" if k == "trre" else "im", poly)
        if k == "kw" and v in ("max", "min"):
            self.next()
            self.expect("punct", "(")
            args = [self.expr()]
            while self.peek() == ("punct", ","):
                self.next()
                args.append(self.expr())
            self.expect("punct", ")")
            return Connective(v, tuple(args))
        if k == "kw" and v in ("abs", "sqrt"):
            self.next()
            self.expect("punct", "(")
            arg = self.expr()
            self.expect("punct", ")")
            return Connective(v, (arg,))
        if k == "kw" and v in ("sup", "inf"):
            self.next()
            self.expect("punct", "{")
            name = self.expect("name")
            m = re.fullmatch(r"y(\d+)", name)
            if not m:
                raise ValueError(f"quantifier must bind a y-variable, got {name!r}")
            var = int(m.group(1)) + BOUND_OFFSET
            self.expect("kw", "in")
            self.expect("kw", "D")
            self.expect("punct", "(")
            radius = self.number()
            self.expect("punct", ")")
            self.expect("punct", "}")
            body = self.atom_or_paren()
            return Quantifier(v, var, radius, body)
        if k == "punct" and v == "(":
            self.next()
            node = self.expr()
            self.expect("punct", ")")
            return node
        raise ValueError(f"unexpected token {v!r} in formula")

    def atom_or_paren(self) -> Formula:
        return self.atom()

    # polynomial grammar ---------------------------------------------------

    def poly(self) -> StarPolynomial:
        terms: Dict[StarWord, complex] = {}
        sign = 1.0
        while True:
            coeff, word = self.pterm()
            c = sign * coeff
            terms[word] = terms.get(word, 0.0) + c
            k, v = self.peek()
            if k == "punct" and v in "+-":
                self.next()
                sign = 1.0 if v == "+" else -1.0
                continue
            break
        for c in terms.values():
            _finite(c, "coefficient")
        return StarPolynomial(terms)

    def pterm(self):
        coeff = 1.0 + 0.0j
        have_coeff = False
        k, v = self.peek()
        if k == "punct" and v == "(":
            # complex coefficient "(a+bi)" or "(a-bi)"
            save = self.i
            try:
                self.next()
                re_part = self._signed_number()
                k2, v2 = self.next()
                if k2 != "punct" or v2 not in "+-":
                    raise ValueError("not a complex coefficient")
                im_part = self._signed_number()
                self.expect("imag")
                self.expect("punct", ")")
                coeff = complex(re_part, im_part if v2 == "+" else -im_part)
                have_coeff = True
            except _NotFinite:
                raise
            except ValueError:
                self.i = save
                raise ValueError("parenthesized groups inside tr(...) must be "
                                 "complex coefficients like (1.0+2.0i)")
        elif k == "num":
            coeff = complex(self.number(), 0.0)
            have_coeff = True
            if self.peek()[0] == "imag":
                self.next()
                coeff = complex(0.0, coeff.real)
        elif k == "imag":
            self.next()
            coeff = 1j
            have_coeff = True
        letters = []
        while self.peek()[0] == "name":
            _, name = self.next()
            m = re.fullmatch(r"([xy])(\d+)(\*?)", name)
            idx = int(m.group(2)) + (BOUND_OFFSET if m.group(1) == "y" else 0)
            letters.append((idx, m.group(3) == "*"))
        if not letters and not have_coeff:
            raise ValueError("empty polynomial term")
        return coeff, StarWord(tuple(letters))

    def _signed_number(self) -> float:
        sign = 1.0
        k, v = self.peek()
        if k == "punct" and v == "-":
            self.next()
            sign = -1.0
        return sign * self.number()

    def number(self) -> float:
        return _finite(float(self.expect("num")), "number")


def parse_formula(text: str) -> Formula:
    """Parse the textual formula syntax; inverse of format_formula."""
    return _Parser(_tokenize(text)).formula()


def parse_polynomial(text: str) -> StarPolynomial:
    p = _Parser(_tokenize(text))
    poly = p.poly()
    if p.peek()[0] != "end":
        raise ValueError("trailing input after polynomial")
    return poly


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return repr(float(x))


def _fmt_coeff(c: complex) -> Optional[str]:
    """Coefficient prefix for a word, or None when it is 1."""
    if c == 1:
        return None
    if c.imag == 0.0:
        return _fmt_num(c.real)
    if c.real == 0.0:
        return f"{_fmt_num(c.imag)}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt_num(c.real)}{sign}{_fmt_num(abs(c.imag))}i)"


def format_polynomial(poly: StarPolynomial) -> str:
    if not poly.terms:
        return "0.0"
    pieces = []
    for w in sorted(poly.terms, key=lambda w: (len(w), w.letters)):
        c = poly.terms[w]
        body = str(w) if w.letters else None
        # Fold a negative real coefficient into the joining sign.
        neg = c.real < 0 or (c.real == 0 and c.imag < 0)
        if neg and (c.imag == 0 or c.real == 0):
            c = -c
        else:
            neg = False
        pref = _fmt_coeff(c)
        if body is None:
            text = pref if pref is not None else "1.0"
        elif pref is None:
            text = body
        else:
            text = f"{pref} {body}"
        pieces.append((neg, text))
    out = ""
    for k, (neg, text) in enumerate(pieces):
        if k == 0:
            out = ("-" if neg else "") + text
        else:
            out += (" - " if neg else " + ") + text
    return out


def _needs_parens_in_product(phi: Formula) -> bool:
    return isinstance(phi, (Quantifier,)) or (
        isinstance(phi, Connective) and phi.kind in ("affine", "product"))


def format_formula(phi: Formula) -> str:
    """Canonical text form; parse_formula(format_formula(phi)) == phi."""
    if isinstance(phi, Basic):
        return f"tr.{phi.part}({format_polynomial(phi.poly)})"
    if isinstance(phi, Quantifier):
        name = _letter_name(phi.var, False)
        return f"{phi.kind}{{{name} in D({_fmt_num(phi.radius)})}} ({format_formula(phi.body)})"
    if phi.kind == "affine":
        pieces = []
        if phi.const != 0.0 or not phi.args:
            pieces.append((False, _fmt_num(phi.const)))
        for c, a in zip(phi.coeffs, phi.args):
            neg = c < 0
            mag = -c if neg else c
            inner = format_formula(a)
            if _needs_parens_in_product(a):
                inner = f"({inner})"
            text = inner if mag == 1.0 else f"{_fmt_num(mag)}*{inner}"
            pieces.append((neg, text))
        out = ""
        for k, (neg, text) in enumerate(pieces):
            if k == 0:
                out = ("-" if neg else "") + text
            else:
                out += (" - " if neg else " + ") + text
        return out
    if phi.kind == "product":
        parts = []
        for a in phi.args:
            inner = format_formula(a)
            parts.append(f"({inner})" if _needs_parens_in_product(a) else inner)
        return " * ".join(parts)
    if phi.kind in ("max", "min"):
        return f"{phi.kind}(" + ", ".join(format_formula(a) for a in phi.args) + ")"
    return f"{phi.kind}({format_formula(phi.args[0])})"
