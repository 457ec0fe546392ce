"""Haar-conjugation experiments and the independent-join entropy probe.

Four operations share one design choice: base tuples are realized as
deterministic diagonal quantile matrices, so the only randomness in a run
is the conjugating unitaries.  Predictions (free products, free
convolutions) are evaluated on the realized finite-n factor moments, not
on the ideal limiting moments; every reported deviation is then
attributable to the conjugation, not to the discretization of the input
spectra.

The entropy-additivity experiment estimates the joint volume of a product
spec as (marginal volume product) x (cross-constraint acceptance ratio on
paired samples).  With no cross constraints the ratio term is identically
zero in log space, which makes additivity of the normalized entropies hold
to floating-point rounding rather than to Monte-Carlo accuracy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .formulas import (
    BOUND_OFFSET,
    Basic,
    Connective,
    Formula,
    Quantifier,
    StarPolynomial,
    StarWord,
    eval_formula,
    format_formula,
)
from .matrices import RngStream, hermitian_part, hs_norm, sample_haar_unitary
from .microstates import (
    Constraint,
    GaussianProposal,
    NeighborhoodSpec,
    _enc,
    _ftxt,
    entropy_normalization,
    log_volume_from_hits,
)
from .microstates import membership_mask
from .moments import MomentVector, all_words, free_convolve, free_product_moments
from .optimize import OptConfig
from .transport import SpectralMeasure, psi_distance

__all__ = [
    "semicircle_measure",
    "word_traces",
    "FreenessReport",
    "asymptotic_freeness_experiment",
    "ConvolutionReport",
    "free_convolution_experiment",
    "shift_variables",
    "product_spec",
    "AdditivityReport",
    "entropy_additivity_experiment",
    "Example53Fixture",
    "example_5_3_fixture",
    "Example53Config",
    "Example53Report",
    "example_5_3_runner",
]

CONJUGATION_TOL = 1e-10

MeasureSpec = Union[SpectralMeasure, Sequence[SpectralMeasure]]


# ---------------------------------------------------------------------------
# Spectra helpers


def semicircle_measure(k: int, radius: float = 2.0) -> SpectralMeasure:
    """k-atom quantile discretization of the semicircle law on [-radius, radius].

    Atoms sit at the inverse CDF of the midpoints (i + 1/2)/k with equal
    weights, so ``quantiles(k)`` returns the atoms themselves.  radius = 2
    gives second moment radius^2/4 = 1, matching the semicircular reference
    law up to the O(1/k) edge truncation.
    """
    if k < 1:
        raise ValueError("need at least one atom")
    if radius <= 0:
        raise ValueError("radius must be positive")
    ps = (np.arange(k) + 0.5) / k
    lo = np.full(k, -radius)
    hi = np.full(k, radius)
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        u = np.clip(mid / radius, -1.0, 1.0)
        cdf = 0.5 + (mid * np.sqrt(np.maximum(radius ** 2 - mid ** 2, 0.0))
                     / (math.pi * radius ** 2)) + np.arcsin(u) / math.pi
        below = cdf < ps
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return SpectralMeasure.uniform([float(v) for v in 0.5 * (lo + hi)])


def _as_measure_tuple(spec: MeasureSpec) -> Tuple[SpectralMeasure, ...]:
    if isinstance(spec, SpectralMeasure):
        return (spec,)
    out = tuple(spec)
    if not out or not all(isinstance(m, SpectralMeasure) for m in out):
        raise ValueError("base spec must be a SpectralMeasure or a tuple of them")
    return out


# ---------------------------------------------------------------------------
# Word-trace tables

@functools.lru_cache(maxsize=8)
def _word_labels(d: int, max_len: int) -> Tuple[StarWord, ...]:
    """The keys of ``word_traces``: the unit, then every word by length and
    letter order, which is the row-major order of each level's trace table."""
    return tuple(all_words(d, max_len))


def word_traces(gens, max_len: int) -> Dict[StarWord, complex]:
    """tr_n(w(G)) for every *-word of length <= max_len over a (d, n, n) stack.

    Words are split near the middle: products are formed only up to length
    ceil(max_len/2) and the remaining half is contracted through a batched
    pair trace, so the stored stacks stay at (2d)^(max_len/2) matrices.
    """
    g = np.asarray(gens, dtype=np.complex128)
    if g.ndim == 2:
        g = g[None]
    if g.ndim != 3 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"expected a (d, n, n) stack, got shape {g.shape}")
    d, n = g.shape[0], g.shape[-1]
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    base = np.empty((2 * d, n, n), dtype=np.complex128)
    for j in range(d):
        base[2 * j] = g[j]
        base[2 * j + 1] = g[j].conj().T
    half = max(1, (max_len + 1) // 2)
    levels: List[np.ndarray] = [np.eye(n, dtype=np.complex128)[None]]
    for _ in range(half):
        prev = levels[-1]
        nxt = np.matmul(prev[:, None], base[None, :])
        levels.append(nxt.reshape(-1, n, n))
    values = [1.0 + 0.0j]
    for total in range(1, max_len + 1):
        a = min(half, total)
        b = total - a
        # tr(P Q) = <P, Q^T> elementwise; never forms the length-`total`
        # products, and the contraction runs as one gemm over (n^2)-vectors.
        left = levels[a].reshape(levels[a].shape[0], -1)
        right = levels[b].transpose(0, 2, 1).reshape(levels[b].shape[0], -1)
        values.extend(((left @ right.T) / n).ravel().tolist())
        del left, right  # free the transposed copy before the next one is made
    return dict(zip(_word_labels(d, max_len), values))


def _diag_moments(rows: np.ndarray, max_len: int) -> MomentVector:
    """Exact joint moments of a tuple of real diagonal matrices.

    Diagonals commute and are self-adjoint, so every *-word trace is the
    mean of an entrywise product of the diagonal rows.
    """
    rows = np.asarray(rows, dtype=float)
    d = rows.shape[0]
    values: Dict[StarWord, complex] = {StarWord(): 1.0}
    level = [((), np.ones(rows.shape[1]))]
    for _ in range(max_len):
        nxt = []
        for letters, prod in level:
            for j in range(1, d + 1):
                for star in (False, True):
                    w = letters + ((j, star),)
                    p = prod * rows[j - 1]
                    values[StarWord(w)] = complex(p.mean())
                    nxt.append((w, p))
        level = nxt
    return MomentVector(d, max_len, values)


def _conjugate_diagonal(diag_row: np.ndarray, u: np.ndarray) -> np.ndarray:
    # u @ diag @ u* without forming the diagonal matrix.
    return (u * diag_row[None, :]) @ u.conj().T


# ---------------------------------------------------------------------------
# Asymptotic freeness


@dataclass
class FreenessReport:
    """Per-n deviations of conjugated joint traces from the free prediction."""

    n_values: List[int]
    max_len: int
    trials: int
    eps: float
    mean_deviation: List[float]
    worst_deviation: List[float]
    exceed_frequency: List[float]  # fraction of trials with deviation > eps
    trial_deviations: List[List[float]]
    invariance_residual: List[float]

    def to_json(self) -> str:
        return json.dumps({
            "n_values": self.n_values,
            "max_len": self.max_len,
            "trials": self.trials,
            "eps": self.eps,
            "mean_deviation": self.mean_deviation,
            "worst_deviation": self.worst_deviation,
            "exceed_frequency": self.exceed_frequency,
            "trial_deviations": self.trial_deviations,
            "invariance_residual": self.invariance_residual,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,mean_deviation,worst_deviation,exceed_frequency,invariance_residual"]
        for i, n in enumerate(self.n_values):
            lines.append(f"{n},{self.mean_deviation[i]:.10g},"
                         f"{self.worst_deviation[i]:.10g},"
                         f"{self.exceed_frequency[i]:.10g},"
                         f"{self.invariance_residual[i]:.3g}")
        return "\n".join(lines) + "\n"


def asymptotic_freeness_experiment(base_x: MeasureSpec, base_y: MeasureSpec,
                                   n_list: Sequence[int], max_len: int,
                                   trials: int, rng_stream: RngStream,
                                   eps: float = 0.05) -> FreenessReport:
    """Deviation of Haar-conjugated joint traces from the free-product rule.

    Each trial conjugates the X family by one Haar unitary and the Y family
    by an independent one, reads all joint word traces up to max_len, and
    compares against free_product_moments of the realized factor moments.
    Own-family words must survive conjugation exactly; any residual beyond
    1e-10 aborts the run since it signals a numerical fault rather than a
    deviation from freeness.
    """
    mx = _as_measure_tuple(base_x)
    my = _as_measure_tuple(base_y)
    if trials < 1:
        raise ValueError("need at least one trial")
    dx, dy = len(mx), len(my)
    mean_dev, worst_dev, exceed, per_trial, invariance = [], [], [], [], []
    for n in n_list:
        rows_x = np.stack([m.quantiles(n) for m in mx])
        rows_y = np.stack([m.quantiles(n) for m in my])
        mv_x = _diag_moments(rows_x, max_len)
        mv_y = _diag_moments(rows_y, max_len)
        predicted = free_product_moments(mv_x, mv_y, max_len)
        # per word: the own-family value conjugation must keep (None for a
        # mixed word) and the free-product prediction
        checks: Dict[StarWord, Tuple[Optional[complex], complex]] = {}
        for w in _word_labels(dx + dy, max_len)[1:]:
            used = {i for i, _ in w.letters}
            own = None
            if max(used) <= dx:
                own = mv_x[w]
            elif min(used) > dx:
                own = mv_y[StarWord(tuple((i - dx, s) for i, s in w.letters))]
            checks[w] = own, predicted[w]
        devs = []
        inv_worst = 0.0
        for t in range(trials):
            rng = rng_stream.child(("freeness", n, t)).generator()
            u = sample_haar_unitary(n, rng)
            v = sample_haar_unitary(n, rng)
            gens = np.empty((dx + dy, n, n), dtype=np.complex128)
            for j in range(dx):
                gens[j] = _conjugate_diagonal(rows_x[j], u)
            for j in range(dy):
                gens[dx + j] = _conjugate_diagonal(rows_y[j], v)
            traces = word_traces(gens, max_len)
            dev = 0.0
            for w, val in traces.items():
                if not w.letters:
                    continue
                own, pred = checks[w]
                if own is not None:
                    inv_worst = max(inv_worst, abs(val - own))
                dev = max(dev, abs(val - pred))
            if inv_worst > CONJUGATION_TOL:
                raise RuntimeError(
                    f"conjugation failed to preserve own-family traces at "
                    f"n={n}, trial {t}: residual {inv_worst:.3e}")
            devs.append(dev)
        mean_dev.append(float(np.mean(devs)))
        worst_dev.append(float(np.max(devs)))
        exceed.append(float(np.mean([d > eps for d in devs])))
        per_trial.append(devs)
        invariance.append(inv_worst)
    return FreenessReport(list(n_list), max_len, trials, eps, mean_dev,
                          worst_dev, exceed, per_trial, invariance)


# ---------------------------------------------------------------------------
# Free convolution


@dataclass
class ConvolutionReport:
    """Spectral moments of A + UBU* against the free convolution oracle."""

    n: int
    trials: int
    max_len: int
    empirical: List[float]
    predicted: List[float]
    deviation: List[float]
    ci: List[float]  # 1.96 * stderr over trials, per moment
    max_deviation: float

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "trials": self.trials,
            "max_len": self.max_len,
            "empirical": self.empirical,
            "predicted": self.predicted,
            "deviation": self.deviation,
            "ci": self.ci,
            "max_deviation": self.max_deviation,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["k,empirical,predicted,deviation,ci"]
        for i in range(self.max_len):
            lines.append(f"{i + 1},{self.empirical[i]:.10g},"
                         f"{self.predicted[i]:.10g},{self.deviation[i]:.10g},"
                         f"{self.ci[i]:.10g}")
        return "\n".join(lines) + "\n"


def free_convolution_experiment(mu: SpectralMeasure, nu: SpectralMeasure,
                                n: int, trials: int, max_len: int,
                                rng_stream: RngStream) -> ConvolutionReport:
    """Moments of A + UBU* (Haar U) against free_convolve of the factors.

    A and B are the quantile diagonals of mu and nu at size n; the oracle is
    fed the realized diagonal moments, so a point mass nu shifts the
    prediction by the exact binomial identity.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    a = mu.quantiles(n)
    b = nu.quantiles(n)
    mv_a = MomentVector.from_single_moments(
        [float(np.mean(a ** k)) for k in range(1, max_len + 1)])
    mv_b = MomentVector.from_single_moments(
        [float(np.mean(b ** k)) for k in range(1, max_len + 1)])
    predicted = free_convolve(mv_a, mv_b, max_len).single_moments()
    per_trial = np.empty((trials, max_len))
    for t in range(trials):
        rng = rng_stream.child(("convolve", n, t)).generator()
        u = sample_haar_unitary(n, rng)
        s = _conjugate_diagonal(b, u)
        s[np.arange(n), np.arange(n)] += a
        eigs = np.linalg.eigvalsh(hermitian_part(s))
        for k in range(1, max_len + 1):
            per_trial[t, k - 1] = float(np.mean(eigs ** k))
    empirical = per_trial.mean(axis=0)
    spread = (1.96 * per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
              if trials > 1 else np.zeros(max_len))
    deviation = np.abs(empirical - np.asarray(predicted))
    return ConvolutionReport(n, trials, max_len,
                             [float(v) for v in empirical],
                             [float(v) for v in predicted],
                             [float(v) for v in deviation],
                             [float(v) for v in spread],
                             float(deviation.max()))


# ---------------------------------------------------------------------------
# Entropy additivity for independent joins


def shift_variables(phi: Formula, offset: int) -> Formula:
    """Rename every free variable x_j to x_{j+offset}; bound letters stay."""
    if offset < 0:
        raise ValueError("offset must be >= 0")

    def shift(node: Formula, bound: frozenset) -> Formula:
        if isinstance(node, Basic):
            terms: Dict[StarWord, complex] = {}
            for w, c in node.poly.terms.items():
                letters = tuple(
                    (i if (i in bound or i >= BOUND_OFFSET) else i + offset, s)
                    for i, s in w.letters)
                terms[StarWord(letters)] = terms.get(StarWord(letters), 0.0) + c
            return Basic(node.part, StarPolynomial(terms))
        if isinstance(node, Connective):
            return Connective(node.kind,
                              tuple(shift(a, bound) for a in node.args),
                              node.coeffs, node.const)
        assert isinstance(node, Quantifier)
        return Quantifier(node.kind, node.var, node.radius,
                          shift(node.body, bound | {node.var}))

    return shift(phi, frozenset())


def product_spec(spec1: NeighborhoodSpec, spec2: NeighborhoodSpec,
                 cross_constraints: Sequence[Constraint] = ()) -> NeighborhoodSpec:
    """Join two specs on disjoint variables, plus optional cross constraints.

    The second spec's variables are shifted past the first's.  Cross
    constraints are written in the joint indexing (x_1..x_d1 from spec1,
    x_{d1+1}.. from spec2).  Ambient radii must agree, otherwise the joint
    ambient ball is not the product of the marginal balls and the
    product-volume identity underlying the additivity experiment breaks.
    """
    if spec1.r != spec2.r:
        raise ValueError("ambient radii must match to form a product spec")
    shifted = tuple(Constraint(shift_variables(c.formula, spec1.d),
                               c.target, c.tol)
                    for c in spec2.constraints)
    cons = spec1.constraints + shifted + tuple(cross_constraints)
    kind = "quantifier_free"
    if spec1.kind != "quantifier_free" or spec2.kind != "quantifier_free":
        kind = "full"
    return NeighborhoodSpec(spec1.d + spec2.d, spec1.r, cons, kind)


@dataclass
class AdditivityReport:
    """Entropy of a product spec against the sum of its marginals."""

    n_values: List[int]
    samples: int
    h_marginal_1: List[float]
    h_marginal_2: List[float]
    h_joint: List[float]
    deficit: List[float]  # h1 + h2 - h_joint
    hits_1: List[int]
    hits_2: List[int]
    pair_hits: List[int]
    cross_hits: List[int]
    log_ratio: List[float]  # log of the cross acceptance ratio, 0 if no cross
    cross_formulas: List[str]

    def to_json(self) -> str:
        return json.dumps({
            "n_values": self.n_values,
            "samples": self.samples,
            "h_marginal_1": [_enc(v) for v in self.h_marginal_1],
            "h_marginal_2": [_enc(v) for v in self.h_marginal_2],
            "h_joint": [_enc(v) for v in self.h_joint],
            "deficit": [_enc(v) for v in self.deficit],
            "hits_1": self.hits_1,
            "hits_2": self.hits_2,
            "pair_hits": self.pair_hits,
            "cross_hits": self.cross_hits,
            "log_ratio": [_enc(v) for v in self.log_ratio],
            "cross_formulas": self.cross_formulas,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,h_1,h_2,h_joint,deficit,hits_1,hits_2,pair_hits,cross_hits"]
        for i, n in enumerate(self.n_values):
            lines.append(
                f"{n},{_ftxt(self.h_marginal_1[i])},{_ftxt(self.h_marginal_2[i])},"
                f"{_ftxt(self.h_joint[i])},{_ftxt(self.deficit[i])},"
                f"{self.hits_1[i]},{self.hits_2[i]},{self.pair_hits[i]},"
                f"{self.cross_hits[i]}")
        return "\n".join(lines) + "\n"


def _additivity_chunk(d: int, n: int) -> int:
    return max(500, min(50_000, int(5e6 / (d * n * n))))


def entropy_additivity_experiment(spec1: NeighborhoodSpec,
                                  spec2: NeighborhoodSpec,
                                  n_list: Sequence[int], samples: int,
                                  rng_stream: RngStream,
                                  cross_constraints: Sequence[Constraint] = (),
                                  proposal1: Optional[GaussianProposal] = None,
                                  proposal2: Optional[GaussianProposal] = None,
                                  ) -> AdditivityReport:
    """h_n of the product spec against h_n(spec1) + h_n(spec2).

    The joint volume is estimated as the product of the two marginal
    importance-sampling sums times the cross-constraint acceptance ratio on
    the paired samples.  Without cross constraints the ratio is exactly one,
    so the additivity identity holds to rounding; with them the ratio
    measures how much of the product set the cross constraints cut away,
    reported as a per-n deficit.  A contradictory cross constraint yields
    zero acceptances and h_joint = -inf.
    """
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    cross = tuple(cross_constraints)
    joint = product_spec(spec1, spec2, cross)  # validates radii and indexing
    p1 = proposal1 or GaussianProposal.for_spec(spec1)
    p2 = proposal2 or GaussianProposal.for_spec(spec2)
    if p1.d != spec1.d or p2.d != spec2.d:
        raise ValueError("proposal dimensions must match the marginal specs")
    h1s, h2s, hjs, defs = [], [], [], []
    hits1, hits2, pair_hits, cross_hits, log_ratios = [], [], [], [], []
    for n in n_list:
        rng1 = rng_stream.child(("additivity-1", n)).generator()
        rng2 = rng_stream.child(("additivity-2", n)).generator()
        chunk = _additivity_chunk(joint.d, n)
        hw1: List[np.ndarray] = []
        hw2: List[np.ndarray] = []
        pair_logw: List[np.ndarray] = []
        cross_logw: List[np.ndarray] = []
        done = 0
        while done < samples:
            take = min(chunk, samples - done)
            x = p1.sample(n, take, rng1)
            y = p2.sample(n, take, rng2)
            m1 = membership_mask(spec1, x)
            m2 = membership_mask(spec2, y)
            lw1 = -np.atleast_1d(p1.log_density(x))
            lw2 = -np.atleast_1d(p2.log_density(y))
            if m1.any():
                hw1.append(lw1[m1])
            if m2.any():
                hw2.append(lw2[m2])
            pm = m1 & m2
            if cross and pm.any():
                lw_pair = (lw1 + lw2)[pm]
                pair_logw.append(lw_pair)
                xj = np.concatenate([x[:, pm], y[:, pm]], axis=0)
                keep = np.ones(int(pm.sum()), dtype=bool)
                for c in cross:
                    vals = np.asarray(eval_formula(c.formula, xj))
                    keep &= np.abs(vals - c.target) < c.tol
                if keep.any():
                    cross_logw.append(lw_pair[keep])
            elif pm.any():
                pair_logw.append((lw1 + lw2)[pm])
            done += take

        def reduce(parts: List[np.ndarray]) -> Tuple[float, int]:
            w = np.concatenate(parts) if parts else np.empty(0)
            log_vol, _, k = log_volume_from_hits(w, samples)
            return log_vol, k

        lv1, k1 = reduce(hw1)
        lv2, k2 = reduce(hw2)
        if cross:
            # log of sum(w) over accepted and over all paired product hits;
            # the sample-count normalizations cancel in the ratio.
            lnum, knum = reduce(cross_logw)
            lden, kden = reduce(pair_logw)
            log_ratio = lnum - lden if kden else float("-inf")
            if math.isnan(log_ratio):
                log_ratio = float("-inf")
        else:
            lnum, knum = 0.0, 0
            _, kden = reduce(pair_logw)
            log_ratio = 0.0
        h1 = entropy_normalization(lv1, n, spec1.d)
        h2 = entropy_normalization(lv2, n, spec2.d)
        lvj = lv1 + lv2 + log_ratio
        hj = entropy_normalization(lvj, n, joint.d)
        h1s.append(h1)
        h2s.append(h2)
        hjs.append(hj)
        if hj != float("-inf"):
            defs.append(h1 + h2 - hj)
        elif h1 == float("-inf") or h2 == float("-inf"):
            defs.append(0.0)  # both sides degenerate; nothing to compare
        else:
            defs.append(float("inf"))
        hits1.append(k1)
        hits2.append(k2)
        pair_hits.append(kden)
        cross_hits.append(knum if cross else kden)
        log_ratios.append(log_ratio)
    return AdditivityReport(list(n_list), samples, h1s, h2s, hjs, defs,
                            hits1, hits2, pair_hits, cross_hits, log_ratios,
                            [format_formula(c.formula) for c in cross])


# ---------------------------------------------------------------------------
# Two-configuration orbit separation


@dataclass(frozen=True)
class Example53Fixture:
    """A pair of self-adjoint matrices with matching low moments.

    The fixture certifies that its two matrices agree on all normalized
    trace powers up to matched_degree; the runner then shows the two
    configurations built from them agree on the same moment table while
    their conjugation distance separates them.
    """

    x: np.ndarray
    y: np.ndarray
    matched_degree: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128)
        y = np.asarray(self.y, dtype=np.complex128)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2 or x.shape != y.shape or x.shape[0] != x.shape[1]:
            raise ValueError("fixture needs two square matrices of equal size")
        for name, m in (("x", x), ("y", y)):
            if hs_norm(m - hermitian_part(m)) > CONJUGATION_TOL:
                raise ValueError(f"fixture matrix {name} is not self-adjoint")
        if self.matched_degree < 1:
            raise ValueError("matched_degree must be >= 1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def moments(self, max_len: int) -> Tuple[List[float], List[float]]:
        ex = np.linalg.eigvalsh(self.x)
        ey = np.linalg.eigvalsh(self.y)
        mx = [float(np.mean(ex ** k)) for k in range(1, max_len + 1)]
        my = [float(np.mean(ey ** k)) for k in range(1, max_len + 1)]
        return mx, my

    def validate(self, tol: float = CONJUGATION_TOL) -> None:
        mx, my = self.moments(self.matched_degree)
        for k, (a, b) in enumerate(zip(mx, my), start=1):
            if abs(a - b) > tol:
                raise ValueError(
                    f"fixture invalid: tr x^{k} = {a:.6g} but tr y^{k} = "
                    f"{b:.6g}, beyond {tol:g}")

    def realize_at(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Block-diagonal tiling to size n; spectra and moments are unchanged."""
        if n % self.n:
            raise ValueError(f"n must be a multiple of the fixture size {self.n}")
        reps = n // self.n
        eye = np.eye(reps)
        return np.kron(eye, self.x), np.kron(eye, self.y)

    def to_json(self) -> str:
        return json.dumps({
            "matched_degree": self.matched_degree,
            "x_re": self.x.real.tolist(), "x_im": self.x.imag.tolist(),
            "y_re": self.y.real.tolist(), "y_im": self.y.imag.tolist(),
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Example53Fixture":
        data = json.loads(text)
        x = np.asarray(data["x_re"]) + 1j * np.asarray(data["x_im"])
        y = np.asarray(data["y_re"]) + 1j * np.asarray(data["y_im"])
        return Example53Fixture(x, y, int(data["matched_degree"]))


def example_5_3_fixture() -> Example53Fixture:
    """The frozen reference fixture: spectra {-1,-1,1,1} and {-r2,0,0,r2}.

    Both matrices are traceless with second moment 1; fourth moments are 1
    and 2, and the conjugation distance between them is sqrt(2 - sqrt(2)),
    about 0.765.
    """
    r2 = math.sqrt(2.0)
    x = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(np.complex128)
    y = np.diag([-r2, 0.0, 0.0, r2]).astype(np.complex128)
    return Example53Fixture(x, y, 2)


@dataclass(frozen=True)
class Example53Config:
    trials: int = 20
    opt: OptConfig = field(default_factory=OptConfig)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass
class Example53Report:
    """Conjugation distances and moment tables for the two configurations.

    Configuration "same" pairs two independent conjugates of x; "cross"
    pairs a conjugate of x with a conjugate of y.  Both share the same
    Haar draws trial by trial, so identical fixtures give identical rows.
    """

    n: int
    trials: int
    matched_degree: int
    psi_same: List[float]
    psi_cross: List[float]
    psi_gap: float  # mean(cross) - mean(same)
    table_same: Dict[str, float]
    table_cross: Dict[str, float]
    table_deviation: float

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "trials": self.trials,
            "matched_degree": self.matched_degree,
            "psi_same": self.psi_same,
            "psi_cross": self.psi_cross,
            "psi_gap": self.psi_gap,
            "table_same": self.table_same,
            "table_cross": self.table_cross,
            "table_deviation": self.table_deviation,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["trial,psi_same,psi_cross"]
        for i, (a, b) in enumerate(zip(self.psi_same, self.psi_cross)):
            lines.append(f"{i},{a:.10g},{b:.10g}")
        lines.append("")
        lines.append("word,table_same,table_cross")
        for w in sorted(self.table_same):
            lines.append(f"{w},{self.table_same[w]:.10g},{self.table_cross[w]:.10g}")
        return "\n".join(lines) + "\n"


def example_5_3_runner(fixture: Example53Fixture, n: int,
                       cfg: Example53Config = Example53Config(),
                       rng_stream: Optional[RngStream] = None) -> Example53Report:
    """Compare the pair (UxU*, VxV*) against (UxU*, VyV*) trial by trial.

    The same Haar draws U, V serve both configurations, so with y = x the
    two configurations produce bitwise identical rows.  Reported per trial:
    the conjugation distance between the two pair members; aggregated: the
    averaged joint moment tables up to the fixture's matched degree.
    """
    fixture.validate()
    stream = rng_stream or RngStream(0x53)
    x, y = fixture.realize_at(n)
    base_x = np.linalg.eigvalsh(x)
    base_y = np.linalg.eigvalsh(y)
    deg = fixture.matched_degree
    psi_same, psi_cross = [], []
    acc_same: Dict[StarWord, complex] = {}
    acc_cross: Dict[StarWord, complex] = {}
    for t in range(cfg.trials):
        rng = stream.child(("trial", t)).generator()
        u, v = sample_haar_unitary(n, rng, size=(2,))
        a1 = u @ x @ u.conj().T
        a2 = v @ x @ v.conj().T
        b2 = v @ y @ v.conj().T
        for name, mat, base in (("u x u*", a1, base_x), ("v x v*", a2, base_x),
                                ("v y v*", b2, base_y)):
            eigs = np.linalg.eigvalsh(mat)
            resid = max(abs(float(np.mean(eigs ** k)) -
                            float(np.mean(base ** k)))
                        for k in range(1, deg + 1))
            if resid > CONJUGATION_TOL:
                raise RuntimeError(
                    f"conjugation failed to preserve the spectrum of {name} "
                    f"at trial {t}: residual {resid:.3e}")
        psi_same.append(psi_distance(
            a1, a2, cfg.opt, stream.child(("psi-same", t))))
        psi_cross.append(psi_distance(
            a1, b2, cfg.opt, stream.child(("psi-cross", t))))
        for acc, second in ((acc_same, a2), (acc_cross, b2)):
            traces = word_traces(np.stack([a1, second]), deg)
            for w, val in traces.items():
                acc[w] = acc.get(w, 0.0) + val
    table_same = {str(w): float(np.real(v)) / cfg.trials
                  for w, v in acc_same.items() if w.letters}
    table_cross = {str(w): float(np.real(v)) / cfg.trials
                   for w, v in acc_cross.items() if w.letters}
    table_dev = max(abs(table_same[w] - table_cross[w]) for w in table_same)
    gap = float(np.mean(psi_cross) - np.mean(psi_same))
    return Example53Report(n, cfg.trials, deg, psi_same, psi_cross, gap,
                           table_same, table_cross, table_dev)
