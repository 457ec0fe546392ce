"""Microstate spaces: membership, Monte-Carlo volume and entropy estimates.

A microstate space is cut out of the operator-norm ball D_r^d by a finite
list of (formula, target, tolerance) constraints.  Volumes are Lebesgue
volumes in the coordinate system fixed by the matrices module (orthonormal
basis of the normalized HS inner product, so dim = d*n^2 complex
coordinates), estimated by importance sampling from an explicit Gaussian
proposal.  Entropy estimates report the normalized log-volume

    h_n = (1/n^2) * log vol + 2*d*log n

per matrix size n, with a per-n confidence interval, the value at the
largest n, and a least-squares slope against 1/n^2.  No limit is claimed.

The proposal is a per-variable Gaussian with separate scales for the
Hermitian and skew parts (entries ~ sigma/sqrt(n), so tr_n(X X*) ~ sigma_H^2
+ sigma_K^2).  A unit-variance-per-coordinate Gaussian would essentially
never hit an O(1)-normalized constraint set (the acceptance region lives at
HS norm O(1), the proposal mass at HS norm O(n)), so scales default to the
neighborhood's own size; the estimator is unbiased for any positive scales
since the density is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .formulas import (
    EvalConfig,
    Formula,
    _formula_gradient,
    eval_formula,
    eval_formula_info,
    format_formula,
    formula_depth,
    formula_free_variables,
    parse_formula,
)
from .matrices import RngStream, hs_norm, hermitian_part, operator_norm, sample_gue, tuple_stack
from .optimize import OptConfig, minimize_over_ball

__all__ = [
    "Constraint",
    "NeighborhoodSpec",
    "GaussianProposal",
    "VolumeEstimate",
    "EntropyEstimate",
    "ExistentialResult",
    "JoinRatioResult",
    "McmcConfig",
    "is_microstate",
    "membership_mask",
    "log_volume_from_mask",
    "log_volume_from_hits",
    "integrated_autocorr_time",
    "estimate_volume",
    "estimate_entropy",
    "covering_upper_bound",
    "existential_membership",
    "independent_join_ratio",
]

DEFAULT_N_CAP = 16
DEFAULT_SAMPLE_CAP = 10_000_000


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class Constraint:
    """|phi(Y) - target| < tol."""

    formula: Formula
    target: float
    tol: float

    def __post_init__(self):
        if isinstance(self.formula, str):
            object.__setattr__(self, "formula", parse_formula(self.formula))
        if not self.tol > 0:
            raise ValueError("constraint tolerance must be positive")


KINDS = ("quantifier_free", "full", "existential")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Ambient ball D_r^d plus constraints; ``kind`` names the type notion.

    quantifier_free and full evaluate the same way (full permits quantified
    formulas); existential treats the trailing variables beyond a supplied
    tuple as witnesses to optimize over.
    """

    d: int
    r: float
    constraints: Tuple[Constraint, ...]
    kind: str = "quantifier_free"

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not self.r > 0:
            raise ValueError("ambient radius must be positive")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        for c in self.constraints:
            free = formula_free_variables(c.formula)
            if any(v > self.d for v in free if v < 10**6):
                raise ValueError(
                    f"constraint uses variable beyond d={self.d}: "
                    f"{format_formula(c.formula)}")
            if self.kind == "quantifier_free" and formula_depth(c.formula) > 0:
                raise ValueError("quantifier_free spec contains a quantified formula")

    def is_quantifier_free(self) -> bool:
        return all(formula_depth(c.formula) == 0 for c in self.constraints)

    def to_json(self) -> str:
        return json.dumps({
            "d": self.d,
            "r": self.r,
            "kind": self.kind,
            "constraints": [
                {"formula": format_formula(c.formula), "target": c.target, "tol": c.tol}
                for c in self.constraints],
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "NeighborhoodSpec":
        data = json.loads(text)
        cons = tuple(Constraint(c["formula"], float(c["target"]), float(c["tol"]))
                     for c in data["constraints"])
        return NeighborhoodSpec(int(data["d"]), float(data["r"]), cons,
                                str(data.get("kind", "quantifier_free")))


# ---------------------------------------------------------------------------
# Gaussian proposal with exact coordinate density


@dataclass(frozen=True)
class GaussianProposal:
    """Per-variable Gaussian: X_j = herm[j]*G1 + i*skew[j]*G2, G GUE-normalized.

    In HS coordinates both parts are isotropic real Gaussians, so the density
    is exact: each part contributes n^2 real coordinates of variance
    scale^2/n^2.  E tr_n(X_j X_j*) = herm[j]^2 + skew[j]^2.
    """

    herm: Tuple[float, ...]
    skew: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "herm", tuple(float(s) for s in self.herm))
        object.__setattr__(self, "skew", tuple(float(s) for s in self.skew))
        if len(self.herm) != len(self.skew):
            raise ValueError("herm/skew scale lists must have equal length")
        if any(s <= 0 for s in self.herm + self.skew):
            raise ValueError("proposal scales must be positive")

    @property
    def d(self) -> int:
        return len(self.herm)

    @staticmethod
    def isotropic(d: int, hs_scale: float) -> "GaussianProposal":
        """Scales so that E tr_n(X_j X_j*) = hs_scale^2, split evenly."""
        s = float(hs_scale) / math.sqrt(2.0)
        return GaussianProposal((s,) * d, (s,) * d)

    @staticmethod
    def for_spec(spec: NeighborhoodSpec) -> "GaussianProposal":
        return GaussianProposal.isotropic(spec.d, min(1.0, spec.r))

    def sample(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a (d, count, n, n) stack.

        Bit for bit herm[j]*G1 + 1j*skew[j]*G2 with G1, G2 from ``sample_gue``,
        but composed in place from the same normals (G1 re, G1 im, G2 re,
        G2 im per variable): G = (cA + (cA)^T) r + i (cB - (cB)^T) r with
        c = 1/sqrt(2n), r = 1/sqrt(2), so
        re X = h re G1 - s im G2 and im X = h im G1 + s re G2.
        Multiplying by r, not dividing by sqrt(2), matches numpy's complex
        division by a real scalar.
        """
        out = np.empty((self.d, count, n, n), dtype=np.complex128)
        c = 1.0 / np.sqrt(2.0 * n)
        r = 1.0 / np.sqrt(2.0)
        draw = np.empty((count, n, n))
        part = np.empty((count, n, n))

        def symmetrized(op) -> np.ndarray:
            """(cA op (cA)^T) r for the next block A of normals."""
            rng.standard_normal(out=draw)
            np.multiply(draw, c, out=draw)
            op(draw, np.swapaxes(draw, -1, -2), out=part)
            return np.multiply(part, r, out=part)

        for j in range(self.d):
            h, s = self.herm[j], self.skew[j]
            re, im = out[j].real, out[j].imag
            np.multiply(symmetrized(np.add), h, out=re)
            np.multiply(symmetrized(np.subtract), h, out=im)
            im += np.multiply(symmetrized(np.add), s, out=part)
            re -= np.multiply(symmetrized(np.subtract), s, out=part)
        return out

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Coordinate-space log density of a (d, ..., n, n) stack."""
        n = x.shape[-1]
        total = 0.0
        for j in range(self.d):
            h = hermitian_part(x[j])
            k = x[j] - h
            nh2 = hs_norm(h) ** 2
            nk2 = hs_norm(k) ** 2
            sh2 = self.herm[j] ** 2
            sk2 = self.skew[j] ** 2
            total = total + (
                -0.5 * n * n * (math.log(2 * math.pi * sh2 / (n * n)) +
                                math.log(2 * math.pi * sk2 / (n * n)))
                - 0.5 * n * n * (nh2 / sh2 + nk2 / sk2))
        return np.asarray(total)


# ---------------------------------------------------------------------------
# Membership


def _constraint_value_info(c: Constraint, env_stack, cfg: EvalConfig):
    info = eval_formula_info(c.formula, env_stack, cfg)
    return info.value, info.uncertainty


def is_microstate(y, spec: NeighborhoodSpec,
                  opt_cfg: Optional[EvalConfig] = None) -> str:
    """Membership verdict: "in", "out", or "boundary".

    The ambient domain check comes first: every matrix must have operator
    norm <= spec.r.  Quantified constraints carry optimizer uncertainty u;
    a constraint decided within u of its tolerance is "boundary" (volume
    estimates count boundary as out, keeping the one-sided semantics).
    """
    if spec.kind == "existential":
        return existential_membership(y, spec, opt_cfg).verdict
    stack = tuple_stack(y)
    if stack.shape[0] != spec.d:
        raise ValueError(f"tuple has d={stack.shape[0]}, spec wants {spec.d}")
    cfg = opt_cfg or EvalConfig()
    for m in stack:
        if operator_norm(m) > spec.r:
            return "out"
    saw_boundary = False
    for c in spec.constraints:
        v, u = _constraint_value_info(c, stack, cfg)
        dev = abs(v - c.target)
        if dev >= c.tol + u:
            return "out"
        if dev >= c.tol - u:
            saw_boundary = True
    return "boundary" if saw_boundary else "in"


def membership_mask(spec: NeighborhoodSpec, x: np.ndarray,
                    opt_cfg: Optional[EvalConfig] = None) -> np.ndarray:
    """Boolean in-mask for a (d, S, n, n) stack of candidate tuples.

    Quantifier-free specs evaluate batched, each constraint only on the
    samples that passed the ones before it.  Specs with quantified
    constraints take per-sample verdicts (boundary counts as out); full-type
    specs first drop, batched, the samples that the HS norm or a
    quantifier-free constraint clearly puts out, with a margin that only
    keeps more samples, so ``is_microstate`` still decides every verdict.
    """
    x = np.asarray(x, dtype=np.complex128)
    d, s = x.shape[0], x.shape[1]
    if d != spec.d:
        raise ValueError(f"stack has d={d}, spec wants {spec.d}")
    if spec.is_quantifier_free():
        n = x.shape[-1]
        sqrt_n = math.sqrt(n)
        mask = np.ones(s, dtype=bool)
        for j in range(d):
            # hs <= opnorm <= sqrt(n) * hs: an exact SVD is only needed in
            # the band where the cheap bounds do not already decide.
            hj = np.atleast_1d(hs_norm(x[j]))
            mask &= hj <= spec.r
            band = mask & (sqrt_n * hj > spec.r)
            if band.any():
                mask[band] &= operator_norm(x[j][band]) <= spec.r
        return _narrow_by_constraints(mask, x, spec.constraints)
    cfg = opt_cfg or EvalConfig()
    out = np.zeros(s, dtype=bool)
    if spec.kind == "existential":
        candidates = range(s)
    else:
        # batched and single-sample evaluations may differ in the last bits,
        # so a sample is dropped only when it misses by more than that
        slack = 1.0 + 1e-9
        keep = np.ones(s, dtype=bool)
        for j in range(d):
            keep &= np.atleast_1d(hs_norm(x[j])) <= spec.r * slack
        qf = [c for c in spec.constraints if formula_depth(c.formula) == 0]
        candidates = np.flatnonzero(
            _narrow_by_constraints(keep, x, qf, slack, 1e-12))
    for i in candidates:
        out[i] = is_microstate(x[:, i], spec, cfg) == "in"
    return out


def _narrow_by_constraints(mask: np.ndarray, x: np.ndarray,
                           constraints: Sequence[Constraint],
                           slack: float = 1.0, pad: float = 0.0) -> np.ndarray:
    """Keep, in place, the samples with |phi - target| < tol*slack + pad.

    Constraints go in order, each evaluated batched on the samples still in
    the mask only (the whole stack while every sample survives).
    """
    for c in constraints:
        idx = np.flatnonzero(mask)
        if not idx.size:
            break
        sub = x if idx.size == mask.size else x[:, idx]
        vals = np.asarray(eval_formula(c.formula, sub))
        mask[idx] = np.abs(vals - c.target) < c.tol * slack + pad
    return mask


# ---------------------------------------------------------------------------
# Volume / entropy estimation


@dataclass
class VolumeEstimate:
    n: int
    d: int
    log_vol: float  # -inf when no hits
    ci: float  # 95% half width on log_vol (0 when no hits)
    hits: int
    samples: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.samples if self.samples else 0.0


def log_volume_from_mask(mask: np.ndarray, log_weights: np.ndarray) -> Tuple[float, float, int]:
    """(log_vol, ci, hits) from an in-mask and per-sample log IS weights.

    vol-hat = (1/S) sum_i w_i 1_i with w = 1/density; the 95% CI comes from
    the delta method on log vol-hat:  Var(log) = B*S/A^2 - 1/S with
    A = sum w_i 1_i, B = sum w_i^2 1_i (computed under a common max shift).
    """
    return log_volume_from_hits(log_weights[mask], int(mask.size))


def log_volume_from_hits(hit_log_weights: np.ndarray,
                         samples: int) -> Tuple[float, float, int]:
    """log_volume_from_mask from the hits' log weights and the sample count."""
    hits = int(hit_log_weights.size)
    if hits == 0:
        return float("-inf"), 0.0, 0
    m = float(np.max(hit_log_weights))
    a = float(np.sum(np.exp(hit_log_weights - m)))
    b = float(np.sum(np.exp(2.0 * (hit_log_weights - m))))
    log_vol = m + math.log(a) - math.log(samples)
    var_log = b / (a * a) - 1.0 / samples
    ci = 1.96 * math.sqrt(max(var_log, 0.0))
    return log_vol, ci, hits


def _chunk_size(d: int, n: int) -> int:
    return max(1000, min(100_000, int(5e6 / (d * n * n))))


def estimate_volume(spec: NeighborhoodSpec, n: int, samples: int,
                    rng_stream: RngStream,
                    proposal: Optional[GaussianProposal] = None,
                    opt_cfg: Optional[EvalConfig] = None) -> VolumeEstimate:
    """Importance-sampling estimate of log vol of the microstate set."""
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    if samples > DEFAULT_SAMPLE_CAP:
        raise ValueError(f"samples capped at {DEFAULT_SAMPLE_CAP}")
    proposal = proposal or GaussianProposal.for_spec(spec)
    if proposal.d != spec.d:
        raise ValueError("proposal dimension does not match the spec")
    rng = rng_stream.child(("volume", n)).generator()
    chunk = _chunk_size(spec.d, n)
    hit_logw: List[np.ndarray] = []
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        x = proposal.sample(n, take, rng)
        mask = membership_mask(spec, x, opt_cfg)
        inside = x[:, mask]
        # free the chunk before log_density's temporaries and the next draw
        del x
        if mask.any():
            hit_logw.append(np.atleast_1d(-proposal.log_density(inside)))
        del inside
        done += take
    logw = np.concatenate(hit_logw) if hit_logw else np.empty(0)
    log_vol, ci, hits = log_volume_from_hits(logw, samples)
    return VolumeEstimate(n, spec.d, log_vol, ci, hits, samples)


def _enc(v: float):
    """A float for a JSON report: +-inf become the strings "inf"/"-inf"."""
    return str(v) if math.isinf(v) else v


def _ftxt(v: float) -> str:
    """A float for a CSV report: 10 significant digits, +-inf as inf/-inf."""
    return f"{v:.10g}"


@dataclass
class EntropyEstimate:
    """Per-n normalized log-volumes and a finite-size trend (no limit claim)."""

    n_values: List[int]
    h_n: List[float]
    ci_n: List[float]
    hits: List[int]
    samples: List[int]
    trend_value: float  # h at the largest n with any hits (-inf if none)
    trend_slope: float  # least-squares slope of h_n against 1/n^2

    def to_json(self) -> str:
        return json.dumps({
            "n_values": self.n_values,
            "h_n": [_enc(v) for v in self.h_n],
            "ci_n": self.ci_n,
            "hits": self.hits,
            "samples": self.samples,
            "trend": {"value": _enc(self.trend_value), "slope": self.trend_slope},
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,h_n,ci,hits,samples"]
        for n, h, ci, k, s in zip(self.n_values, self.h_n, self.ci_n,
                                  self.hits, self.samples):
            lines.append(f"{n},{_ftxt(h)},{ci:.10g},{k},{s}")
        return "\n".join(lines) + "\n"


def entropy_normalization(log_vol: float, n: int, d: int) -> float:
    """h_n = (1/n^2) log vol + 2 d log n."""
    if log_vol == float("-inf"):
        return float("-inf")
    return log_vol / (n * n) + 2.0 * d * math.log(n)


def estimate_entropy(spec: NeighborhoodSpec, n_list: Sequence[int], samples: int,
                     rng_stream: RngStream,
                     proposal: Optional[GaussianProposal] = None,
                     opt_cfg: Optional[EvalConfig] = None,
                     n_cap: int = DEFAULT_N_CAP) -> EntropyEstimate:
    """Per-n normalized entropy estimates plus the finite-size trend."""
    n_list = list(n_list)
    if n_list != sorted(n_list):
        raise ValueError("n_list must be ascending")
    if any(n > n_cap for n in n_list):
        raise ValueError(f"n exceeds the cap {n_cap}")
    h, ci, hits, counts = [], [], [], []
    for n in n_list:
        est = estimate_volume(spec, n, samples, rng_stream, proposal, opt_cfg)
        h.append(entropy_normalization(est.log_vol, n, spec.d))
        ci.append(est.ci / (n * n))
        hits.append(est.hits)
        counts.append(est.samples)
    finite = [(n, v) for n, v in zip(n_list, h) if v != float("-inf")]
    if finite:
        trend_value = finite[-1][1]
        if len(finite) >= 2:
            xs = np.array([1.0 / (n * n) for n, _ in finite])
            ys = np.array([v for _, v in finite])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = 0.0
    else:
        trend_value, slope = float("-inf"), 0.0
    return EntropyEstimate(n_list, h, ci, hits, counts, trend_value, slope)


# ---------------------------------------------------------------------------
# Covering bound


def covering_upper_bound(d: int, r: float, eps: float, c: float) -> float:
    """Entropy upper bound from an (c/eps)^(n^2) covering of the unitaries.

    log c + d log pi - d (log d - 1) + 2 d log(2 sqrt(d) r + 1)
    + (2d - 1) log eps; decreasing in eps, -> -inf as eps -> 0.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if r <= 0 or d < 1 or c <= 0:
        raise ValueError("need r > 0, d >= 1, c > 0")
    return (math.log(c) + d * math.log(math.pi) - d * (math.log(d) - 1.0)
            + 2.0 * d * math.log(2.0 * math.sqrt(d) * r + 1.0)
            + (2.0 * d - 1.0) * math.log(eps))


# ---------------------------------------------------------------------------
# Existential membership


@dataclass
class ExistentialResult:
    verdict: str  # "in" | "out"
    witness: Optional[np.ndarray]  # (m, n, n) trailing tuple, None when m=0
    max_violation: float  # max over constraints of |v - target| - tol at the end
    flags: frozenset = frozenset()


def existential_membership(x, spec: NeighborhoodSpec,
                           opt_cfg: Optional[EvalConfig] = None) -> ExistentialResult:
    """Does some trailing tuple Y' in D_r^m make (X, Y') a microstate?

    "in" verdicts are certified by the returned witness; "out" verdicts are
    heuristic (the optimizer may have missed a feasible point) and flagged.
    The search minimizes a squared hinge penalty on constraint violations.
    """
    if spec.kind != "existential":
        raise ValueError("spec.kind must be 'existential'")
    cfg = opt_cfg or EvalConfig()
    stack = tuple_stack(x)
    dx, n = stack.shape[0], stack.shape[-1]
    m = spec.d - dx
    if m < 0:
        raise ValueError("supplied tuple has more variables than the spec")
    for mat in stack:
        if operator_norm(mat) > spec.r:
            return ExistentialResult("out", None, float("inf"))
    if m == 0:
        verdict = is_microstate(stack, replace(spec, kind="full"), cfg)
        return ExistentialResult("in" if verdict == "in" else "out", None, 0.0,
                                 frozenset() if verdict == "in" else
                                 frozenset({"out-is-heuristic"}))

    margins = [0.9 * c.tol for c in spec.constraints]

    def env_of(y: np.ndarray) -> Dict[int, np.ndarray]:
        env = {j + 1: stack[j] for j in range(dx)}
        for j in range(m):
            env[dx + j + 1] = y[j]
        return env

    def objective(y: np.ndarray) -> float:
        env = env_of(y)
        total = 0.0
        for c, margin in zip(spec.constraints, margins):
            v = float(eval_formula(c.formula, env, cfg))
            total += max(0.0, abs(v - c.target) - margin) ** 2
        return total

    def gradient(y: np.ndarray) -> np.ndarray:
        env = env_of(y)
        wrt = set(range(dx + 1, dx + m + 1))
        g = np.zeros_like(y)
        for c, margin in zip(spec.constraints, margins):
            v = float(eval_formula(c.formula, env, cfg))
            slack = abs(v - c.target) - margin
            if slack <= 0.0:
                continue
            sign = 1.0 if v >= c.target else -1.0
            gc = _formula_gradient(c.formula, env, wrt, cfg, cfg.rng, 0, frozenset())
            for j in range(m):
                g[j] += 2.0 * slack * sign * gc[dx + j + 1]
        return g

    res = minimize_over_ball(objective, gradient, (m, n, n), spec.r, cfg.opt,
                             rng_stream=cfg.rng.child("existential"))
    witness = res.witness
    env = env_of(witness)
    worst = max(abs(float(eval_formula(c.formula, env, cfg)) - c.target) - c.tol
                for c in spec.constraints)
    if worst < 0.0:
        return ExistentialResult("in", witness, worst)
    return ExistentialResult("out", witness, worst,
                             frozenset({"out-is-heuristic"}))


# ---------------------------------------------------------------------------
# Independent-join probe


@dataclass(frozen=True)
class McmcConfig:
    burn_in: int = 500
    pairs: int = 500
    thin: int = 5
    step: float = 0.15
    init_tries: int = 20_000


@dataclass
class JoinRatioResult:
    ratio: float
    ci: float
    pairs: int
    acceptance: Tuple[float, float]
    ess: float


class FeasibilityError(RuntimeError):
    """No feasible point found; the estimate would be meaningless, not 0."""


def _find_feasible(spec: NeighborhoodSpec, n: int, rng: np.random.Generator,
                   proposal: GaussianProposal, tries: int) -> np.ndarray:
    chunk = 1000
    tried = 0
    while tried < tries:
        x = proposal.sample(n, chunk, rng)
        mask = membership_mask(spec, x)
        idx = np.flatnonzero(mask)
        if idx.size:
            return x[:, idx[0]]
        tried += chunk
    raise FeasibilityError(
        f"no feasible point for the spec after {tries} proposal draws")


def _indicator_chain(spec: NeighborhoodSpec, n: int, rng: np.random.Generator,
                     start: np.ndarray, cfg: McmcConfig):
    """Random-walk Metropolis with the uniform-on-the-set target.

    The proposal is a symmetric Gaussian step, so acceptance is simply the
    membership indicator of the candidate.  Yields kept states after burn-in
    and thinning, plus the running acceptance count.
    """
    x = start.copy()
    accept = 0
    total = 0
    kept = []
    d = x.shape[0]
    steps = cfg.burn_in + cfg.pairs * cfg.thin
    for step_idx in range(steps):
        noise = np.empty_like(x)
        for j in range(d):
            g1 = sample_gue(n, rng)
            g2 = sample_gue(n, rng)
            noise[j] = cfg.step * (g1 + 1j * g2) / math.sqrt(2.0)
        cand = x + noise
        if membership_mask(spec, cand[:, None])[0]:
            x = cand
            accept += 1
        total += 1
        if step_idx >= cfg.burn_in and (step_idx - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            kept.append(x.copy())
    return kept, accept / total


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the integrated autocorr time."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    var = float(np.dot(x, x))
    if var <= 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, min(len(x) // 2, 200)):
        rho = float(np.dot(x[:-lag], x[lag:])) / var
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return max(tau, 1.0)


def independent_join_ratio(spec1: NeighborhoodSpec, spec2: NeighborhoodSpec,
                           joint_spec: NeighborhoodSpec, n: int,
                           rng_stream: RngStream,
                           mcmc_cfg: McmcConfig = McmcConfig(),
                           proposal1: Optional[GaussianProposal] = None,
                           proposal2: Optional[GaussianProposal] = None) -> JoinRatioResult:
    """vol(joint within the product) / vol(product) by paired uniform chains.

    Two independent Metropolis chains sample uniformly from each factor set;
    paired states are scored against the joint spec.  The CI is binomial,
    widened by the effective sample size of the joint-indicator series.
    """
    if joint_spec.d != spec1.d + spec2.d:
        raise ValueError("joint spec dimension must be d1 + d2")
    p1 = proposal1 or GaussianProposal.for_spec(spec1)
    p2 = proposal2 or GaussianProposal.for_spec(spec2)
    rng1 = rng_stream.child("join-chain-1").generator()
    rng2 = rng_stream.child("join-chain-2").generator()
    x0 = _find_feasible(spec1, n, rng1, p1, mcmc_cfg.init_tries)
    y0 = _find_feasible(spec2, n, rng2, p2, mcmc_cfg.init_tries)
    kept1, acc1 = _indicator_chain(spec1, n, rng1, x0, mcmc_cfg)
    kept2, acc2 = _indicator_chain(spec2, n, rng2, y0, mcmc_cfg)
    joint_hits = np.zeros(len(kept1), dtype=bool)
    for i, (a, b) in enumerate(zip(kept1, kept2)):
        pair = np.concatenate([a, b], axis=0)
        joint_hits[i] = membership_mask(joint_spec, pair[:, None])[0]
    pairs = len(kept1)
    ratio = float(joint_hits.mean())
    tau = integrated_autocorr_time(joint_hits.astype(float))
    ess = pairs / tau
    se = math.sqrt(max(ratio * (1.0 - ratio), 0.0) / max(ess, 1.0))
    return JoinRatioResult(ratio, 1.96 * se, pairs, (acc1, acc2), ess)
