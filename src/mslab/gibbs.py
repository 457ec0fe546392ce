"""Matrix Gibbs measures e^{-n^2 V}: Langevin sampling, moment estimation
with a Dyson-Schwinger oracle for the quartic model, and the discrete
Hopf-Lax semigroup.

Conventions.  In the coordinate system of the matrices module (normalized
HS inner product, d*n^2 complex coordinates) the target density e^{-n^2 V}
is sampled by the rescaled unadjusted Langevin chain

    X <- X - (h/2) * grad V(X) + sqrt(2h) * W,

where h is the effective step (n^2 times the coordinate-space step) and W
has E tr_n(W W*) = 1 per variable.  For V = tr_n(X X*) the chain's exact
stationary second moment is 1/(1 - h/2), so the default h = 0.02 keeps the
discretization bias at 1%.  The self-adjoint slice replaces the noise with
sqrt(h) * GUE and symmetrizes the drift, which preserves Hermiticity
exactly; the per-real-coordinate noise variance is the same in both cases.

The Hopf-Lax operator is implemented with the expectation over the Brownian
increment (estimated by common random numbers shared across all optimizer
evaluations):

    Phi_t V(X) = inf_A [ E V(X + A + Z_t) + ||A||_2^2 / (2t) ],

with E ||Z_t||^2 = 2td.  A flag switches to the per-sample variant (inf
inside the expectation is not implementable pointwise; the flag instead
drops the expectation to a single draw) since the two placements are a
genuinely open reading.  The k-fold composition is lower-bounded by nothing
and upper-bounded by any feedback policy; we optimize over the affine
policy class (a free first-stage shift, scalar linear feedback afterwards),
which contains the exact optimum for quadratic potentials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .formulas import (
    Formula,
    cyclic_gradient,
    eval_formula,
    format_formula,
    formula_depth,
    formula_free_variables,
    parse_formula,
    word_trace_table,
)
from .matrices import (
    RngStream,
    hermitian_part,
    hs_norm,
    operator_norm,
    sample_ginibre,
    sample_gue,
    tuple_hs_norm,
    tuple_stack,
)
from .microstates import integrated_autocorr_time
from .moments import MomentVector, all_words
from .optimize import OptConfig, minimize_over_ball

__all__ = [
    "Potential",
    "LangevinState",
    "GibbsMoments",
    "HopfLaxResult",
    "HopfLaxIterates",
    "langevin_step",
    "langevin_run",
    "sample_gibbs_moments",
    "dyson_schwinger_quartic",
    "hopf_lax_step",
    "hopf_lax_iterate",
]

DEFAULT_STEP = 0.02
BOUND_CHECK_SAMPLES = 1000
BOUND_CHECK_N = 6
BOUND_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# Potentials


@dataclass(frozen=True)
class Potential:
    """Quantifier-free real-valued formula with declared growth bounds.

    The declared bounds lower_const + lower_quad * ||X||_2^2 <= V(X) <=
    upper_const + upper_quad * ||X||_2^2 are checked on 10^3 random tuples
    at construction (a sampled sanity gate, not a proof); lower_quad > 0 is
    what the sampler's stability policy relies on.  ``self_adjoint`` declares
    the Hermitian-slice model: bounds are then checked on Hermitian samples
    and the Langevin chain stays on the slice.
    """

    formula: Formula
    lower_const: float
    lower_quad: float
    upper_const: float
    upper_quad: float
    self_adjoint: bool = False

    def __post_init__(self):
        if isinstance(self.formula, str):
            object.__setattr__(self, "formula", parse_formula(self.formula))
        if formula_depth(self.formula) > 0:
            raise ValueError("potential must be quantifier-free")
        if not self.lower_quad > 0:
            raise ValueError("need lower_quad > 0 (coercivity)")
        if self.upper_quad < self.lower_quad:
            raise ValueError("need upper_quad >= lower_quad")
        self._check_bounds_empirically()

    @property
    def d(self) -> int:
        return max(formula_free_variables(self.formula), default=1)

    def _check_bounds_empirically(self):
        rng = RngStream(0xB0).child("potential-bounds").generator()
        d = self.d
        scales = 0.1 + 1.9 * rng.random(BOUND_CHECK_SAMPLES)
        x = np.empty((d, BOUND_CHECK_SAMPLES, BOUND_CHECK_N, BOUND_CHECK_N),
                     dtype=np.complex128)
        for j in range(d):
            if self.self_adjoint:
                base = sample_gue(BOUND_CHECK_N, rng, size=(BOUND_CHECK_SAMPLES,))
            else:
                base = sample_ginibre(BOUND_CHECK_N, rng, size=(BOUND_CHECK_SAMPLES,))
            x[j] = base * scales[:, None, None]
        vals = np.asarray(eval_formula(self.formula, x), dtype=float)
        nsq = np.sum(hs_norm(x) ** 2, axis=0)
        lo = self.lower_const + self.lower_quad * nsq
        hi = self.upper_const + self.upper_quad * nsq
        bad_lo = vals < lo - BOUND_CHECK_TOL
        bad_hi = vals > hi + BOUND_CHECK_TOL
        if bad_lo.any() or bad_hi.any():
            i = int(np.argmax(bad_lo | bad_hi))
            raise ValueError(
                f"declared bounds fail on sample {i}: V={vals[i]:.6g}, "
                f"||X||^2={nsq[i]:.6g}, window [{lo[i]:.6g}, {hi[i]:.6g}]")

    def value(self, x) -> np.ndarray:
        return eval_formula(self.formula, x)

    def gradient(self, x) -> np.ndarray:
        g = cyclic_gradient(self.formula, x)
        if self.self_adjoint:
            g = hermitian_part(g)
        return g

    def to_json(self) -> str:
        return json.dumps({
            "formula": format_formula(self.formula),
            "bounds": {"a": self.lower_const, "b": self.lower_quad,
                       "A": self.upper_const, "B": self.upper_quad},
            "self_adjoint": self.self_adjoint,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Potential":
        data = json.loads(text)
        b = data["bounds"]
        return Potential(data["formula"], float(b["a"]), float(b["b"]),
                         float(b["A"]), float(b["B"]),
                         bool(data.get("self_adjoint", False)))


def _gradient_matches_fd(potential: Potential, n: int = 4,
                         rel_tol: float = 1e-4) -> None:
    """Precondition gate: analytic gradient vs central differences."""
    rng = RngStream(0xFD).child("grad-gate").generator()
    d = potential.d
    if potential.self_adjoint:
        x = np.stack([0.5 * sample_gue(n, rng) for _ in range(d)])
        h = np.stack([0.5 * sample_gue(n, rng) for _ in range(d)])
    else:
        x = np.stack([0.5 * sample_ginibre(n, rng) for _ in range(d)])
        h = np.stack([0.5 * sample_ginibre(n, rng) for _ in range(d)])
    g = potential.gradient(x)
    pairing = float(np.real(np.sum(np.einsum("jab,jab->j", np.conj(g), h))) / n)
    eps = 1e-5
    fd = (float(potential.value(x + eps * h)) -
          float(potential.value(x - eps * h))) / (2 * eps)
    scale = max(abs(fd), abs(pairing), 1e-8)
    if abs(fd - pairing) / scale > rel_tol:
        raise RuntimeError(
            f"potential gradient disagrees with finite differences: "
            f"analytic {pairing:.8g}, fd {fd:.8g}")


# ---------------------------------------------------------------------------
# Langevin chain


@dataclass
class LangevinState:
    x: np.ndarray  # (d, n, n)
    h: float  # effective step (n^2 times the coordinate-space step)
    t: float = 0.0  # accumulated effective time
    rejections: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.complex128)
        if not np.all(np.isfinite(self.x)):
            raise ValueError("state entries must be finite")
        if not self.h > 0:
            raise ValueError("step must be positive")


def _langevin_noise(d: int, n: int, rng: np.random.Generator,
                    self_adjoint: bool) -> np.ndarray:
    if self_adjoint:
        return np.stack([sample_gue(n, rng) for _ in range(d)])
    return np.stack([sample_ginibre(n, rng) for _ in range(d)])


def langevin_step(state: LangevinState, potential: Potential,
                  rng: np.random.Generator) -> LangevinState:
    """One unadjusted Langevin update; non-finite gradients reject the step
    and halve h instead of propagating."""
    x = state.x
    d, n = x.shape[0], x.shape[-1]
    g = potential.gradient(x)
    if not np.all(np.isfinite(g)):
        return LangevinState(x, state.h / 2.0, state.t,
                             state.rejections + 1)
    h = state.h
    noise = _langevin_noise(d, n, rng, potential.self_adjoint)
    scale = math.sqrt(h) if potential.self_adjoint else math.sqrt(2.0 * h)
    x_new = x - (h / 2.0) * g + scale * noise
    return LangevinState(x_new, h, state.t + h, state.rejections)


def langevin_run(potential: Potential, n: int, steps: int,
                 rng_stream: RngStream, h: float = DEFAULT_STEP,
                 init: Optional[np.ndarray] = None,
                 divergence_limit: float = 1e4,
                 keep_every: int = 0) -> Tuple[LangevinState, List[np.ndarray]]:
    """Drive the chain ``steps`` updates; optionally record states.

    Aborts with diagnostics when the squared tuple norm explodes past
    ``divergence_limit`` (coercive potentials keep it O(1)).
    """
    d = potential.d
    rng = rng_stream.child("langevin").generator()
    if init is None:
        if potential.self_adjoint:
            init = np.stack([0.5 * sample_gue(n, rng) for _ in range(d)])
        else:
            init = np.stack([0.5 * sample_ginibre(n, rng) for _ in range(d)])
    state = LangevinState(np.asarray(init, dtype=np.complex128), h)
    kept: List[np.ndarray] = []
    for i in range(steps):
        state = langevin_step(state, potential, rng)
        nsq = tuple_hs_norm(state.x) ** 2
        if not np.isfinite(nsq) or nsq > divergence_limit:
            raise RuntimeError(
                f"langevin chain diverged at step {i}: ||X||^2 = {nsq:.3g} "
                f"(h = {state.h}, limit {divergence_limit})")
        if keep_every and (i + 1) % keep_every == 0:
            kept.append(state.x.copy())
    return state, kept


# ---------------------------------------------------------------------------
# Gibbs moment estimation


@dataclass
class GibbsMoments:
    moments: MomentVector
    ci: Dict[str, float]  # 95% half-width per word, autocorrelation-aware
    tau: float  # integrated autocorrelation time of tr_n(x1 x1*)
    kept: int
    n: int
    h: float


def sample_gibbs_moments(potential: Potential, n: int, burn_in: int,
                         samples: int, max_len: int, rng_stream: RngStream,
                         h: float = DEFAULT_STEP, thin: int = 5,
                         divergence_limit: float = 1e4) -> GibbsMoments:
    """Time-averaged *-word traces of the Langevin chain after burn-in."""
    _gradient_matches_fd(potential)
    d = potential.d
    steps = burn_in + samples * thin
    _, kept = langevin_run(potential, n, steps, rng_stream, h=h,
                           divergence_limit=divergence_limit,
                           keep_every=thin)
    kept = kept[len(kept) - samples:]
    stack = np.stack(kept, axis=1)  # (d, S, n, n)
    s = stack.shape[1]
    values: Dict[str, complex] = {}
    ci: Dict[str, float] = {}
    tau_main = 1.0
    words = [w for w in all_words(d, max_len) if w.letters]
    for word, series in zip(words, word_trace_table(words, stack)):
        mean = complex(series.mean())
        tau = max(integrated_autocorr_time(series.real),
                  integrated_autocorr_time(series.imag)
                  if np.abs(series.imag).max() > 1e-12 else 1.0)
        var = float(np.var(series.real) + np.var(series.imag))
        ci[str(word)] = 1.96 * math.sqrt(var * tau / s)
        values[str(word)] = mean
        if str(word) == "x1 x1*":
            tau_main = tau
    mv = MomentVector(d, max_len, values)
    return GibbsMoments(mv, ci, tau_main, s, n, h)


# ---------------------------------------------------------------------------
# Dyson-Schwinger oracle for the quartic one-matrix model


def dyson_schwinger_quartic(g: float, max_len: int = 8,
                            tol: float = 1e-10, max_iter: int = 4000) -> MomentVector:
    """Planar limiting moments for V(x) = x^2/2 + g x^4 on the Hermitian slice.

    Odd moments vanish; with M_p = m_{2p} the loop equation reads

        M_p + 4 g M_{p+1} = sum_{a=0}^{p-1} M_a M_{p-1-a},

    which we solve by damped, clamped Jacobi sweeps on L_p = log M_p over a
    deep truncated window, every p updated at once from the previous sweep
    (a linear-in-log extrapolation closes the window edge).  The window top
    sits around e^340, so each sweep takes the convolution on the rescaled
    u_p = M_p e^{-s p}, s = (L_W - L_0) / W, which stays in float range, and
    adds s p back in log space.  g = 0 degenerates to the Catalan
    recurrence.  Truncation is only insulated from the reported moments
    while the downward damping factors 4 g M_{p+1}/M_p multiply to under
    1e-12 along the window; that product is measured on the converged
    window, and a leaky window raises the non-convergence error instead of
    returning a plausible-looking wrong answer.  Measured at max_len=8: g =
    0.104 returns, g = 0.105 raises "not insulated", and larger g raise.
    """
    if g < 0 or g > 0.5:
        raise ValueError("g must lie in [0, 0.5]")
    report = max(4, max_len // 2 + 1)
    window = report + 640
    log_tol = tol / 10.0
    damping, clamp = 0.5, 1.0
    ell = np.zeros(window + 2)
    q = np.arange(1, window + 2)
    ell[1:] = np.cumsum(np.log(4.0 * (2 * q - 1) / (q + 2)))  # Catalan
    lg4 = math.log(4.0 * g) if g > 0 else None
    shift = np.arange(window)
    clean = 0
    for sweep in range(max_iter):
        prev = ell.copy()
        # log sum_{a<p} M_a M_{p-1-a} for p = 1..window, via the rescaled u
        s = (ell[window] - ell[0]) / window
        u = np.exp(ell[:window] - s * shift)
        lconv = np.log(np.convolve(u, u)[:window]) + s * shift
        if lg4 is None:
            target = lconv
            patched = 0
        else:
            diff = lg4 + prev[2:] - lconv
            # transient can push the tail past conv; damp through it
            hit = diff >= -1e-15
            patched = int(hit.sum())
            target = np.where(hit, lconv - 7.0,
                              lconv + np.log1p(-np.exp(np.minimum(diff, -1e-15))))
        ell[1:window + 1] += np.clip(damping * (target - prev[1:window + 1]),
                                     -clamp, clamp)
        ell[window + 1] = 2.0 * ell[window] - ell[window - 1]
        if not np.all(np.isfinite(ell)):
            raise RuntimeError(f"loop-equation iteration diverged for g={g}")
        delta = float(np.max(np.abs(ell[1:report + 1] - prev[1:report + 1])))
        clean = clean + 1 if (delta < log_tol and patched == 0) else 0
        if clean >= 3:
            break
        if sweep > window + 900 and delta > 1e-4:
            raise RuntimeError(
                f"loop-equation iteration is stalled for g={g} "
                f"(report-window change {delta:.2g} after {sweep + 1} sweeps)")
    else:
        raise RuntimeError(
            f"loop-equation iteration did not converge for g={g} "
            f"within {max_iter} sweeps")
    if g > 0:
        transfer = math.log(4.0 * g) * (window - report) + (ell[window] - ell[report])
        if transfer > math.log(1e-12):
            raise RuntimeError(
                f"loop-equation window is not insulated for g={g}: "
                f"truncation leaks exp({transfer:.1f}) into the reported moments")
    m = np.exp(ell[:report + 1])
    if not 0.0 < m[1] <= 1.0 + 1e-9:
        raise RuntimeError(
            f"loop-equation iteration left the physical branch for g={g}")
    values = {"1": 1.0}
    for w in all_words(1, max_len):
        k = len(w.letters)
        if k:  # self-adjoint model: stars are immaterial, odd moments vanish
            values[str(w)] = float(m[k // 2]) if k % 2 == 0 else 0.0
    return MomentVector(1, max_len, values)


# ---------------------------------------------------------------------------
# Hopf-Lax semigroup


@dataclass
class HopfLaxResult:
    value: float
    witness: np.ndarray  # the additive shift A, shape (d, n, n)
    t: float
    z_samples: int


def _brownian_draws(d: int, n: int, t: float, count: int,
                    rng: np.random.Generator, self_adjoint: bool) -> np.ndarray:
    """(d, count, n, n) increments with E tr_n(Z_j Z_j*) = 2t each."""
    scale = math.sqrt(2.0 * t)
    out = np.empty((d, count, n, n), dtype=np.complex128)
    for j in range(d):
        if self_adjoint:
            out[j] = sample_gue(n, rng, size=(count,), scale=scale)
        else:
            out[j] = sample_ginibre(n, rng, size=(count,), scale=scale)
    return out


def hopf_lax_step(potential: Potential, t: float, x, z_samples: int,
                  cfg: OptConfig = OptConfig(),
                  rng_stream: Optional[RngStream] = None,
                  expectation: bool = True) -> HopfLaxResult:
    """One application of the inf-convolution smoothing operator.

    The Brownian draws are fixed up front (common random numbers), so every
    optimizer start and iteration sees the same empirical expectation.
    ``expectation=False`` uses a single draw instead of the average: the
    per-sample reading of the semigroup display.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if z_samples < 1:
        raise ValueError("need z_samples >= 1")
    xs = tuple_stack(x)
    d, n = xs.shape[0], xs.shape[-1]
    if d != potential.d:
        raise ValueError(f"tuple has d={d}, potential wants {potential.d}")
    rng = (rng_stream or RngStream(0)).child("hopf-lax-z").generator()
    count = z_samples if expectation else 1
    z = _brownian_draws(d, n, t, count, rng, potential.self_adjoint)
    radius = 10.0 * max(float(operator_norm(xs[j])) for j in range(d)) + 10.0

    def objective(a: np.ndarray) -> float:
        shifted = (xs + a)[:, None] + z
        vals = np.asarray(potential.value(shifted), dtype=float)
        pen = float(sum(hs_norm(a[j]) ** 2 for j in range(d))) / (2.0 * t)
        return float(vals.mean()) + pen

    def gradient(a: np.ndarray) -> np.ndarray:
        shifted = (xs + a)[:, None] + z
        gv = potential.gradient(shifted)  # (d, count, n, n)
        return gv.mean(axis=1) + a / t

    res = minimize_over_ball(objective, gradient, (d, n, n), radius, cfg,
                             rng_stream=(rng_stream or RngStream(0)).child("hopf-lax-opt"),
                             extra_starts=(np.zeros((d, n, n), dtype=np.complex128),))
    return HopfLaxResult(res.value, res.witness, t, count)


@dataclass
class HopfLaxIterates:
    ks: List[int]
    values: List[float]

    @property
    def value(self) -> float:
        return self.values[-1]


def _policy_value(potential: Potential, xs: np.ndarray, a1: np.ndarray,
                  gammas: np.ndarray, z: np.ndarray, s: float) -> float:
    """Cost of the affine feedback policy on fixed Brownian paths.

    z has shape (k, d, S, n, n); stage 1 shifts by the free tuple a1, stage
    i >= 2 shifts by -gammas[i-2] * (current state).  The penalty for stage
    i is ||A_i||^2/(2s), averaged over paths for the feedback stages.
    """
    k = z.shape[0]
    d = xs.shape[0]
    cost = float(sum(hs_norm(a1[j]) ** 2 for j in range(d))) / (2.0 * s)
    state = (xs + a1)[:, None] + z[0]
    for i in range(1, k):
        gam = gammas[i - 1]
        pen = gam * gam * np.sum(hs_norm(state) ** 2, axis=0)  # (S,)
        cost += float(pen.mean()) / (2.0 * s)
        state = (1.0 - gam) * state + z[i]
    vals = np.asarray(potential.value(state), dtype=float)
    return cost + float(vals.mean())


def _golden_section(f, lo: float, hi: float, iters: int = 40) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    e = a + phi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(iters):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + phi * (b - a)
            fe = f(e)
    return 0.5 * (a + b)


def hopf_lax_iterate(potential: Potential, t: float, k: int, x,
                     z_samples: int = 400, cfg: OptConfig = OptConfig(),
                     rng_stream: Optional[RngStream] = None,
                     sweeps: int = 3) -> HopfLaxIterates:
    """(Phi_{t/k})^k V at X, reported over the doubling ladder 1, 2, 4, ..., k.

    Each inner infimum may depend on the Brownian past, which a pointwise
    optimizer cannot represent; we optimize over affine feedback policies
    (free first-stage shift A_1, scalar feedback A_i = -gamma_i * state for
    the later stages).  The class contains the exact optimum for quadratic
    potentials, so the reported values are upper bounds that are tight on
    the quadratic family.  k = 1 is literally hopf_lax_step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    stream = rng_stream or RngStream(0)
    ks: List[int] = []
    kk = 1
    while kk < k:
        ks.append(kk)
        kk *= 2
    ks.append(k)
    xs = tuple_stack(x)
    d, n = xs.shape[0], xs.shape[-1]
    values: List[float] = []
    for stages in ks:
        if stages == 1:
            res = hopf_lax_step(potential, t, xs, z_samples, cfg, stream)
            values.append(res.value)
            continue
        s = t / stages
        rng = stream.child(("iterate", stages)).generator()
        z = np.stack([
            _brownian_draws(d, n, s, z_samples, rng, potential.self_adjoint)
            for _ in range(stages)])
        gammas = np.full(stages - 1, 2.0 * s / (1.0 + 2.0 * s))  # unit-curvature seed
        a1 = np.zeros((d, n, n), dtype=np.complex128)
        radius = 10.0 * max(float(operator_norm(xs[j])) for j in range(d)) + 10.0

        for _ in range(sweeps):
            # stage-1 shift at fixed feedback gains: the objective is the
            # policy cost, whose a1-gradient backpropagates through the
            # linear dynamics with the scalar factor prod(1 - gamma).
            def objective(a: np.ndarray) -> float:
                return _policy_value(potential, xs, a, gammas, z, s)

            def gradient(a: np.ndarray) -> np.ndarray:
                state = (xs + a)[:, None] + z[0]
                # replay to the end, collecting the quadratic-penalty pull
                pull = np.zeros_like(a)
                factor = 1.0
                for i in range(1, stages):
                    gam = gammas[i - 1]
                    pull += (gam * gam / s) * factor * state.mean(axis=1)
                    state = (1.0 - gam) * state + z[i]
                    factor *= (1.0 - gam)
                gv = potential.gradient(state).mean(axis=1)
                return a / s + pull + factor * gv

            res = minimize_over_ball(objective, gradient, (d, n, n), radius,
                                     cfg, rng_stream=stream.child(("iterate-a1", stages)),
                                     extra_starts=(a1,))
            a1 = res.witness
            for i in range(stages - 1):
                def fgam(gam_val, idx=i):
                    trial = gammas.copy()
                    trial[idx] = gam_val
                    return _policy_value(potential, xs, a1, trial, z, s)
                gammas[i] = _golden_section(fgam, 0.0, 0.999)
        values.append(_policy_value(potential, xs, a1, gammas, z, s))
    return HopfLaxIterates(ks, values)
