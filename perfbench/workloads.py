"""Seeded op lists for the benchmark workloads, and their reference checks.

An op is one ``mslab.cli.run`` call; the ``gibbs`` op is followed by the
loop-equation solve at the same coupling, timed as its own entry.  Every op of every pass draws its own seed and
inputs from the workload seed, so no result can be reused across ops.

Reference values come from ``tests/oracles.py``, imported, never copied.
Where no closed form exists the report's own invariants are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import oracles

# Degree <= 4 moment box around the standard semicircle (test_04's spec).
BOX_SPEC = {"d": 1, "r": 4.0, "constraints": (
    [{"formula": "tr.re(x1 x1*)", "target": 1.0, "tol": 0.1}]
    + [{"formula": "tr.re(%s)" % " ".join(["x1"] * k), "target": t, "tol": 0.1}
       for k, t in ((1, 0.0), (2, 1.0), (3, 0.0), (4, 2.0))])}
BOX_PROPOSAL = {"herm": [1.0], "skew": [math.sqrt(0.03)]}
BOX_GATE = 0.3  # test_04's gate on the trend value

# Hilbert-Schmidt ball of radius 1: the volume is exact.
BALL_SPEC = {"d": 1, "r": 4.0, "constraints": [
    {"formula": "sqrt(tr.re(x1 x1*))", "target": 0.0, "tol": 1.0}]}
# Statistical slack on h_n; the estimator's own 95% CI is below 1e-3 at
# 100k samples, so a miss by 0.02 is a wrong estimate, not bad luck.
BALL_TOL = 0.02

# Full type: a thin shell in tr(x x*), then a sup over the unit
# operator-norm ball (the normalized trace norm).
FT_SHELL = (1.0, 0.005)
FT_SPEC = {"d": 1, "r": 4.0, "kind": "full", "constraints": [
    {"formula": "tr.re(x1 x1*)", "target": FT_SHELL[0], "tol": FT_SHELL[1]},
    {"formula": "sup{y1 in D(1.0)} (tr.re(y1 x1*))", "target": 0.85, "tol": 0.1}]}
FT_N = 4
FT_TOL = 0.05  # slack on the exact upper bound h(shell)

# A loose box for the join chains.  Re tr(x1 x2*) has sd ~0.09 at n = 8, so
# the cross tolerance puts the ratio near 0.4, where a (0, 1) check bites.
JOIN_SPEC = {"d": 1, "r": 4.0, "constraints": [
    {"formula": "tr.re(x1 x1*)", "target": 1.0, "tol": 0.3},
    {"formula": "tr.re(x1)", "target": 0.0, "tol": 0.3}]}
JOIN_CROSS = [{"formula": "tr.re(x1 x2*)", "target": 0.0, "tol": 0.06}]

G_RANGE = (0.049, 0.051)  # quartic coupling; the loop-solve cost moves with g
GIBBS_GATE = 0.05  # test_09's relative gate on m2
LOOP_TOL = 1e-6  # loop solver against the closed form, relative

HL_C, HL_T = 0.7, 0.1
HL_GATES = {1: 1e-2, 2: 2e-2}  # test_10's relative gates

CONVOLVE_GATE = 0.05  # test_06: |emp - pred| < 0.05 max(1, |pred|)
PSI_SAME_GATE = 1e-6  # test_11: psi of a conjugate pair

SEMICIRCLE = {"kind": "semicircle", "atoms": 128}
BERNOULLI = {"kind": "uniform", "locations": [-1.0, 1.0]}


def quartic_potential(g: float) -> dict:
    return {"formula": f"0.5*tr.re(x1 x1) + {g!r}*tr.re(x1 x1 x1 x1)",
            "bounds": {"a": 0.0, "b": 0.45, "A": 1.0, "B": 6.0},
            "self_adjoint": True}


def quadratic_potential(c: float) -> dict:
    return {"formula": f"{c!r}*tr.re(x1 x1*)",
            "bounds": {"a": -0.1, "b": 0.9 * c, "A": 0.1, "B": 1.1 * c}}


@dataclass
class Op:
    """One timed experiment: a CLI config plus what its check needs."""

    label: str
    kind: str
    params: dict
    seed: int
    lead: bool = False  # the op the workload exists to measure
    ref: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.label}@{self.seed}"


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _hopf_lax(label: str, rng: np.random.Generator, n: int, z: int,
              stages: int, lead: bool = False) -> Op:
    # A Ginibre direction at unit tr_n(x x*): the optimizer's work grows
    # with |x|, so a fixed norm keeps the op the same size for every seed.
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x *= math.sqrt(n / float(np.sum(np.abs(x) ** 2)))
    xsq = float(np.sum(np.abs(x) ** 2)) / n
    params = {"potential": quadratic_potential(HL_C), "t": HL_T,
              "z_samples": z, "stages": stages,
              "x": {"re": x.real.tolist(), "im": x.imag.tolist()}}
    return Op(label, "hopf-lax", params, _seed(rng), lead,
              ref={"xsq": xsq, "stages": stages})


def pass_ops(workload: str, seed: int, index: int) -> List[Op]:
    """The op list of pass ``index``; a pure function of (seed, index)."""
    rng = np.random.default_rng([seed, index])
    if workload == "volume":
        return [
            Op("entropy.box", "entropy",
               {"spec": BOX_SPEC, "n_list": [4, 8, 12], "samples": 50_000,
                "proposal": BOX_PROPOSAL}, _seed(rng), lead=True),
            Op("entropy.ball", "entropy",
               {"spec": BALL_SPEC, "n_list": [4, 8], "samples": 100_000},
               _seed(rng)),
        ]
    if workload == "chains":
        g = float(rng.uniform(*G_RANGE))
        return [
            Op("gibbs", "gibbs",
               {"potential": quartic_potential(g), "n": 32, "burn_in": 400,
                "samples": 200, "thin": 5, "max_len": 6}, _seed(rng),
               lead=True, ref={"g": g}),
            Op("independent-join", "independent-join",
               {"spec1": JOIN_SPEC, "spec2": JOIN_SPEC, "cross": JOIN_CROSS,
                "probe": "ratio", "n": 8,
                "mcmc": {"burn_in": 500, "pairs": 400, "thin": 10}},
               _seed(rng)),
        ]
    if workload == "optimizers":
        return [
            Op("entropy.full-type", "entropy",
               {"spec": FT_SPEC, "n_list": [FT_N], "samples": 1000},
               _seed(rng)),
            _hopf_lax("hopf-lax.1-stage", rng, 8, 300, 1),
            _hopf_lax("hopf-lax.2-stage", rng, 8, 300, 2, lead=True),
            Op("example-5-3", "example-5-3", {"trials": 20}, _seed(rng)),
        ]
    if workload == "free-moments":
        return [
            Op("freeness", "freeness",
               {"base_x": SEMICIRCLE, "base_y": BERNOULLI, "n_list": [32, 128],
                "max_len": 5, "trials": 2}, _seed(rng), lead=True),
            Op("convolve", "convolve",
               {"mu": SEMICIRCLE, "nu": BERNOULLI, "n": 512, "trials": 4,
                "max_len": 4}, _seed(rng)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str) -> List[Op]:
    """Tiny ops that load every code path of the workload before timing."""
    tiny = {
        "volume": [Op("warm.entropy", "entropy",
                      {"spec": BALL_SPEC, "n_list": [2], "samples": 1000}, 1)],
        "chains": [
            Op("warm.gibbs", "gibbs",
               {"potential": quartic_potential(0.05), "n": 4, "burn_in": 5,
                "samples": 5, "max_len": 2}, 1),
            Op("warm.join", "independent-join",
               {"spec1": JOIN_SPEC, "spec2": JOIN_SPEC, "cross": JOIN_CROSS,
                "n": 4, "mcmc": {"burn_in": 5, "pairs": 5, "thin": 1}}, 1)],
        "optimizers": [
            Op("warm.entropy", "entropy",
               {"spec": dict(FT_SPEC, constraints=[
                   dict(FT_SPEC["constraints"][0], tol=0.002),
                   FT_SPEC["constraints"][1]]),
                "n_list": [2], "samples": 1000}, 1),
            Op("warm.hopf-lax", "hopf-lax",
               {"potential": quadratic_potential(HL_C), "t": HL_T,
                "z_samples": 4, "stages": 2, "x": {"kind": "gaussian", "n": 2}}, 1),
            Op("warm.example-5-3", "example-5-3", {"trials": 1}, 1)],
        "free-moments": [
            Op("warm.freeness", "freeness",
               {"base_x": SEMICIRCLE, "base_y": BERNOULLI, "n_list": [8],
                "max_len": 2, "trials": 1}, 1),
            Op("warm.convolve", "convolve",
               {"mu": SEMICIRCLE, "nu": BERNOULLI, "n": 8, "trials": 2,
                "max_len": 2}, 1)],
    }
    return tiny[workload]


def follow_up(op: Op) -> Optional[Tuple[str, Callable[[], dict]]]:
    """Library work that follows an op, timed as its own entry.

    The gibbs op is followed by the loop-equation solve at the same
    coupling; the chain's moments are checked against both.
    """
    if op.kind != "gibbs" or "g" not in op.ref:
        return None

    def solve() -> dict:
        from mslab.gibbs import dyson_schwinger_quartic
        mv = dyson_schwinger_quartic(op.ref["g"], max_len=2)
        return {"loop_m2": float(mv["x1 x1"].real)}
    return f"{op.label}.loop-solve", solve


# ---------------------------------------------------------------------------
# Reference checks: each returns a list of misses (empty when the op is right)


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _check_entropy(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    h = res["h_n"]
    if not all(math.isfinite(v) for v in h):
        return [f"non-finite h_n {h}"]
    if op.label == "entropy.box":
        want = refs["semicircle_entropy"]
        if abs(res["trend"]["value"] - want) >= BOX_GATE:
            return [f"box trend {res['trend']['value']:.4f} vs quadrature {want:.4f}"]
    elif op.label == "entropy.ball":
        for n, v in zip(res["n_values"], h):
            want = oracles.ball_entropy_normalized(n, 1, 1.0)
            if abs(v - want) > BALL_TOL:
                return [f"ball h_{n} {v:.5f} vs exact {want:.5f}"]
    elif op.label == "entropy.full-type":
        # The set sits inside the tr(x x*) shell, whose volume is exact.
        target, tol = FT_SHELL
        dim = FT_N * FT_N
        log_vol = oracles.log_ball_volume(dim, 1.0) + math.log(
            (target + tol) ** dim - (target - tol) ** dim)
        bound = log_vol / dim + 2 * math.log(FT_N)
        if not 0 < res["hits"][0] <= res["samples"][0]:
            return [f"hits {res['hits'][0]} outside (0, samples]"]
        if h[0] > bound + FT_TOL:
            return [f"full-type h {h[0]:.4f} above the shell bound {bound:.4f}"]
    return []


def _check_gibbs(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    want = oracles.quartic_m2_closed_form(op.ref["g"])
    chain_m2 = res["moments"]["x1 x1"][0]
    misses = []
    if not _close(chain_m2, want, GIBBS_GATE):
        misses.append(f"chain m2 {chain_m2:.5f} vs closed form {want:.5f}")
    if not _close(extra["loop_m2"], want, LOOP_TOL):
        misses.append(f"loop m2 {extra['loop_m2']:.8f} vs closed form {want:.8f}")
    return misses


def _check_join(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    vals = [res["ratio"]] + list(res["acceptance"])
    if not all(0.0 < v < 1.0 for v in vals):
        return [f"ratio/acceptance {vals} outside (0, 1)"]
    return []


def _check_hopf_lax(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    stages = op.ref["stages"]
    xsq = op.ref["xsq"]
    if stages == 1:
        want = oracles.hopf_lax_quadratic_value(HL_C, HL_T, 1, xsq)
    else:
        want = oracles.hopf_lax_iterated_value(HL_C, HL_T, stages, 1, xsq)
    if not _close(res["value"], want, HL_GATES[stages]):
        return [f"{stages}-stage value {res['value']:.6f} vs closed form {want:.6f}"]
    return []


def _check_example_5_3(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    same, cross = max(res["psi_same"]), min(res["psi_cross"])
    if not same < PSI_SAME_GATE < cross:
        return [f"psi_same {same:.3g}, psi_cross {cross:.3g}"]
    return []


def _check_freeness(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    dev = res["mean_deviation"]
    if not dev[-1] < dev[0]:
        return [f"deviation does not fall with n: {dev}"]
    return []


def _check_convolve(op: Op, res: dict, extra: dict, refs: dict) -> List[str]:
    for k, (emp, pred) in enumerate(zip(res["empirical"], res["predicted"]), 1):
        if not abs(emp - pred) < CONVOLVE_GATE * max(1.0, abs(pred)):
            return [f"moment {k}: {emp:.5f} vs free convolution {pred:.5f}"]
    return []


CHECKS = {
    "entropy": _check_entropy,
    "gibbs": _check_gibbs,
    "independent-join": _check_join,
    "hopf-lax": _check_hopf_lax,
    "example-5-3": _check_example_5_3,
    "freeness": _check_freeness,
    "convolve": _check_convolve,
}


def check(op: Op, result: dict, extra: dict, refs: dict) -> List[str]:
    """Misses of one op's report against its reference."""
    try:
        return CHECKS[op.kind](op, result, extra, refs)
    except (KeyError, IndexError, TypeError) as e:
        return [f"report lacks a checked field: {e!r}"]
