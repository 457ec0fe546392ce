"""Batch experiment runner behind the ``mslab`` command.

Usage: ``mslab <kind> --config <path> [--seed N] [--out <path>]`` plus
``mslab validate --config <path>``.  Config files are JSON envelopes
{"kind", "params", "seed", "output_path"}; the positional kind must agree
with the envelope when both name one.

Each kind has one parse step that reads its params and returns a plan.  A
run executes the plan and writes a JSON report and a plot-ready CSV next to
it, atomically, with no timestamps; reports embed the sha256 of the
canonical config, the seed, and the package version, so rerunning the same
config and seed reproduces the output byte for byte.  ``validate`` is the
same parse step plus a smoke run: 100 draws from the run's own proposal
for each spec the run would sample, flagging specs that none of them hit.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure
(divergence, infeasibility, volumes that collapsed to -inf everywhere).

MSLAB_THREADS caps the BLAS thread pools.  The cap only works if it is
exported before numpy first loads, which is why this module keeps every
numerical import inside the dispatch functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

KINDS = ("entropy", "freeness", "convolve", "gibbs", "hopf-lax",
         "wasserstein", "specht", "independent-join", "example-5-3")
KIND_ALIASES = {"orbit-separation": "example-5-3"}

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")


class ConfigError(ValueError):
    """A config failed schema or content validation."""


# ---------------------------------------------------------------------------
# Config envelope


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: Mapping[str, Any]
    seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        kind = KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if not isinstance(self.params, Mapping):
            raise ConfigError("params must be a JSON object")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "seed", int(self.seed))

    def canonical(self) -> str:
        """Seed- and params-determined text; the output path is excluded
        since where a report lands must not change what it contains."""
        return json.dumps({"kind": self.kind, "params": self.params,
                           "seed": self.seed},
                          sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @staticmethod
    def from_data(data: Mapping[str, Any], kind: Optional[str] = None,
                  seed: Optional[int] = None,
                  out: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config file must hold a JSON object")
        file_kind = data.get("kind")
        if kind is not None and file_kind is not None:
            if KIND_ALIASES.get(kind, kind) != KIND_ALIASES.get(file_kind, file_kind):
                raise ConfigError(
                    f"kind mismatch: command line says {kind!r}, "
                    f"config says {file_kind!r}")
        use_kind = kind or file_kind
        if use_kind is None:
            raise ConfigError("no kind given on the command line or in the config")
        params = data.get("params", {})
        use_seed = seed if seed is not None else int(data.get("seed", 0))
        use_out = out if out is not None else data.get("output_path")
        return ExperimentConfig(use_kind, params, use_seed, use_out)

    @staticmethod
    def from_file(path: str, kind: Optional[str] = None,
                  seed: Optional[int] = None,
                  out: Optional[str] = None) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}")
        return ExperimentConfig.from_data(data, kind, seed, out)


# ---------------------------------------------------------------------------
# Typed parameter access


def _need(params: Mapping[str, Any], key: str, where: str = "params") -> Any:
    if key not in params:
        raise ConfigError(f"{where}.{key} is required")
    return params[key]


def _as_int(value: Any, where: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{where} must be an integer")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return int(value)


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _as_int_list(value: Any, where: str) -> List[int]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where} must be a nonempty list of integers")
    return [_as_int(v, f"{where}[{i}]", minimum=1) for i, v in enumerate(value)]


def _wrap(where: str, fn: Callable[[], Any]) -> Any:
    """Run a library constructor, renaming its failure to the config key."""
    try:
        return fn()
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"{where}: missing field {e}")
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where}: {e}")


# ---------------------------------------------------------------------------
# Shared sub-schemas


def _parse_measure(obj: Any, where: str):
    from .freeness import semicircle_measure
    from .transport import SpectralMeasure

    if isinstance(obj, list):
        if not obj:
            raise ConfigError(f"{where} must not be an empty list")
        return tuple(_parse_measure(o, f"{where}[{i}]") for i, o in enumerate(obj))
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object or list of objects")
    kind = obj.get("kind")
    if kind == "semicircle":
        atoms = _as_int(obj.get("atoms", 512), f"{where}.atoms", minimum=1)
        radius = _as_float(obj.get("radius", 2.0), f"{where}.radius")
        return _wrap(where, lambda: semicircle_measure(atoms, radius))
    if kind == "point":
        loc = _as_float(_need(obj, "location", where), f"{where}.location")
        return SpectralMeasure.point_mass(loc)
    if kind == "uniform":
        locs = _need(obj, "locations", where)
        if not isinstance(locs, list) or not locs:
            raise ConfigError(f"{where}.locations must be a nonempty list")
        return _wrap(where, lambda: SpectralMeasure.uniform(
            [_as_float(v, f"{where}.locations[{i}]") for i, v in enumerate(locs)]))
    if kind == "atoms":
        pairs = _need(obj, "atoms", where)
        if not isinstance(pairs, list) or not pairs:
            raise ConfigError(f"{where}.atoms must be a nonempty list of [loc, w]")
        def build():
            atoms = []
            for i, pair in enumerate(pairs):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"{where}.atoms[{i}] must be [location, weight]")
                atoms.append((float(pair[0]), float(pair[1])))
            return SpectralMeasure(tuple(atoms))
        return _wrap(where, build)
    raise ConfigError(
        f"{where}.kind must be one of semicircle/point/uniform/atoms")


def _parse_spec(obj: Any, where: str):
    from .microstates import NeighborhoodSpec
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object")
    return _wrap(where, lambda: NeighborhoodSpec.from_json(json.dumps(obj)))


def _parse_constraints(obj: Any, where: str):
    from .microstates import Constraint
    if obj is None:
        return ()
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a list of constraint objects")
    out = []
    for i, c in enumerate(obj):
        if not isinstance(c, Mapping) or "formula" not in c:
            raise ConfigError(f"{where}[{i}] must be an object with a formula")
        out.append(_wrap(f"{where}[{i}]", lambda c=c: Constraint(
            c["formula"], _as_float(c.get("target", 0.0), f"{where}[{i}].target"),
            _as_float(c.get("tol", 0.1), f"{where}[{i}].tol"))))
    return tuple(out)


def _parse_potential(obj: Any, where: str):
    from .gibbs import Potential
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object")
    return _wrap(where, lambda: Potential.from_json(json.dumps(obj)))


def _parse_tuple(obj: Any, where: str, stream, self_adjoint: bool):
    """A (d, n, n) input stack: explicit entries or a seeded Gaussian draw."""
    import numpy as np
    from .matrices import sample_ginibre, sample_gue

    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object")
    kind = obj.get("kind", "explicit" if "re" in obj else "gaussian")
    if kind == "gaussian":
        n = _as_int(_need(obj, "n", where), f"{where}.n", minimum=1)
        d = _as_int(obj.get("d", 1), f"{where}.d", minimum=1)
        scale = _as_float(obj.get("scale", 1.0), f"{where}.scale")
        sa = bool(obj.get("self_adjoint", self_adjoint))
        rng = stream.child(("input", where)).generator()
        draw = sample_gue if sa else sample_ginibre
        return np.stack([scale * draw(n, rng) for _ in range(d)])
    if kind == "explicit":
        re = _need(obj, "re", where)
        arr = np.asarray(re, dtype=float)
        if "im" in obj:
            arr = arr + 1j * np.asarray(obj["im"], dtype=float)
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[-1] != arr.shape[-2]:
            raise ConfigError(f"{where} must be one or more square matrices")
        return arr
    raise ConfigError(f"{where}.kind must be gaussian or explicit")


# ---------------------------------------------------------------------------
# Per-kind parse steps: (params, stream) -> _Plan


@dataclass(frozen=True)
class _Plan:
    """A parsed config.  ``execute()`` gives (result payload, csv text).

    Each smoke target (label, spec, n, proposal or None for the default) is
    a spec the run will sample at that n with that proposal; ``validate``
    draws against it in place of the run.
    """

    execute: Callable[[], Tuple[dict, str]]
    smoke: Tuple[Tuple[str, Any, int, Any], ...] = ()


def _report(rep) -> Tuple[dict, str]:
    return json.loads(rep.to_json()), rep.to_csv()


def _parse_entropy(p: Mapping[str, Any], stream) -> _Plan:
    from .microstates import DEFAULT_N_CAP, GaussianProposal, estimate_entropy
    spec = _parse_spec(_need(p, "spec"), "params.spec")
    n_list = _as_int_list(_need(p, "n_list"), "params.n_list")
    if n_list != sorted(n_list):
        raise ConfigError("params.n_list must be ascending")
    if max(n_list) > DEFAULT_N_CAP:
        raise ConfigError(f"params.n_list exceeds the cap n <= {DEFAULT_N_CAP}")
    samples = _as_int(_need(p, "samples"), "params.samples", minimum=1000)
    proposal = None
    if "proposal" in p:
        obj = p["proposal"]
        if not isinstance(obj, Mapping) or "herm" not in obj or "skew" not in obj:
            raise ConfigError("params.proposal needs herm and skew scale lists")
        proposal = _wrap("params.proposal", lambda: GaussianProposal(
            tuple(obj["herm"]), tuple(obj["skew"])))

    def execute():
        est = estimate_entropy(spec, n_list, samples, stream, proposal)
        if all(v == float("-inf") for v in est.h_n):
            raise RuntimeError(
                "no microstates hit at any n; every volume is -inf "
                f"(samples={samples}, n_list={n_list})")
        return _report(est)
    return _Plan(execute, (("params.spec", spec, min(n_list), proposal),))


def _parse_freeness(p: Mapping[str, Any], stream) -> _Plan:
    from .freeness import asymptotic_freeness_experiment
    base_x = _parse_measure(_need(p, "base_x"), "params.base_x")
    base_y = _parse_measure(_need(p, "base_y"), "params.base_y")
    n_list = _as_int_list(_need(p, "n_list"), "params.n_list")
    max_len = _as_int(_need(p, "max_len"), "params.max_len", minimum=1)
    trials = _as_int(_need(p, "trials"), "params.trials", minimum=1)
    eps = _as_float(p.get("eps", 0.05), "params.eps")
    return _Plan(lambda: _report(_wrap("params", lambda: asymptotic_freeness_experiment(
        base_x, base_y, n_list, max_len, trials, stream, eps))))


def _parse_convolve(p: Mapping[str, Any], stream) -> _Plan:
    from .freeness import free_convolution_experiment
    mu = _parse_measure(_need(p, "mu"), "params.mu")
    nu = _parse_measure(_need(p, "nu"), "params.nu")
    for name, m in (("mu", mu), ("nu", nu)):
        if isinstance(m, tuple):
            raise ConfigError(f"params.{name} must be a single measure")
    n = _as_int(_need(p, "n"), "params.n", minimum=1)
    trials = _as_int(_need(p, "trials"), "params.trials", minimum=1)
    max_len = _as_int(_need(p, "max_len"), "params.max_len", minimum=1)
    return _Plan(lambda: _report(
        free_convolution_experiment(mu, nu, n, trials, max_len, stream)))


def _parse_gibbs(p: Mapping[str, Any], stream) -> _Plan:
    from .gibbs import DEFAULT_STEP, sample_gibbs_moments
    potential = _parse_potential(_need(p, "potential"), "params.potential")
    n = _as_int(_need(p, "n"), "params.n", minimum=2)
    samples = _as_int(_need(p, "samples"), "params.samples", minimum=1)
    burn_in = _as_int(p.get("burn_in", 1000), "params.burn_in", minimum=0)
    max_len = _as_int(p.get("max_len", 4), "params.max_len", minimum=1)
    thin = _as_int(p.get("thin", 5), "params.thin", minimum=1)
    h = _as_float(p.get("step", DEFAULT_STEP), "params.step")

    def execute():
        res = sample_gibbs_moments(potential, n, burn_in, samples, max_len,
                                   stream, h=h, thin=thin)
        words = sorted(str(w) for w in res.moments.values if len(w.letters))
        payload = {
            "n": res.n,
            "step": res.h,
            "kept": res.kept,
            "tau": res.tau,
            "moments": {w: [res.moments[w].real, res.moments[w].imag]
                        for w in words},
            "ci": {w: res.ci[w] for w in words},
        }
        lines = ["word,re,im,ci"]
        for w in words:
            v = res.moments[w]
            lines.append(f"\"{w}\",{v.real:.10g},{v.imag:.10g},{res.ci[w]:.10g}")
        return payload, "\n".join(lines) + "\n"
    return _Plan(execute)


def _parse_hopf_lax(p: Mapping[str, Any], stream) -> _Plan:
    from .gibbs import hopf_lax_iterate, hopf_lax_step
    from .matrices import tuple_hs_norm
    potential = _parse_potential(_need(p, "potential"), "params.potential")
    t = _as_float(_need(p, "t"), "params.t")
    if t <= 0:
        raise ConfigError("params.t must be positive")
    z_samples = _as_int(p.get("z_samples", 400), "params.z_samples", minimum=1)
    stages = _as_int(p.get("stages", 1), "params.stages", minimum=1)
    x = _parse_tuple(_need(p, "x"), "params.x", stream, potential.self_adjoint)
    if x.shape[0] != potential.d:
        raise ConfigError(
            f"params.x has d={x.shape[0]} but the potential wants {potential.d}")

    def execute():
        if stages == 1:
            res = hopf_lax_step(potential, t, x, z_samples, rng_stream=stream)
            payload = {"t": t, "stages": 1, "ks": [1], "values": [res.value],
                       "value": res.value,
                       "witness_hs_norm": float(tuple_hs_norm(res.witness))}
        else:
            res = hopf_lax_iterate(potential, t, stages, x, z_samples,
                                   rng_stream=stream)
            payload = {"t": t, "stages": stages, "ks": res.ks,
                       "values": res.values, "value": res.value}
        lines = ["k,value"]
        for k, v in zip(payload["ks"], payload["values"]):
            lines.append(f"{k},{v:.10g}")
        return payload, "\n".join(lines) + "\n"
    return _Plan(execute)


def _parse_wasserstein(p: Mapping[str, Any], stream) -> _Plan:
    from .transport import wasserstein_matrix, wasserstein_spectral
    mode = p.get("mode", "spectral")
    if mode == "spectral":
        mu = _parse_measure(_need(p, "mu"), "params.mu")
        nu = _parse_measure(_need(p, "nu"), "params.nu")
        if isinstance(mu, tuple) or isinstance(nu, tuple):
            raise ConfigError("spectral mode compares two single measures")

        def distance():
            return wasserstein_spectral(mu, nu)
    elif mode == "matrix":
        x = _parse_tuple(_need(p, "x"), "params.x", stream, True)
        y = _parse_tuple(_need(p, "y"), "params.y", stream, True)
        if x.shape[0] != 1 or y.shape[0] != 1:
            raise ConfigError("matrix mode compares two single matrices")
        if x.shape != y.shape:
            raise ConfigError("params.x and params.y must have the same n, "
                              f"got {x.shape[-1]} and {y.shape[-1]}")

        def distance():
            return _wrap("params", lambda: wasserstein_matrix(x[0], y[0]))
    else:
        raise ConfigError("params.mode must be spectral or matrix")

    def execute():
        dist = distance()
        return {"mode": mode, "distance": dist}, f"mode,distance\n{mode},{dist:.10g}\n"
    return _Plan(execute)


def _parse_specht(p: Mapping[str, Any], stream) -> _Plan:
    from .matrices import sample_haar_unitary
    from .transport import specht_equivalent
    x = _parse_tuple(_need(p, "x"), "params.x", stream, False)
    y_obj = _need(p, "y")
    if isinstance(y_obj, Mapping) and y_obj.get("kind") == "conjugate":
        rng = stream.child("specht-conjugator").generator()
        u = sample_haar_unitary(x.shape[-1], rng)
        y = u @ x @ u.conj().T
    else:
        y = _parse_tuple(y_obj, "params.y", stream, False)
        if x.shape != y.shape:
            raise ConfigError("params.x and params.y must share (d, n, n), "
                              f"got {x.shape} and {y.shape}")
    max_len = _as_int(_need(p, "max_len"), "params.max_len", minimum=1)
    budget = _as_int(p.get("budget", 300_000), "params.budget", minimum=1)

    def execute():
        res = _wrap("params", lambda: specht_equivalent(x, y, max_len, budget))
        payload = {
            "verdict": res.verdict,
            "checked_len": res.checked_len,
            "sufficiency_len": res.sufficiency_len,
            "witness_word": res.witness_word,
            "witness_values": ([[v.real, v.imag] for v in res.witness_values]
                               if res.witness_values else None),
        }
        csv = ("verdict,checked_len,sufficiency_len,witness_word\n"
               f"{res.verdict},{res.checked_len},{res.sufficiency_len},"
               f"{res.witness_word or ''}\n")
        return payload, csv
    return _Plan(execute)


def _parse_independent_join(p: Mapping[str, Any], stream) -> _Plan:
    from .freeness import entropy_additivity_experiment, product_spec
    from .microstates import McmcConfig, independent_join_ratio
    spec1 = _parse_spec(_need(p, "spec1"), "params.spec1")
    spec2 = _parse_spec(_need(p, "spec2"), "params.spec2")
    cross = _parse_constraints(p.get("cross"), "params.cross")
    joint = _wrap("params", lambda: product_spec(spec1, spec2, cross))
    probe = p.get("probe", "ratio")
    if probe == "ratio":
        n = _as_int(_need(p, "n"), "params.n", minimum=2)
        mc = p.get("mcmc", {})
        if not isinstance(mc, Mapping):
            raise ConfigError("params.mcmc must be an object")
        mcfg = _wrap("params.mcmc", lambda: McmcConfig(
            burn_in=_as_int(mc.get("burn_in", 500), "params.mcmc.burn_in", 0),
            pairs=_as_int(mc.get("pairs", 500), "params.mcmc.pairs", 1),
            thin=_as_int(mc.get("thin", 5), "params.mcmc.thin", 1),
            step=_as_float(mc.get("step", 0.15), "params.mcmc.step")))

        def execute():
            res = independent_join_ratio(spec1, spec2, joint, n, stream, mcfg)
            payload = {"probe": "ratio", "n": n, "ratio": res.ratio,
                       "ci": res.ci, "pairs": res.pairs,
                       "acceptance": list(res.acceptance), "ess": res.ess}
            csv = ("n,ratio,ci,pairs,ess\n"
                   f"{n},{res.ratio:.10g},{res.ci:.10g},{res.pairs},"
                   f"{res.ess:.10g}\n")
            return payload, csv
    elif probe == "additivity":
        n_list = _as_int_list(_need(p, "n_list"), "params.n_list")
        samples = _as_int(_need(p, "samples"), "params.samples", minimum=1000)
        n = min(n_list)

        def execute():
            payload, csv = _report(_wrap("params", lambda: entropy_additivity_experiment(
                spec1, spec2, n_list, samples, stream, cross)))
            payload["probe"] = "additivity"
            return payload, csv
    else:
        raise ConfigError("params.probe must be ratio or additivity")
    return _Plan(execute, (("params.spec1", spec1, n, None),
                           ("params.spec2", spec2, n, None)))


def _parse_example_5_3(p: Mapping[str, Any], stream) -> _Plan:
    from .freeness import (Example53Config, Example53Fixture,
                           example_5_3_fixture, example_5_3_runner)
    fx_obj = p.get("fixture", "default")
    if fx_obj == "default":
        fixture = example_5_3_fixture()
    elif isinstance(fx_obj, Mapping):
        fixture = _wrap("params.fixture",
                        lambda: Example53Fixture.from_json(json.dumps(fx_obj)))
    else:
        raise ConfigError('params.fixture must be "default" or a fixture object')
    _wrap("params.fixture", fixture.validate)
    n = _as_int(p.get("n", fixture.n), "params.n", minimum=1)
    if n % fixture.n:
        raise ConfigError(
            f"params.n must be a multiple of the fixture size {fixture.n}")
    trials = _as_int(p.get("trials", 20), "params.trials", minimum=1)
    return _Plan(lambda: _report(_wrap("params", lambda: example_5_3_runner(
        fixture, n, Example53Config(trials=trials), stream))))


_PARSERS: Dict[str, Callable[[Mapping[str, Any], Any], _Plan]] = {
    "entropy": _parse_entropy,
    "freeness": _parse_freeness,
    "convolve": _parse_convolve,
    "gibbs": _parse_gibbs,
    "hopf-lax": _parse_hopf_lax,
    "wasserstein": _parse_wasserstein,
    "specht": _parse_specht,
    "independent-join": _parse_independent_join,
    "example-5-3": _parse_example_5_3,
}


# ---------------------------------------------------------------------------
# run / validate


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, target)


def _output_paths(config: ExperimentConfig) -> Tuple[str, str]:
    out = config.output_path or f"mslab-{config.kind}.json"
    stem = out[:-5] if out.endswith(".json") else out
    return out, stem + ".csv"


def run(config: ExperimentConfig) -> int:
    """Parse, then execute one experiment; returns the process exit code."""
    from .matrices import RngStream
    try:
        plan = _PARSERS[config.kind](config.params, RngStream(config.seed))
        payload, csv_text = plan.execute()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {
        "kind": config.kind,
        "seed": config.seed,
        "config_hash": config.config_hash(),
        "version": __version__,
        "result": payload,
    }
    json_path, csv_path = _output_paths(config)
    _atomic_write(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    _atomic_write(csv_path, csv_text)
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _smoke_spec(label: str, spec, n: int, proposal, seed: int,
                diagnostics: List[str]) -> None:
    """100 draws from the run's proposal; zero hits means the full run
    would see -inf."""
    from .matrices import RngStream
    from .microstates import GaussianProposal, membership_mask
    proposal = proposal or GaussianProposal.for_spec(spec)
    rng = RngStream(seed).child(("validate-smoke", label, n)).generator()
    x = proposal.sample(n, 100, rng)
    hits = int(membership_mask(spec, x).sum())
    if hits == 0:
        diagnostics.append(
            f"{label}: 0 of 100 proposal samples hit the spec at n={n}; "
            "the full run would report -inf volumes")


def validate(config: ExperimentConfig) -> List[str]:
    """The run's own parse step plus a smoke run of its specs; never raises."""
    from .matrices import RngStream
    diagnostics: List[str] = []
    try:
        plan = _PARSERS[config.kind](config.params, RngStream(config.seed))
        for label, spec, n, proposal in plan.smoke:
            _smoke_spec(label, spec, n, proposal, config.seed, diagnostics)
    except ValueError as e:  # ConfigError included
        diagnostics.append(str(e))
    return diagnostics


# ---------------------------------------------------------------------------
# Entry point


def _apply_thread_cap() -> None:
    cap = os.environ.get("MSLAB_THREADS")
    if not cap:
        return
    try:
        value = max(1, int(cap))
    except ValueError:
        print(f"ignoring MSLAB_THREADS={cap!r}: not an integer", file=sys.stderr)
        return
    for var in THREAD_ENV_VARS:
        current = os.environ.get(var)
        try:
            keep = current is not None and int(current) <= value
        except ValueError:
            keep = False
        if not keep:
            os.environ[var] = str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Run one seeded matrix-microstate experiment per process.")
    parser.add_argument("kind",
                        choices=("validate",) + KINDS + tuple(KIND_ALIASES),
                        help="experiment kind, or 'validate' to check a config")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the report output path")
    args = parser.parse_args(argv)
    _apply_thread_cap()  # before any numerical import pulls in the BLAS
    try:
        if args.kind == "validate":
            config = ExperimentConfig.from_file(args.config, None, args.seed,
                                                args.out)
            diagnostics = validate(config)
            print(json.dumps(diagnostics, indent=2))
            return EXIT_OK if not diagnostics else EXIT_CONFIG
        config = ExperimentConfig.from_file(args.config, args.kind, args.seed,
                                            args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
