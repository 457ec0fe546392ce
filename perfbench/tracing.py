"""Spans and counts at the public entry points of each mslab module.

``Tracer.installed()`` rebinds every listed function at every ``mslab.*``
module attribute that holds it (modules import names directly, e.g.
``from .matrices import sample_gue``), and restores the originals on exit.
Spans stay in memory: (layer, parent, start, end, op label).  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_proposal(counts, args, kwargs, result):
    counts["microstates.proposal.samples"] += int(_arg(args, kwargs, 2, "count"))


def _count_mask(counts, args, kwargs, result):
    counts["microstates.mask.samples"] += int(np.size(result))
    counts["microstates.mask.hits"] += int(np.count_nonzero(result))


def _count_optimizer(prefix):
    def count(counts, args, kwargs, result):
        counts[f"{prefix}.iterations"] += int(result.iterations)
        counts[f"{prefix}.unconverged"] += int(not result.converged)
    return count


def _count_langevin_step(counts, args, kwargs, result):
    counts["gibbs.langevin.steps"] += 1
    before = _arg(args, kwargs, 0, "state").rejections
    counts["gibbs.langevin.rejections"] += int(result.rejections - before)


def _count_join(counts, args, kwargs, result):
    counts["microstates.join.acceptance_sum"] += float(np.mean(result.acceptance))


# (layer, module, attribute, counter).  A layer ending in ".calls-only" is
# counted but gets no span, so its time stays in the caller's self time.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "mslab.cli", "run", None),
    ("matrices.sample", "mslab.matrices", "sample_gue", None),
    ("matrices.sample", "mslab.matrices", "sample_ginibre", None),
    ("matrices.sample", "mslab.matrices", "sample_haar_unitary", None),
    ("matrices.opnorm", "mslab.matrices", "operator_norm", None),
    ("formulas.trace", "mslab.formulas", "eval_trace_polynomial", None),
    ("formulas.trace", "mslab.formulas", "eval_polynomial", None),
    ("formulas.eval", "mslab.formulas", "eval_formula", None),
    ("formulas.eval", "mslab.formulas", "eval_formula_info", None),
    ("formulas.gradient", "mslab.formulas", "cyclic_gradient", None),
    ("moments.free_product", "mslab.moments", "free_product_moments", None),
    ("moments.transform", "mslab.moments", "moments_to_cumulants", None),
    ("moments.transform", "mslab.moments", "cumulants_to_moments", None),
    ("moments.transform", "mslab.moments", "free_convolve", None),
    ("optimize.ball", "mslab.optimize", "minimize_over_ball",
     _count_optimizer("optimize.ball")),
    ("optimize.unitary", "mslab.optimize", "minimize_over_unitaries",
     _count_optimizer("optimize.unitary")),
    ("optimize.project.calls-only", "mslab.optimize", "project_opnorm_ball", None),
    ("microstates.proposal", "mslab.microstates", "GaussianProposal.sample",
     _count_proposal),
    ("microstates.mask", "mslab.microstates", "membership_mask", _count_mask),
    ("microstates.volume", "mslab.microstates", "estimate_volume", None),
    ("microstates.volume", "mslab.microstates", "estimate_entropy", None),
    ("microstates.join", "mslab.microstates", "independent_join_ratio",
     _count_join),
    ("transport.psi", "mslab.transport", "psi_distance", None),
    ("transport.psi", "mslab.transport", "psi_distance_result", None),
    ("gibbs.langevin", "mslab.gibbs", "langevin_run", None),
    ("gibbs.langevin", "mslab.gibbs", "langevin_step", _count_langevin_step),
    ("gibbs.loop", "mslab.gibbs", "dyson_schwinger_quartic", None),
    ("gibbs.moments", "mslab.gibbs", "sample_gibbs_moments", None),
    ("gibbs.hopf_lax", "mslab.gibbs", "hopf_lax_step", None),
    ("gibbs.hopf_lax", "mslab.gibbs", "hopf_lax_iterate", None),
    ("freeness.word_traces", "mslab.freeness", "word_traces", None),
    ("freeness.experiment", "mslab.freeness", "asymptotic_freeness_experiment", None),
    ("freeness.experiment", "mslab.freeness", "free_convolution_experiment", None),
    ("freeness.experiment", "mslab.freeness", "example_5_3_runner", None),
)

# The per-layer metrics: self time, and the counts recorded at the layer.
# A layer's calls count every call into any function of that layer.
LAYER_METRICS = (
    ("matrices.sample", ("self_s", "calls")),
    ("matrices.opnorm", ("self_s", "calls")),
    ("formulas.trace", ("self_s", "calls")),
    ("formulas.eval", ("self_s", "calls")),
    ("formulas.gradient", ("self_s", "calls")),
    ("moments.free_product", ("self_s", "calls")),
    ("moments.transform", ("self_s", "calls")),
    ("optimize.ball", ("self_s", "calls", "iterations", "unconverged")),
    ("optimize.unitary", ("self_s", "calls", "iterations", "unconverged")),
    ("optimize.project", ("calls",)),
    ("microstates.proposal", ("self_s", "samples")),
    ("microstates.mask", ("self_s", "calls", "samples", "hits", "hit_ratio")),
    ("microstates.volume", ("self_s",)),
    ("microstates.join", ("acceptance",)),
    ("transport.psi", ("self_s", "calls")),
    ("gibbs.langevin", ("self_s", "steps", "rejections")),
    ("gibbs.loop", ("self_s", "calls")),
    ("gibbs.moments", ("self_s",)),
    ("gibbs.hopf_lax", ("self_s", "calls")),
    ("freeness.word_traces", ("self_s", "calls")),
    ("freeness.experiment", ("self_s",)),
    ("cli", ("self_s",)),
)

UNITS = {"self_s": "s", "hit_ratio": "ratio", "acceptance": "ratio"}


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(f"{layer}.{m}", UNITS.get(m, "count"))
            for layer, ms in LAYER_METRICS for m in ms]


class Tracer:
    """In-memory span and count recorder for the traced passes."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [layer, parent, start, end, op]
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = ""
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = layer.replace(".calls-only", "") + ".calls"
        clock = time.perf_counter

        if layer.endswith(".calls-only"):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, stack[-1] if stack else -1, clock(), 0.0, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            counts[calls_key] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every boundary function at each mslab module attribute."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for layer, module, attr, counter in BOUNDARIES:
                owner = importlib.import_module(module)
                if "." in attr:  # a method: patch the class once
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, layer, counter))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(orig, layer, counter)
                for name, mod in list(sys.modules.items()):
                    if name == "mslab" or name.startswith("mslab."):
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                undo.append((mod, key, orig))
                                setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of each span: duration minus its children's durations."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[3] - s[2]
        return out

    def layer_self(self, by_op: bool = False) -> Dict:
        """Self seconds per layer (or per (op, layer) with ``by_op``)."""
        acc: Dict = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            acc[(s[4], s[0]) if by_op else s[0]] += t
        return acc

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, averaged over ``passes`` traced passes."""
        self_s = self.layer_self()
        c = self.counts
        samples = c.get("microstates.mask.samples", 0.0)
        joins = c.get("microstates.join.calls", 0.0)
        out = {}
        for name, _unit in metric_names():
            layer, metric = name.rsplit(".", 1)
            if metric == "self_s":
                value = self_s.get(layer, 0.0) / passes
            elif metric == "hit_ratio":
                value = c.get("microstates.mask.hits", 0.0) / samples if samples else 0.0
            elif metric == "acceptance":
                value = c.get("microstates.join.acceptance_sum", 0.0) / joins if joins else 0.0
            else:
                value = c.get(name, 0.0) / passes
            out[name] = value
        return out
