"""Command-line interface: envelopes, exit codes, reports, validation."""

import json
import os
import subprocess
import sys

import pytest

from mslab import __version__
from mslab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    THREAD_ENV_VARS,
    ConfigError,
    ExperimentConfig,
    _apply_thread_cap,
    main,
    run,
    validate,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def entropy_config(samples=2000, target=0.5, tol=0.4, formula="tr.re(x1 x1*)"):
    return {
        "kind": "entropy",
        "params": {
            "spec": {"d": 1, "r": 1.0,
                     "constraints": [{"formula": formula,
                                      "target": target, "tol": tol}]},
            "n_list": [4],
            "samples": samples,
        },
        "seed": 7,
    }


QUAD_POTENTIAL = {"formula": "tr.re(x1 x1*)",
                  "bounds": {"a": 0.0, "b": 1.0, "A": 0.0, "B": 1.0},
                  "self_adjoint": True}


def hitting_entropy(formula="tr.re(x1 x1*)", **params):
    """Entropy params whose smoke draws hit, so only the parse can reject."""
    spec = {"d": 1, "r": 4.0, "kind": "full",
            "constraints": [{"formula": formula, "target": 1.0, "tol": 0.5}]}
    return {"spec": spec, "n_list": [4], "samples": 2000, **params}


# Configs that a run's parse step rejects (exit 2) before any numerics.
PARSE_REJECTED = [
    ("gibbs", {"potential": QUAD_POTENTIAL, "n": 8, "samples": 10,
               "thin": 0}),
    ("hopf-lax", {"potential": QUAD_POTENTIAL, "t": 0.1, "z_samples": 0,
                  "x": {"kind": "gaussian", "n": 4}}),
    ("convolve", {"mu": [{"kind": "point", "location": 0.0}],
                  "nu": {"kind": "point", "location": 0.0},
                  "n": 4, "trials": 1, "max_len": 2}),
    ("wasserstein", {"mode": "matrix",
                     "x": {"kind": "gaussian", "n": 3, "d": 2},
                     "y": {"kind": "gaussian", "n": 3}}),
    ("example-5-3", {"trials": 0}),
    ("specht", {"x": {"kind": "gaussian", "n": 3}, "y": {"kind": "conjugate"},
                "max_len": 2, "budget": 0}),
    ("freeness", {"base_x": [{"kind": "point", "location": 0.0}],
                  "base_y": [{"kind": "point", "location": 1.0}],
                  "n_list": [4], "max_len": 2, "trials": 1, "eps": "x"}),
    ("wasserstein", {"mode": "matrix", "x": {"kind": "gaussian", "n": 3},
                     "y": {"kind": "gaussian", "n": 4}}),
    ("specht", {"x": {"kind": "gaussian", "n": 3},
                "y": {"kind": "gaussian", "n": 4}, "max_len": 2}),
    ("entropy", hitting_entropy(n_list=[8, 4])),
    ("entropy", hitting_entropy(n_list=[4, 32])),
] + [
    # numbers that overflow to inf: a coefficient, a folded product, a radius
    ("entropy", hitting_entropy(f))
    for f in ("1e400*tr.re(x1)", "tr.re(1e400 x1)", "1e200*1e200*tr.re(x1)",
              "sup{y1 in D(1e400)} (tr.re(y1 x1*))")
]


class TestConfigEnvelope:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            ExperimentConfig("entropyy", {})

    def test_alias_resolves(self):
        cfg = ExperimentConfig("orbit-separation", {})
        assert cfg.kind == "example-5-3"

    def test_hash_ignores_output_path(self):
        a = ExperimentConfig("entropy", {"x": 1}, 3, "a.json")
        b = ExperimentConfig("entropy", {"x": 1}, 3, "elsewhere/b.json")
        assert a.config_hash() == b.config_hash()

    def test_hash_sees_seed_and_params(self):
        base = ExperimentConfig("entropy", {"x": 1}, 3)
        assert base.config_hash() != ExperimentConfig("entropy", {"x": 1}, 4).config_hash()
        assert base.config_hash() != ExperimentConfig("entropy", {"x": 2}, 3).config_hash()

    def test_file_overrides(self, tmp_path):
        path = write_config(tmp_path, entropy_config())
        cfg = ExperimentConfig.from_file(path, "entropy", seed=99, out="o.json")
        assert cfg.seed == 99
        assert cfg.output_path == "o.json"

    def test_kind_mismatch(self, tmp_path):
        path = write_config(tmp_path, entropy_config())
        with pytest.raises(ConfigError, match="kind mismatch"):
            ExperimentConfig.from_file(path, "gibbs")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(str(path))


class TestRunAndReports:
    def test_entropy_report_envelope(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        out = tmp_path / "report.json"
        code = main(["entropy", "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["kind"] == "entropy"
        assert report["seed"] == 7
        assert report["version"] == __version__
        assert len(report["config_hash"]) == 64
        assert len(report["result"]["h_n"]) == 1
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("n,")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["entropy", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
        assert main(["entropy", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_seed_changes_the_numbers(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        out1, out2 = tmp_path / "s7.json", tmp_path / "s8.json"
        main(["entropy", "--config", cfg_path, "--out", str(out1)])
        main(["entropy", "--config", cfg_path, "--seed", "8", "--out", str(out2)])
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["config_hash"] != r2["config_hash"]
        assert r1["result"]["h_n"] != r2["result"]["h_n"]

    def test_overwrites_previous_report(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        out = tmp_path / "r.json"
        out.write_text("stale")
        assert main(["entropy", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["kind"] == "entropy"

    def test_alias_matches_canonical_kind(self, tmp_path):
        cfg_path = write_config(tmp_path, {"kind": "example-5-3",
                                           "params": {"trials": 2}, "seed": 5})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["example-5-3", "--config", cfg_path,
                     "--out", str(out1)]) == EXIT_OK
        assert main(["orbit-separation", "--config", cfg_path,
                     "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    def test_bad_formula_is_config_error_with_location(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, entropy_config(formula="tr.re(x1 @@)"))
        code = main(["entropy", "--config", cfg_path,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "params.spec" in err
        assert "@@" in err

    def test_kind_mismatch_exit(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        assert main(["gibbs", "--config", cfg_path]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["entropy", "--config",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_unknown_kind_argparse(self, tmp_path):
        cfg_path = write_config(tmp_path, entropy_config())
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", cfg_path])
        assert exc.value.code == 2

    def test_missing_required_param(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"kind": "entropy",
                                           "params": {"n_list": [4]}})
        assert main(["entropy", "--config", cfg_path]) == EXIT_CONFIG
        assert "params.spec is required" in capsys.readouterr().err

    def test_unreachable_spec_is_numerical_failure(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, entropy_config(target=50.0, tol=0.01))
        code = main(["entropy", "--config", cfg_path,
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_NUMERICAL
        assert "-inf" in capsys.readouterr().err

    def test_infeasible_join_is_numerical_failure(self, tmp_path):
        spec = {"d": 1, "r": 1.0,
                "constraints": [{"formula": "tr.re(x1 x1*)",
                                 "target": 50.0, "tol": 0.01}]}
        cfg_path = write_config(tmp_path, {
            "kind": "independent-join",
            "params": {"probe": "ratio", "spec1": spec, "spec2": spec, "n": 4,
                       "mcmc": {"burn_in": 10, "pairs": 10}},
            "seed": 1})
        assert main(["independent-join", "--config", cfg_path,
                     "--out", str(tmp_path / "x.json")]) == EXIT_NUMERICAL


class TestValidateMode:
    def test_clean_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, entropy_config())
        assert main(["validate", "--config", cfg_path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    def test_parse_diagnostic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, entropy_config(formula="tr.re(x1"))
        assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
        diags = json.loads(capsys.readouterr().out)
        assert len(diags) == 1 and "params.spec" in diags[0]

    def test_zero_hit_smoke_diagnostic(self, tmp_path):
        cfg = ExperimentConfig.from_data(entropy_config(target=50.0, tol=0.01))
        diags = validate(cfg)
        assert any("0 of 100" in d for d in diags)

    def test_variable_beyond_d_diagnostic(self):
        cfg = ExperimentConfig("entropy", {
            "spec": {"d": 1, "r": 1.0,
                     "constraints": [{"formula": "tr.re(x1 x3)",
                                      "target": 0.0, "tol": 0.1}]},
            "n_list": [4], "samples": 2000})
        diags = validate(cfg)
        assert any("beyond d=1" in d for d in diags)

    def test_never_raises_on_malformed_params(self):
        for kind, params in [
            ("gibbs", {}),
            ("gibbs", {"potential": {"formula": "tr.re(x1)"}, "n": 8,
                       "samples": 10}),
            ("hopf-lax", {"potential": QUAD_POTENTIAL, "t": -1.0,
                          "x": {"kind": "gaussian", "n": 4}}),
            ("wasserstein", {"mode": "nonsense"}),
            ("specht", {"x": {"kind": "explicit", "re": [[1, 2, 3]]},
                        "y": {"kind": "conjugate"}, "max_len": 2}),
            ("example-5-3", {"n": 5}),
            ("convolve", {"mu": {"kind": "point"}, "nu": {"kind": "point"},
                          "n": 4, "trials": 1, "max_len": 2}),
            ("freeness", {"base_x": [], "base_y": [], "n_list": [4],
                          "max_len": 2, "trials": 1}),
        ] + PARSE_REJECTED:
            diags = validate(ExperimentConfig(kind, params))
            assert diags, f"{kind} accepted malformed params"

    def test_validate_rejects_what_run_rejects(self, tmp_path):
        for i, (kind, params) in enumerate(PARSE_REJECTED):
            cfg = ExperimentConfig(kind, params, 1, str(tmp_path / f"{i}.json"))
            assert run(cfg) == EXIT_CONFIG, kind
            assert validate(cfg), f"validate passed {kind} but run rejects it"

    def test_smoke_uses_the_runs_proposal(self, tmp_path):
        data = entropy_config(target=0.5, tol=0.3)
        data["seed"] = 3
        default = ExperimentConfig.from_data(data)
        assert any("0 of 100" in d for d in validate(default))
        data["params"]["proposal"] = {"herm": [0.5], "skew": [0.5]}
        tuned = ExperimentConfig.from_data(data, out=str(tmp_path / "t.json"))
        assert validate(tuned) == []
        assert run(tuned) == EXIT_OK

    def test_example_5_3_default_is_clean(self):
        assert validate(ExperimentConfig("example-5-3", {"trials": 3})) == []


class TestEveryKindRuns:
    def _run(self, tmp_path, data):
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out.json"
        code = main([data["kind"], "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert (tmp_path / "out.csv").exists()
        return report["result"]

    def test_gibbs(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "gibbs",
            "params": {"potential": QUAD_POTENTIAL, "n": 8, "samples": 60,
                       "burn_in": 100, "max_len": 2, "thin": 2},
            "seed": 3})
        assert 0.2 < res["moments"]["x1 x1"][0] < 1.2
        assert res["kept"] == 60

    def test_hopf_lax_single_stage(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "hopf-lax",
            "params": {"potential": QUAD_POTENTIAL, "t": 0.1, "z_samples": 40,
                       "x": {"kind": "explicit",
                             "re": [[0.3, 0.0], [0.0, -0.3]]}},
            "seed": 5})
        assert res["stages"] == 1
        assert res["witness_hs_norm"] >= 0.0
        assert res["values"] == [res["value"]]

    def test_hopf_lax_ladder(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "hopf-lax",
            "params": {"potential": QUAD_POTENTIAL, "t": 0.1, "z_samples": 40,
                       "stages": 2,
                       "x": {"kind": "gaussian", "n": 6, "scale": 0.5,
                             "self_adjoint": True}},
            "seed": 5})
        assert res["ks"] == [1, 2]
        assert len(res["values"]) == 2

    def test_wasserstein_spectral(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "wasserstein",
            "params": {"mode": "spectral",
                       "mu": {"kind": "uniform", "locations": [-1.0, 1.0]},
                       "nu": {"kind": "point", "location": 0.0}},
            "seed": 1})
        assert res["distance"] == pytest.approx(1.0)

    def test_wasserstein_matrix(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "wasserstein",
            "params": {"mode": "matrix",
                       "x": {"kind": "explicit", "re": [[1.0, 0.0], [0.0, -1.0]]},
                       "y": {"kind": "explicit", "re": [[0.0, 0.0], [0.0, 0.0]]}},
            "seed": 1})
        assert res["distance"] == pytest.approx(1.0, abs=1e-8)

    def test_specht_conjugate_not_distinct(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "specht",
            "params": {"x": {"kind": "gaussian", "n": 4, "d": 2},
                       "y": {"kind": "conjugate"}, "max_len": 4},
            "seed": 11})
        assert res["verdict"] in ("equivalent", "undetermined")
        assert res["witness_word"] is None

    def test_freeness(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "freeness",
            "params": {"base_x": [{"kind": "semicircle", "atoms": 64}],
                       "base_y": [{"kind": "uniform", "locations": [-1.0, 1.0]}],
                       "n_list": [32], "max_len": 3, "trials": 2},
            "seed": 9})
        assert res["worst_deviation"][0] < 0.5
        assert max(res["invariance_residual"]) < 1e-10

    def test_convolve(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "convolve",
            "params": {"mu": {"kind": "uniform", "locations": [-1.0, 1.0]},
                       "nu": {"kind": "uniform", "locations": [-1.0, 1.0]},
                       "n": 64, "trials": 3, "max_len": 4},
            "seed": 4})
        assert res["predicted"][1] == pytest.approx(2.0)  # m2 of arcsine
        assert res["max_deviation"] < 0.2

    def test_join_ratio(self, tmp_path):
        spec = {"d": 1, "r": 1.0,
                "constraints": [{"formula": "tr.re(x1 x1*)",
                                 "target": 0.5, "tol": 0.3}]}
        res = self._run(tmp_path, {
            "kind": "independent-join",
            "params": {"probe": "ratio", "spec1": spec, "spec2": spec,
                       "n": 4, "mcmc": {"burn_in": 100, "pairs": 100,
                                        "thin": 2}},
            "seed": 6})
        assert res["ratio"] == pytest.approx(1.0)

    def test_join_additivity(self, tmp_path):
        spec = {"d": 1, "r": 1.0,
                "constraints": [{"formula": "tr.re(x1 x1*)",
                                 "target": 0.5, "tol": 0.3}]}
        res = self._run(tmp_path, {
            "kind": "independent-join",
            "params": {"probe": "additivity", "spec1": spec, "spec2": spec,
                       "n_list": [4], "samples": 2000},
            "seed": 6})
        assert res["deficit"][0] == pytest.approx(0.0, abs=1e-12)

    def test_example_5_3(self, tmp_path):
        res = self._run(tmp_path, {
            "kind": "example-5-3", "params": {"trials": 3}, "seed": 77})
        assert max(res["psi_same"]) < 1e-6
        assert min(res["psi_cross"]) > 0.5


class TestThreadCap:
    def test_sets_blas_vars(self, monkeypatch):
        monkeypatch.setenv("MSLAB_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "16")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_keeps_tighter_existing_cap(self, monkeypatch):
        monkeypatch.setenv("MSLAB_THREADS", "4")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        _apply_thread_cap()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_ignores_garbage(self, monkeypatch, capsys):
        monkeypatch.setenv("MSLAB_THREADS", "lots")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _apply_thread_cap()
        assert "OMP_NUM_THREADS" not in os.environ
        assert "MSLAB_THREADS" in capsys.readouterr().err


def test_console_entry_subprocess(tmp_path):
    cfg_path = write_config(tmp_path, entropy_config())
    proc = subprocess.run(
        [sys.executable, "-m", "mslab.cli", "validate", "--config", cfg_path],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "MSLAB_THREADS": "1"})
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []


def test_report_bytes_do_not_depend_on_thread_count(tmp_path):
    data = entropy_config()
    data["params"]["n_list"] = [4, 8]
    cfg_path = write_config(tmp_path, data)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "mslab.cli", "entropy", "--config", cfg_path,
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**env, "MSLAB_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), (tmp_path / f"t{threads}.csv").read_bytes()))
    assert outputs[0] == outputs[1]
