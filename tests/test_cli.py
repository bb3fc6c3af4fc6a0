import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from expsys.cli import run, serialize_report
from expsys.config import as_scalar
from expsys.presets import PRESETS


def run_to_file(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestPresets:
    def test_identity_preset_passes(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "identity-1d"])
        assert code == 0
        assert rep["result"]["verdict"] == "PASS"
        assert rep["schema_version"] == 1

    def test_square_phase_preset_fails(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "square-phase-1d"])
        assert code == 1
        assert rep["result"]["verdict"] == "FAIL"

    def test_probe_presets(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["probe-injectivity", "--preset", "probe-x2"])
        assert code == 1
        assert rep["result"]["collision_fraction"] >= 0.5
        code, rep = run_to_file(
            tmp_path, ["probe-injectivity", "--preset", "probe-digitmap"]
        )
        assert code == 0
        assert rep["result"]["collision_fraction"] == 0.0

    def test_density_preset(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["density", "--preset", "density-z2"])
        assert code == 0
        for R, dp in zip(rep["result"]["windows"], rep["result"]["d_plus"]):
            assert abs(dp - 1.0) <= 2.0 / R

    def test_halfbox_frame_preset(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["frame-bounds", "--preset", "halfbox-frame"])
        assert code == 0
        assert 0.9 <= rep["result"]["a_est"] <= 1.01
        assert 0.9 <= rep["result"]["b_est"] <= 1.01

    def test_heisenberg_preset(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["repdisc", "--preset", "heisenberg"])
        assert code == 0
        assert rep["result"]["max_offdiag"] <= 1e-10

    def test_reconstruct_preset_with_csv(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "coeffs.csv"
        cfg = dict(PRESETS["reconstruct-sawtooth"]["config"])
        cfg["csv"] = str(csv_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["reconstruct", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "lambda_1,re,im"
        rep = json.loads(out.read_text())
        # analytic truncation tail for f(x) = x at |k| <= 16
        ks = np.arange(17, 100_000)
        tail = float(np.sqrt(np.sum(2.0 / (4 * np.pi**2 * ks**2))))
        assert abs(rep["result"]["l2_error"] - tail) <= 0.1 * tail

    def test_every_preset_command_matches_handler(self):
        for name, preset in PRESETS.items():
            assert preset["command"] in (
                "verify-onb",
                "frame-bounds",
                "tiling-check",
                "density",
                "reconstruct",
                "repdisc",
                "probe-injectivity",
            ), name

    def test_unknown_preset_is_config_error(self):
        assert run(["verify-onb", "--preset", "nope"]) == 3

    def test_list_presets(self, capsys):
        assert run(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out


class TestStrictSchema:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = dict(PRESETS["identity-1d"]["config"])
        cfg["surprise"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["verify-onb", "--config", str(path)]) == 3

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(PRESETS["identity-1d"]["config"]))
        cfg["measure"]["colour"] = "red"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["verify-onb", "--config", str(path)]) == 3

    def test_expression_error_reports_position(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(PRESETS["counterexample-exp"]["config"]))
        cfg["phase"]["z"] = "exp(x2"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["tiling-check", "--config", str(path)]) == 3
        assert "offset" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert run(["density", "--config", "/no/such/file.json"]) == 3

    @pytest.mark.parametrize(
        "preset, measure",
        [
            ("identity-1d", {"kind": "lebesgue_box", "lo": [1.0], "hi": [0.0]}),
            ("identity-1d", {"kind": "lebesgue_box", "lo": [0.0], "hi": [float("nan")]}),
            ("holhos-disc", {"kind": "lebesgue_disc", "center": [0.0, 0.0], "radius": -1.0}),
            ("holhos-disc", {"kind": "lebesgue_disc", "center": [float("inf"), 0.0], "radius": 1.0}),
        ],
    )
    def test_bad_measure_bounds_exit_three(self, tmp_path, preset, measure):
        cfg = json.loads(json.dumps(PRESETS[preset]["config"]))
        cfg["measure"] = measure
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["verify-onb", "--config", str(path)]) == 3


def _set(path, value):
    def mutate(cfg):
        *parents, key = path
        for p in parents:
            cfg = cfg[p]
        cfg[key] = value

    return mutate


NON_COMMUTING = {"A": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "ell": [1.0, 0.0]}


MALFORMED = {
    "radius-not-a-number": ("identity-1d", _set(["spectrum", "radius"], "x")),
    "negative-order": ("identity-1d", _set(["quad", "order"], -3)),
    "order-not-a-number": ("identity-1d", _set(["quad", "order"], "x")),
    "spectrum-above-cap": ("identity-1d", _set(["spectrum", "radius"], 5000)),  # 10001 points
    "tol-orth-not-a-number": ("identity-1d", _set(["tol_orth"], "x")),
    "seed-not-a-number": ("identity-1d", _set(["seed"], "x")),
    "identity-dim-not-a-number": ("identity-1d", _set(["phase", "dim"], "x")),
    "lambda4-level-99": ("cantor4", _set(["spectrum", "n"], 99)),
    "self-similar-ratio-1": ("cantor3", _set(["measure", "ratio"], 1)),
    "duplicate-explicit-points": (
        "identity-1d",
        _set(["spectrum"], {"kind": "explicit", "points": [[0.0], [1.0], [1.0]]}),
    ),
    "affine-b-wrong-length": (
        "identity-1d", _set(["phase"], {"kind": "affine", "M": [[1.0]], "b": [0.0, 1.0]})
    ),
    "digit-map-base-1": ("cantor4", _set(["phase", "in_base"], 1)),
    "tiling-n-10": ("unipotent-tiling", _set(["n"], 10)),
    "density-windows-string": ("density-z2", _set(["windows"], "ab")),
    "probe-n-5": ("probe-x2", _set(["n"], 5)),
    "repdisc-unknown-mode": ("heisenberg", _set(["mode"], "zzz")),
    "non-commuting-group": ("heisenberg", _set(["group"], NON_COMMUTING)),
    "dyadic-basis-m-0": ("halfbox-frame", _set(["basis", "m"], 0)),
    "explicit-points-string": (
        "identity-1d", _set(["spectrum"], {"kind": "explicit", "points": "abc"})
    ),
    "explicit-points-ragged": (
        "identity-1d", _set(["spectrum"], {"kind": "explicit", "points": [[1, 2], [3]]})
    ),
    "explicit-points-nan": (
        "identity-1d",
        _set(["spectrum"], {"kind": "explicit", "points": [[0.0], [float("nan")]]}),
    ),
    "lattice-A-string": ("identity-1d", _set(["spectrum", "A"], "x")),
    "lattice-A-nan": ("identity-1d", _set(["spectrum", "A"], [[float("nan")]])),
    "lattice-radius-infinite": ("identity-1d", _set(["spectrum", "radius"], float("inf"))),
    "lattice-box-1e9": ("identity-1d", _set(["spectrum", "radius"], 1e9)),
    "self-similar-digits-string": ("cantor3", _set(["measure", "digits"], "ab")),
    "digit-map-in-digits-string": ("cantor4", _set(["phase", "in_digits"], "ab")),
    "digit-map-not-an-object": ("cantor4", _set(["phase", "digit_map"], "x")),
    "repdisc-window-lo-string": ("heisenberg", _set(["window", "lo"], "x")),
    "repdisc-gamma-string": ("heisenberg", _set(["gamma"], "x")),
    "repdisc-group-A-string": ("heisenberg", _set(["group"], {"A": "x", "ell": [1.0, 0.0]})),
    "tiling-box-lo-string": ("unipotent-tiling", _set(["box", "lo"], "x")),
    "tiling-lattice-A-string": ("unipotent-tiling", _set(["lattice", "A"], "x")),
    "tiling-bins-0": ("unipotent-tiling", _set(["bins"], 0)),
    "density-centers-lo-string": (
        "density-z2", _set(["centers_box"], {"lo": "a", "hi": [1.0, 1.0]})
    ),
    "density-n-centers-negative": ("density-z2", _set(["n_centers"], -1)),
    "density-window-nan": ("density-z2", _set(["windows"], [float("nan")])),
    "density-window-zero": ("density-z2", _set(["windows"], [0])),
    "density-window-negative": ("density-z2", _set(["windows"], [-5])),
    "density-window-infinite": ("density-z2", _set(["windows"], [float("inf")])),
    # 1e10 lattice points / 2^30 lambda4 points: refused before enumeration
    "density-lattice-window-1e5": ("density-z2", _set(["windows"], [1e5])),
    "density-lambda4-window-1e18": ("density-lambda4", _set(["windows"], [1e18])),
    # 1001 centres x ~10^6 points each: refused by the total work bound
    "density-lattice-window-1000": ("density-z2", _set(["windows"], [1000])),
    "order-non-integral": ("identity-1d", _set(["quad", "order"], 32.9)),
    "seed-non-integral": ("identity-1d", _set(["seed"], 1.5)),
    "tol-orth-nan-string": ("identity-1d", _set(["tol_orth"], "nan")),
    "tol-orth-nan": ("identity-1d", _set(["tol_orth"], float("nan"))),
    "tol-complete-infinite-string": ("identity-1d", _set(["tol_complete"], "inf")),
    "tol-complete-infinite": ("identity-1d", _set(["tol_complete"], float("inf"))),
    # refused before a rule is built: a one-sample variance divides by zero,
    # and the other three would allocate 8 GB (leggauss alone), 45 GB and 80 GB
    "monte-carlo-one-sample": (
        "identity-1d", _set(["quad"], {"scheme": "monte-carlo", "n_samples": 1})
    ),
    "order-1e6": ("identity-1d", _set(["quad", "order"], 10**6)),
    "gauss-panels-at-frequency-1e9": (
        "identity-1d",
        _set(["spectrum"], {"kind": "explicit", "points": [[0.0], [1e9]]}),
    ),
    # a panel count past the int64 range is clipped, then refused like 1e9's
    "gauss-panels-at-frequency-1e200": (
        "identity-1d",
        _set(["spectrum"], {"kind": "explicit", "points": [[0.0], [1e200]]}),
    ),
    "monte-carlo-1e10-samples": (
        "identity-1d", _set(["quad"], {"scheme": "monte-carlo", "n_samples": 10**10})
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_three(tmp_path, capsys, case):
    preset, mutate = MALFORMED[case]
    cfg = json.loads(json.dumps(PRESETS[preset]["config"]))
    mutate(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([PRESETS[preset]["command"], "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


def test_as_scalar_keeps_integral_floats_and_finite_strings():
    assert as_scalar(100000.0, int, "n") == 100000
    assert as_scalar("32", int, "order") == 32
    assert as_scalar("2.5", float, "tol") == 2.5


def test_non_finite_frame_moments_exit_three(tmp_path, capsys):
    # log(x1) is NaN on the negative half of the box; the moment engine
    # refuses the NaN frame matrix before the SVD sees it
    cfg = {
        "measure": {"kind": "lebesgue_box", "lo": [-1.0], "hi": [1.0]},
        "phase": {"kind": "custom", "expr": ["log(x1)"], "in_dim": 1},
        "spectrum": {"kind": "lattice", "A": [[1.0]], "radius": 4},
        "quad": {"scheme": "monte-carlo", "n_samples": 1000, "seed": 1},
        "basis": {"kind": "dyadic", "m": 4},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["frame-bounds", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value in monte-carlo moments")
    assert not caught, [str(w.message) for w in caught]


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_linalg_unloaded():
    code = "import sys, expsys.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_python_dash_m_lists_presets():
    proc = subprocess.run(
        [sys.executable, "-m", "expsys", "list-presets"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    listed = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    assert sorted(listed) == sorted(PRESETS) and len(listed) == 18


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        # identical (config, seed) must give byte-identical reports once the
        # timestamp-bearing meta field is excluded
        code1, rep1 = run_to_file(
            tmp_path, ["verify-onb", "--preset", "square-phase-1d"], "a.json"
        )
        code2, rep2 = run_to_file(
            tmp_path, ["verify-onb", "--preset", "square-phase-1d"], "b.json"
        )
        assert code1 == code2
        assert serialize_report(rep1) == serialize_report(rep2)

    def test_mc_paths_deterministic(self, tmp_path):
        code1, rep1 = run_to_file(
            tmp_path, ["tiling-check", "--preset", "unipotent-tiling"], "a.json"
        )
        code2, rep2 = run_to_file(
            tmp_path, ["tiling-check", "--preset", "unipotent-tiling"], "b.json"
        )
        assert code1 == code2 == 0
        assert serialize_report(rep1) == serialize_report(rep2)


class TestSpecCliExamples:
    def test_cantor4_preset_end_to_end(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "cantor4"])
        assert code == 0
        assert rep["result"]["gram"]["path"] == "product-formula"

    def test_counterexample_exp_exits_one(self, tmp_path):
        code, rep = run_to_file(
            tmp_path, ["tiling-check", "--preset", "counterexample-exp"]
        )
        assert code == 1
        assert rep["result"]["tiling"] == "NOT-TILING"

    # unipotent-sin (about 4 s) and shearlet (about 3 s) are left out for
    # time; the cantor presets never reach the thread pool
    @pytest.mark.parametrize(
        "preset",
        [
            "identity-1d",
            "square-phase-1d",
            "halfbox-frame",
            "heisenberg",
            "poly2d",
            "axb",
            "reconstruct-sawtooth",
        ],
    )
    def test_threads_flag_deterministic(self, tmp_path, preset):
        command = PRESETS[preset]["command"]
        (code1, rep1), (code4, rep4) = [
            run_to_file(tmp_path, [command, "--preset", preset, "--threads", t], f"t{t}.json")
            for t in ("1", "4")
        ]
        assert code1 == code4
        assert serialize_report(rep1) == serialize_report(rep4)

    def test_threads_flag_deterministic_on_adaptive_disc(self, tmp_path):
        # holhos-disc is the one preset whose moments run the threaded
        # adaptive path
        reps = [
            run_to_file(
                tmp_path,
                ["verify-onb", "--preset", "holhos-disc", "--threads", t],
                f"t{t}.json",
            )
            for t in ("1", "2")
        ]
        assert reps[0][0] == reps[1][0] == 2
        assert serialize_report(reps[0][1]) == serialize_report(reps[1][1])

    def test_gram_csv_artifact(self, tmp_path):
        cfg = json.loads(json.dumps(PRESETS["identity-1d"]["config"]))
        cfg["spectrum"]["radius"] = 2
        cfg["csv"] = str(tmp_path / "gram.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["verify-onb", "--config", str(path), "--out", str(tmp_path / "r.json")])
        assert code in (0, 2)  # tiny truncation is honestly INCONCLUSIVE
        lines = (tmp_path / "gram.csv").read_text().strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 5 * 5
