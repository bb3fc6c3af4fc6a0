import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsys.cli import _COMMANDS, run, serialize_report
from expsys.errors import DomainError, _integer, _real
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
        assert len(lines) == 1 + 33
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]
        rep = json.loads(out.read_text())
        # analytic truncation tail for f(x) = x at |k| <= 16
        ks = np.arange(17, 100_000)
        tail = float(np.sqrt(np.sum(2.0 / (4 * np.pi**2 * ks**2))))
        assert abs(rep["result"]["l2_error"] - tail) <= 0.1 * tail

    def test_reconstruct_on_a_self_similar_measure(self, tmp_path):
        # the L2 error runs under the norm rule (depth-30 digits): adaptive is
        # for boxes and discs only.  E(Lambda4) is an ONB of the middle-fourth
        # Cantor measure, so ||x - g||^2 = E[x^2] - sum |c|^2 = 8/45 - sum |c|^2
        csv_path = tmp_path / "coeffs.csv"
        cfg = {
            "measure": {"kind": "self_similar", "ratio": 4, "digits": [[0.0, 0.5], [2.0, 0.5]]},
            "phase": {"kind": "identity", "dim": 1},
            "spectrum": {"kind": "lambda4", "n": 3},
            "quad": {"scheme": "self-similar-digit", "depth": 20},
            "f": "x1",
            "csv": str(csv_path),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, rep = run_to_file(tmp_path, ["reconstruct", "--config", str(cfg_path)])
        assert code == 0
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert len(rows) == 8
        energy = np.sum(rows[:, 1] ** 2 + rows[:, 2] ** 2)
        assert abs(rep["result"]["l2_error"] ** 2 - (8 / 45 - energy)) <= 1e-10

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


def _load_workloads():
    """perfbench/workloads.py as a module, read without writing its bytecode."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
    return module


WORKLOADS = _load_workloads()


def _assert_benchmark_body(report, name):
    """The report body at the shipped seed 1 is the one the benchmark recorded."""
    reference = json.loads(WORKLOADS.REFERENCE_PATH.read_text())["presets"][name]
    body = WORKLOADS.without_meta(report)
    assert WORKLOADS.compare_body(body, reference["body"]) == []


@pytest.mark.parametrize("name", WORKLOADS.LIGHT)
def test_light_preset_matches_benchmark_reference(name):
    # the body each light preset writes at its shipped seed 1 is the one the
    # benchmark recorded, so a changed report fails here and not only there
    code, text = WORKLOADS.run_preset(name)
    assert code == WORKLOADS.EXPECTED_EXIT.get(name, 0)
    _assert_benchmark_body(json.loads(text), name)


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
    # its two orders, 2 and max(2, 2 // 2), coincide, so every error would read 0
    "adaptive-order-2": ("holhos-disc", _set(["quad", "order"], 2)),
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
    "affine-M-string": ("identity-1d", _set(["phase"], {"kind": "affine", "M": "abc"})),
    "affine-M-ragged": (
        "identity-1d", _set(["phase"], {"kind": "affine", "M": [[1.0, 2.0], [3.0]]})
    ),
    "affine-M-3d": ("identity-1d", _set(["phase"], {"kind": "affine", "M": [[[1.0]]]})),
    "affine-M-nan": (
        "unipotent-tiling",
        _set(["phase"], {"kind": "affine", "M": [[float("nan"), 0.0], [0.0, 1.0]]}),
    ),
    "affine-b-string": (
        "identity-1d", _set(["phase"], {"kind": "affine", "M": [[1.0]], "b": "x"})
    ),
    "seed-true": ("identity-1d", _set(["seed"], True)),
    "seed-negative": ("identity-1d", _set(["seed"], -1)),
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
    "repdisc-gamma-above-cap": ("heisenberg", _set(["gamma"], [[float(k)] for k in range(4097)])),
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
    # ill-typed values: expressions must be strings, expression lists lists,
    # and str/bool fields JSON strings/booleans (null is refused, not "unset")
    "reconstruct-f-number": ("reconstruct-sawtooth", _set(["f"], 1.5)),
    "triangular-z-number": ("counterexample-exp", _set(["phase", "z"], 1)),
    "triangular-f-list": ("counterexample-exp", _set(["phase", "f"], [])),
    "unipotent-l-entry-number": ("unipotent-sin", _set(["phase", "l", 0], 0)),
    "unipotent-l-not-a-list": ("unipotent-sin", _set(["phase", "l"], 1)),
    "custom-expr-entry-object": ("square-phase-1d", _set(["phase", "expr", 0], {})),
    "custom-expr-not-a-list": ("square-phase-1d", _set(["phase", "expr"], 1)),
    "custom-expr-empty": ("square-phase-1d", _set(["phase", "expr"], [])),
    "custom-in-dim-1e15": ("square-phase-1d", _set(["phase", "in_dim"], 10**15)),
    "density-seed-negative": ("density-lambda4", _set(["seed"], -1)),
    "exploratory-string": ("shearlet", _set(["exploratory"], "false")),
    "out-not-a-string": ("identity-1d", _set(["out"], True)),
    "csv-not-a-string": ("identity-1d", _set(["csv"], 2)),
    "probe-delta-y-null": ("probe-x2", _set(["delta_y"], None)),
    "quad-scheme-list": ("identity-1d", _set(["quad", "scheme"], [])),
    # sizes refused before any work: 2^27 tiling draws over all translates,
    # 2^27 probe sample entries, 2^26 density centres, 4096 test functions,
    # digit depth 64
    "tiling-n-1e15": ("unipotent-tiling", _set(["n"], 10**15)),
    "tiling-radius-1e6": ("unipotent-tiling", _set(["radius"], 10**6)),
    # the default n = 100000 at radius 2 is refused from dimension 5 up
    "tiling-5d-default-n": (
        "unipotent-tiling",
        lambda cfg: (cfg.pop("n"), cfg.update(
            phase={"kind": "custom", "expr": [f"x{i}" for i in range(1, 6)], "in_dim": 5},
            box={"lo": [0.0] * 5, "hi": [1.0] * 5},
            lattice={"A": np.eye(5).tolist()},
        )),
    ),
    "probe-n-1e15": ("probe-x2", _set(["n"], 10**15)),
    "density-n-centers-1e15": ("density-z2", _set(["n_centers"], 10**15)),
    "dyadic-basis-m-2^40": ("halfbox-frame", _set(["basis", "m"], 2**40)),
    "legendre-basis-m-2^40": (
        "halfbox-frame", _set(["basis"], {"kind": "legendre", "m": 2**40})
    ),
    "repdisc-basis-size-2^40": ("axb", _set(["basis_size"], 2**40)),
    "digit-map-depth-1e9": ("cantor4", _set(["phase", "depth"], 10**9)),
    # Lebesgue[0, 1] is recognized only when the map lists in_base digits,
    # so no list of 10^15 digits is built
    "digit-map-base-1e15": ("cantor4", _set(["phase", "in_base"], 10**15)),
    "quad-depth-1e9": ("cantor4", _set(["quad", "depth"], 10**9)),
    # a 3-d phase with no inverse needs a 1024^3-point membership sweep
    "tiling-3d-membership-sweep": (
        "unipotent-tiling",
        lambda cfg: cfg.update(
            phase={"kind": "custom", "expr": ["x1", "x2", "x3"], "in_dim": 3},
            box={"lo": [0.0] * 3, "hi": [1.0] * 3},
            lattice={"A": np.eye(3).tolist()},
        ),
    ),
    # np.round(x, 12) overflows above ~1.8e296
    "heisenberg-spectrum-point-1e300": (
        "heisenberg", _set(["spectrum", "points", 0], [0.0, 1e300])
    ),
    # expressions past the token bound would recurse past Python's limit
    # when parsed or evaluated
    "expr-3000-unary-minus": ("square-phase-1d", _set(["phase", "expr", 0], "-" * 3000 + "x1")),
    "expr-3000-parentheses": (
        "square-phase-1d", _set(["phase", "expr", 0], "(" * 3000 + "x1" + ")" * 3000)
    ),
    "expr-3000-terms-monte-carlo": (
        "square-phase-1d",
        lambda cfg: cfg.update(
            phase={"kind": "custom", "expr": ["+".join(["x1"] * 3000)], "in_dim": 1},
            quad={"scheme": "monte-carlo", "n_samples": 1000},
        ),
    ),
    # float64 literals: 1/0 is inf, and the phase is refused as non-finite
    "expr-one-over-zero-monte-carlo": (
        "square-phase-1d",
        lambda cfg: cfg.update(
            phase={"kind": "custom", "expr": ["x1 + 1/0"], "in_dim": 1},
            quad={"scheme": "monte-carlo", "n_samples": 1000},
        ),
    ),
    "expr-one-over-zero-tensor-gauss": (
        "square-phase-1d", _set(["phase", "expr", 0], "x1 + 1/0")
    ),
    # a 32,769 x 4096 frame matrix (2^27 + 4096 entries): refused before any node set
    "frame-matrix-above-entry-budget": (
        "halfbox-frame",
        lambda cfg: cfg.update(
            quad={"scheme": "monte-carlo", "n_samples": 100},
            spectrum={"kind": "lattice", "A": [[1.0]], "radius": 16384},
            basis={"kind": "dyadic", "m": 4096},
        ),
    ),
    # 1e300 puts all n^2 / 2 sample pairs within delta_y
    "probe-delta-y-1e300": ("probe-x2", _set(["delta_y"], 1e300)),
    # finite bounds whose mass overflows a double: pi r^2 raised
    # OverflowError, the box product warned
    "disc-radius-1e300": ("holhos-disc", _set(["measure", "radius"], 1e300)),
    "box-mass-overflow": (
        "unipotent-sin",
        _set(["measure"], {"kind": "lebesgue_box", "lo": [0.0, 0.0], "hi": [1e300, 1e300]}),
    ),
    # refused without a warning: an infinite enumeration size, an infinite
    # phase image (e^{1e15}), a ratio whose ratio^-64 underflows, and a
    # one-point support
    "density-window-1e300": ("density-z2", _set(["windows", 0], 1e300)),
    "triangular-box-hi-1e15": ("counterexample-exp", _set(["box", "hi", 1], 1e15)),
    "self-similar-ratio-1e300": ("cantor3", _set(["measure", "ratio"], 1e300)),
    "self-similar-one-point": ("cantor3", _set(["measure", "digits", 1, 0], 0.0)),
    # a phase with no inverse: its membership sweep meets the infinite image first
    "tiling-custom-image-overflows": (
        "unipotent-tiling",
        _set(["phase"], {"kind": "custom", "expr": ["x1", "x2 + exp(1000*x2)"], "in_dim": 2}),
    ),
    # scales and thresholds outside their range would fix or void a verdict:
    # a given probe scale <= 0, a tiling radius with no translate, a negative
    # tolerance, tol_complete >= 1, min_ratio outside (0, 1], no windows
    "probe-delta-y-zero": ("probe-x2", _set(["delta_y"], 0)),
    "probe-delta-y-negative": ("probe-x2", _set(["delta_y"], -1)),
    "probe-delta-x-negative": ("probe-x2", _set(["delta_x"], -1)),
    "tiling-radius-0": ("unipotent-tiling", _set(["radius"], 0)),
    "tiling-radius-negative": ("unipotent-tiling", _set(["radius"], -1)),
    "tol-orth-negative": ("identity-1d", _set(["tol_orth"], -1e-3)),
    "tol-complete-negative": ("identity-1d", _set(["tol_complete"], -1e-3)),
    "tol-complete-5": ("identity-1d", _set(["tol_complete"], 5.0)),
    "frame-min-ratio-negative": ("halfbox-frame", _set(["min_ratio"], -1)),
    "frame-min-ratio-2": ("halfbox-frame", _set(["min_ratio"], 2)),
    "repdisc-tol-negative": ("heisenberg", _set(["tol"], -1e-3)),
    "density-windows-empty": ("density-z2", _set(["windows"], [])),
    # a tiling phase must map the box's dimension to itself: 2 -> 3 raised an
    # IndexError in the occupancy grid, 2 -> 1 a matmul ValueError
    "tiling-phase-2-to-3": (
        "unipotent-tiling",
        _set(["phase"], {"kind": "custom", "expr": ["x1", "x2", "x1"], "in_dim": 2}),
    ),
    "tiling-phase-2-to-1": (
        "unipotent-tiling", _set(["phase"], {"kind": "custom", "expr": ["x1"], "in_dim": 2})
    ),
    # JSON booleans are not numbers in array fields either (true read as 1.0)
    "disc-radius-true": ("holhos-disc", _set(["measure", "radius"], True)),
    "box-bounds-booleans": (
        "identity-1d", _set(["measure"], {"kind": "lebesgue_box", "lo": [False], "hi": [True]})
    ),
    "self-similar-digit-true": ("cantor3", _set(["measure", "digits", 0], [True, 0.5])),
    "affine-M-true": ("identity-1d", _set(["phase"], {"kind": "affine", "M": [[True]]})),
    "explicit-points-booleans": (
        "identity-1d", _set(["spectrum"], {"kind": "explicit", "points": [[True], [False]]})
    ),
    # a JSON integer past the double range: numpy's float conversion raised OverflowError
    "box-hi-10-to-400": (
        "identity-1d", _set(["measure"], {"kind": "lebesgue_box", "lo": [0], "hi": [10**400]})
    ),
    "explicit-point-10-to-400": (
        "identity-1d", _set(["spectrum"], {"kind": "explicit", "points": [[0], [10**400]]})
    ),
    # a digit image near the double limit: refused when the phase is built
    "cantor3-digit-image-1e300": ("cantor3", _set(["phase", "digit_map", "0"], 1e300)),
    "cantor4-digit-image-1e300": ("cantor4", _set(["phase", "digit_map", "1"], 1e300)),
    # an empty digit set and map pass the coverage check; the snap table had no top digit
    "digit-map-empty": (
        "probe-digitmap",
        lambda cfg: cfg["phase"].update(in_digits=[], digit_map={}),
    ),
    # centres near the double limit: the window box overflowed with a warning
    "density-box-past-double-range": (
        "density-z2",
        lambda cfg: cfg.update(windows=[1e308], centers_box={"lo": [0.0, 0.0], "hi": [1.7e308] * 2}),
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
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-onb", "--preset", "identity-1d", "--threads", "2.5"],
        ["no-such-command"],
        ["verify-onb"],
        ["verify-onb", "--preset", "identity-1d", "--config", "cfg.json"],
        ["verify-onb", "--preset", "identity-1d", "--no-such-option"],
        [],
    ],
)
def test_usage_error_exits_three(capsys, argv):
    # argparse's own exit 2 is the INCONCLUSIVE code
    assert run(argv) == 3
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-onb", "--help"])
    assert exc.value.code == 0
    assert "--preset" in capsys.readouterr().out


def test_deeply_nested_config_exits_three(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["verify-onb", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


def test_huge_lattice_entry_keeps_exit_contract(tmp_path, capsys):
    # the overlap seed tags round only entries below 2^52: no overflow
    cfg = json.loads(json.dumps(PRESETS["unipotent-tiling"]["config"]))
    cfg["lattice"]["A"][0][0] = 1e300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["tiling-check", "--config", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 1  # the volume no longer matches |det A|
    assert capsys.readouterr().err == ""
    assert not caught, [str(w.message) for w in caught]


def _nodes(node, path=()):
    """Path of every node below `node`: sub-objects, list items and leaves."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _nodes(child, path + (key,))


MUTATED_PRESETS = [
    "identity-1d", "square-phase-1d", "reconstruct-sawtooth", "density-z2", "density-lambda4",
    "heisenberg", "probe-x2", "probe-digitmap",
]
HOSTILE_VALUES = [None, True, "x", [], {}, -1, 0, 1.5, 1e300, 10**15, 10**400, [[1e300]]]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    target=st.sampled_from(
        [(name, path) for name in MUTATED_PRESETS for path in _nodes(PRESETS[name]["config"])]
    ),
    value=st.sampled_from(HOSTILE_VALUES),
)
def test_mutated_preset_keeps_exit_contract(tmp_path_factory, target, value):
    # any one node replaced by any hostile JSON value: an exit code in 0..3,
    # nothing raised (RuntimeWarnings are errors in this suite) and one
    # "error: " line on exit 3
    name, path = target
    cfg = json.loads(json.dumps(PRESETS[name]["config"]))
    _set(list(path), value)(cfg)
    tmp = tmp_path_factory.getbasetemp()
    (tmp / "mutated.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run([
            PRESETS[name]["command"],
            "--config", str(tmp / "mutated.json"),
            "--out", str(tmp / "mutated-report.json"),
        ])
    assert code in (0, 1, 2, 3)
    assert code != 3 or err.getvalue().startswith("error: ")


@pytest.mark.parametrize("kind", [int, float])
def test_readers_refuse_json_booleans_in_number_fields(kind):
    for value in (True, False):
        with pytest.raises(DomainError, match="got " + repr(value)):
            (_integer if kind is int else _real)(value, kind.__name__ + " field")


# nested scalar fields, each read by the library function it reaches; the
# top-level ones are seed, out, csv and each command's options
_NESTED_SCALARS = {
    "measure": ["ratio"],
    "phase": ["dim", "in_base", "out_base", "depth", "K", "in_dim"],
    "spectrum": ["radius", "n"],
    "quad": ["order", "n_samples", "seed", "depth", "abs_tol", "max_subdivisions"],
    "basis": ["m"],
}


def _scalar_fields(name):
    """Path of every scalar field of preset `name` that a config may type wrong."""
    command, cfg = PRESETS[name]["command"], PRESETS[name]["config"]
    _, _, keys, other = _COMMANDS[command]
    top = ["seed", "out", *keys, *(["csv"] if "csv" in other else [])]
    paths = [(key,) for key in top]
    for parent, children in _NESTED_SCALARS.items():
        node = cfg.get(parent)
        if isinstance(node, dict):
            paths += [(parent, key) for key in children if key in node]
    paths += [("phase", "digit_map", key) for key in cfg.get("phase", {}).get("digit_map", {})]
    paths += [("windows", i) for i in range(len(cfg.get("windows", [])))]
    return paths


# values refused before any work, a string or boolean field skipping the kind it takes
_ILL_TYPED = [None, True, "x", [], {}, float("nan"), float("inf")]


@pytest.mark.parametrize(
    "name, path",
    [(name, path) for name in sorted(PRESETS) for path in _scalar_fields(name)],
    ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)),
)
def test_ill_typed_scalar_field_exits_three(tmp_path, capsys, name, path):
    for value in _ILL_TYPED:
        if value is True and path == ("exploratory",) or value == "x" and path[-1] in ("out", "csv"):
            continue
        cfg = json.loads(json.dumps(PRESETS[name]["config"]))
        _set(list(path), value)(cfg)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([PRESETS[name]["command"], "--config", str(tmp_path / "cfg.json")])
        captured = capsys.readouterr()
        assert code == 3, (value, captured.out[-200:])
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, value
        assert not caught, (value, [str(w.message) for w in caught])


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


def test_presets_leave_scipy_unloaded():
    # the frame bounds' SVD runs through numpy, the chi-square tail through
    # math and the injectivity probe's pair search on a numpy cell grid
    code = (
        "import contextlib, io, json, sys\n"
        "from expsys.cli import run\n"
        "from expsys.presets import PRESETS\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = {n: run([p['command'], '--preset', n]) for n, p in PRESETS.items()}\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert len(codes) == 18 and set(codes.values()) <= {0, 1, 2}, codes
    assert loaded == []


# perfbench's tracer wraps expsys names from outside the package; installing
# it and running one preset catches a moved or renamed wrapped name here
TRACED_PRESET = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from expsys import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["verify-onb", "--preset", "identity-1d", "--threads", "1"])
print(json.dumps({"code": code, "counts": spans.summary()[1]}))
"""


def test_benchmark_tracer_installs_and_counts():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = dict(_src_env(), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PRESET, str(perfbench)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    for key in ("config.build.calls", "oscillatory.exp_moments.calls", "measures.gauss_nodes"):
        assert out["counts"][key] > 0, key


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


class TestConfigPathsOffThePresets:
    """Config branches no preset reaches: pushforward measures, group_exp
    phases and the inversion of an affine phase."""

    def _run(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_to_file(tmp_path, [command, "--config", str(path)])

    def test_pushforward_of_a_cantor_measure_passes(self, tmp_path):
        # Lambda4 / 2 is a spectrum of the Cantor-4 measure dilated by 2
        cantor = {"kind": "self_similar", "ratio": 4, "digits": [[0, 0.5], [2, 0.5]]}
        cfg = {
            "measure": {
                "kind": "pushforward", "base": cantor, "map": {"kind": "affine", "M": [[2.0]]}
            },
            "phase": {"kind": "identity", "dim": 1},
            "spectrum": {
                "kind": "explicit", "points": [[x] for x in (0, 0.5, 2, 2.5, 8, 8.5, 10, 10.5)]
            },
            "quad": {"scheme": "self-similar-digit", "depth": 30},
            "tol_orth": 1e-6,
            "tol_complete": 0.05,
        }
        code, rep = self._run(tmp_path, "verify-onb", cfg)
        assert (code, rep["result"]["verdict"]) == (0, "PASS")
        # 2 x on the Cantor-4 measure is the digit system {0, 4}: product formula
        assert rep["result"]["gram"]["path"] == "product-formula"
        assert rep["result"]["gram"]["max_offdiag"] <= 1e-14
        # tensor-gauss has no rule for a self-similar base, but the Gram needs
        # none, and the coefficients fall back to digit enumeration
        cfg["quad"] = {"scheme": "tensor-gauss", "order": 32}
        code, rep = self._run(tmp_path, "verify-onb", cfg)
        assert (code, rep["result"]["verdict"]) == (0, "PASS")
        assert rep["result"]["gram"]["path"] == "product-formula"

    def test_fewer_frequencies_than_test_functions_fail_the_frame_check(self, tmp_path):
        # three frequencies cannot bound eight cells from below
        cfg = {
            "measure": {"kind": "lebesgue_box", "lo": [0.0], "hi": [1.0]},
            "phase": {"kind": "identity", "dim": 1},
            "spectrum": {"kind": "explicit", "points": [[0.0], [1.0], [2.0]]},
            "quad": {"scheme": "tensor-gauss", "order": 32},
            "basis": {"kind": "dyadic", "m": 8},
        }
        code, rep = self._run(tmp_path, "frame-bounds", cfg)
        assert (code, rep["result"]["verdict"], rep["result"]["a_est"]) == (1, "FAIL", 0.0)
        cfg = json.loads(json.dumps(PRESETS["axb"]["config"]))
        cfg.update(spectrum={"kind": "explicit", "points": [[0.0], [1.0]]}, basis_size=8)
        code, rep = self._run(tmp_path, "repdisc", cfg)
        assert (code, rep["result"]["verdict"], rep["result"]["a_est"]) == (1, "FAIL", 0.0)

    def test_group_exp_phase_on_the_unit_interval(self, tmp_path):
        cfg = {
            "measure": {"kind": "lebesgue_box", "lo": [0.0], "hi": [1.0]},
            "phase": {"kind": "group_exp", "A": [[[0.0, 1.0], [0.0, 0.0]]], "ell": [1.0, 0.0]},
            "spectrum": {"kind": "explicit", "points": [[0.0, float(k)] for k in range(-2, 3)]},
            "quad": {"scheme": "tensor-gauss", "order": 48},
        }
        code, rep = self._run(tmp_path, "verify-onb", cfg)
        # orthogonal, but five frequencies leave the Parseval ratios short
        assert (code, rep["result"]["verdict"]) == (2, "INCONCLUSIVE")
        assert rep["result"]["orthogonal"]

    def test_affine_shear_tiles_the_unit_box(self, tmp_path, monkeypatch):
        from expsys import phases

        inverted = []
        invert = phases.Affine.invert
        monkeypatch.setattr(
            phases.Affine,
            "invert",
            lambda self, y, box=None: inverted.append(len(y)) or invert(self, y, box),
        )
        cfg = {
            "phase": {"kind": "affine", "M": [[1.0, 1.0], [0.0, 1.0]]},
            "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "lattice": {"A": [[1.0, 0.0], [0.0, 1.0]]},
            "n": 20000,
            "bins": 8,
        }
        code, rep = self._run(tmp_path, "tiling-check", cfg)
        assert (code, rep["result"]["tiling"]) == (0, "TILES")
        assert inverted

    def test_singular_affine_map_does_not_tile(self, tmp_path):
        # no inverse: membership falls back to the occupancy grid
        cfg = {
            "phase": {"kind": "affine", "M": [[1.0, 1.0], [1.0, 1.0]]},
            "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "lattice": {"A": [[1.0, 0.0], [0.0, 1.0]]},
            "n": 20000,
            "bins": 8,
        }
        code, rep = self._run(tmp_path, "tiling-check", cfg)
        assert (code, rep["result"]["tiling"]) == (1, "NOT-TILING")


class TestSpecCliExamples:
    def test_cantor4_preset_end_to_end(self, tmp_path):
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "cantor4"])
        assert code == 0
        assert rep["result"]["gram"]["path"] == "product-formula"
        _assert_benchmark_body(rep, "cantor4")
        # the benchmark compares at RTOL 1e-6; its Monte-Carlo battery (summed
        # from DigitMap level tables) and its Gram must not move by a bit
        ratios = {
            "indicator_half": "0x1.fe01fdddfaa30p-1",
            "one": "0x1.000cc739adc1fp+0",
            "oscillatory": "0x1.fe95216293ac4p-1",
            "poly4": "0x1.020828d394550p+0",
            "x1": "0x1.00ca6552ef4b4p+0",
            "x1_sq": "0x1.014cc1e8281f8p+0",
        }
        result = rep["result"]
        assert result["parseval_ratios"] == {k: float.fromhex(v) for k, v in ratios.items()}
        assert result["gram"]["max_offdiag"] == float.fromhex("0x1.a037afb67059bp-49")
        assert result["gram"]["quad_error"] == float.fromhex("0x1.655b2d9629613p-68")

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="cli._quad gives the run's seed to monte-carlo specs only, so plan's "
        "400k-sample coefficient rule under cantor4's digit spec is seeded with 0",
    )
    def test_cantor4_battery_follows_the_run_seed(self, tmp_path):
        ratios = []
        for seed in (1, 2):
            cfg = {**PRESETS["cantor4"]["config"], "seed": seed}
            path = tmp_path / f"seed-{seed}.json"
            path.write_text(json.dumps(cfg))
            _, rep = run_to_file(tmp_path, ["verify-onb", "--config", str(path)])
            ratios.append(rep["result"]["parseval_ratios"])
        assert ratios[0] != ratios[1]

    def test_cantor3_preset_end_to_end(self, tmp_path):
        # the battery's coefficients take the digit transfer inside the digit rule
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "cantor3"])
        assert code == 0
        assert rep["result"]["gram"]["path"] == "product-formula"
        _assert_benchmark_body(rep, "cantor3")

    def test_cantor3_enumerates_at_most_2_16_nodes_outside_the_gate(self, tmp_path, monkeypatch):
        # the battery and the one-frequency norm call both take the digit
        # transfer, so the only digit nodes built past the product-formula
        # gate are their two guards' 2^16, never the caller's 2^20
        from expsys import _oscillatory, measures

        counts, in_gate = [], []
        nodes, gate = _oscillatory.digit_nodes, measures.validate_product_formula

        def counted(mu, depth):
            found = nodes(mu, depth)
            if not in_gate:
                counts.append(found[0])  # (count, blocks, tail width)
            return found

        def gated(ss):
            in_gate.append(ss)
            try:
                return gate(ss)
            finally:
                in_gate.pop()

        monkeypatch.setattr(_oscillatory, "digit_nodes", counted)
        monkeypatch.setattr(measures, "validate_product_formula", gated)
        code, _ = run_to_file(tmp_path, ["verify-onb", "--preset", "cantor3"])
        assert code == 0
        assert counts == [1 << 16, 1 << 16]

    def test_counterexample_exp_exits_one(self, tmp_path):
        # the one preset that reaches the triangular antiderivative; it is
        # not light, so its body is checked against the benchmark here
        code, rep = run_to_file(
            tmp_path, ["tiling-check", "--preset", "counterexample-exp"]
        )
        assert code == 1
        assert rep["result"]["tiling"] == "NOT-TILING"
        _assert_benchmark_body(rep, "counterexample-exp")

    def test_unipotent_sin_matches_the_benchmark_reference(self, tmp_path):
        # not light, so its body is checked against the benchmark here
        code, rep = run_to_file(tmp_path, ["verify-onb", "--preset", "unipotent-sin"])
        assert code == 0
        assert rep["result"]["gram"]["path"] == "quadrature"
        _assert_benchmark_body(rep, "unipotent-sin")

    # the cantor presets never reach the thread pool
    @pytest.mark.parametrize(
        "preset",
        [
            "identity-1d",
            "unipotent-sin",
            "square-phase-1d",
            "halfbox-frame",
            "heisenberg",
            "poly2d",
            "axb",
            "shearlet",
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
        if preset == "shearlet":  # not light, so its body is checked here
            _assert_benchmark_body(rep1, preset)

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
        _assert_benchmark_body(reps[0][1], "holhos-disc")

    @pytest.mark.parametrize("threads", ["0", "-2", "65", "1000000"])
    def test_threads_outside_their_range_refused_before_any_work(
        self, monkeypatch, capsys, threads
    ):
        import expsys._oscillatory
        import expsys.cli

        def never(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(expsys._oscillatory, "ThreadPoolExecutor", never)
        monkeypatch.setattr(expsys.cli, "build_measure", never)
        code = run(["verify-onb", "--preset", "identity-1d", "--threads", threads])
        assert code == 3
        assert "--threads must be in [1, 64]" in capsys.readouterr().err

    def test_gram_csv_artifact(self, tmp_path, monkeypatch):
        # every pair in row-major order at its class's value, the classes as
        # np.unique(axis=0) finds them; m = 257 spans two row blocks
        import expsys.analysis
        from test_analysis import reference_unique_differences

        gram, reports = expsys.analysis.gram, []
        monkeypatch.setattr(
            expsys.analysis, "gram", lambda *a, **k: reports.append(gram(*a, **k)) or reports[-1]
        )
        cfg = json.loads(json.dumps(PRESETS["identity-1d"]["config"]))
        cfg["spectrum"]["radius"] = 128
        cfg["csv"] = str(tmp_path / "gram.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["verify-onb", "--config", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 0
        [rep] = reports
        _, inverse, _ = reference_unique_differences(rep.spectrum.points)
        expected = ["row,col,re,im"] + [
            f"{i},{j},{z.real!r},{z.imag!r}"
            for i, row in enumerate(rep.values[inverse].tolist())
            for j, z in enumerate(row)
        ]
        assert (tmp_path / "gram.csv").read_text().splitlines() == expected


@pytest.mark.parametrize(
    "name, mib",
    [
        ("counterexample-exp", 6), ("probe-x2", 6), ("unipotent-sin", 12),
        ("cantor4", 16), ("cantor3", 16),
    ],
)
def test_preset_peaks_stay_within_their_work_blocks(monkeypatch, tmp_path, name, mib):
    # every temporary (rows x columns) block is about 4 MiB at most: exp
    # chunks, digit-code products, 2^14-row tiling streams and 2^15-pair
    # probe blocks.  With 10-22 MB blocks these jobs peaked at 16.6, 22.2,
    # 22.8, 25.6 and 22.7 MiB under tracemalloc; the product gate runs afresh
    import tracemalloc

    from expsys import measures

    monkeypatch.setattr(measures, "_PRODUCT_GATE", {})
    tracemalloc.start()
    try:
        code = run([PRESETS[name]["command"], "--preset", name, "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert peak <= mib * 2**20
