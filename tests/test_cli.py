"""Command-line behavior: outputs, determinism, exit codes, fault injection."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from vmfhead import attention as att
from vmfhead import cli
from vmfhead import kernel as ker
from vmfhead import prefix as pfx
from vmfhead import sphere as sph
from vmfhead import verify as vfy


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApproximate:
    def test_constant_target_zero_error(self, capsys):
        code, out, _ = run_cli(
            capsys, ["approximate", "--target", "constant", "--m", "2", "--lam", "8", "--n", "32", "--samples", "128", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_error"] <= 1e-13

    def test_identity_matches_fixture(self, capsys, fixtures):
        fx = fixtures["split_head_identity_m2"]
        code, out, _ = run_cli(
            capsys,
            [
                "approximate",
                "--target",
                "identity",
                "--m",
                "2",
                "--lam",
                "32",
                "--n",
                "4096",
                "--samples",
                str(fx["samples"]),
                "--seed",
                "99",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        ref = fx["sup_errors"]["lam32_n4096"]
        # different sampling seed than the fixture run: 10% headroom
        assert abs(payload["sup_error"] - ref) <= 0.10 * ref

    def test_missing_target_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["approximate"])
        assert code == 2
        assert "target" in err

    def test_config_file_and_artifact(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "identity", "m": 2, "lam": 8.0, "n": 64, "samples": 64, "seed": 5}))
        artifact = tmp_path / "prefix.json"
        csv_out = tmp_path / "runs.csv"
        code, out, _ = run_cli(
            capsys,
            ["approximate", "--config", str(cfg), "--out-prefix", str(artifact), "--out-csv", str(csv_out)],
        )
        assert code == 0
        assert artifact.exists() and csv_out.exists()
        header = csv_out.read_text().splitlines()[0]
        assert header.split(",")[:4] == ["name", "m", "lambda", "N"]

    def test_csv_rows_match_json(self, capsys, tmp_path):
        """A second run appends its row without a header; each row holds the
        run's JSON payload, field for field."""
        csv_out = tmp_path / "runs.csv"
        payloads = []
        for seed in ("1", "2"):
            argv = ["approximate", "--target", "identity", "--m", "2", "--lam", "8", "--n", "32", "--samples", "32"]
            code, out, _ = run_cli(capsys, argv + ["--seed", seed, "--out-csv", str(csv_out)])
            assert code == 0
            payloads.append(json.loads(out))
        lines = csv_out.read_text().splitlines()
        assert lines[0].split(",") == pfx.REPORT_COLUMNS == list(payloads[0])
        assert [line.split(",") for line in lines[1:]] == [[str(v) for v in p.values()] for p in payloads]

    def test_config_and_flags_agree(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "identity", "m": 2, "lam": 8, "n": 64, "samples": 64, "seed": 5}))
        flags = ["--target", "identity", "--m", "2", "--lam", "8", "--n", "64", "--samples", "64", "--seed", "5"]
        outs = [json.loads(run_cli(capsys, ["approximate"] + argv)[1]) for argv in (["--config", str(cfg)], flags)]
        for out in outs:
            del out["wall_time_ms"]
        assert outs[0] == outs[1]


class TestSweep:
    def test_row_count_and_sorting(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--target", "identity", "--m", "2", "--lambdas", "32,8", "--ns", "256,64,1024", "--samples", "128", "--seed", "3"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",") == pfx.REPORT_COLUMNS[:-1]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        key = [(float(r[2]), int(r[3])) for r in rows]
        assert key == sorted(key)

    def test_sup_error_non_increasing_in_n(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--target", "identity", "--m", "2", "--lambdas", "8,32", "--ns", "64,256,1024", "--samples", "512", "--seed", "4"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        by_lam = {}
        for r in rows:
            by_lam.setdefault(float(r[2]), []).append(float(r[4]))
        for lam, sups in by_lam.items():
            assert all(a >= b for a, b in zip(sups, sups[1:])), (lam, sups)

    def test_byte_identical_given_seed(self, capsys):
        argv = ["sweep", "--target", "identity", "--m", "2", "--lambdas", "8", "--ns", "64", "--samples", "128", "--seed", "3"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_out_writes_the_table(self, capsys, tmp_path):
        """--out writes to its file the table the run prints without it."""
        argv = ["sweep", "--target", "identity", "--m", "2", "--lambdas", "8", "--ns", "64,128", "--samples", "64"]
        path = tmp_path / "sweep.csv"
        assert run_cli(capsys, argv + ["--out", str(path)])[:2] == (0, "")
        assert path.read_text() == run_cli(capsys, argv)[1]


class TestSettingsContract:
    """Config and flag values reach the library's scalar checks unconverted:
    a float size, a bool, a numeric string or a float seed is refused by
    name with exit 2, not truncated into a run."""

    VALID = {"target": "identity", "m": 2, "lam": 8, "n": 64, "samples": 64, "seed": 1}

    def run_config(self, capsys, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(capsys, [command, "--config", str(path)])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("m", 2.7, "m must be an integer >= 1, got 2.7"),
            ("n", 64.9, "N must be an integer >= 1, got 64.9"),
            ("samples", True, "n_samples must be an integer >= 1, got True"),
            ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
            ("lam", "8", "lam must be finite and > 0, got '8'"),
            ("target", ["identity"], f"unknown target ['identity']; known: {', '.join(pfx.target_names())}"),
        ],
    )
    def test_approximate_config_refused(self, capsys, tmp_path, key, value, message):
        code, out, err = self.run_config(capsys, tmp_path, "approximate", {**self.VALID, key: value})
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ns", [64, 64.5], "ns must be an integer >= 1, got 64.5"),
            ("lambdas", [True], "lambdas must be finite and > 0, got True"),
            ("ns", 64, "ns must be a list, got 64"),
            ("lambdas", "8", "lambdas must be a list, got '8'"),
            ("target", ["identity"], f"unknown target ['identity']; known: {', '.join(pfx.target_names())}"),
        ],
    )
    def test_sweep_config_refused(self, capsys, tmp_path, key, value, message):
        cfg = {"target": "identity", "ns": [64], "lambdas": [8], "samples": 64, key: value}
        code, out, err = self.run_config(capsys, tmp_path, "sweep", cfg)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_config_not_an_object_refused(self, capsys, tmp_path):
        code, out, err = self.run_config(capsys, tmp_path, "approximate", [self.VALID])
        assert (code, out) == (2, "")
        assert err == "error: config file must hold a JSON object\n"

    def test_export_prefix_config_refused(self, capsys, tmp_path):
        path = tmp_path / "artifact.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2.0}))
        code, _, err = run_cli(capsys, ["export-prefix", str(path), "--config", str(cfg)])
        assert code == 2 and not path.exists()
        assert err == "error: m must be an integer >= 1, got 2.0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["approximate", "--target", "identity", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["seq2seq-demo", "--count", "-1"], "count must be an integer >= 0, got -1"),
            (["seq2seq-demo", "--f", "nope"], "unknown sequence function 'nope'"),
        ],
    )
    def test_flag_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestBounds:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--m", "8", "--eps", "0.5,0.2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,lambda,log10_N"
        assert len(lines) == 3
        lam_05 = float(lines[1].split(",")[1])
        lam_02 = float(lines[2].split(",")[1])
        assert lam_02 > lam_05

    def test_strict_dimension_error(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--m", "4", "--eps", "0.5"])
        assert code == 2
        assert "m >= 8" in err

    @pytest.mark.parametrize("flag, field", [("--c-h", "C_H"), ("--lipschitz", "L")])
    def test_infinite_constant_refused(self, capsys, flag, field):
        """An infinite smoothness constant is refused by name, not carried
        into an infinite or NaN row."""
        code, out, err = run_cli(capsys, ["bounds", flag, "inf", "--eps", "0.5"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field} must be finite and > 0")


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "bounds", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_failed"] == 0

    def test_mutation_detected(self, capsys, monkeypatch):
        """A sign error injected into the eigenvalue path must fail the
        kernel suite (harness sanity check)."""
        original = ker.kernel_eigenvalue
        monkeypatch.setattr(ker, "kernel_eigenvalue", lambda m, k, lam: -original(m, k, lam))
        code, out, _ = run_cli(capsys, ["verify", "--suite", "kernel", "--json"])
        assert code == 4
        payload = json.loads(out)
        assert payload["n_failed"] >= 1

    @staticmethod
    def failed_checks(capsys, suite):
        code, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--json"])
        assert code == 4
        return {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}

    def test_split_head_concentration_fault_detected(self, capsys, monkeypatch):
        """A split head evaluated at 0.95 lambda reads about 5e-3 against the
        exact convolution, above its 1e-3 tolerance."""
        original = att.split_head_batch
        monkeypatch.setattr(
            att, "split_head_batch", lambda cp, points: original(dataclasses.replace(cp, lam=0.95 * cp.lam), points)
        )
        assert "convolution consistency" in self.failed_checks(capsys, "prefix")

    def test_convolution_kernel_fault_detected(self, capsys, monkeypatch):
        """convolve_vmf convolving with the kernel at 2 lambda or at 1.1
        lambda fails the Monte-Carlo eigenfunction check, the one verify
        check that still calls it (1.1 lambda reads 6.84 sigma against its
        4 sigma bound)."""
        original = ker.convolve_vmf
        for scale in (2.0, 1.1):
            monkeypatch.setattr(
                ker,
                "convolve_vmf",
                lambda f, kern, x, n, seed: original(f, ker.VmfKernel(kern.m, scale * kern.lam), x, n, seed),
            )
            assert "harmonic eigenfunction property (MC)" in self.failed_checks(capsys, "kernel"), scale

    def test_change_of_variables_surface_fault_detected(self, capsys, monkeypatch):
        """w_2 off by 1e-4 moves the 1-D reduction on S^3 100 times past the
        check's 1e-6 tolerance against the product rule."""
        original = sph.surface_area
        monkeypatch.setattr(sph, "surface_area", lambda m: original(m) * (1 + 1e-4 * (m == 2)))
        assert "change-of-variables identity" in self.failed_checks(capsys, "kernel")

    def test_eigenvalue_sandwich_reports_positive_margin(self, capsys):
        """The margin is taken over k >= 1; at k = 0 a_0 and its lower bound
        are both exactly 1.  It is relative to a_k, so the smallest a_k
        (about 5e-14 at m = 12, k = 10, lam = 1) does not set it: it is the
        tightest (a_k - lower) / a_k over the check's grid."""
        code, out, _ = run_cli(capsys, ["verify", "--suite", "kernel", "--json"])
        assert code == 0
        (detail,) = [c["detail"] for c in json.loads(out)["checks"] if c["name"] == "eigenvalue sandwich and monotonicity"]
        label, figure = detail.rsplit("=", 1)
        assert label == "min over k >= 1 of (a_k - lower) / a_k "
        margins = []
        for m in (8, 12):
            for lam in (1.0, 10.0, 100.0):
                for k in range(1, 11):
                    a, v = ker.kernel_eigenvalue(m, k, lam), (m - 1) / 2.0 + k
                    margins.append(1.0 - (lam / (v + math.hypot(lam, v))) ** k / a)
        assert float(figure) > 0.0
        assert abs(float(figure) - min(margins)) <= 1e-3 * min(margins)

    def test_text_summary(self, capsys):
        """Without --json, one "[PASS] suite: name -- detail" line per check
        in run order, then the count line with the time to two decimals."""
        code, out, _ = run_cli(capsys, ["verify", "--suite", "bounds"])
        assert code == 0
        *checks, last = out.rstrip("\n").split("\n")
        names = [c["name"] for c in vfy.run_suite("bounds")["checks"]]
        assert [line.split(" -- ")[0] for line in checks] == [f"[PASS] bounds: {name}" for name in names]
        assert all(line.split(" -- ")[1] for line in checks)
        assert re.fullmatch(rf"{len(names)}/{len(names)} checks passed in \d+\.\d\d s", last)

    def test_unknown_suite_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestSeq2SeqDemo:
    def test_trace_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["seq2seq-demo", "--t", "2", "--m", "1", "--digits", "4", "--count", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sample,stage,position,values"
        stages = {line.split(",")[1] for line in lines[1:]}
        assert {"input", "digit-encoded", "aggregate-ternary", "aggregate-value", "output", "reference"} <= stages
        for line in lines[1:]:
            for value in line.split(",")[3].split():
                float(value)

    def test_full_mode_sizes_default_to_the_library(self, capsys):
        """Without --n and --lam, full mode builds at build_seq2seq_transformer's
        own sizes for its shape: at (2, 0, 2), qD = 4 ternary digits,
        lam = 50 9^4 = 328050 and N = 4096."""
        argv = ["seq2seq-demo", "--t", "2", "--m", "0", "--digits", "2", "--mode", "full", "--count", "2"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert (0, out) == run_cli(capsys, argv + ["--n", "4096", "--lam", "328050"])[:2]

    def test_full_mode_meets_the_reference(self, capsys):
        """At the derived sizes each full-mode output row is within 1e-2 of
        its reference row; at the former fixed N = 4096 and lam = 2e5, a
        (2, 0, 3) stack missed on most inputs."""
        argv = ["seq2seq-demo", "--t", "2", "--m", "0", "--digits", "3", "--mode", "full", "--count", "3"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = {}
        for line in out.strip().split("\n")[1:]:
            sample, stage, position, values = line.split(",")
            rows[sample, stage, position] = np.array(values.split(), dtype=float)
        outputs = [key for key in rows if key[1] == "output"]
        assert len(outputs) == 3 * 2
        for sample, _, position in outputs:
            reference = rows[sample, "reference", position]
            assert np.abs(rows[sample, "output", position] - reference).max() <= 1e-2


class TestArtifactCommands:
    def test_export_import_round_trip(self, capsys, tmp_path):
        path = tmp_path / "artifact.json"
        code, out, _ = run_cli(
            capsys, ["export-prefix", str(path), "--target", "identity", "--m", "2", "--lam", "16", "--n", "64"]
        )
        assert code == 0
        before = path.read_text()
        code, out, _ = run_cli(capsys, ["import-prefix", str(path)])
        assert code == 0
        meta = json.loads(out)
        assert meta["d"] == 9 and meta["tokens"] == 64
        # re-export through the library must be bit-identical
        prefix, params, m, lam = att.import_prefix_artifact(before)
        assert att.export_prefix_artifact(prefix, params, m, lam) == before

    def test_import_reproduces_error_estimate(self, capsys, tmp_path):
        path = tmp_path / "artifact.json"
        run_cli(capsys, ["export-prefix", str(path), "--target", "identity", "--m", "2", "--lam", "16", "--n", "64", "--augmented"])
        argv = ["import-prefix", str(path), "--eval-target", "identity", "--samples", "256", "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert json.loads(out1)["sup_error"] == json.loads(out2)["sup_error"]

    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    @pytest.mark.parametrize("lam, n", [(16.0, 64), (2000.0, 16384)], ids=["wide", "pruned"])
    def test_eval_target_equals_token_form(self, capsys, tmp_path, augmented, lam, n):
        """import-prefix evaluates the universal head's certified form; its
        errors agree with the dense token form, each sample point its own
        one-input classical_head call projected to its first block."""
        path = tmp_path / "artifact.json"
        argv = ["export-prefix", str(path), "--target", "identity", "--m", "2", "--lam", str(lam), "--n", str(n)]
        assert run_cli(capsys, argv + ["--augmented"] * augmented)[0] == 0
        code, out, _ = run_cli(capsys, ["import-prefix", str(path), "--eval-target", "identity", "--samples", "128", "--seed", "5"])
        assert code == 0
        payload = json.loads(out)

        prefix, params, m, _ = att.import_prefix_artifact(path.read_text())
        assert (att.universal_control_points(prefix, params, m, lam)._blocks is not None) == (lam > 16.0)

        def token_form(pts):
            return np.stack(
                [att.project(att.classical_head([att.lift(x, augmented)], prefix, params)[0], m + 1) for x in pts]
            )

        sup, mean = pfx.sup_error_estimate(pfx.make_target("identity", m), token_form, 128, cli._stage_seed(5, 1))
        assert abs(payload["sup_error"] - sup) <= 1e-12
        assert abs(payload["mean_error"] - mean) <= 1e-12

    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    def test_eval_target_equals_approximate_report(self, capsys, tmp_path, augmented):
        path = tmp_path / "artifact.json"
        settings = ["--samples", "256", "--seed", "11"]
        argv = ["approximate", "--target", "bump", "--m", "2", "--lam", "16", "--n", "256", "--out-prefix", str(path)]
        code, out, _ = run_cli(capsys, argv + settings + ["--augmented"] * augmented)
        assert code == 0
        report = json.loads(out)
        code, out, _ = run_cli(capsys, ["import-prefix", str(path), "--eval-target", "bump"] + settings)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["sup_error"] - report["sup_error"]) <= 1e-12
        assert abs(payload["mean_error"] - report["mean_error"]) <= 1e-12

    @pytest.mark.parametrize(
        "augmented, matrix, row, col, entry",
        [
            (False, "H", 0, 3, "1.0000000000000002"),
            (True, "H", 5, 0, "-0.5"),
            (False, "W_V", 2, 8, "0.0"),
            (False, "tokens", 3, 0, "1e-300"),
            (True, "tokens", 0, 9, "0.25"),
        ],
        ids=["H coupling entry", "H zero entry", "W_V routing entry", "query block", "augmented last slot"],
    )
    def test_eval_target_refuses_non_universal_artifact(self, capsys, tmp_path, augmented, matrix, row, col, entry):
        path = tmp_path / "artifact.json"
        argv = ["export-prefix", str(path), "--target", "identity", "--m", "2", "--lam", "8", "--n", "32"]
        assert run_cli(capsys, argv + ["--augmented"] * augmented)[0] == 0
        payload = json.loads(path.read_text())
        assert payload[matrix][row][col] != entry
        payload[matrix][row][col] = entry
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, ["import-prefix", str(path), "--eval-target", "identity", "--samples", "16"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        # only the evaluation needs the universal form
        assert run_cli(capsys, ["import-prefix", str(path)])[0] == 0

    def test_schema_mismatch_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other"}))
        code, _, err = run_cli(capsys, ["import-prefix", str(path)])
        assert code == 2
        assert "schema" in err


    @pytest.mark.parametrize(
        "edit",
        [lambda p: {k: v for k, v in p.items() if k != "tokens"}, lambda p: [p], lambda p: {**p, "d": "x"}],
        ids=["missing key", "JSON array", "d not a number"],
    )
    def test_malformed_artifact_exit_code(self, capsys, tmp_path, edit):
        path = tmp_path / "artifact.json"
        run_cli(capsys, ["export-prefix", str(path), "--target", "identity", "--m", "2", "--lam", "4", "--n", "8"])
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, _, err = run_cli(capsys, ["import-prefix", str(path)])
        assert code == 2
        assert err.startswith("error: ")


class TestExitCodes:
    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        from vmfhead.errors import NumericalFailure

        def fail(args):
            raise NumericalFailure("did not converge")

        monkeypatch.setattr(cli, "_cmd_bounds", fail)
        code, _, err = run_cli(capsys, ["bounds"])
        assert code == 3
        assert "did not converge" in err

    def test_usage_errors_exit_2(self, capsys, monkeypatch):
        from vmfhead import errors

        for exc in (errors.DomainError, errors.DegenerateInput, errors.DimensionMismatch, errors.EncodingError,
                    errors.PrecisionBudgetExceeded, errors.InstanceTooLarge, ValueError):
            def fail(args, exc=exc):
                raise exc("bad input")

            monkeypatch.setattr(cli, "_cmd_bounds", fail)
            assert run_cli(capsys, ["bounds"])[0] == 2

    def test_closed_stdout_exits_1_quietly(self, capsys, monkeypatch):
        """A reader that closes stdout early (`| head`) ends the command with
        status 1 and no error line, not as a config error."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = cli.main(["seq2seq-demo", "--t", "2", "--m", "0", "--digits", "2", "--count", "3"])
        monkeypatch.undo()
        assert code == 1
        assert capsys.readouterr().err == ""
