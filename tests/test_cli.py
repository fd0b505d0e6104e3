import contextlib
import io
import json
import math

import numpy as np
import pytest

import qmaxent.cli as cli
from qmaxent.oracle import OracleResult

SPEC_KEYS = ["F_q", "S_q", "Z_q", "b_q", "c_q", "eigenvalues", "entangled",
             "lambda_1", "lambda_2", "lambda_max", "q", "sigma2_q", "weights"]


class TestInfer:
    def test_json_payload(self, capsys):
        code = cli.run(["infer", "--q", "2", "--b", "1.4142136", "--sigma2", "6", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == SPEC_KEYS
        assert abs(payload["lambda_max"] - 0.427050984) < 1e-6
        assert payload["entangled"] is False
        assert set(payload["eigenvalues"]) == {"phi_plus", "phi_minus", "psi_plus", "psi_minus"}
        assert set(payload["weights"]) == {"w_plus", "w_minus", "w_zero"}

    def test_gibbs_limit_branch_serializes(self, capsys):
        code = cli.run(["infer", "--q", "1", "--b", "1", "--sigma2", "6", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c_q"] == 1
        assert payload["lambda_1"] is not None

    def test_boundary_point_nulls_thermo_fields(self, capsys):
        code = cli.run(["infer", "--q", "2", "--b", "0", "--sigma2", "8", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["F_q"] is None
        assert payload["lambda_1"] is None
        assert payload["lambda_2"] is None

    def test_pure_corner_entropy_is_positive_zero(self, capsys):
        assert cli.run(["infer", "--q", "2", "--b", "2.8284271247461903", "--sigma2", "8"]) == 0
        assert "S_q = 0\n" in capsys.readouterr().out

    def test_domain_error_names_the_inequality(self, capsys):
        code = cli.run(["infer", "--q", "2", "--b", "1.4142136", "--sigma2", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert "uncertainty" in err
        assert capsys.readouterr().out == ""

    def test_tiny_q_and_negative_b_dust_run(self, capsys):
        # both once exited 1: e = (1-q)/q turned the rounding of ln w + ln Z_q, or the
        # unclamped b_q < 0, into an OverflowError in the multipliers
        for flags in (["--q", "4.0791560137447976e-20", "--b", "1.006362305139997",
                       "--sigma2", "4.687347012544155"],
                      ["--q", "1e-15", "--b=-1e-12", "--sigma2", "5"]):
            assert cli.run(["infer", *flags]) == 0
            assert "nan" not in capsys.readouterr().out

    def test_subnormal_q_is_domain_error(self, capsys):
        assert cli.run(["infer", "--q", "1e-310", "--b", "1", "--sigma2", "5"]) == 3
        assert "not a normal float" in capsys.readouterr().err

    def test_plain_output(self, capsys):
        assert cli.run(["infer", "--q", "2", "--b", "1", "--sigma2", "6"]) == 0
        out = capsys.readouterr().out
        assert "lambda_max = " in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        code = cli.run(["infer", "--q", "2", "--b", "1", "--sigma2", "6",
                        "--json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["q"] == 2
        assert capsys.readouterr().out == ""


BASELINE = ["--q", "2", "--b", "1.4142136", "--sigma2", "6"]


class TestGoldenOutput:
    """Byte-exact stdout at the baseline point."""

    def test_infer_plain(self, capsys):
        assert cli.run(["infer", *BASELINE]) == 0
        assert capsys.readouterr().out == (
            "F_q = -0.862232585\nS_q = 0.708203931\nZ_q = 3.42705096\nb_q = 1.4142136\n"
            "c_q = 0.291796069\neigenvalues.phi_minus = 0.190983006\n"
            "eigenvalues.phi_plus = 0.427050987\neigenvalues.psi_minus = 0.190983001\n"
            "eigenvalues.psi_plus = 0.190983006\nentangled = false\n"
            "lambda_1 = -0.0435658845\nlambda_2 = -0.0154028647\nlambda_max = 0.427050987\n"
            "q = 2\nsigma2_q = 6\nweights.w_minus = 0.124999993\n"
            "weights.w_plus = 0.625000007\nweights.w_zero = 0.125\n")

    def test_infer_json(self, capsys):
        assert cli.run(["infer", *BASELINE, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "F_q": -0.862232585,\n  "S_q": 0.708203931,\n  "Z_q": 3.42705096,\n'
            '  "b_q": 1.4142136,\n  "c_q": 0.291796069,\n  "eigenvalues": {\n'
            '    "phi_minus": 0.190983006,\n    "phi_plus": 0.427050987,\n'
            '    "psi_minus": 0.190983001,\n    "psi_plus": 0.190983006\n  },\n'
            '  "entangled": false,\n  "lambda_1": -0.0435658845,\n'
            '  "lambda_2": -0.0154028647,\n  "lambda_max": 0.427050987,\n  "q": 2,\n'
            '  "sigma2_q": 6,\n  "weights": {\n    "w_minus": 0.124999993,\n'
            '    "w_plus": 0.625000007,\n    "w_zero": 0.125\n  }\n}\n')

    def test_mutual_plain(self, capsys):
        assert cli.run(["mutual", *BASELINE, "--qprime", "2"]) == 0
        assert capsys.readouterr().out == (
            "K_qprime = 0.167184277\nb_q = 1.4142136\nclosed_form = 0.167184277\n"
            "q = 2\nqprime = 2\nsigma2_q = 6\n")

    def test_thermo_plain(self, capsys):
        assert cli.run(["thermo", *BASELINE]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["dS_db_fd = -0.0435658845", "dS_dsigma2_fd = -0.0154028647",
                             "lambda_1 = -0.0435658845", "lambda_2 = -0.0154028647"]
        # finite-difference rounding error: bounded, not pinned
        tail = dict(line.split(" = ") for line in lines[4:])
        assert list(tail) == ["path_residual", "rel_err_1", "rel_err_2"]
        assert all(0.0 <= float(v) < 1e-8 for v in tail.values())

    def test_thermo_json(self, capsys):
        assert cli.run(["thermo", *BASELINE, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            '{\n  "dS_db_fd": -0.0435658845,\n  "dS_dsigma2_fd": -0.0154028647,\n'
            '  "lambda_1": -0.0435658845,\n  "lambda_2": -0.0154028647,\n')
        payload = json.loads(out)
        assert list(payload)[4:] == ["path_residual", "rel_err_1", "rel_err_2"]
        assert all(0.0 <= payload[k] < 1e-8 for k in list(payload)[4:])

    def test_formatters_reject_lists(self):
        for formatter in (cli.to_json, cli.to_plain):
            with pytest.raises(TypeError):
                formatter({"values": [1.0, 2.0]})


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        assert cli.run(["infer", "--q", "2", "--b", "1"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["plot"]) == 2

    def test_bad_grid(self, capsys):
        assert cli.run(["scan", "--q", "2", "--grid", "1"]) == 2

    def test_bad_fd_step(self, capsys):
        assert cli.run(["thermo", "--q", "2", "--b", "1", "--sigma2", "6",
                        "--fd-step", "0.1"]) == 2

    def test_bad_budget(self, capsys):
        assert cli.run(["verify", "--q", "2", "--b", "1", "--sigma2", "6",
                        "--oracle", "general", "--budget", "10"]) == 2


class TestScan:
    def test_row_count_and_header(self, tmp_path):
        target = tmp_path / "region.csv"
        code = cli.run(["scan", "--q", "5", "--grid", "16", "--out", str(target)])
        assert code == 0
        lines = target.read_text().split("\n")
        assert lines[0] == "b_q,sigma2_q,feasible,lambda_max,entangled"
        assert len(lines) == 1 + 16 * 16 + 1  # header + rows + trailing newline
        assert lines[-1] == ""

    def test_infeasible_rows_are_nan(self, tmp_path):
        target = tmp_path / "region.csv"
        cli.run(["scan", "--q", "2", "--grid", "8", "--out", str(target)])
        rows = target.read_text().strip().split("\n")[1:]
        infeasible = [r for r in rows if r.split(",")[2] == "0"]
        assert infeasible
        assert all(r.split(",")[3] == "nan" and r.split(",")[4] == "0" for r in infeasible)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        """Repeated scans write the same bytes."""
        outputs = []
        for k in range(2):
            target = tmp_path / f"region_{k}.csv"
            cli.run(["scan", "--q", "0.5", "--grid", "20", "--out", str(target)])
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "never.csv"
        code = cli.run(["scan", "--q", "2", "--grid", "8", "--threads", "2", "--out", str(target)])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not target.exists()

    def test_no_partial_output_on_error(self, tmp_path, capsys):
        target = tmp_path / "never.csv"
        code = cli.run(["scan", "--q", "-1", "--grid", "8", "--out", str(target)])
        assert code == 3
        assert not target.exists()

    def test_stdout_carries_the_bytes_of_the_out_file(self, tmp_path, capsysbinary):
        target = tmp_path / "region.csv"
        assert cli.run(["scan", "--q", "0.5", "--grid", "50", "--out", str(target)]) == 0
        assert cli.run(["scan", "--q", "0.5", "--grid", "50"]) == 0
        assert capsysbinary.readouterr().out == target.read_bytes()

    def test_stdout_may_be_a_text_stream(self, tmp_path):
        target = tmp_path / "region.csv"
        assert cli.run(["scan", "--q", "0.5", "--grid", "50", "--out", str(target)]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.run(["scan", "--q", "0.5", "--grid", "50"]) == 0
        assert out.getvalue().encode() == target.read_bytes()


class TestSmallQ:
    """At q = 1e-3 every unshifted root w**(1/q) underflows to zero."""

    def test_infer_and_mutual(self, capsys):
        for command in ("infer", "mutual"):
            assert cli.run([command, "--q", "1e-3", "--b", "0", "--sigma2", "4", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))

    def test_scan_lambda_max_finite(self, tmp_path):
        target = tmp_path / "region.csv"
        assert cli.run(["scan", "--q", "1e-3", "--grid", "30", "--out", str(target)]) == 0
        rows = [r.split(",") for r in target.read_text().strip().split("\n")[1:]]
        feasible = [r for r in rows if r[2] == "1"]
        assert len(feasible) == 30 * 31 // 2
        assert all(math.isfinite(float(r[3])) for r in feasible)


class TestMutual:
    def test_qprime_defaults_to_q(self, capsys):
        assert cli.run(["mutual", "--q", "2", "--b", "1.4142136", "--sigma2", "6",
                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qprime"] == 2
        assert abs(payload["K_qprime"] - 0.167184277) < 1e-6
        assert abs(payload["K_qprime"] - payload["closed_form"]) < 1e-8

    def test_large_divergence_order(self, capsys):
        assert cli.run(["mutual", "--q", "2", "--b", "1", "--sigma2", "5", "--qprime", "600",
                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("K_qprime", "closed_form"):
            assert abs(payload[key] - 7.2516544e92) <= 1e-7 * 7.2516544e92

    def test_divergence_beyond_the_float_range_is_domain_error(self, capsys):
        code = cli.run(["mutual", "--q", "2", "--b", "2.8", "--sigma2", "7.99", "--qprime", "600"])
        assert code == 3
        assert "float range" in capsys.readouterr().err

    def test_explicit_qprime(self, capsys):
        assert cli.run(["mutual", "--q", "2", "--b", "1.4142136", "--sigma2", "6",
                        "--qprime", "0.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["qprime"] == 0.5

    def test_needs_no_multipliers_at_tiny_q(self, capsys):
        # mutual needs only the state, not the multipliers that overflow at this q
        assert cli.run(["mutual", "--q", "4.0791560137447976e-20", "--b", "1.006362305139997",
                        "--sigma2", "4.687347012544155", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["K_qprime"] == 0.75


class TestThermo:
    def test_report_fields(self, capsys):
        assert cli.run(["thermo", "--q", "2", "--b", "1.4142136", "--sigma2", "6",
                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["dS_db_fd", "dS_dsigma2_fd", "lambda_1", "lambda_2",
                                 "path_residual", "rel_err_1", "rel_err_2"]
        assert payload["rel_err_1"] < 1e-5
        assert payload["rel_err_2"] < 1e-5
        assert payload["path_residual"] < 1e-6

    def test_boundary_point_is_domain_error(self, capsys):
        assert cli.run(["thermo", "--q", "2", "--b", "0", "--sigma2", "6"]) == 3

    def test_legendre_bounds_hold_next_to_q_one(self, capsys):
        # acceptance c08's bounds, at a q the former Gibbs branch left at 8e-5
        assert cli.run(["thermo", "--q", "1.0000011", "--b", "1", "--sigma2", "5",
                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rel_err_1"] < 1e-5
        assert payload["rel_err_2"] < 1e-5
        assert payload["path_residual"] < 1e-6


class TestVerify:
    def test_split_oracle_passes(self, capsys):
        assert cli.run(["verify", "--q", "2", "--b", "1.4142136", "--sigma2", "6",
                        "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"] == "split"
        assert payload["passed"] is True
        assert payload["max_eigenvalue_diff"] < 1e-7

    def test_split_oracle_passes_near_q_one_and_at_large_q(self, capsys):
        # each exited 4 with a spectrum mismatch of 1.2e-7 to 2.6e-7
        for q, b, s2 in (("1.0001", "1", "5"), ("0.999", "1.5", "6"), ("9.5", "0.99", "4.63")):
            assert cli.run(["verify", "--q", q, "--b", b, "--sigma2", s2, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["max_eigenvalue_diff"] < 1e-8

    @pytest.mark.filterwarnings("error")
    def test_split_residual_finite_at_very_large_q(self, capsys):
        # lam**q underflowed to an all-zero norm here and printed nan
        for q, b, s2 in (("1000", "1", "5"), ("1e5", "0.5", "3")):
            assert cli.run(["verify", "--q", q, "--b", b, "--sigma2", s2, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["constraint_residual"] < 1e-10

    def test_general_oracle_passes(self, capsys):
        assert cli.run(["verify", "--q", "0.5", "--b", "1", "--sigma2", "6",
                        "--oracle", "general", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["entropy_excess"] <= 1e-6
        assert "falsifier" in payload["note"]

    def test_general_oracle_at_large_q(self, capsys):
        # sum(lambda**q) underflowed while lambda**(1-q) overflowed in the gradient
        assert cli.run(["verify", "--oracle", "general", "--q", "1000", "--b", "1",
                        "--sigma2", "5"]) == 0
        assert "passed = true\n" in capsys.readouterr().out

    @pytest.mark.xfail(strict=True, reason="golden-section noise in the flat optimum grows as "
                       "t**(1/q) at tiny q: spectrum mismatch 1.12e-7 against the 1e-7 bound")
    def test_split_oracle_passes_at_tiny_q_on_the_edge(self):
        assert cli.run(["verify", "--q", "0.0040251185622748546", "--b", "0.547378247400302",
                        "--sigma2", "1.548219482443045"]) == 0

    @pytest.mark.xfail(strict=True, reason="a constraint residual r becomes an eigenvalue of "
                       "order r**(1/q) at the pure corner: entropy excess 1.39e-4 at q = 3")
    def test_general_oracle_passes_at_the_pure_corner(self):
        assert cli.run(["verify", "--q", "3", "--b", "2.8284271247461903", "--sigma2", "8",
                        "--oracle", "general"]) == 0

    def test_forced_failure_exits_4(self, capsys, monkeypatch):
        bogus = OracleResult(eigenvalues=np.array([0.7, 0.1, 0.1, 0.1]),
                             achieved_entropy=0.9, constraint_residual=0.0,
                             iterations=1, t_split=0.0)
        monkeypatch.setattr(cli, "maxent_split_oracle", lambda c, **kw: bogus)
        code = cli.run(["verify", "--q", "2", "--b", "1.4142136", "--sigma2", "6"])
        assert code == 4
        assert "verify failed" in capsys.readouterr().err

    def test_budget_exhaustion_exits_4(self, capsys, monkeypatch):
        from qmaxent.errors import BudgetExhausted

        def explode(c, **kw):
            raise BudgetExhausted("residual 0.5 above 1e-06 after 6000 evaluations")

        monkeypatch.setattr(cli, "maxent_general_oracle", explode)
        code = cli.run(["verify", "--q", "2", "--b", "1", "--sigma2", "6",
                        "--oracle", "general"])
        assert code == 4


class TestDeterminism:
    def test_repeated_invocations_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            cli.run(["infer", "--q", "0.7", "--b", "0.9", "--sigma2", "5.5", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
