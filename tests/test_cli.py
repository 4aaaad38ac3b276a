"""Command-line interface: exit codes, CSV schema, report files."""

import argparse
import csv
import json

import numpy as np
import pytest

from conftest import random_mare
from dadda import cli, solver
from dadda.benchgen import gen_fluid, gen_transport
from dadda.cli import main
from dadda.problem import make_shifts, problem_to_json, save_problem

CSV_FIELDS = ["method", "m", "n", "erres", "ererr", "rank_h", "frob_h", "iters", "seconds"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_problem(tmp_path, prob, name="prob.json"):
    path = tmp_path / name
    save_problem(prob, str(path))
    return str(path)


class TestSolve:
    def test_converged_exit_zero(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(80))
        out = tmp_path / "report.json"
        csv_path = tmp_path / "h.csv"
        code = main([
            "solve", "--input", path, "--out", str(out), "--csv", str(csv_path),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["termination"] == "converged"
        assert report["criterion"] == "erres"
        assert report["erres_final"] <= report["tolerance"]
        assert report["records"][0]["k"] == 0
        assert all("lower_bound" in r for r in report["records"])
        assert report["records"][-1]["lower_bound"] is False
        assert report["records"][-1]["value"] == report["erres_final"]
        h = np.loadtxt(csv_path, delimiter=",")
        prob = random_mare(80)
        assert h.shape == (prob.m, prob.n)
        assert np.all(h >= 0.0)

    def test_lower_bound_records_above_one_slab(self, tmp_path):
        # 400 x 100 entries exceed one slab, so early steps record the bound
        path = _write_problem(tmp_path, gen_fluid(400, 100)[0])
        out = tmp_path / "report.json"
        assert main(["solve", "--input", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        records = report["records"]
        assert records[0]["lower_bound"] is True
        assert all(r["value"] > report["tolerance"] for r in records if r["lower_bound"])
        assert records[-1]["lower_bound"] is False
        assert records[-1]["value"] == report["erres_final"]

    def test_report_to_stdout(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(81))
        code = main(["solve", "--input", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["termination"] == "converged"

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.json")])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_truncated_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        blob = json.dumps(problem_to_json(random_mare(82)))
        path.write_text(blob[: len(blob) // 2])
        code = main(["solve", "--input", str(path)])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_wrong_field_type_exit_one(self, tmp_path, capsys):
        for key, value in (("A", [1]), ("m", None)):
            obj = problem_to_json(random_mare(83))
            obj[key] = value
            path = tmp_path / "typed.json"
            path.write_text(json.dumps(obj))
            code = main(["solve", "--input", str(path)])
            assert code == 1
            assert "input error" in capsys.readouterr().err

    def test_non_integral_field_exit_one(self, tmp_path, capsys):
        for key, value in (("m", 3.7), ("p", True)):
            obj = problem_to_json(gen_fluid(3, 5)[0])
            obj[key] = value
            path = tmp_path / "fraction.json"
            path.write_text(json.dumps(obj))
            code = main(["solve", "--input", str(path)])
            assert code == 1
            assert "input error" in capsys.readouterr().err

    def test_invalid_problem_exit_one(self, tmp_path, capsys):
        obj = problem_to_json(random_mare(83))
        obj["u1"][0] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["solve", "--input", str(path)])
        assert code == 1
        assert "invalid problem" in capsys.readouterr().err

    def test_max_iterations_exit_two(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(84))
        code = main(["solve", "--input", path, "--max-iter", "0", "--tol", "1e-15"])
        assert code == 2

    def test_kernel_cap_exit_three(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(85, p=1, q=1))
        code = main([
            "solve", "--input", path, "--kernel-cap", "2", "--tol", "1e-20",
        ])
        assert code == 3

    def test_cap_below_rank_exit_one(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(86, p=2, q=2))
        code = main(["solve", "--input", path, "--kernel-cap", "1"])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_shift_exit_one(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(87))
        code = main(["solve", "--input", path, "--alpha", "1e9"])
        assert code == 1


class TestBench:
    def test_fluid_csv_schema(self, tmp_path):
        csv_path = tmp_path / "fluid.csv"
        code = main(["bench-fluid", "--m", "2", "--n", "18", "--csv", str(csv_path)])
        assert code == 0
        rows = _read_csv(str(csv_path))
        assert list(rows[0].keys()) == CSV_FIELDS
        assert [r["method"] for r in rows] == ["dadda", "adda_oracle"]
        lead = rows[0]
        assert (lead["m"], lead["n"]) == ("2", "18")
        assert lead["iters"] == "4"
        assert lead["rank_h"] == "1"
        assert float(lead["erres"]) <= 1e-14
        assert float(lead["ererr"]) <= 1e-10
        assert abs(float(lead["frob_h"]) - 1.0 / 3.0) <= 1e-6 / 3.0
        # both rows stop by the same rule, rchange included
        code = main([
            "bench-fluid", "--m", "2", "--n", "18", "--criterion", "rchange",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert [r["iters"] for r in _read_csv(str(csv_path))] == ["5", "5"]

    def test_oracle_row_respects_size_limit(self, tmp_path):
        csv_path = tmp_path / "big.csv"
        code = main(["bench-fluid", "--m", "150", "--n", "60", "--csv", str(csv_path)])
        assert code == 0
        rows = _read_csv(str(csv_path))
        assert [r["method"] for r in rows] == ["dadda"]

    def test_transport_csv(self, tmp_path):
        csv_path = tmp_path / "transport.csv"
        code = main([
            "bench-transport", "--n", "10", "--seed", "0", "--csv", str(csv_path),
        ])
        assert code == 0
        rows = _read_csv(str(csv_path))
        assert [r["method"] for r in rows] == ["dadda", "adda_oracle"]
        assert rows[0]["ererr"] == ""
        assert float(rows[0]["erres"]) <= 1e-13

    def test_golden_stability(self, tmp_path):
        # reruns must agree on every column except the timing
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["bench-fluid", "--m", "18", "--n", "2", "--csv", str(path)]) == 0
        rows_a, rows_b = _read_csv(str(a)), _read_csv(str(b))
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("seconds"), rb.pop("seconds")
            assert ra == rb

    def test_bad_size_exit_one(self, tmp_path, capsys):
        code = main(["bench-fluid", "--m", "0", "--n", "3"])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_report_option(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "t.csv"
        # the oracle has no kernel, so the kernel cap stops the dadda row only
        for cap, code_want, termination, iters in (
            ("4096", 0, "converged", ["11", "11"]),
            ("2", 3, "kernel_cap_exceeded", ["1", "11"]),
        ):
            code = main([
                "bench-transport", "--n", "6", "--seed", "1", "--out", str(out),
                "--csv", str(csv_path), "--kernel-cap", cap,
            ])
            assert code == code_want
            assert json.loads(out.read_text())["termination"] == termination
            assert [r["iters"] for r in _read_csv(str(csv_path))] == iters

    def test_report_names_the_switch(self, tmp_path):
        # m + n = 20 < 2^5: the transport solve hands off after k = 4 and
        # records min(m, n), the order of the one kernel each ADDA step
        # factors, from then on; the fluid solve converges at k = 4 first,
        # and under nres it runs to the iteration cap on triplet-form ADDA
        out = tmp_path / "rep.json"
        for argv, code_want, switched, order in (
            (["bench-transport", "--n", "10", "--seed", "0"], 0, 4, 10),
            (["bench-fluid", "--m", "2", "--n", "18"], 0, None, None),
            (["bench-fluid", "--m", "2", "--n", "18", "--criterion", "nres"], 2, 4, 2),
        ):
            assert main(argv + ["--out", str(out)]) == code_want
            report = json.loads(out.read_text())
            assert report["switched_at"] == switched
            orders = [r["kernel_order"] for r in report["records"]]
            assert orders[:5] == [1, 2, 4, 8, 16]
            assert set(orders[5:]) <= {order}

    def test_solver_refusal_exit_one(self, capsys):
        for argv in (
            ["bench-transport", "--n", "6", "--criterion", "ererr"],
            ["bench-fluid", "--m", "2", "--n", "18", "--kernel-cap", "0"],
        ):
            assert main(argv) == 1
            assert "input error" in capsys.readouterr().err


class TestSweep:
    def test_writes_both_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "sw")
        code = main([
            "sweep", "--n", "6", "--seed", "0", "--points", "5",
            "--csv", prefix, "--max-iter", "40",
        ])
        assert code == 0
        for name in ("alpha", "beta"):
            with open(f"{prefix}_{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [name, "iters", "erres"]
            assert len(rows) == 6
            # the grid ends on the admissible bound that make_shifts defaults to
            bound = getattr(make_shifts(gen_transport(6, 0)), name)
            assert rows[-1][0] == f"{bound:.16e}"
            for value, iters, res in rows[1:]:
                assert np.isfinite(float(value))
                assert int(iters) >= 0
                assert np.isfinite(float(res))

    def test_input_errors_exit_one(self, tmp_path, capsys):
        prefix = str(tmp_path / "sw")
        for extra in (["--criterion", "ererr"], ["--max-iter", "-1"], ["--points", "-1"]):
            code = main([
                "sweep", "--n", "6", "--points", "2", "--csv", prefix, *extra,
            ])
            assert code == 1
            assert "input error" in capsys.readouterr().err

    def test_shift_and_report_flags_rejected(self, tmp_path, capsys):
        # sweep sets both shifts itself and writes no JSON report
        prefix = str(tmp_path / "sw")
        for flag in ("--alpha", "--beta", "--out"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--n", "6", "--points", "2", "--csv", prefix,
                      flag, "0.001"])
            assert exc.value.code == 2


class TestVerify:
    def test_all_families_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main([
            "verify", "--family", "all", "--sizes", "2x18,18x2",
            "--n", "8", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["failures"] == []

    def test_fault_injection_detected(self, tmp_path, monkeypatch, capsys):
        # every H_k after a step reads back with H[0, 0] sign-flipped
        def flipped(state):
            solver.advance(state)
            h = state.H.copy()
            h[0, 0] = -h[0, 0]
            state._H = h
            return state

        monkeypatch.setattr(cli, "advance", flipped)
        code = main(["verify", "--family", "fluid", "--sizes", "2x18"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any("monotonicity" in f for f in payload["failures"])

    def test_bad_sizes_exit_one(self, capsys):
        code = main(["verify", "--family", "fluid", "--sizes", "2y18"])
        assert code == 1

    def test_input_errors_exit_one(self, capsys):
        for argv in (
            ["verify", "--family", "fluid", "--sizes", "2x3x4"],
            ["verify", "--family", "fluid", "--sizes", "0x5"],
            ["verify", "--family", "transport", "--n", "0"],
            ["verify", "--family", "gth", "--seed", "-1"],
        ):
            assert main(argv) == 1
            assert "input error" in capsys.readouterr().err

    def test_broken_invariant_is_a_failure(self, monkeypatch, capsys):
        # a negative factor block makes initialize/advance raise
        # NotMMatrixError; verify records it instead of crashing
        def planted(prob):
            state = solver.initialize(prob)
            state.u_blocks[0][0, 0] = -1.0
            return state

        monkeypatch.setattr(cli, "initialize", planted)
        for argv, label in (
            (["--family", "fluid", "--sizes", "2x18"], "fluid 2x18"),
            (["--family", "transport", "--n", "6"], "transport n=6 seed=0"),
        ):
            assert main(["verify", *argv]) == 4
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] is False
            assert any(
                f.startswith(label) and "wrong sign" in f for f in payload["failures"]
            )

    def test_requires_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestMain:
    def test_unwritable_output_exit_one(self, tmp_path, capsys):
        path = _write_problem(tmp_path, random_mare(80))
        missing = tmp_path / "missing"
        for argv in (
            ["solve", "--input", path, "--out", str(missing / "r.json")],
            ["solve", "--input", path, "--csv", str(missing / "h.csv")],
            ["bench-fluid", "--m", "2", "--n", "18", "--csv", str(missing / "b.csv")],
            ["bench-fluid", "--m", "2", "--n", "18", "--out", str(missing / "b.json")],
            ["sweep", "--n", "6", "--points", "2", "--csv", str(missing / "sw")],
            ["verify", "--family", "fluid", "--sizes", "2x18",
             "--out", str(missing / "v.json")],
        ):
            assert main(argv) == 1
            assert "input error" in capsys.readouterr().err

    def test_stopping_defaults_from_stop_criteria(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        want = solver.StopCriteria()
        for command in ("solve", "bench-fluid", "bench-transport", "sweep"):
            actions = {a.dest: a for a in sub.choices[command]._actions}
            assert actions["criterion"].default == want.criterion
            assert tuple(actions["criterion"].choices) == solver.CRITERIA
            assert actions["kernel_cap"].default == want.kernel_row_cap
