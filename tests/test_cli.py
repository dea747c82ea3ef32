import csv
import hashlib
import json
import math

import pytest

from helpers import records_without_branch1, run_python
from scotsim import adversary, bounds, protocol
from scotsim.cli import EXIT_FAILED, main
from scotsim.minkowski import Event, Layout, layout_to_json, validate_layout
from scotsim.protocol import standard_layout


def read_lines(path):
    return path.read_text().splitlines()


class TestRun:
    def test_writes_transcript_and_summary(self, tmp_path, capsys):
        rc = main(
            ["run", "--mode", "psr", "--m", "2", "--n", "4", "--b", "0",
             "--seed", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "transcript.json").read_text())
        assert doc["verified"] is True and doc["violations"] == []
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["correct"] == "True"
        assert rows[0]["output"] == rows[0]["expected"]
        printed = json.loads(capsys.readouterr().out)
        assert printed["verified"] is True

    def test_pcc_summary_records_shift(self, tmp_path, capsys):
        rc = main(
            ["run", "--mode", "pcc", "--m", "3", "--n", "2", "--b", "1",
             "--c", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["c"] == 2
        assert printed["b_prime"] == 0
        assert printed["correct"] is True

    def test_deterministic_apart_from_wall_time(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--mode", "pcc", "--m", "2", "--n", "3", "--b", "1",
                "--seed", "11"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "transcript.json").read_bytes() == (
            out_b / "transcript.json"
        ).read_bytes()
        rows = []
        for out in (out_a, out_b):
            with open(out / "summary.csv", newline="") as fh:
                rows.append(next(csv.DictReader(fh)))
        wall_a = rows[0].pop("wall_time_ms")
        wall_b = rows[1].pop("wall_time_ms")
        assert rows[0] == rows[1]
        assert float(wall_a) > 0 and float(wall_b) > 0

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCOTSIM_OUTDIR", str(tmp_path / "envout"))
        assert main(["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "0"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envout" / "transcript.json").exists()

    def test_failed_verification_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            protocol, "verify_transcript", lambda t: (False, [{"kind": "planted"}])
        )
        rc = main(["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "0",
                   "--out", str(tmp_path)])
        assert rc == EXIT_FAILED == 1
        assert "planted" in capsys.readouterr().err

    def test_layout_file(self, tmp_path, capsys):
        lay = standard_layout(2).layout
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(layout_to_json(lay)))
        rc = main(
            ["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "1",
             "--layout", str(path), "--out", str(tmp_path)]
        )
        assert rc == 0
        capsys.readouterr()

    def test_bad_m_exits_2(self, capsys):
        assert main(["run", "--mode", "psr", "--m", "1", "--n", "2", "--b", "0"]) == 2
        capsys.readouterr()

    def test_missing_layout_exits_2(self, tmp_path, capsys):
        rc = main(
            ["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "0",
             "--layout", str(tmp_path / "none.json")]
        )
        assert rc == 2
        capsys.readouterr()

    def test_malformed_layout_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(
            ["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "0",
             "--layout", str(path)]
        )
        assert rc == 2
        capsys.readouterr()

    def test_infeasible_layout_exits_3(self, tmp_path, capsys):
        base = standard_layout(2).layout
        lines = {name: base.worldline(name) for name in base.agents}
        lines["B1"] = lines["B1"][:3]
        cut = validate_layout(Layout(base.regions, base.q_points, lines))
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(layout_to_json(cut.layout)))
        rc = main(
            ["run", "--mode", "psr", "--m", "2", "--n", "2", "--b", "1",
             "--layout", str(path), "--out", str(tmp_path)]
        )
        assert rc == 3
        capsys.readouterr()

    def test_light_cone_edge_layout_exits_3(self, edge_layout, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(layout_to_json(edge_layout.layout)))
        rc = main(
            ["run", "--mode", "pcc", "--m", "2", "--n", "2", "--b", "0",
             "--layout", str(path), "--out", str(tmp_path)]
        )
        assert rc == 3
        assert "no vertex on 'A' satisfies prepare" in capsys.readouterr().err


class TestBounds:
    def test_csv_grid(self, capsys):
        rc = main(["bounds", "--m", "2", "3", "--n", "1", "2", "--gamma", "0.0", "0.1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["m", "n"]
        assert len(lines) == 1 + 2 * 2 * 2
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["epsilon_exact"]) == pytest.approx(
            bounds.epsilon_bob(2, 0.5, 1)
        )

    def test_json_rows(self, capsys):
        rc = main(["bounds", "--m", "2", "--n", "4", "--format", "json"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["m"] == 2 and row["n"] == 4
        assert float(row["epsilon_exact"]) == pytest.approx(
            bounds.epsilon_bob(2, 0.5, 4)
        )

    def test_theta_needs_single_m(self, capsys):
        rc = main(["bounds", "--m", "2", "3", "--theta", "1.0"])
        assert rc == 2
        capsys.readouterr()

    def test_custom_theta(self, capsys):
        rc = main(["bounds", "--m", "2", "--n", "2", "--theta", str(math.pi / 3)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["lam"]) == pytest.approx(0.75)

    def test_out_file(self, tmp_path):
        path = tmp_path / "grid.csv"
        assert main(["bounds", "--m", "2", "--n", "1", "--out", str(path)]) == 0
        assert path.exists() and "epsilon_exact" in read_lines(path)[0]


class TestAttack:
    def test_small_run_is_sound(self, capsys):
        rc = main(
            ["attack", "--m", "2", "--n", "1", "--restarts", "3",
             "--iterations", "30", "--seed", "0"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        assert doc["p_exact"] <= doc["bound"] + 1e-9
        assert doc["p_exact"] > 0.75
        assert len(doc["all_restarts"]) == 3

    def test_gamma_variant(self, capsys):
        rc = main(
            ["attack", "--m", "2", "--n", "1", "--restarts", "1",
             "--iterations", "15", "--gamma", "0.1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound_gamma"] is True
        assert doc["p_gamma"] >= doc["p_exact"] - 1e-12

    def test_deterministic(self, capsys):
        argv = ["attack", "--m", "2", "--n", "1", "--restarts", "2",
                "--iterations", "10", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_worker_pool_matches_serial(self, capsys):
        argv = ["attack", "--m", "2", "--n", "1", "--restarts", "2",
                "--iterations", "10", "--seed", "3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_round_cap_exits_4(self, capsys):
        rc = main(["attack", "--m", "2", "--n", "4", "--restarts", "1"])
        assert rc == 4
        capsys.readouterr()

    @staticmethod
    def _attack_stdout(args):
        # One BLAS thread, since the m=3, n=2 Haar draws round differently
        # with more.
        res = run_python(
            f"""
            import sys
            from scotsim.cli import main
            sys.exit(main({["attack", *args.split()]!r}))
            """,
            env={"OPENBLAS_NUM_THREADS": "1"},
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--m 3 --n 2 --restarts 1 --iterations 2 --seed 0",
             "4e918761815de0ab921b8226739c065c79a3d0f105b2c059e751a6a74bb25198"),
            ("--m 2 --n 1 --restarts 2 --seed 0",
             "93a170fe6052f1c43bbaf0a179a0383efdb261c722e1e33b28ca4c0146c61ff3"),
        ],
        ids=["m3n2", "m2n1"],
    )
    def test_stdout_matches_recorded_digest(self, args, digest):
        # sha256 of the canonical stdout, recorded once the see-saw kept
        # the isometry and completed it to a unitary at the end: it pins
        # the see-saw traces and the final strategy_hash byte for byte.
        stdout = self._attack_stdout(args)
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, trace",
        [
            ("--m 3 --n 2 --restarts 1 --iterations 2 --seed 0",
             [0.06314282055208101, 0.24159552693894182, 0.281112425286938]),
            ("--m 2 --n 1 --restarts 2 --seed 0",
             [0.17420256836823453, 0.7713629337097597, 0.8446182423035975,
              0.8517695322504635, 0.8530213183798036, 0.853378990849962,
              0.8534952978188208, 0.8535339089989928, 0.8535468249646025,
              0.8535511691663307, 0.8535526366638051, 0.8535531340984899,
              0.8535533031671529, 0.8535533607508118, 0.8535533803952599,
              0.8535533871053006, 0.8535533893995019, 0.8535533901844895,
              0.8535533904532375, 0.8535533905452883, 0.8535533905768282]),
        ],
        ids=["m3n2", "m2n1"],
    )
    def test_trace_matches_recorded_values(self, args, trace):
        # The see-saw trace as recorded before the kernel read column
        # stacks; summation order may move only its last bits.
        doc = json.loads(self._attack_stdout(args))
        assert len(doc["trace"]) == len(trace)
        assert max(abs(a - b) for a, b in zip(doc["trace"], trace)) < 1e-12
        assert abs(doc["p_exact"] - trace[-1]) < 1e-12


class TestVerify:
    def test_battery_passes(self, capsys):
        rc = main(
            ["verify", "--m", "2", "--n", "1", "--draws", "3",
             "--equiv-strategies", "2", "--probes", "10"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert lines and all(ln.startswith("PASS") for ln in lines)
        assert any("sandwich-norm-bound" in ln for ln in lines)
        assert any("procedure-equivalence" in ln for ln in lines)
        assert any("composed-shuffles-distinct" in ln for ln in lines)
        assert any("weight-counting-identity" in ln for ln in lines)

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "count_omega", lambda m, n, omega: -1)
        rc = main(
            ["verify", "--m", "2", "--n", "1", "--draws", "1",
             "--equiv-strategies", "1", "--probes", "1"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_FAILED == 1
        assert "FAIL  weight-counting-identity" in lines
        assert sum(ln.startswith("PASS") for ln in lines) == 3

    def test_faulty_record_fails_equivalence(self, capsys, monkeypatch):
        monkeypatch.setattr(adversary, "_write_records", records_without_branch1)
        rc = main(
            ["verify", "--m", "2", "--n", "1", "--draws", "1",
             "--equiv-strategies", "2", "--probes", "1"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert rc == EXIT_FAILED == 1
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  procedure-equivalence m=2 n=1")
