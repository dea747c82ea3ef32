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

    @pytest.mark.parametrize("mode", ["psr", "pqc"])
    @pytest.mark.parametrize("flag", [["--c", "1"], ["--theta", "0.3"]], ids=["c", "theta"])
    def test_pcc_only_flag_exits_2(self, mode, flag, tmp_path, capsys):
        argv = ["run", "--mode", mode, "--m", "2", "--n", "2", "--b", "0", "--out", str(tmp_path)]
        assert main(argv + flag) == 2
        assert "pcc" in capsys.readouterr().err
        assert not (tmp_path / "transcript.json").exists()
        assert main(argv) == 0
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

    @pytest.mark.parametrize("flag", ["--restarts", "--workers", "--ancilla-dim", "--iterations"])
    def test_count_below_one_exits_2(self, flag, capsys):
        rc = main(["attack", "--m", "2", "--n", "1", "--iterations", "1", flag, "0"])
        assert rc == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    def test_pool_is_capped_at_restarts(self, capsys, monkeypatch):
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        argv = ["attack", "--m", "2", "--n", "1", "--iterations", "2", "--seed", "1"]
        assert main(argv + ["--restarts", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--restarts", "3", "--workers", "64"]) == 0
        assert capsys.readouterr().out == serial
        # One restart runs serially, whatever --workers says.
        assert main(argv + ["--restarts", "1", "--workers", "64"]) == 0
        capsys.readouterr()
        assert sizes == [3]

    def test_round_cap_exits_4(self, capsys):
        rc = main(["attack", "--m", "2", "--n", "4", "--restarts", "1"])
        assert rc == 4
        capsys.readouterr()

    @staticmethod
    def _attack_stdout(args, threads="1"):
        res = run_python(
            f"""
            import sys
            from scotsim.cli import main
            sys.exit(main({["attack", *args.split()]!r}))
            """,
            env={"OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--m 3 --n 2 --restarts 1 --iterations 2 --seed 0",
             "5696aa874a078df34013b863c89979de1f85cc52887f9a40d43301f1e323f705"),
            ("--m 2 --n 1 --restarts 2 --seed 0",
             "fd09e08a18dbf70980090f3583edacdc7de04ac29ac52e244d0cb83c0ab64d1e"),
        ],
        ids=["m3n2", "m2n1"],
    )
    def test_stdout_matches_recorded_digest(self, args, digest):
        # sha256 of the canonical stdout, recorded once the see-saw started
        # from a thin Haar isometry: it pins the see-saw traces and the
        # final strategy_hash byte for byte, with one BLAS thread and two.
        for threads in ("1", "2"):
            stdout = self._attack_stdout(args, threads)
            assert hashlib.sha256(stdout.encode()).hexdigest() == digest, threads

    @pytest.mark.parametrize(
        "args, trace",
        [
            ("--m 3 --n 2 --restarts 1 --iterations 2 --seed 0",
             [0.06210728012951607, 0.23842333980107971, 0.27665177311871275]),
            ("--m 2 --n 1 --restarts 2 --seed 0",
             [0.19758863528213694, 0.7374080273619421, 0.8298231563371751,
              0.8462508545176632, 0.8512033652090165, 0.8527907932578912,
              0.853304479604465, 0.8534716824460977, 0.8535264362654895,
              0.8535444631065614, 0.8535504243786773, 0.8535524026103183,
              0.8535530608820829, 0.8535532803957122, 0.853553353719005,
              0.853553378242895, 0.8535533864536534, 0.853553389204914,
              0.853553390127411, 0.8535533904368899, 0.8535533905407606,
              0.8535533905756344]),
        ],
        ids=["m3n2", "m2n1"],
    )
    def test_trace_matches_recorded_values(self, args, trace):
        # The see-saw trace as recorded once the see-saw started from a
        # thin Haar isometry; summation order may move only its last bits.
        # The m=2, n=1 trace ends at the optimum cos(pi/8)**2.
        doc = json.loads(self._attack_stdout(args))
        assert len(doc["trace"]) == len(trace)
        assert max(abs(a - b) for a, b in zip(doc["trace"], trace)) < 1e-12
        assert abs(doc["p_exact"] - trace[-1]) < 1e-12
        if args.startswith("--m 2 --n 1"):
            assert abs(doc["p_exact"] - math.cos(math.pi / 8) ** 2) < 1e-9


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

    @pytest.mark.parametrize("flag", ["--draws", "--equiv-strategies", "--probes"])
    def test_count_below_one_exits_2(self, flag, capsys):
        argv = ["verify", "--m", "2", "--n", "1", "--draws", "1",
                "--equiv-strategies", "1", "--probes", "1"]
        argv[argv.index(flag) + 1] = "0"
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2
        assert f"{flag} must be at least 1" in err
        assert "PASS" not in out

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


def test_cli_import_stays_light():
    # The CLI serves every process the package starts; scipy and the
    # process pool's multiprocessing cost it most of its start-up.
    res = run_python(
        """
        import sys
        import scotsim.cli
        heavy = ("scipy", "concurrent.futures.process", "multiprocessing")
        print(" ".join(m for m in heavy if m in sys.modules))
        """
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""
