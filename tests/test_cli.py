"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    rel = base / "net.as-rel2.txt"
    mrt = base / "rib.txt"
    code = main(
        [
            "generate", "tiny", "-o", str(rel), "--seed", "5",
            "--mrt", str(mrt),
        ]
    )
    assert code == 0
    return rel, mrt


class TestGenerate:
    def test_writes_caida_file(self, generated, capsys):
        rel, mrt = generated
        assert rel.exists() and mrt.exists()
        text = rel.read_text()
        assert text.startswith("#")
        assert "|" in text.splitlines()[2]
        assert "TABLE_DUMP2|" in mrt.read_text()

    def test_serial1_output(self, tmp_path, capsys):
        out = tmp_path / "s1.txt"
        assert main(["generate", "tiny", "-o", str(out), "--serial", "1"]) == 0
        data_lines = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ]
        assert all(len(l.split("|")) == 3 for l in data_lines)

    def test_unknown_profile_fails(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "bogus", "-o", str(tmp_path / "x.txt")])


class TestReach:
    def test_reach_known_origin(self, generated, capsys):
        rel, _ = generated
        assert main(["reach", str(rel), "15169"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy-free" in out
        assert "AS15169" in out

    def test_reach_unknown_origin(self, generated, capsys):
        rel, _ = generated
        assert main(["reach", str(rel), "999999"]) == 1
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_ranked_table(self, generated, capsys):
        rel, _ = generated
        assert main(["sweep", str(rel), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("AS") >= 5
        assert "1." in out


class TestLeak:
    def test_leak_all_configs(self, generated, capsys):
        rel, _ = generated
        assert main(["leak", str(rel), "15169", "--leakers", "8"]) == 0
        out = capsys.readouterr().out
        assert "announce_all" in out
        assert "announce_hierarchy_only" in out

    def test_leak_single_config(self, generated, capsys):
        rel, _ = generated
        assert (
            main(
                [
                    "leak", str(rel), "15169", "--leakers", "5",
                    "--config", "announce_all",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "announce_all" in out
        assert "t1t2_lock" not in out


class TestInfer:
    def test_infer_with_truth_and_output(self, generated, tmp_path, capsys):
        rel, mrt = generated
        out_file = tmp_path / "inferred.txt"
        assert (
            main(
                [
                    "infer", str(mrt), "--algorithm", "asrank",
                    "--truth", str(rel), "-o", str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "inferred" in out
        assert "overall" in out
        assert out_file.exists()

    def test_infer_gao(self, generated, capsys):
        _, mrt = generated
        assert main(["infer", str(mrt), "--algorithm", "gao"]) == 0
        assert "gao" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("generate", "reach", "sweep", "leak", "infer"):
            assert command in out

    def test_vector_flag_sets_knob(self, generated, monkeypatch):
        rel, _ = generated
        # setenv records the original state, so the value main() writes
        # is rolled back at teardown
        monkeypatch.setenv("REPRO_VECTOR", "auto")
        code = main(["--vector", "off", "reach", str(rel), "15169"])
        assert code == 0
        assert os.environ["REPRO_VECTOR"] == "off"

    def test_invalid_vector_mode_rejected(self, generated):
        rel, _ = generated
        with pytest.raises(SystemExit):
            main(["--vector", "sideways", "reach", str(rel), "15169"])

    def test_experiments_csv_requires_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiments", "tiny", "--csv"])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err


class TestBrokenPipe:
    def test_reader_closing_early_exits_without_traceback(self, generated):
        rel, _ = generated
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "reach", str(rel), "15169"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # the reader goes away before the command writes its first line
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
