from pathlib import Path

import pytest

from colog.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


GOOD_CIRQUENT = """cirquent
  f 1: ~P
  f 2: P
  u 1: 1 2
  o 1: 1 2
end
"""

PROJECTION_RUN = """B 10.alpha
T 111.beta
B 1.gamma
B 00.alpha
"""


class TestCheckCommands:
    def test_check_cirquent_ok(self, workdir, capsys):
        path = write(workdir / "c.clq", GOOD_CIRQUENT)
        assert main(["check-cirquent", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_cirquent_rejects_violation(self, workdir, capsys):
        bad = GOOD_CIRQUENT.replace("u 1: 1 2", "u 1: 1")
        path = write(workdir / "c.clq", bad)
        assert main(["check-cirquent", path]) == 1
        assert "no undergroup" in capsys.readouterr().out

    def test_check_cirquent_parse_error(self, workdir, capsys):
        path = write(workdir / "c.clq", "cirquent\n f 1: ~P\n u 1: 1 1\n o 1: 1\nend")
        assert main(["check-cirquent", path]) == 2

    def test_check_proof_corpus(self, capsys):
        assert main(["check-proof", str(CORPUS / "p_implies_p.clp")]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "2 steps" in out

    def test_check_proof_rejects_bad_rule(self, workdir, capsys):
        text = (CORPUS / "p_implies_p.clp").read_text().replace("or-intro", "and-intro")
        path = write(workdir / "bad.clp", text)
        assert main(["check-proof", path]) == 1
        assert "step 2" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check-proof", "no/such/file.clp"]) == 2


class TestSynthesize:
    def test_writes_normalized_descriptor(self, workdir, capsys):
        out = workdir / "strategy.clp"
        assert main(["synthesize", str(CORPUS / "p_implies_p.clp"), "--out", str(out)]) == 0
        assert out.exists()
        assert main(["check-proof", str(out)]) == 0


class TestSimulate:
    def test_catalog_strategy_with_script(self, workdir, capsys):
        script = write(workdir / "env.txt", "1 2.m\n")
        code = main([
            "simulate", "--strategy", "copycat", "--env", script, "--horizon", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "B 2.m" in out and "T 1.m" in out
        assert "winner: T" in out

    def test_proof_strategy_random_env(self, capsys):
        code = main([
            "simulate", "--strategy", str(CORPUS / "p_implies_p.clp"),
            "--env", "random:7", "--horizon", "40",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "legal: yes" in out and "winner: T" in out

    def test_reports_are_deterministic(self, capsys):
        argv = ["simulate", "--strategy", str(CORPUS / "crec_p_implies_crec_p.clp"),
                "--env", "random:3", "--horizon", "60"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_interp_spec(self, workdir, capsys):
        spec = write(workdir / "interp.txt", "P sum-parity even\n")
        script = write(workdir / "env.txt", "1 2.1\n")
        code = main([
            "simulate", "--strategy", "copycat", "--env", script,
            "--game", "P -> P", "--interp", spec, "--horizon", "10",
        ])
        assert code == 0

    def test_unknown_template(self, workdir, capsys):
        spec = write(workdir / "interp.txt", "P bogus\n")
        script = write(workdir / "env.txt", "1 2.1\n")
        code = main([
            "simulate", "--strategy", "copycat", "--env", script,
            "--interp", spec, "--horizon", "10",
        ])
        assert code == 2


class TestProject:
    def test_thread_projection(self, workdir, capsys):
        path = write(workdir / "run.txt", PROJECTION_RUN)
        assert main(["project", path, "--thread", "111:1*"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["T beta", "B gamma"]

    def test_cell_projection(self, workdir, capsys):
        path = write(
            workdir / "run.txt",
            "B 1;100,11.alpha\nT 1;01,100.beta\nB 1;1,1.gamma\nB 2;100,111.delta\n",
        )
        assert main(["project", path, "--cell", "1;100:0*,111:1*"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["B alpha", "B gamma"]

    def test_requires_exactly_one_mode(self, workdir, capsys):
        path = write(workdir / "run.txt", PROJECTION_RUN)
        assert main(["project", path]) == 2


class TestBitsCommands:
    def test_defuse(self, capsys):
        assert main(["defuse", "100110101", "2"]) == 0
        assert capsys.readouterr().out.strip() == "10111 0100"

    def test_fuse(self, capsys):
        assert main(["fuse", "01", "110"]) == 0
        assert capsys.readouterr().out.strip() == "011100 011110"

    def test_fuse_empty_is_epsilon(self, capsys):
        assert main(["fuse", "e", "e"]) == 0
        assert capsys.readouterr().out.strip() == "e"

    def test_bad_bits(self, capsys):
        assert main(["defuse", "12", "2"]) == 2


class TestWinnerCommand:
    def test_win_and_loss_exit_codes(self, workdir, capsys):
        path = write(workdir / "run.txt", "B 2.1\nT 1.1\n")
        assert main(["winner", path, "--game", "P -> P"]) == 0
        assert "winner: T" in capsys.readouterr().out
        spec = write(workdir / "interp.txt", "P sum-parity odd\n")
        path2 = write(workdir / "run2.txt", "B 1\nB 1\n")
        assert main(["winner", path2, "--game", "P", "--interp", spec]) == 1


class TestInterpretationCoverage:
    @pytest.mark.parametrize("command", ["winner", "simulate"])
    def test_missing_atom_is_an_input_error(self, workdir, capsys, command):
        spec = write(workdir / "interp.txt", "P enumeration\n")
        if command == "winner":
            argv = ["winner", write(workdir / "run.txt", "B 2.1\nT 1.1\n"),
                    "--game", "P -> Q", "--interp", spec]
        else:
            argv = ["simulate", "--strategy", "copycat", "--env", "random:1",
                    "--game", "P -> Q", "--interp", spec, "--horizon", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {spec}: interpretation does not cover atom Q"
        ]
