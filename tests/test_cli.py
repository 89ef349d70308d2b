"""CLI tests (direct invocation of repro.cli.main)."""

import json
from fractions import Fraction

import pytest

from repro.cli import _parse_generator_arg, main


class TestSolve:
    def test_solve_with_generator(self, capsys):
        rc = main(["solve", "--generator", "star", "--args", "3",
                   "--master", "M", "--periods", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "deficit" in out

    def test_solve_with_platform_file(self, tmp_path, capsys):
        rc = main(["export", "--generator", "chain", "--args", "3",
                   "-o", str(tmp_path / "p.json")])
        assert rc == 0
        rc = main(["solve", "--platform", str(tmp_path / "p.json"),
                   "--master", "N0"])
        assert rc == 0
        assert "steady-state" in capsys.readouterr().out

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            main(["solve", "--generator", "nope", "--master", "M"])

    def test_missing_platform_source(self):
        with pytest.raises(SystemExit):
            main(["solve", "--master", "M"])


class TestGeneratorArgParsing:
    """Regression: ``int(a) if a.isdigit()`` mis-parsed "-1", "1.5", "3/2"."""

    def test_int_fraction_str_fallback(self):
        assert _parse_generator_arg("3") == 3
        assert isinstance(_parse_generator_arg("3"), int)
        assert _parse_generator_arg("-1") == -1
        assert isinstance(_parse_generator_arg("-1"), int)
        assert _parse_generator_arg("1.5") == Fraction(3, 2)
        assert _parse_generator_arg("3/2") == Fraction(3, 2)
        assert _parse_generator_arg("-2/3") == Fraction(-2, 3)
        assert _parse_generator_arg("M") == "M"
        assert _parse_generator_arg("1/0") == "1/0"  # not a rational

    def test_negative_count_reaches_generator_as_int(self):
        # star(-1) must hit the generator's own guard, not a str/int
        # comparison TypeError from an unparsed "-1"
        with pytest.raises(ValueError, match="at least one worker"):
            main(["export", "--generator", "star", "--args", "-1"])

    def test_fractional_weight_arg(self, capsys):
        rc = main(["export", "--generator", "star", "--args", "2", "3/2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        master = next(n for n in data["nodes"] if n["name"] == "M")
        assert master["w"] == "3/2"


class TestCollectiveCommands:
    def test_scatter(self, capsys):
        rc = main(["scatter", "--generator", "paper_figure2_multicast",
                   "--source", "P0", "--targets", "P5", "P6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TP = 1/2" in out
        assert "commodity" in out

    def test_broadcast(self, capsys):
        rc = main(["broadcast", "--generator", "chain", "--args", "3",
                   "--source", "N0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LP bound = 1" in out
        assert "optimal" in out

    def test_multicast_bracket(self, capsys):
        rc = main(["multicast", "--generator", "paper_figure2_multicast",
                   "--source", "P0", "--targets", "P5", "P6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3/4" in out
        assert "NOT achievable" in out


class TestProblemsCommand:
    def test_list_shows_registry_metadata(self, capsys):
        rc = main(["problems"])
        assert rc == 0
        out = capsys.readouterr().out
        for problem in ("master-slave", "scatter", "gather", "dag",
                        "send-or-receive"):
            assert problem in out
        assert "warm-resolve" in out
        assert "reconstructs-schedule" in out
        assert "10 problems registered" in out

    def test_json_output_matches_registry(self, capsys):
        from repro.problems import registered_problems

        rc = main(["problems", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == set(registered_problems())
        assert data["gather"]["capabilities"]["reconstructs_schedule"] is True
        assert data["scatter"]["capabilities"]["warm_resolve"] is True
        assert any(f["name"] == "sink" and f["required"]
                   for f in data["gather"]["fields"])

    def test_check_solves_every_problem(self, capsys):
        rc = main(["problems", "--check"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "registry check OK" in out
        assert out.count(" OK ") == 10


class TestFiguresAndExport:
    def test_figures(self, capsys):
        rc = main(["figures"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 3(d)" in out
        assert "occupation 2 > 1" in out

    def test_export_stdout(self, capsys):
        rc = main(["export", "--generator", "star", "--args", "2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["nodes"]) == 3

    def test_export_seed_forwarded(self, capsys):
        rc = main(["export", "--generator", "random_connected",
                   "--args", "5", "--seed", "7"])
        assert rc == 0
        first = capsys.readouterr().out
        main(["export", "--generator", "random_connected",
              "--args", "5", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestRemovedNetworkFlags:
    """One network stack: the flags that chose a twin are gone, not
    ignored — passing one is an argparse error before anything starts."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--stdio", "--async-http"],
        ["serve", "--stdio", "--async-transport"],
        ["serve", "--stdio", "--verbose"],
        ["shard-serve", "--async"],
    ])
    def test_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOneLPRoad:
    """A served answer is the exact LP optimum: ``submit`` names no
    solver choice, in its help or in what it accepts."""

    def test_submit_help_names_no_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--generator" in out and "--backend" not in out

    def test_submit_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--problem", "master-slave", "--generator",
                  "star", "--args", "2", "--master", "M",
                  "--backend", "scipy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
