"""CLI surface."""

import pytest

from repro.cli import main
from repro.experiments.common import EXPERIMENTS


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_fast_fig5(capsys):
    assert main(["run", "fig5", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "all correct: True" in out


def test_run_fast_generations(capsys):
    assert main(["run", "generations", "--fast"]) == 0
    assert "icelake" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])

