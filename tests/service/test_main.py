"""``python -m repro.service`` refuses bad flags before it boots."""

import pytest

import repro.service.http as http
from repro.service.__main__ import main


@pytest.fixture
def booted(monkeypatch):
    """The keyword arguments of every ``run_server`` call."""
    calls = []
    monkeypatch.setattr(http, "run_server", lambda **kwargs: calls.append(kwargs))
    return calls


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_bad_wall_seconds_is_refused_at_startup(booted, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--port", "0", f"--wall-seconds={value}"])
    assert exit_info.value.code == 2
    assert booted == []
    assert "--wall-seconds must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value, expected", [("0", 0.0), ("2.5", 2.5), ("inf", float("inf"))])
def test_good_wall_seconds_boots(booted, value, expected):
    assert main(["--port", "0", f"--wall-seconds={value}"]) == 0
    assert [call["default_wall_seconds"] for call in booted] == [expected]


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--max-atoms=-5", "--max-atoms must be non-negative"),
        ("--max-rounds=-1", "--max-rounds must be non-negative"),
        ("--backend=lmdb", "invalid choice"),
    ],
    ids=["max-atoms", "max-rounds", "backend"],
)
def test_unservable_ceiling_or_backend_is_refused_at_startup(booted, flag, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--port", "0", flag])
    assert exit_info.value.code == 2
    assert booted == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--max-atoms=0", "--max-rounds=0"], ["--backend=sqlite"]])
def test_servable_ceilings_and_backends_boot(booted, flags):
    assert main(["--port", "0", *flags]) == 0
    assert len(booted) == 1
