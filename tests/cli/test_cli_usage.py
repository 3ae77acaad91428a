"""Usage errors the parser rejects before any command runs."""

import pytest

import repro.cli as cli
from repro.cli import main


def _reached(*args, **kwargs):
    pytest.fail("a usage error reached a command")


@pytest.fixture
def no_commands(monkeypatch):
    for name in vars(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, _reached)


@pytest.mark.parametrize("argv, flag", [
    (["campaign", "attack", "--dir", "x", "--grid", "5,x"], "--grid"),
    (["campaign", "acquire", "--dir", "x", "--chaos-shards", "a"],
     "--chaos-shards"),
    (["dse", "explore", "--dir", "x", "--digits", "a"], "--digits"),
    (["protocol", "soak", "--sweep", "a"], "--sweep"),
], ids=["grid", "chaos-shards", "digits", "sweep"])
def test_malformed_comma_list_is_a_usage_error(argv, flag, no_commands,
                                                capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid comma-separated" in err


@pytest.mark.parametrize("verb", ["run", "soak", "amortize"])
def test_obs_profile_needs_obs_dir(verb, no_commands, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", verb, "--obs-profile"])
    assert exc.value.code == 2
    assert "--obs-profile needs --obs-dir" in capsys.readouterr().err
