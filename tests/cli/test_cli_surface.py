"""Golden CLI surface: argv -> ``cmd_*`` call, exit contract, help.

Every ``repro.cli.cmd_*`` is replaced by a recorder, so these tests
pin what the parser and dispatcher hand to each command — names,
positional and keyword arguments, spec dataclasses — without running
any simulation.  A parser refactor that changes a dest, a default, a
type or a choice changes a digest here.
"""

import dataclasses
import hashlib
import inspect
import json

import pytest

import repro.cli as cli
from repro.cli import main

TMP = "<tmp>"


@pytest.fixture(scope="module")
def surface_dir(tmp_path_factory):
    """A tiny enrolled fleet (server soak/run read its spec digest)."""
    directory = tmp_path_factory.mktemp("surface")
    _, code = cli.cmd_server_enroll(str(directory / "fleet"), tags=16,
                                    shard_size=8, seed=5, workers=1)
    assert code == cli.EXIT_OK
    return directory


def _normalise(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__spec__": type(value).__name__,
                **dataclasses.asdict(value)}
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    return value


@pytest.fixture
def recorder(monkeypatch):
    """Swap every ``cmd_*`` for a recorder; returns the call log."""
    calls = []
    for name, fn in vars(cli).items():
        if not (name.startswith("cmd_") and callable(fn)):
            continue
        returns_tuple = str(inspect.signature(fn).return_annotation).strip(
            "'\"").startswith("tuple")

        def record(*args, _name=name, _tuple=returns_tuple, **kwargs):
            calls.append([_name, _normalise(list(args)),
                          _normalise(kwargs)])
            return ("recorded", cli.EXIT_DEGRADED) if _tuple else "recorded"

        monkeypatch.setattr(cli, name, record)
    return calls


def _digest(code, calls, root) -> str:
    text = json.dumps([code, calls], sort_keys=True, default=repr)
    text = text.replace(str(root), TMP)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (case id, argv with {d} standing for the scratch directory, digest)
CASES = [
    ("info", ["info"], "0f85632a84d218e1"),
    ("energy", ["energy"], "5070370b0f1ce41e"),
    ("area", ["area"], "c86ce66b221d372c"),
    ("listing", ["listing"], "8dbbc69c923d16e3"),
    ("listing-set", ["listing", "--limit", "7"], "6a5129920335b978"),
    ("evaluate", ["evaluate"], "ec04e2f7b1b82bff"),
    ("evaluate-set", ["evaluate", "--weak", "--traces", "12",
                      "--seed", "9"], "252370c9672ce548"),
    ("campaign-acquire", ["campaign", "acquire", "--dir", "{d}/c"],
     "95ecef4fa855ba37"),
    ("campaign-acquire-set", [
        "campaign", "acquire", "--dir", "{d}/c", "--traces", "40",
        "--shard-size", "8", "--workers", "2", "--scenario", "unprotected",
        "--seed", "3", "--bits", "7", "--noise", "12.5", "--quiet",
        "--shard-timeout", "9.5", "--max-attempts", "2",
        "--chaos", "crash=1.0", "--chaos-seed", "4",
        "--chaos-shards", "1,3", "--curve", "B-163", "--obs",
        "--obs-profile"], "4fcad02be0ca5415"),
    ("campaign-acquire-full", ["campaign", "acquire", "--dir", "{d}/c",
                               "--full-length"], "8647c8a5a9ef9f55"),
    ("campaign-status", ["campaign", "status", "--dir", "{d}/c"],
     "273cf645f1765c25"),
    ("campaign-attack", ["campaign", "attack", "--dir", "{d}/c"],
     "aa305b47b38d1633"),
    ("campaign-attack-set", [
        "campaign", "attack", "--dir", "{d}/c", "--attack", "cpa",
        "--bits", "3", "--grid", "50,10,20", "--verify",
        "--allow-partial"], "6b955a4c91814bb7"),
    ("campaign-doctor", ["campaign", "doctor", "--dir", "{d}/c"],
     "3b7ec85ac4896aec"),
    ("campaign-doctor-set", ["campaign", "doctor", "--dir", "{d}/c",
                             "--clear", "--last", "3"], "76cba071f5b86900"),
    ("dse-explore", ["dse", "explore", "--dir", "{d}/x"],
     "5f01eefb2294ecc0"),
    ("dse-explore-set", [
        "dse", "explore", "--dir", "{d}/x", "--digits", "2,4",
        "--vdd", "1.0", "--freq", "847.5e3",
        "--countermeasures", "full,no-rpc",
        "--backends", "ecc,simon-aead", "--curve", "TOY-B17",
        "--seed", "3", "--whitebox", "--whitebox-traces", "30",
        "--max-latency-ms", "0", "--max-area-ge", "20000",
        "--min-security", "-1",
        "--objectives", "energy_per_message,security",
        "--workers", "2", "--quiet", "--shard-timeout", "5",
        "--max-attempts", "2", "--obs", "--obs-profile"],
     "d9663be50cf652d1"),
    ("dse-pareto", ["dse", "pareto", "--dir", "{d}/x"], "490110376a48dc08"),
    ("dse-pareto-set", [
        "dse", "pareto", "--dir", "{d}/x", "--objectives", "area,power",
        "--max-latency-ms", "50", "--max-area-ge", "9000",
        "--min-security", "0.5", "--json"], "6afcabc6ae16ffa5"),
    ("dse-report", ["dse", "report", "--dir", "{d}/x"], "7fd1b0cf13062961"),
    ("dse-report-set", ["dse", "report", "--dir", "{d}/x", "--json"],
     "fbb51cf8e1eb593e"),
    ("protocol-run", ["protocol", "run"], "91d57cd998bc7d78"),
    ("protocol-run-set", [
        "protocol", "run", "--protocol", "schnorr", "--curve", "B-163",
        "--loss", "0.3", "--sessions", "2", "--seed", "4",
        "--distance", "1.5", "--events", "--obs-dir", "{d}/po",
        "--obs-profile"], "0ddc9d2cacb57f52"),
    ("protocol-soak", ["protocol", "soak"], "6dfd30b34cc5a839"),
    ("protocol-soak-set", [
        "protocol", "soak", "--protocol", "mutual-auth",
        "--curve", "B-163", "--sessions", "12", "--seed", "4",
        "--sweep", "0,0.3", "--workers", "0", "--distance", "1.5",
        "--min-availability", "0.5", "--quiet", "--obs-dir", "{d}/ps",
        "--obs-profile"], "8c2e2a928a26aafc"),
    ("protocol-amortize", ["protocol", "amortize"], "6f94339fe917c0ad"),
    ("protocol-amortize-set", [
        "protocol", "amortize", "--protocol", "schnorr",
        "--backend", "sha1-aead", "--curve", "B-163", "--epoch", "4",
        "--messages", "9", "--sessions", "3", "--seed", "4",
        "--sweep", "0.1,0.2", "--workers", "2", "--distance", "1.5",
        "--min-delivery", "0.5", "--dir", "{d}/pa", "--quiet",
        "--obs-dir", "{d}/pao", "--obs-profile"], "1bf495cb2bd56bf4"),
    ("obs-report", ["obs", "report", "--dir", "{d}/o"], "154d2413a3d05b3d"),
    ("obs-report-set", [
        "obs", "report", "--dir", "{d}/o", "--json", "--top", "3",
        "--require-spans", "a.b,c", "--require-metrics", "m_total"],
     "1bf5d7a149fcd9ac"),
    ("obs-diff", ["obs", "diff", "{d}/a", "{d}/b"], "5c390a663bb0d2a2"),
    ("obs-diff-set", ["obs", "diff", "{d}/a", "{d}/b", "--filter", "x_*",
                      "--filter", "y_*", "--max-regression", "2.5"],
     "7dfbaab179a2a405"),
    ("obs-tail", ["obs", "tail", "--dir", "{d}/o"], "fbece03afe894ab0"),
    ("obs-tail-set", ["obs", "tail", "--dir", "{d}/o", "--json"],
     "827b9ac64a8f57d2"),
    ("obs-alerts", ["obs", "alerts", "--dir", "{d}/o"], "87bc74aa6f13505f"),
    ("obs-alerts-set", ["obs", "alerts", "--dir", "{d}/o", "--json"],
     "43e635de4b990a0d"),
    ("obs-trend", ["obs", "trend"], "eb39ffbf00dcf81e"),
    ("obs-trend-set", ["obs", "trend", "--results", "{d}/r",
                       "--label", "v1", "--no-write", "--json"],
     "40f4855f91c4176c"),
    ("server-enroll", ["server", "enroll", "--dir", "{d}/fleet"],
     "4a8164133a97b04b"),
    ("server-enroll-set", [
        "server", "enroll", "--dir", "{d}/fleet", "--tags", "16",
        "--shard-size", "8", "--seed", "5", "--curve", "B-163",
        "--workers", "2", "--chaos", "crash=0.3", "--chaos-seed", "4"],
     "eb7418dbfe759d21"),
    ("server-soak", ["server", "soak", "--store", "{d}/fleet",
                     "--dir", "{d}/s"], "ae4dcb67f34f60ac"),
    ("server-soak-set", [
        "server", "soak", "--store", "{d}/fleet", "--dir", "{d}/s",
        "--sessions", "20", "--cohorts", "2", "--rate", "500",
        "--loss", "0.2", "--seed", "4", "--capacity", "8",
        "--admission-queue", "4", "--deadline", "1.5",
        "--search", "uncached", "--distance", "1.5", "--workers", "2",
        "--chaos", "crash=0.3", "--chaos-seed", "4",
        "--min-acceptance", "0.5", "--obs", "--obs-profile"],
     "5aa820e418ccb315"),
    ("server-run", ["server", "run", "--store", "{d}/fleet"],
     "ec857790e7e66115"),
    ("server-run-set", [
        "server", "run", "--store", "{d}/fleet", "--sessions", "20",
        "--rate", "500", "--loss", "0.2", "--seed", "4",
        "--capacity", "8", "--admission-queue", "4", "--deadline", "1.5",
        "--search", "uncached", "--distance", "1.5",
        "--metrics-port", "0", "--serve-seconds", "0.5", "--quiet"],
     "76ca76dc05f8460b"),
    ("attack-run", ["attack", "run"], "37164085a9bb2566"),
    ("attack-run-set", [
        "attack", "run", "--adversary", "replay-flood",
        "--defense", "none", "--defense", "full", "--sessions", "2",
        "--seed", "4", "--loss", "0.2", "--curve", "B-163",
        "--distance", "1.5"], "a5994f6f4d37e6df"),
    ("attack-soak", ["attack", "soak", "--dir", "{d}/a"],
     "4931e12e0f52c2d2"),
    ("attack-soak-set", [
        "attack", "soak", "--dir", "{d}/a", "--adversary", "bogus-flood",
        "--defense", "full", "--sessions", "10", "--cohorts", "2",
        "--legit-fraction", "0.5", "--rate", "20", "--loss", "0.2",
        "--seed", "4", "--curve", "B-163", "--distance", "1.5",
        "--budget-cap", "100", "--budget-window", "0.25",
        "--workers", "2", "--chaos", "crash=0.3", "--chaos-seed", "4",
        "--min-legit-success", "0.5", "--obs", "--obs-profile"],
     "cbc1de8f9adec5b8"),
    ("power-run", ["power", "run"], "1cb14a10176035ac"),
    ("power-run-set", [
        "power", "run", "--curve", "B-163", "--seed", "4",
        "--session", "2", "--cuts", "5", "--on-cycles", "900",
        "--interval", "4", "--schedules", "2", "--no-attack"],
     "918c9d5c34c8d89e"),
    ("power-soak", ["power", "soak", "--dir", "{d}/w"], "c4c873348851c889"),
    ("power-soak-set", [
        "power", "soak", "--dir", "{d}/w", "--curve", "B-163",
        "--sessions", "6", "--seed", "4", "--cut-seed", "3",
        "--cuts", "5", "--on-cycles", "900", "--interval", "4",
        "--max-power-cycles", "9", "--workers", "2",
        "--min-completed", "0.5", "--obs", "--obs-profile"],
     "cf2c317088f3949b"),
]


@pytest.mark.parametrize("case, argv, digest", CASES,
                         ids=[case for case, _, _ in CASES])
def test_argv_to_call_digest(case, argv, digest, surface_dir, recorder):
    argv = [arg.replace("{d}", str(surface_dir)) for arg in argv]
    code = main(argv)
    assert len(recorder) == 1, recorder
    assert _digest(code, recorder, surface_dir) == digest, \
        json.dumps([code, recorder], default=repr)


# (group, verb argv, command patched, error raised) — one per group.
FAILING = [
    ("campaign", ["campaign", "status", "--dir", "x"],
     "cmd_campaign_status", ("campaign", "CampaignError")),
    ("dse", ["dse", "report", "--dir", "x"],
     "cmd_dse_report", ("dse", "DseError")),
    ("protocol", ["protocol", "run"], "cmd_protocol_run", None),
    ("obs", ["obs", "tail", "--dir", "x"], "cmd_obs_tail", None),
    ("server", ["server", "enroll", "--dir", "x"],
     "cmd_server_enroll", ("server", "ServerError")),
    ("attack", ["attack", "run"],
     "cmd_attack_run", ("adversary", "AdversaryError")),
    ("power", ["power", "run"],
     "cmd_power_run", ("intermittent", "IntermittentError")),
]
BUILTIN_ERRORS = {"protocol": ValueError, "obs": FileNotFoundError}


def _error_class(group, source):
    if source is None:
        return BUILTIN_ERRORS[group]
    import importlib

    module, name = source
    return getattr(importlib.import_module(f"repro.{module}"), name)


def _raising(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("group, argv, command, source", FAILING,
                         ids=[row[0] for row in FAILING])
def test_group_error_exits_1(group, argv, command, source, monkeypatch,
                             capsys):
    error = _error_class(group, source)
    monkeypatch.setattr(cli, command, _raising(error("boom")))
    assert main(argv) == cli.EXIT_FAILED
    assert f"{group} error: " in capsys.readouterr().err


@pytest.mark.parametrize("group, argv, command, source",
                         [row for row in FAILING if row[0] != "obs"],
                         ids=[row[0] for row in FAILING if row[0] != "obs"])
def test_group_interrupt_exits_130(group, argv, command, source,
                                   monkeypatch, capsys):
    monkeypatch.setattr(cli, command, _raising(KeyboardInterrupt()))
    assert main(argv) == cli.EXIT_INTERRUPTED
    assert "interrupted —" in capsys.readouterr().err


def test_obs_interrupt_propagates(monkeypatch):
    monkeypatch.setattr(cli, "cmd_obs_tail",
                        _raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["obs", "tail", "--dir", "x"])


def test_campaign_value_error_propagates(monkeypatch):
    monkeypatch.setattr(cli, "cmd_campaign_status",
                        _raising(ValueError("usage")))
    with pytest.raises(ValueError, match="usage"):
        main(["campaign", "status", "--dir", "x"])


VERBS = [["info"], ["energy"], ["area"], ["listing"], ["evaluate"]] + [
    [group, verb] for group, verbs in [
        ("campaign", ("acquire", "status", "attack", "doctor")),
        ("dse", ("explore", "pareto", "report")),
        ("protocol", ("run", "soak", "amortize")),
        ("obs", ("report", "diff", "tail", "alerts", "trend")),
        ("server", ("enroll", "soak", "run")),
        ("attack", ("run", "soak")),
        ("power", ("run", "soak")),
    ] for verb in verbs
]


@pytest.mark.parametrize("verb", VERBS, ids=" ".join)
def test_help_formats(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
