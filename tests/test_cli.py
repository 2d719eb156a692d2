import json
import sys
import time
from dataclasses import fields

import pytest

from netbench import cli
from netbench.cli import build_parser, main
from netbench.core.config import parse_config
from netbench.core.types import BenchmarkConfig
from netbench.digest import canonical_json, digest
from netbench.errors import TransportError
from netbench.evaluation.aggregate import CSV_HEADER
from netbench.evaluation.report import read_metrics_jsonl


@pytest.fixture
def batch(tmp_path):
    path = tmp_path / "batch.jsonl"
    assert main(["generate", "--app", "routing", "--num-queries", "6",
                 "--levels", "1,2", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_generate_writes_batch_and_manifest(batch):
    assert batch.exists()
    manifest = json.loads(batch.with_suffix(".jsonl.manifest.json").read_text())
    assert manifest["num_queries"] == 6
    assert manifest["config"]["app"] == "routing"
    assert manifest["config"]["levels"] == [1, 2]


def test_generate_from_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("app = k8s\nnum_queries = 4\nlevels = 1\nseed = 9\n")
    out = tmp_path / "k8s.jsonl"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_generate_requires_app_or_config(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "x.jsonl")]) == 2


def test_generate_rejects_conflicting_app(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("app = cp\n")
    assert main(["generate", "--config", str(cfg), "--app", "routing",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


def test_generate_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("app = cp\nnum_queries = 3\n")
    out = tmp_path / "cp.jsonl"
    assert main(["generate", "--config", str(cfg), "--app", "cp", "--num-queries", "5",
                 "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "cp.jsonl.manifest.json").read_text())
    assert manifest["num_queries"] == 5 and len(out.read_text().splitlines()) == 5
    assert manifest["config"]["seed"] == 9


# `generate --seed 7 --num-queries 30 --levels 1,2,3` batch digests, pinned so
# that a change to what generation writes fails here, not only between two runs
PINNED_BATCH_DIGESTS = {
    "cp": "beeea82bf5c69327598897ba125b9fff31b43446206060683a98cdb4dd5b7a3b",
    "routing": "7455167d0ecf11327a383bc96a7440b7c57667aa08354ba544402e57a3fd7eb5",
    "k8s": "5473eefe59d2342934876a4d89cdde48a52aaaba175455cca0ea26843c4e77fe",
}


@pytest.mark.parametrize("app", sorted(PINNED_BATCH_DIGESTS))
def test_batch_digest_matches_the_pinned_one(app, tmp_path):
    out = tmp_path / f"{app}.jsonl"
    assert main(["generate", "--app", app, "--num-queries", "30", "--levels", "1,2,3",
                 "--seed", "7", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / f"{app}.jsonl.manifest.json").read_text())
    assert manifest["batch_digest"] == PINNED_BATCH_DIGESTS[app]


def test_generate_sft_requires_cp(tmp_path):
    assert main(["generate", "--app", "routing", "--num-queries", "2",
                 "--out", str(tmp_path / "x.jsonl"),
                 "--sft", str(tmp_path / "sft.jsonl")]) == 2


def test_generate_sft_for_cp(tmp_path):
    out = tmp_path / "cp.jsonl"
    sft = tmp_path / "sft.jsonl"
    assert main(["generate", "--app", "cp", "--num-queries", "3",
                 "--out", str(out), "--sft", str(sft)]) == 0
    assert sft.exists() and len(sft.read_text().splitlines()) == 3


def test_run_oracle_end_to_end(batch, tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--out", str(metrics)]) == 0
    records = read_metrics_jsonl(metrics)
    assert len(records) == 6
    assert all(r.correct and r.safe for r in records)
    assert "ran 6 episodes" in capsys.readouterr().out


def test_run_requires_manifest(batch, tmp_path):
    batch.with_suffix(".jsonl.manifest.json").unlink()
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--out", str(tmp_path / "m.jsonl")]) == 2


@pytest.mark.parametrize("rewrite", [
    lambda m: "{not json",
    lambda m: json.dumps([m]),
    lambda m: json.dumps({k: v for k, v in m.items() if k != "config"}),
    lambda m: json.dumps({**m, "config": {**m["config"], "colour": "red"}}),
], ids=["not-json", "not-an-object", "no-config", "unknown-config-key"])
def test_run_rejects_a_malformed_manifest_naming_it(batch, tmp_path, capsys, rewrite):
    manifest_path = batch.with_suffix(".jsonl.manifest.json")
    manifest_path.write_text(rewrite(json.loads(manifest_path.read_text())))
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--out", str(tmp_path / "m.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(manifest_path) in err
    assert "Traceback" not in err


def test_run_parallel_matches_serial(batch, tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    main(["run", "--batch", str(batch), "--agent", "oracle", "--out", str(serial)])
    main(["run", "--batch", str(batch), "--agent", "oracle",
          "--parallelism", "4", "--out", str(parallel)])
    key = lambda r: r.query_id
    serial_records = sorted(read_metrics_jsonl(serial), key=key)
    parallel_records = sorted(read_metrics_jsonl(parallel), key=key)
    fields = ("query_id", "correct", "safe", "latency_turns", "reward")
    assert [[getattr(r, f) for f in fields] for r in serial_records] == \
           [[getattr(r, f) for f in fields] for r in parallel_records]


def test_run_resume_skips_done(batch, tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    main(["run", "--batch", str(batch), "--agent", "oracle", "--out", str(metrics)])
    capsys.readouterr()
    # drop the last record and resume: only that query should rerun
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--resume", "--out", str(metrics)]) == 0
    assert "ran 1 episodes (5 resumed" in capsys.readouterr().out
    assert len(read_metrics_jsonl(metrics)) == 6


def test_run_unknown_agent_spec(batch, tmp_path):
    assert main(["run", "--batch", str(batch), "--agent", "telepathy",
                 "--out", str(tmp_path / "m.jsonl")]) == 2


def test_report_prints_csv(batch, tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    main(["run", "--batch", str(batch), "--agent", "noop", "--out", str(metrics)])
    capsys.readouterr()
    assert main(["report", "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_HEADER)
    assert "routing/L1" in out and "routing/L2" in out


def test_report_writes_artifacts(batch, tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    main(["run", "--batch", str(batch), "--agent", "oracle", "--out", str(metrics)])
    report_dir = tmp_path / "report"
    assert main(["report", "--metrics", str(metrics), "--out", str(report_dir)]) == 0
    assert (report_dir / "summary.csv").exists()
    assert (report_dir / "summary.json").exists()


def test_byte_identical_regeneration_via_cli(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    argv = ["generate", "--app", "cp", "--num-queries", "5", "--seed", "42"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    a = json.loads(first.with_suffix(".jsonl.manifest.json").read_text())
    b = json.loads(second.with_suffix(".jsonl.manifest.json").read_text())
    assert a["batch_digest"] == b["batch_digest"]


def test_run_rejects_tampered_batch(batch, tmp_path, capsys):
    lines = batch.read_text().splitlines()
    batch.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--out", str(tmp_path / "m.jsonl")]) == 2
    assert "batch_digest" in capsys.readouterr().err


def test_adversarial_agent_names_the_app_it_cannot_play(tmp_path, capsys):
    batch = tmp_path / "k8s.jsonl"
    assert main(["generate", "--app", "k8s", "--num-queries", "2", "--out", str(batch)]) == 0
    assert main(["run", "--batch", str(batch), "--agent", "adversarial",
                 "--out", str(tmp_path / "m.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "routing" in err and "'k8s'" in err and "topology record" not in err


def _batch_ids(batch):
    return [json.loads(line)["query"]["id"] for line in batch.read_text().splitlines()]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_run_names_a_failed_episode_and_keeps_batch_order(batch, tmp_path, capsys,
                                                          monkeypatch, parallelism):
    ids = _batch_ids(batch)
    failing = ids[2]
    original = cli.run_episode

    def episode(env, agent, query, **kw):
        if query.id == failing:
            raise TransportError("agent went away")
        return original(env, agent, query, **kw)

    monkeypatch.setattr(cli, "run_episode", episode)
    metrics = tmp_path / "metrics.jsonl"
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--parallelism", parallelism, "--out", str(metrics)]) == 1
    assert f"episode failed ({failing}): agent went away" in capsys.readouterr().err
    assert [r.query_id for r in read_metrics_jsonl(metrics)] == [i for i in ids if i != failing]


def _break_di_m3(actions):
    """Aim the first DI-m3 injection at subnet 9, which no topology has."""
    for action in actions:
        if action["name"] == "DI-m3":
            action["operands"][0] = 9
            return True
    return False


def _drop_topology(actions):
    actions[0]["name"] = "not-a-topology"
    return True


def _rename_di_m3(actions):
    """Drop the method from the first DI-m3 injection's name."""
    for action in actions:
        if action["name"] == "DI-m3":
            action["name"] = "DI"
            return True
    return False


def _drop_an_operand(actions):
    actions[-1]["operands"].pop()
    return True


def _garble_topology(actions):
    actions[0]["operands"] = ["three", 2, ""]
    return True


def _unknown_target(actions):
    actions[0]["operands"][0] = "nosuchservice"
    return True


def _refresh_digest(batch):
    """Make the manifest's digest match the edited ``batch``."""
    manifest_path = batch.with_suffix(".jsonl.manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["batch_digest"] = digest(batch.read_text())
    manifest_path.write_text(json.dumps(manifest))


def _run_corrupted(tmp_path, capsys, app, corrupt):
    """Run the oracle on a batch where ``corrupt`` broke one stored injection."""
    batch = tmp_path / f"{app}.jsonl"
    assert main(["generate", "--app", app, "--num-queries", "30", "--levels", "1",
                 "--seed", "7", "--out", str(batch)]) == 0
    records = [json.loads(line) for line in batch.read_text().splitlines()]
    broken = next(r["query"]["id"] for r in records if corrupt(r["truth"]["hidden_injection"]))
    batch.write_text("".join(canonical_json(r) + "\n" for r in records))
    _refresh_digest(batch)
    metrics = tmp_path / "metrics.jsonl"
    capsys.readouterr()
    assert main(["run", "--batch", str(batch), "--agent", "oracle", "--out", str(metrics)]) == 1
    err = capsys.readouterr().err
    assert f"episode failed ({broken}): " in err and "Traceback" not in err
    assert [r.query_id for r in read_metrics_jsonl(metrics)] == \
        [r["query"]["id"] for r in records if r["query"]["id"] != broken]


@pytest.mark.parametrize("corrupt", [_break_di_m3, _drop_topology, _rename_di_m3,
                                     _drop_an_operand, _garble_topology])
def test_run_reports_a_ground_truth_that_does_not_replay(tmp_path, capsys, corrupt):
    _run_corrupted(tmp_path, capsys, "routing", corrupt)


@pytest.mark.parametrize("corrupt", [_drop_an_operand, _unknown_target])
def test_run_reports_a_k8s_ground_truth_that_does_not_replay(tmp_path, capsys, corrupt):
    _run_corrupted(tmp_path, capsys, "k8s", corrupt)


def test_run_reports_an_episode_that_raises_and_runs_the_others(batch, tmp_path, capsys,
                                                                monkeypatch):
    ids = _batch_ids(batch)
    original = cli.run_episode

    def episode(env, agent, query, **kw):
        if query.id == ids[1]:
            raise RuntimeError("framework bug")
        return original(env, agent, query, **kw)

    monkeypatch.setattr(cli, "run_episode", episode)
    metrics = tmp_path / "metrics.jsonl"
    assert main(["run", "--batch", str(batch), "--agent", "oracle", "--out", str(metrics)]) == 1
    err = capsys.readouterr().err
    assert f"episode failed ({ids[1]}): Traceback" in err
    assert "RuntimeError: framework bug" in err
    assert [r.query_id for r in read_metrics_jsonl(metrics)] == [i for i in ids if i != ids[1]]


@pytest.mark.parametrize("line", ['{"query": {}}', "not json", "[1]"])
def test_run_and_report_name_a_malformed_line(batch, tmp_path, capsys, line):
    records = [json.loads(text) for text in batch.read_text().splitlines()]
    batch.write_text(batch.read_text() + line + "\n")
    _refresh_digest(batch)
    where = f"{batch}:{len(records) + 1}: "
    assert main(["run", "--batch", str(batch), "--agent", "oracle",
                 "--out", str(tmp_path / "m.jsonl")]) == 2
    assert where in capsys.readouterr().err
    # a batch is not a metrics file: its first line already fails
    assert main(["report", "--metrics", str(batch)]) == 2
    assert f"{batch}:1: " in capsys.readouterr().err


def test_run_exec_agent_with_malformed_cp_answers(tmp_path, capsys):
    batch = tmp_path / "cp.jsonl"
    assert main(["generate", "--app", "cp", "--num-queries", "5", "--seed", "1",
                 "--out", str(batch)]) == 0
    # the second query ranks, so its golden answer is a ranked list too
    assert "rank" in json.loads(batch.read_text().splitlines()[1])["query"]["action_label"]
    reply = json.dumps({"final_answer": {"answer": {"kind": "ranked-list", "value": 5}}})
    script = tmp_path / "agent.py"
    script.write_text(f"import sys\nfor _ in sys.stdin:\n    print({reply!r}, flush=True)\n")
    metrics = tmp_path / "metrics.jsonl"
    assert main(["run", "--batch", str(batch), "--agent", f"exec:{sys.executable} {script}",
                 "--out", str(metrics)]) == 0
    records = read_metrics_jsonl(metrics)
    assert len(records) == 5
    assert all(not r.correct and r.safe and r.latency_turns == 1 for r in records)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_abort_cancels_episodes_not_started(batch, tmp_path, monkeypatch, parallelism):
    first = _batch_ids(batch)[0]
    started = []

    def episode(env, agent, query, **kw):
        if query.id == first:
            raise KeyboardInterrupt  # an abort: unlike an Exception, it ends the run
        started.append(query.id)
        time.sleep(0.2)  # still running when the failure reaches the loop
        raise TransportError("slow episode")

    monkeypatch.setattr(cli, "run_episode", episode)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--batch", str(batch), "--agent", "oracle",
              "--parallelism", str(parallelism), "--out", str(tmp_path / "m.jsonl")])
    # only the episodes the free workers picked up; the other 5 - parallelism never run
    assert len(started) <= parallelism


# one value per config field, none of them the default, and another for the flags
CONFIG = {"app": "k8s", "num_queries": 3, "levels": (1, 3), "seed": 5, "max_turns": 7,
          "agent": "noop", "parallelism": 2, "safety_rule": "lenient"}
OTHER = {"app": "routing", "num_queries": 2, "levels": (2,), "seed": 8, "max_turns": 9,
         "agent": "oracle", "parallelism": 1, "safety_rule": "strict"}


def _text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _flag_argv(command):
    """(config fields ``command`` has a flag for, flags setting them to OTHER's values)."""
    argv = [command, "--out", "x"] + (["--batch", "x"] if command == "run" else [])
    names = set(vars(build_parser().parse_args(argv))) & set(OTHER)
    return names, [arg for name in sorted(names)
                   for arg in ("--" + name.replace("_", "-"), _text(OTHER[name]))]


def _generate(tmp_path, argv):
    """Generate a batch; returns its path and the config its manifest records."""
    out = tmp_path / f"batch{len(list(tmp_path.glob('*.jsonl')))}.jsonl"
    assert main(["generate", *argv, "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".jsonl.manifest.json").read_text())
    return out, BenchmarkConfig(**manifest["config"])


def _config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("\n".join(f"{key} = {_text(value)}" for key, value in CONFIG.items()))
    return path


def test_every_config_field_is_parsed_and_kept_in_the_manifest(tmp_path):
    assert set(CONFIG) == set(OTHER) == {f.name for f in fields(BenchmarkConfig)}
    config_file = _config_file(tmp_path)
    assert parse_config(config_file.read_text()) == BenchmarkConfig(**CONFIG)
    assert _generate(tmp_path, ["--config", str(config_file)])[1] == BenchmarkConfig(**CONFIG)
    names, argv = _flag_argv("generate")
    assert _generate(tmp_path, argv)[1] == BenchmarkConfig(**{k: OTHER[k] for k in names})


def test_run_flags_override_the_manifest_config(tmp_path, monkeypatch):
    batch, _ = _generate(tmp_path, ["--config", str(_config_file(tmp_path))])
    names, argv = _flag_argv("run")
    seen = []
    original = cli._run_one

    def spy(config, *rest):
        seen.append(config)
        return original(config, *rest)

    monkeypatch.setattr(cli, "_run_one", spy)
    assert main(["run", "--batch", str(batch), *argv, "--out", str(tmp_path / "m.jsonl")]) == 0
    assert names and len(seen) == CONFIG["num_queries"]
    assert all(config == BenchmarkConfig(**{**CONFIG, **{k: OTHER[k] for k in names}})
               for config in seen)
