import json

import pytest

from netbench.cli import main
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
