"""Command-line interface: generate benchmarks, run agents, report results.

Exit codes: 0 on success, 1 when a run or report fails partway,
2 for unusable arguments or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

from .agents import BUILTIN_AGENTS, check_agent_spec, make_agent
from .core.config import load_config, parse_levels
from .core.episode import run_episode
from .core.generate import app_entry, generate_batch, make_environment, read_batch_jsonl, \
    write_batch_jsonl
from .core.types import APPS, BenchmarkConfig
from .cp.sft import export_sft_records
from .digest import canonical_json, digest
from .errors import NetbenchError, ParseError
from .evaluation.aggregate import aggregate_records, rows_to_csv
from .evaluation.metrics import score_episode
from .evaluation.report import emit_reports, read_metrics_jsonl


def _manifest_path(batch_path: Path) -> Path:
    return batch_path.with_suffix(batch_path.suffix + ".manifest.json")


def _flag_values(args) -> dict:
    """The config fields the command line sets."""
    return {f.name: getattr(args, f.name) for f in fields(BenchmarkConfig)
            if getattr(args, f.name, None) is not None}


def _config_from_args(args) -> BenchmarkConfig:
    if args.config:
        config = load_config(args.config)
        if args.app and args.app != config.app:
            raise ParseError(f"--app {args.app} conflicts with config app {config.app}")
        return replace(config, **_flag_values(args))
    if not args.app:
        raise ParseError("either --config or --app is required")
    return BenchmarkConfig(**_flag_values(args))


# --- subcommands ------------------------------------------------------------

def cmd_generate(args) -> int:
    config = _config_from_args(args)
    pairs = generate_batch(config)
    out = Path(args.out)
    write_batch_jsonl(pairs, out)
    manifest = {
        "config": config.to_json(),
        "num_queries": len(pairs),
        "batch_digest": digest(out.read_text(encoding="utf-8")),
    }
    _manifest_path(out).write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    if args.sft:
        if config.app != "cp":
            raise ParseError("--sft export requires the constructive application (cp)")
        export_sft_records(pairs, args.sft)
    print(f"wrote {len(pairs)} queries to {out}")
    return 0


def _run_one(config, query, truth, agent_spec, context):
    env = make_environment(config, query, truth, base_graph=context)
    agent = make_agent(agent_spec, query, truth)
    try:
        result = run_episode(env, agent, query, max_turns=config.max_turns)
    finally:
        close = getattr(agent, "close", None)
        if close:
            close()
    return score_episode(query, result)


def _read_manifest(path: Path) -> tuple[dict, BenchmarkConfig]:
    """A batch manifest and the config it records; ParseError names ``path`` if unusable."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"manifest {path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ParseError(f"manifest {path} must be a JSON object with a 'config' object")
    unknown = manifest["config"].keys() - {f.name for f in fields(BenchmarkConfig)}
    if unknown:
        raise ParseError(f"manifest {path}: unknown config keys {sorted(unknown)}")
    try:
        return manifest, BenchmarkConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"manifest {path}: config: {exc}") from None


def cmd_run(args) -> int:
    batch_path = Path(args.batch)
    pairs = read_batch_jsonl(batch_path)
    if not pairs:
        raise ParseError(f"batch {batch_path} holds no queries")

    manifest_path = _manifest_path(batch_path)
    if not manifest_path.exists():
        raise ParseError(f"missing manifest {manifest_path}; regenerate the batch")
    manifest, config = _read_manifest(manifest_path)
    if digest(batch_path.read_text(encoding="utf-8")) != manifest.get("batch_digest"):
        raise ParseError(f"batch {batch_path} does not match the batch_digest in "
                         f"{manifest_path}; regenerate the batch")
    config = replace(config, **_flag_values(args))
    check_agent_spec(config.agent, config.app)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    done = set()
    if out.exists() and args.resume:
        done = {r.query_id for r in read_metrics_jsonl(out)}
    elif out.exists() and not args.resume:
        out.unlink()

    todo = [(q, t) for q, t in pairs if q.id not in done]
    context = app_entry(config.app).context(config)
    failures = 0
    with out.open("a", encoding="utf-8") as fh:
        pool = ThreadPoolExecutor(max_workers=config.parallelism)
        try:
            futures = [(query.id, pool.submit(_run_one, config, query, truth, config.agent,
                                              context))
                       for query, truth in todo]
            for query_id, future in futures:
                try:
                    record = future.result()
                except Exception as exc:  # one episode's failure is not the batch's
                    detail = str(exc) if isinstance(exc, NetbenchError) else traceback.format_exc()
                    print(f"episode failed ({query_id}): {detail}", file=sys.stderr)
                    failures += 1
                    continue
                fh.write(canonical_json(record.to_json()) + "\n")
                fh.flush()
        finally:
            # when an exception leaves the loop, episodes not yet started never run
            pool.shutdown(cancel_futures=True)

    print(f"ran {len(todo) - failures} episodes ({len(done)} resumed, {failures} failed); "
          f"metrics in {out}")
    return 1 if failures else 0


def cmd_report(args) -> int:
    records = read_metrics_jsonl(args.metrics)
    if args.out:
        paths = emit_reports(records, args.out)
        print(f"reports written to {paths['csv'].parent}")
    rows = aggregate_records(records)
    print(rows_to_csv(rows), end="")
    return 0


# --- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbench",
        description="Dynamic network-operations benchmark: generation, execution, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a query batch")
    gen.add_argument("--config", help="key=value configuration file")
    gen.add_argument("--app", choices=APPS)
    gen.add_argument("--num-queries", dest="num_queries", type=int)
    gen.add_argument("--levels", type=parse_levels,
                     help="comma-separated complexity levels, e.g. 1,2,3")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument("--sft", help="also export constructive fine-tuning records (cp only)")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run an agent over a generated batch")
    run.add_argument("--batch", required=True, help="batch JSONL from 'generate'")
    run.add_argument("--agent",
                     help=f"one of {', '.join(BUILTIN_AGENTS)}, exec:<command>, or an http(s) URL")
    run.add_argument("--parallelism", type=int)
    run.add_argument("--safety-rule", dest="safety_rule", choices=("strict", "lenient"))
    run.add_argument("--resume", action="store_true",
                     help="keep existing metrics and only run missing queries")
    run.add_argument("--out", required=True, help="metrics JSONL path")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="aggregate metrics into summary tables")
    rep.add_argument("--metrics", required=True, help="metrics JSONL from 'run'")
    rep.add_argument("--out", help="directory for metrics/summary artifacts")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
