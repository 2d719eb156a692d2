"""netbench benchmark: drives the real CLI in-process and prints one JSON result.

Usage, from the root of a netbench checkout:

    python3 perfbench/run.py --workload routing --seed 0 --seconds 40 --trace 0

The program is imported from ``./src``; without it the benchmark exits
non-zero and prints no result. Every run works in a fresh directory under
``.bench_work/`` and removes it at the end.

With ``--trace 0`` the run loops in rounds until ``--seconds`` have passed.
One round generates a fresh batch with ``netbench generate --levels 1,2,3``
(the seed of round r is derived from ``--seed`` and r), runs the ``random``
agent over it as a read-only probe, then the ``oracle`` as the repairing
agent, both with ``netbench run --parallelism 2`` (2 is the core count this
benchmark was sized on). The load is a closed loop from one process with at
most 2 episode threads. A throughput is the work of all rounds divided by
the time of that phase over all rounds. Turn latency is the oracle's view,
pooled over rounds: the CPU time of its episode thread from each reply to
the framework's next prompt or, for the last turn, to the episode's end.

Every reported time, ``setup_s`` too, is scaled by the host's speed over
it (see ``HostClock``): the CPU time of a fixed chunk of interpreter work
that uses nothing of netbench, run on each side of a phase and after every
query and episode in it. A time is reported as it would read where that
chunk takes ``NOMINAL_HOST_S``, so the host's changes of speed cancel
while netbench's own do not. ``meta`` keeps the unscaled throughputs.

The benchmark re-executes itself with ``PYTHONHASHSEED=0``: string hashing
decides set and dict order inside netbench, so a random hash seed per
process would make two runs of the same inputs do different work.

With ``--trace 1`` the run replays round 0 serially (``--parallelism 1``) in
three passes, traced, untraced and traced, and reports per-layer metrics.
On ``routing`` each pass also repairs the batch with a stdlib replay agent
over the ``exec:`` bridge (at most 1 agent process at a time), the only path
through ``agents.external``, ``Observation.render`` and ``agents.extract``;
the agent logs the wall-clock gap from its reply to the next prompt. The
traced passes must agree on every count, and all passes on the batch and
metrics digests.

The second-to-last stdout line is ``{"meta": ...}`` (machine, load, seed,
samples and their counts, digests); the last is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

PARALLELISM = 2
LEVELS = "1,2,3"
SETUP_SAMPLES = 11
HASH_SEED = "0"
HOST_CHUNKS = 10  # reference chunks timed on each side of a phase
NOMINAL_HOST_S = 1e-3  # the reference chunk time that reported times are scaled to
REPLAY_AGENT = HERE / "replay_agent.py"


@dataclass(frozen=True)
class Workload:
    app: str
    queries: int  # per round
    trace_queries: int  # per traced pass
    bridge: bool = False  # traced passes also replay the batch over the exec: bridge


WORKLOADS = {
    "routing": Workload("routing", 40, 40, bridge=True),
    "k8s": Workload("k8s", 40, 54),
    "cp": Workload("cp", 100, 120),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "gen_qps": "queries/s",
    "repair_eps": "episodes/s",
    "repair_tps": "turns/s",
    "probe_tps": "turns/s",
    "turn_mean_ms": "ms",
    "turn_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def batch_seed(seed, index):
    """The ``generate --seed`` of round ``index``: distinct per (seed, index) below 1000 rounds."""
    return seed * 1000 + index


def per_layer_unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), (".ms", "ms"), ("_bytes_p50", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(".calls"):
        return "count"
    return "ratio"


# --- the program under test ----------------------------------------------------

def load_program(root):
    """Import ``netbench.cli`` from ``root/src``, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "netbench" / "cli.py").is_file():
        raise SystemExit(f"error: no netbench sources under {src}; "
                         "run from the root of a netbench checkout")
    sys.path.insert(0, str(src))
    import netbench.cli
    import netbench.digest
    if src not in Path(netbench.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported netbench from {netbench.cli.__file__}, not {src}")
    return netbench.cli, netbench.digest.digest


# --- the host's speed -------------------------------------------------------------

def _reference_chunk():
    table = {}
    for i in range(2400):
        key = f"r{i % 97}"
        table[key] = table.get(key, 0) + i * i % 7
    return sorted(table.items())


def host_sample():
    """CPU seconds of this thread for one reference chunk."""
    started = time.thread_time()
    _reference_chunk()
    return time.thread_time() - started


def host_seconds():
    """Mean CPU time of a reference chunk, sampled now."""
    return statistics.fmean(host_sample() for _ in range(HOST_CHUNKS))


def scaled(seconds, host_s):
    """``seconds`` measured while the reference chunk took ``host_s``, as they
    would read on a host where it takes ``NOMINAL_HOST_S``."""
    return seconds * NOMINAL_HOST_S / host_s


class HostClock:
    """Times phases together with the host's speed over them.

    The host's speed is the CPU time of a fixed chunk of interpreter work
    (dict, str and int operations) that uses nothing of netbench, so only the
    host changes it. On a shared 2-vCPU virtual machine that time was seen to
    swing up to 2x within seconds and across runs, and netbench's phases
    swung with it. Chunks run on each side of a phase and, while the clock
    is installed, after every generated query and every episode, so that
    they sample the host throughout the phase; their CPU time is taken off
    the phase's wall time. CPU time keeps a chunk free of the time its
    thread waits for the other episode thread's hold of the interpreter lock.
    """

    # one generated query; one episode with its agent's close and its scoring
    SAMPLED_AFTER = ("netbench.routing.generate:generate_routing_query",
                     "netbench.k8spolicy.generate:generate_k8s_query",
                     "netbench.cp.generate:generate_cp_query",
                     "netbench.cli:_run_one")

    def __init__(self):
        self._inside = []

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for target in self.SAMPLED_AFTER:
                found = tracing.resolve(target)
                if found is not None:  # else only the sides of a phase are sampled
                    owner, attr, original = found
                    undo.extend(tracing.patch_call_sites(owner, attr, original,
                                                         self._sampling(original)))
            yield self
        finally:
            tracing.restore(undo)

    def _sampling(self, fn):
        inside = self._inside

        def sampled(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                inside.append(host_sample())

        return sampled

    def time(self, action):
        """Run ``action``; returns (its result, seconds, host seconds over it)."""
        edges = [host_sample() for _ in range(HOST_CHUNKS)]
        gc.collect()  # start each timed phase from the same collector state
        self._inside.clear()
        started = time.perf_counter()
        result = action()
        seconds = time.perf_counter() - started - math.fsum(self._inside)
        edges.extend(host_sample() for _ in range(HOST_CHUNKS))
        return result, seconds, statistics.fmean(edges + self._inside)


def setup_seconds(root):
    """Median host-scaled time to import ``netbench.cli`` in a fresh
    interpreter, and the raw samples."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import netbench.cli; print(time.perf_counter() - t)")
    raw, samples = [], []
    clock = HostClock()
    for _ in range(SETUP_SAMPLES):
        done, _, host_s = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
            timeout=120, check=True))
        raw.append(float(done.stdout.split()[-1]))
        samples.append(scaled(raw[-1], host_s))
    return statistics.median(samples), raw


@contextlib.contextmanager
def patched(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


class _TimedAgent:
    """Wraps a built-in agent and records, on the agent's side, the gap from
    each reply to the framework's next prompt, or to the end of the episode.

    The gap is CPU time of the episode's thread, which does all of the
    framework's work for that turn. Wall time would mostly measure how long
    the other episode thread held the interpreter lock.
    """

    def __init__(self, inner, gaps):
        self._inner = inner
        self._gaps = gaps
        self._replied = None

    def reset(self):
        self._replied = None
        self._inner.reset()

    def step(self, observation):
        if self._replied is not None:
            self._gaps.append(time.thread_time() - self._replied)
        message = self._inner.step(observation)
        self._replied = time.thread_time()
        return message

    def close(self):
        if self._replied is not None:
            self._gaps.append(time.thread_time() - self._replied)
            self._replied = None
        close = getattr(self._inner, "close", None)
        if close:
            close()


# --- one session: CLI calls with their correctness checks -------------------------

class Session:
    """Runs CLI phases for one workload and tallies attempted and failed operations."""

    def __init__(self, cli, digest, workload, workdir, parallelism):
        self.cli = cli
        self.digest = digest
        self.workload = workload
        self.workdir = workdir
        self.parallelism = parallelism
        self.tracer = None
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, count, message):
        self.failed += count
        self.errors.append(message)
        print(f"benchmark: {message}", file=sys.stderr)

    def _main(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI's own crash is a failed operation, not ours
            traceback.print_exc()
            return -1

    def _call(self, phase, argv):
        """Run the CLI; returns (exit code, wall seconds, host seconds around it)."""
        if self.tracer is not None:
            self.tracer.phase = phase
        return self.clock.time(lambda: self._main(argv))

    def generate(self, seed, count, directory):
        """Generate a batch; returns (seconds, host seconds, batch path, batch digest)."""
        batch = directory / "batch.jsonl"
        code, seconds, host_s = self._call(tracing.GENERATE, [
            "generate", "--app", self.workload.app, "--num-queries", count,
            "--levels", LEVELS, "--seed", seed, "--out", batch])
        self.attempted += count
        text = batch.read_text(encoding="utf-8") if batch.exists() else ""
        lines = text.count("\n") if code == 0 else 0
        if lines != count:
            self.fail(count - min(lines, count),
                       f"generate seed {seed}: exit {code}, {lines}/{count} queries")
            return seconds, host_s, batch, None
        manifest = json.loads((directory / "batch.jsonl.manifest.json").read_text(encoding="utf-8"))
        batch_digest = self.digest(text)
        if manifest.get("batch_digest") != batch_digest:
            self.fail(1, f"generate seed {seed}: manifest batch_digest differs from the file")
        return seconds, host_s, batch, batch_digest

    def run(self, batch, agent, phase, count, out):
        """Run ``agent`` over ``batch``; returns (seconds, host seconds, turns, metrics digest)."""
        code, seconds, host_s = self._call(phase, [
            "run", "--batch", batch, "--agent", agent, "--parallelism", self.parallelism,
            "--out", out])
        self.attempted += count
        records = []
        if out.exists():
            records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        missing = count - len({r["query_id"] for r in records})
        # a repairing agent must end correct and safe; the probe only safe
        repairing = phase in tracing.REPAIRING
        bad = [r["query_id"] for r in records
               if not r["safe"] or (repairing and not r["correct"])]
        failures = missing + len(bad)
        if code != 0 and failures == 0:
            failures = 1
        if failures:
            self.fail(failures, f"{phase} run: exit {code}, {missing} episodes missing, "
                                f"{len(bad)} failed the check, e.g. {bad[:3]}")
        turns = sum(r["latency_turns"] for r in records)
        scrubbed = sorted(({k: v for k, v in r.items() if k != "latency_wall"} for r in records),
                          key=lambda r: r["query_id"])
        metrics_digest = hashlib.sha256(json.dumps(scrubbed, sort_keys=True).encode()).hexdigest()
        return seconds, host_s, turns, metrics_digest

    def round(self, seed, count, directory, turn_gaps=None, bridge=False):
        """One generate / probe / repair round in ``directory``.

        Each phase records its wall seconds (``<phase>_s``) and the host
        seconds measured around it (``<phase>_host_s``). The oracle's turns
        are timed into ``turn_gaps`` when given, scaled by the host seconds
        of the repair phase. With ``bridge`` the batch is also repaired by
        the replay agent over ``exec:``, which logs its own timings.
        """
        directory.mkdir(parents=True)
        gen_s, gen_host_s, batch, batch_digest = self.generate(seed, count, directory)
        result = {"gen_s": gen_s, "gen_host_s": gen_host_s, "batch_digest": batch_digest}
        if batch_digest is None:
            return result
        (result["probe_s"], result["probe_host_s"], result["probe_turns"],
         result["probe_digest"]) = self.run(
            batch, "random", tracing.PROBE, count, directory / "probe.jsonl")
        clocked = contextlib.nullcontext()
        gaps = []
        if turn_gaps is not None:
            clocked = patched(self.cli, "make_agent",
                              lambda spec, q, t, make=self.cli.make_agent:
                              _TimedAgent(make(spec, q, t), gaps))
        with clocked:
            (result["repair_s"], result["repair_host_s"], result["repair_turns"],
             result["repair_digest"]) = self.run(
                batch, "oracle", tracing.REPAIR, count, directory / "repair.jsonl")
        if turn_gaps is not None:
            turn_gaps.extend(scaled(g, result["repair_host_s"]) for g in gaps)
        if bridge:
            log = directory / "replay.log"
            argv = [sys.executable, str(REPLAY_AGENT), str(batch), str(log)]
            agent = "exec:exec " + " ".join(shlex.quote(a) for a in argv)
            (result["bridge_s"], result["bridge_host_s"], result["bridge_turns"],
             result["bridge_digest"]) = self.run(
                batch, agent, tracing.BRIDGE, count, directory / "bridge.jsonl")
            result["bridge_log"] = read_log(log)
        return result


def read_log(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


# --- the two kinds of run --------------------------------------------------------

DIGESTS = ("batch_digest", "probe_digest", "repair_digest", "bridge_digest")


def end_to_end(session, root, seed, seconds, meta):
    """Rounds over fresh batches until ``seconds`` pass; end-to-end metrics.

    A throughput is the work of all rounds over the phase's host-scaled
    time in all rounds (see ``HostClock``); ``meta["unscaled"]`` holds the
    same throughputs in wall time. The cost of a query varies about as much
    as its mean (routing, k8s and cp alike), so a run is steady only when it
    pools every round; a quantile of per-round rates follows whichever
    batches were cheap.
    Turn latency is reported as a mean and a p90: the gaps fall into a few
    modes (read turns, write turns, the check after the last turn), and a
    median jumps between modes as the mix of queries shifts; a p99 rests on
    the few heaviest turns of a run and moved 10-12% between seeds, where
    the p90 moved about 6%.
    """
    setup_s, setup_samples = setup_seconds(root)
    n = session.workload.queries
    gaps = []
    rounds = []
    durations = []
    started = time.perf_counter()
    with session.clock.installed():
        while True:
            began = time.perf_counter()
            directory = session.workdir / f"round{len(rounds)}"
            rounds.append(session.round(batch_seed(seed, len(rounds)), n, directory, gaps))
            shutil.rmtree(directory)
            durations.append(time.perf_counter() - began)
            if time.perf_counter() - started + statistics.median(durations) > seconds:
                break
    complete = [r for r in rounds if "repair_s" in r]
    if not complete or not gaps:
        raise SystemExit("error: no round completed; nothing to report")

    def throughputs(seconds):
        def spent(phase, over):
            return sum(seconds(r[f"{phase}_s"], r[f"{phase}_host_s"]) for r in over)
        return {
            "gen_qps": n * len(rounds) / spent("gen", rounds),
            "repair_eps": n * len(complete) / spent("repair", complete),
            "repair_tps": sum(r["repair_turns"] for r in complete) / spent("repair", complete),
            "probe_tps": sum(r["probe_turns"] for r in complete) / spent("probe", complete),
        }

    metrics = throughputs(scaled)
    meta["unscaled"] = throughputs(lambda wall_s, host_s: wall_s)
    metrics["setup_s"] = setup_s
    metrics["turn_mean_ms"] = statistics.fmean(gaps) * 1e3
    metrics["turn_p90_ms"] = tracing.quantile(gaps, 0.90) * 1e3
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta["setup_raw_samples"] = setup_samples
    meta["measured_s"] = time.perf_counter() - started
    meta["rounds"] = len(rounds)
    meta["queries"] = n * len(rounds)
    meta["episodes"] = 2 * n * len(complete)
    # a throughput's samples are the rounds it pools
    meta["samples"] = {"gen_qps": len(rounds), "repair_eps": len(complete),
                       "repair_tps": len(complete), "probe_tps": len(complete),
                       "setup_s": len(setup_samples),
                       "turn_mean_ms": len(gaps), "turn_p90_ms": len(gaps), "peak_rss_mb": 1}
    meta["round0"] = {k: rounds[0].get(k) for k in DIGESTS[:3]}
    meta["per_round"] = [{k: round(v, 6) for k, v in r.items() if isinstance(v, (int, float))}
                         for r in rounds]
    return metrics


def traced(session, seed, meta):
    """Serial passes over round 0: traced, untraced, traced; per-layer metrics.

    The untraced pass sits between the traced ones so that warm-up and drift
    fall on both sides of the overhead comparison; the reported per-layer
    times come from the last, warm pass.
    """
    n = session.workload.trace_queries
    bridge = session.workload.bridge
    labels = ("traced_a", "untraced", "traced_b")
    passes = []
    for label in labels:
        tracer = tracing.Tracer() if label != "untraced" else None
        session.tracer = tracer
        with tracer.installed() if tracer else contextlib.nullcontext():
            result = session.round(seed, n, session.workdir / label, bridge=bridge)
        session.tracer = None
        if "repair_s" not in result:
            raise SystemExit(f"error: the {label} pass did not complete; nothing to report")
        result["tracer"] = tracer
        passes.append(result)
    traced_passes = [passes[0], passes[2]]
    untraced = passes[1]

    digests = {label: {k: p.get(k) for k in DIGESTS} for label, p in zip(labels, passes)}
    meta["digests"] = digests
    if len({json.dumps(d, sort_keys=True) for d in digests.values()}) != 1:
        session.fail(1, f"same seed, different outputs across passes: {digests}")

    layer_metrics = []
    episodes = (3 if bridge else 2) * n
    for p in traced_passes:
        spawns = len({e["pid"] for e in p["bridge_log"]}) / n if bridge else 0.0
        metrics, bases = tracing.analyse(p["tracer"].spans, n, episodes, spawns)
        layer_metrics.append(metrics)
    meta["bases"] = bases
    counts_a, counts_b = (tracing.count_metrics(m) for m in layer_metrics)
    if counts_a != counts_b:
        diff = {k: (counts_a[k], counts_b.get(k)) for k in counts_a if counts_a[k] != counts_b.get(k)}
        session.fail(1, f"per-layer counts differ between two traced passes: {diff}")
    meta["absent_targets"] = traced_passes[0]["tracer"].absent
    meta["spans"] = [len(p["tracer"].spans) for p in traced_passes]

    gaps = [e["gap_ms"] for e in untraced.get("bridge_log", ()) if e["gap_ms"] is not None]
    meta["bridge_gaps"] = len(gaps)
    def repair_tps(p):
        return p["repair_turns"] / scaled(p["repair_s"], p["repair_host_s"])

    untraced_tps = repair_tps(untraced)
    traced_tps = statistics.mean(repair_tps(p) for p in traced_passes)
    metrics = dict(layer_metrics[1])
    metrics["trace.overhead_frac"] = (untraced_tps - traced_tps) / untraced_tps
    metrics["agents.external.reply_gap_p50_ms"] = tracing.quantile(gaps, 0.50)
    metrics["agents.external.reply_gap_p90_ms"] = tracing.quantile(gaps, 0.90)
    meta["queries"] = 3 * n
    meta["episodes"] = 3 * episodes
    meta["repair_tps"] = {"untraced": untraced_tps, "traced": traced_tps}
    return metrics


def cpu_times():
    """(steal, total) jiffies of the whole machine, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def run_workload(name, seed, seconds, trace, root=None, queries=None):
    """Run one benchmark; returns (meta, result) as printed by ``main``.

    ``queries`` overrides the per-round and per-pass batch size (for smoke tests).
    """
    root = Path(root or Path.cwd()).resolve()
    workload = WORKLOADS[name]
    if queries:
        workload = Workload(workload.app, queries, queries, workload.bridge)
    cli, digest = load_program(root)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "loadavg_start": os.getloadavg(), "parallelism": PARALLELISM,
        "queries_per_round": workload.queries,
    }
    meta["host_s_start"] = host_seconds()
    cpu_start = cpu_times()
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if trace:
            session = Session(cli, digest, workload, workdir, 1)
            metrics = traced(session, batch_seed(seed, 0), meta)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            session = Session(cli, digest, workload, workdir, PARALLELISM)
            metrics = end_to_end(session, root, seed, seconds, meta)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    meta["host_s_end"] = host_seconds()
    cpu_end = cpu_times()
    if cpu_start and cpu_end and cpu_end[1] > cpu_start[1]:
        # share of machine time the hypervisor gave to other guests
        meta["cpu_steal_frac"] = (cpu_end[0] - cpu_start[0]) / (cpu_end[1] - cpu_start[1])
    meta["fail_frac"] = session.failed / session.attempted
    meta["errors"] = session.errors[:20]
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return meta, result


def pin_hash_seed():
    """Re-execute this script with a fixed ``PYTHONHASHSEED`` unless it has one."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    meta, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
