"""Stdlib-only replay agent for the ``exec:`` bridge.

Usage: ``python3 replay_agent.py BATCH_JSONL LOG_JSONL``

The framework starts one process per episode and sends one JSON line
``{"query_id": ..., "prompt": ...}`` per turn. The agent diagnoses with
``ip route`` and ``iptables -L``, replays the query's ``truth.recovery``
from the batch file, then answers ``{"final_answer": "done"}``.

Per turn it appends one JSON line to LOG_JSONL: pid, query_id, turn
index, prompt bytes, and ``gap_ms``, the time between writing its
previous reply and receiving this prompt (null on the first turn).
Each line goes out in a single unbuffered append, because the
framework kills the process at episode end and anything still
buffered would be lost.
"""

import json
import os
import sys
import time

DIAGNOSIS = ("ip route", "iptables -L")


def recovery_for(batch_path, query_id):
    needle = '"id":' + json.dumps(query_id)
    with open(batch_path, encoding="utf-8") as fh:
        for line in fh:
            if needle in line:
                record = json.loads(line)
                if record["query"]["id"] == query_id:
                    return [tuple(step) for step in record["truth"]["recovery"]]
    raise SystemExit(f"replay agent: query {query_id!r} not in {batch_path}")


def main(argv):
    batch_path, log_path = argv[1], argv[2]
    pid = os.getpid()
    log_fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    script = None
    sent_at = None
    turn = 0
    try:
        for line in sys.stdin:
            received_at = time.perf_counter()
            request = json.loads(line)
            query_id = request["query_id"]
            if script is None:
                script = [{"command": cmd} for cmd in DIAGNOSIS]
                script += [{"machine": machine, "command": cmd}
                           for machine, cmd in recovery_for(batch_path, query_id)]
                script.append({"final_answer": "done"})
            gap_ms = None if sent_at is None else (received_at - sent_at) * 1e3
            entry = {"pid": pid, "query_id": query_id, "turn": turn, "gap_ms": gap_ms,
                     "prompt_bytes": len(request["prompt"].encode("utf-8"))}
            os.write(log_fd, (json.dumps(entry) + "\n").encode("utf-8"))
            reply = script[min(turn, len(script) - 1)]
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            sent_at = time.perf_counter()
            turn += 1
    finally:
        os.close(log_fd)


if __name__ == "__main__":
    main(sys.argv)
