"""Seeded end-to-end benchmark of the subtrop CLI, with an optional traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

The driver generates the workload's corpus from ``--seed`` (``corpus.py``)
and sends one CLI call at a time to a fork server (``worker.py``), which
runs each call in a fresh child as ``subtrop.cli.main([...])``.  Every run
measures the workload's head, then a number of instances from its seeded
stream that depends only on ``--seconds`` and ``--trace``, so the same
arguments always make the same calls.  Times are also reported calibrated
to a host of fixed speed (``calibration.py``).  A call that reaches its
time limit is undecided; a crash, exit code 4 or a refusal (exit 2) is
failed; both count as results.
Every verdict is checked against the instance's reference answer and every
SAT vector against the system's CNF; a wrong verdict makes the run exit
with code 1.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each call runs once untraced and once
with spans around the stage functions (``tracing.py``), and the JSON holds
the per-layer metrics.  Lines before it are a human-readable report.
Files go to ``perfbench/_runs/`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
from collections import deque
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from calibration import LONG_CALL_S, NOMINAL_S, calibrate  # noqa: E402
from tracing import LAYERS  # noqa: E402

SETUP_SPAWNS = 7  # fork servers spawned at the start to time set-up; the median is reported
KILL_GRACE_S = 2.0  # beyond the call's limit, before the driver kills a worker that is stuck in C
SAMPLE_EVERY_S = 0.1  # while a call runs, the driver times the calibration loop this often


class WorkerDied(Exception):
    """The worker closed its stdout: it crashed or was killed from outside."""


class Worker:
    """A fork server subprocess whose current child serves the next call.

    ``setup_s`` is the time from spawning the process until its first
    child's announcement, which comes once ``subtrop`` is imported;
    ``setup_cal_s`` is the same on a host where the calibration loop takes
    NOMINAL_S, by the median of five loops timed just before the spawn.
    """

    def __init__(self, trace: bool):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        calibration_s = statistics.median(calibrate() for _ in range(5))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), env=env
        )
        self._buffer = b""
        try:
            ready = self._ready()
        except WorkerDied:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        self.setup_cal_s = self.setup_s * NOMINAL_S / calibration_s
        self.import_s = ready["import_s"]

    def _read(self, timeout: float, samples: list[float] | None = None):
        """The next line, or None after ``timeout``; while waiting, times the
        calibration loop into ``samples`` every SAMPLE_EVERY_S if it is given."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            wait = remaining if samples is None else min(remaining, SAMPLE_EVERY_S)
            if not select.select([fd], [], [], wait)[0]:
                if samples is not None:
                    samples.append(calibrate())
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied("worker exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def _ready(self) -> dict:
        """The next serving process's announcement; a killed child's partial line is skipped."""
        while True:
            try:
                message = self._read(60.0)
            except json.JSONDecodeError:
                continue
            if message is None:
                raise WorkerDied("worker did not start")
            if message.get("ready"):
                self.pid = message["pid"]
                return message

    def call(self, request: dict):
        """The worker's reply, or None when it missed the limit by more than the grace.

        Either way the next forked child is ready when this returns.  A call
        of LONG_CALL_S or more spans many swings of host speed, and one loop
        timed before it tracks them poorly, so it is calibrated by the median
        of the loops the driver timed in its own process while the call ran.
        """
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        samples: list[float] = []
        reply = self._read(request["limit_s"] + KILL_GRACE_S, samples)
        if reply is not None and reply.get("time_s", 0.0) >= LONG_CALL_S and samples:
            reply["calibration_s"] = statistics.median(samples)
        if reply is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._buffer = b""
        self._ready()
        return reply

    def close(self):
        try:
            self.proc.stdin.close()  # the serving process exits at end of input
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for pid in (getattr(self, "pid", None), self.proc.pid):
            if pid is not None and self.proc.poll() is None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait()
        self.proc.stdout.close()


class Pool:
    """Times set-up on fresh fork servers, then serves every call from the last one."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.setup_samples: list[float] = []
        self.setup_cal_samples: list[float] = []
        self.import_samples: list[float] = []
        self.kills = 0
        # Recent calibration times; limits scale with them, so that "decided
        # within the limit" means the same amount of work on a slow or fast host.
        self.calibrations = deque((calibrate() for _ in range(9)), maxlen=25)
        for spawn in range(SETUP_SPAWNS):
            worker = Worker(trace)
            self.setup_samples.append(worker.setup_s)
            self.setup_cal_samples.append(worker.setup_cal_s)
            self.import_samples.append(worker.import_s)
            if spawn < SETUP_SPAWNS - 1:
                worker.close()
        self.worker = worker

    def calibration(self) -> float:
        """The recent median calibration time."""
        return statistics.median(self.calibrations)

    def limit(self, nominal_s: float) -> float:
        """A nominal limit in seconds on this host at its current speed."""
        return nominal_s * self.calibration() / NOMINAL_S

    def call(self, request: dict) -> dict:
        try:
            reply = self.worker.call(request)
        except WorkerDied:  # the fork server itself is gone: start a new one
            self.worker.close()
            self.worker = Worker(self.trace)
            return {"outcome": "crash", "exception": "WorkerDied", "time_s": request["limit_s"]}
        if reply is None:
            self.kills += 1
            return {"outcome": "timeout", "time_s": request["limit_s"], "killed": True}
        if reply.get("calibration_s"):
            self.calibrations.append(reply["calibration_s"])
        return reply

    def close(self):
        self.worker.close()


# -- correctness gate -----------------------------------------------------


def classify(reply: dict) -> str:
    """decided | timeout | failed | disagree."""
    outcome = reply["outcome"]
    if outcome != "exit":
        return "timeout" if outcome == "timeout" else "failed"
    code = reply["exit"]
    if code in (0, 1):
        return "decided"
    if code == 3:
        return "disagree"
    return "failed"


def verdict_of(command: str, reply: dict) -> str | None:
    """sat / unsat for decide and verify calls, None otherwise."""
    if command not in ("decide", "verify") or classify(reply) != "decided":
        return None
    return "sat" if reply["exit"] == 0 else "unsat"


def check(instance: corpus.Instance, command: str, reply: dict, verdict) -> list[str]:
    """Reasons this call's answer is wrong; empty when it is right or cannot be judged."""
    problems = []
    if classify(reply) == "disagree":
        problems.append("decide --check reported a cross-check disagreement")
    if verdict is not None and instance.reference in ("sat", "unsat") and verdict != instance.reference:
        problems.append(f"verdict {verdict}, reference {instance.reference}")
    if verdict == "sat" and reply.get("certificate") is not True:
        problems.append("SAT vector does not satisfy build_cnf(system)")
    if command == "explain" and classify(reply) == "decided":
        digest, want = reply["digest"], instance.expected
        if digest["literals_keys"]:  # JSON: one "literals" key per clause, one "pos" per literal
            got = (digest["literals_keys"], digest["pos_keys"])
        else:  # text: one "clause " line per clause, one "[" per literal
            got = (digest["clause_lines"], digest["brackets"])
        if got != (want["clauses"], want["literals"]):
            problems.append(f"explain: clauses/literals {got}, expected {want}")
    return problems


def n_bits(reply: dict) -> int | None:
    text = reply.get("stdout") or ""
    if not text.startswith("{"):
        return None
    payload = json.loads(text)
    if "n" not in payload:
        return None
    return max((abs(int(x)).bit_length() for x in payload["n"]), default=0)


# -- the measured loop ----------------------------------------------------


def instances(workload: str, seed: int, seconds: float, trace: bool):
    yield from corpus.head(workload)
    for index in range(corpus.stream_length(workload, seconds, trace)):
        yield corpus.stream(workload, seed, index)


def materialise(instance: corpus.Instance, directory: Path) -> tuple[Path, Path]:
    spp = directory / f"{instance.ident}.spp"
    spp.write_text(instance.spp, encoding="utf-8")
    coeffs = directory / f"{instance.ident}.coeffs"
    coeffs.write_text(instance.coeffs, encoding="utf-8")
    return spp, coeffs


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    corpus_dir = run_dir / "corpus"
    corpus_dir.mkdir(parents=True)
    records: list[dict] = []
    pool = Pool(trace)
    try:
        with open(run_dir / "manifest.jsonl", "w", encoding="utf-8") as manifest:
            for instance in instances(workload, seed, seconds, trace):
                manifest.write(json.dumps(instance.manifest_entry()) + "\n")
                spp, coeffs = materialise(instance, corpus_dir)
                verdicts = {}
                for k, call in enumerate(instance.calls):
                    argv = [call[0], str(spp)] + [
                        str(coeffs) if a == "{coeffs}" else a for a in call[1:]
                    ]
                    request = {
                        "id": f"{instance.ident}/{k}",
                        "argv": argv,
                        "input": str(spp),
                        "limit_s": pool.limit(instance.limit_s),
                    }
                    reply = pool.call(request)
                    traced = None
                    if trace:
                        traced = pool.call(dict(request, traced=True))
                    reply.setdefault("calibration_s", pool.calibration())
                    record = make_record(instance, call[0], reply, traced)
                    record["call"] = request["id"]
                    verdicts[call[0]] = record["verdict"]
                    records.append(record)
                decided = {c: v for c, v in verdicts.items() if v is not None}
                if len(set(decided.values())) > 1:
                    records[-1]["problems"].append(f"decide and verify disagree: {decided}")
    finally:
        pool.close()
    shutil.rmtree(corpus_dir)
    if trace:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as out:
            for r in records:
                for name, begin, end, parent, error in (r["traced"]["trace"] or {}).get("spans", []):
                    span = {"call": r["call"], "name": name, "start": begin, "end": end,
                            "parent": parent, "error": error}
                    out.write(json.dumps(span) + "\n")
    return records, pool


def calibrate_record(record: dict) -> float:
    """The call's charged time on a host where the calibration loop takes NOMINAL_S.

    A call that reached its limit is charged its nominal limit: the limit was
    scaled by the recent median loop time, which measures the host better
    than the one loop timed before the call.
    """
    if record["class"] == "timeout":
        return record["limit_s"]
    return record["charged_s"] * NOMINAL_S / record["calibration_s"]


def make_record(instance: corpus.Instance, command: str, reply: dict, traced: dict | None) -> dict:
    verdict = verdict_of(command, reply)
    record = {
        "id": instance.ident,
        "kind": instance.kind,
        "tier": instance.tier,
        "head": instance.head,
        "command": command,
        "limit_s": instance.limit_s,
        "class": classify(reply),
        "exception": reply.get("exception"),
        "exit": reply.get("exit"),
        "time_s": reply.get("time_s"),
        "calibration_s": reply["calibration_s"],
        # Measured time: what the call took; a killed call is charged its whole limit.
        "charged_s": reply["time_s"],
        "rss_mb": reply.get("rss_mb"),
        "verdict": verdict,
        "reference": instance.reference,
        "n_bits": n_bits(reply) if verdict == "sat" else None,
        "refusal": refusal_reason(reply),
        "problems": check(instance, command, reply, verdict),
    }
    if traced is not None:
        record["traced"] = {
            "class": classify(traced),
            "time_s": traced.get("time_s"),
            "stdout_sha256": traced.get("digest", {}).get("sha256"),
            "trace": traced.get("trace"),
        }
        record["stdout_sha256"] = reply.get("digest", {}).get("sha256")
        both = record["class"] == "decided" and record["traced"]["class"] == "decided"
        if both and (record["stdout_sha256"] != record["traced"]["stdout_sha256"]
                     or reply.get("exit") != traced.get("exit")):
            record["problems"].append("traced and untraced outputs differ")
        if record["traced"]["class"] == "decided":
            record["problems"] += check(instance, command, traced, verdict_of(command, traced))
    return record


def refusal_reason(reply: dict) -> str | None:
    if reply.get("outcome") != "exit" or reply.get("exit") != 2:
        return None
    err = reply.get("stderr", "")
    if "selections exceed" in err:
        return "too-many-selections"
    if "would exceed" in err:
        return "size-limit"
    return "other"


# -- metrics --------------------------------------------------------------


def _percentiles(records, key: str) -> tuple[float, float | None, int]:
    """p50 and tail of ``key``; a call without a result counts as missing every limit.

    The tail is the highest percentile with at least 10 calls beyond it; its
    rank is returned too.  Misses rank last, as infinity.
    """
    times = sorted(r[key] if r["class"] == "decided" else math.inf for r in records)
    n = len(times)
    tail_rank = n - 10
    tail = times[tail_rank - 1] if tail_rank >= 1 else None
    return times[math.ceil(0.5 * n) - 1], tail, tail_rank


def end_to_end(records, pool: Pool) -> dict:
    n = len(records)
    measured = sum(r["charged_s"] for r in records)
    for r in records:
        r["charged_cal_s"] = calibrate_record(r)
    decided = [r for r in records if r["class"] == "decided"]
    head = [r for r in records if r["head"]]
    failed = [r for r in records if r["class"] == "failed"]
    p50, tail, tail_rank = _percentiles(records, "charged_s")
    p50_cal, tail_cal, _ = _percentiles(records, "charged_cal_s")
    sat_bits = [r["n_bits"] for r in records if r["n_bits"] is not None]
    verifies = [r for r in records if r["command"] == "verify"]
    verify_sat = [r for r in verifies if r["verdict"] == "sat" or r["refusal"] == "size-limit"]
    return {
        "setup_s": statistics.median(pool.setup_cal_samples),
        "setup_raw_s": statistics.median(pool.setup_samples),
        "verdict_s.p50": p50,
        "verdict_s.tail": tail,
        "verdict_s.tail_pct": 100.0 * tail_rank / n if tail is not None else None,
        "instances_per_s": len(decided) / measured,
        "verdict_s.p50_cal": p50_cal,
        "verdict_s.tail_cal": tail_cal,
        "instances_per_s_cal": len(decided) / sum(r["charged_cal_s"] for r in records),
        "calibration_s": statistics.median(r["calibration_s"] for r in records),
        # Over the head, which holds the random templates: the stream's
        # calls, of steadier families, would drown their timeouts.
        "decided_frac": sum(1 for r in head if r["class"] == "decided") / len(head),
        "decided_frac.all": len(decided) / n,
        "failed_frac": len(failed) / n,
        "wrong_verdicts": sum(1 for r in records if r["problems"]),
        "verified_frac": (
            sum(1 for r in verify_sat if r["verdict"] == "sat") / len(verify_sat)
            if verify_sat else None
        ),
        "n_bits.p50": statistics.median(sat_bits) if sat_bits else None,
        "n_bits.max": max(sat_bits) if sat_bits else None,
        # Calls killed at their limit are left out: how far their memory grew
        # depends on where the kill landed.  Their count is in decided_frac.
        "peak_rss_mb": max(r["rss_mb"] for r in decided),
        "calls": n,
        "measured_s": measured,
        "worker_kills": pool.kills,
    }


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part its direct children cover."""
    own = [end - begin for _, begin, end, _, _ in spans]
    for _, begin, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - begin
    return own


def per_layer(records, pool: Pool) -> dict:
    traced = [r for r in records if r.get("traced", {}).get("trace")]
    calls = max(len(traced), 1)
    by_name: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    count: dict[str, int] = {}
    errors: dict[tuple[str, str], int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    stats = {"parsed_bytes": 0, "sign_entries": 0, "nonzero_signs": 0, "literals": 0}
    point_bits = 0
    for record in traced:
        trace = record["traced"]["trace"]
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, begin, end, _, error = span
            by_name[name] = by_name.get(name, 0.0) + (end - begin)
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            count[name] = count.get(name, 0) + 1
            layer_self[name.split(".")[0]] += own
            if error:
                errors[(name, error)] = errors.get((name, error), 0) + 1
        for key in stats:
            stats[key] += trace["stats"][key]
        point_bits = max(point_bits, trace["stats"]["point_bits"])
    parse_s = by_name.get("parser.parse_system", 0.0)
    pairs = [
        r for r in traced if r["class"] == "decided" and r["traced"]["class"] == "decided"
    ]
    untraced_sum = sum(r["time_s"] for r in pairs)
    traced_sum = sum(
        sum(end - begin for _, begin, end, parent, _ in r["traced"]["trace"]["spans"] if parent < 0)
        for r in pairs
    )
    mean = lambda name: by_name.get(name, 0.0) / calls  # noqa: E731
    metrics = {
        "parser.parse_s": mean("parser.parse_system"),
        "parser.mb_per_s": stats["parsed_bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "core.nonzero_ratio": (
            stats["nonzero_signs"] / stats["sign_entries"] if stats["sign_entries"] else 0.0
        ),
        "condition.build_cnf_s": mean("condition.build_cnf"),
        "condition.literals": stats["literals"] / calls,
        "condition.debug_text_s": mean("condition.to_debug_text"),
        "lra.solve_cnf_s": mean("lra.solve_cnf"),
        "lra.solve_cnf_timeouts": errors.get(("lra.solve_cnf", "CallTimeout"), 0) / calls,
        "lra.solve_conjunction_s": mean("lra.solve_conjunction"),
        "lra.conjunction_calls": count.get("lra.solve_conjunction", 0) / calls,
        "lra.scale_s": mean("lra.scale_to_integer"),
        "witness.verify_s": mean("witness.verify_witness"),
        "witness.evaluate_t_s": mean("witness.evaluate_t"),
        "witness.symbolic_t_s": mean("witness.symbolic_t"),
        "witness.point_bits.max": float(point_bits),
        "witness.size_refusals": errors.get(("witness.verify_witness", "SizeLimitExceeded"), 0)
        / calls,
        "oracle.exhaustive_s": mean("oracle.exhaustive_decide"),
        "oracle.calls": count.get("oracle.exhaustive_decide", 0) / calls,
        "oracle.refusals": errors.get(("oracle.exhaustive_decide", "TooManySelections"), 0) / calls,
        "cli.decide_system_s": self_by_name.get("cli.decide_system", 0.0) / calls,
        "cli.main_s": self_by_name.get("cli.main", 0.0) / calls,
        "setup.import_s": statistics.median(pool.import_samples),
        "trace.overhead": traced_sum / untraced_sum - 1.0 if untraced_sum else 0.0,
        "trace.verdict_mismatches": float(
            sum(1 for r in traced if "traced and untraced outputs differ" in r["problems"])
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / calls
    return metrics


UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "verdict_s.p50": "s", "verdict_s.tail": "s", "verdict_s.tail_pct": "%",
    "instances_per_s": "1/s", "instances_per_s_cal": "1/s", "verdict_s.p50_cal": "s",
    "verdict_s.tail_cal": "s", "calibration_s": "s", "decided_frac": "ratio",
    "decided_frac.all": "ratio", "failed_frac": "ratio",
    "wrong_verdicts": "count", "verified_frac": "ratio", "n_bits.p50": "bits",
    "n_bits.max": "bits", "peak_rss_mb": "MB", "calls": "count", "measured_s": "s",
    "worker_kills": "count",
    "parser.mb_per_s": "MB/s", "core.nonzero_ratio": "ratio", "condition.literals": "1/call",
    "lra.solve_cnf_timeouts": "1/call", "lra.conjunction_calls": "1/call",
    "witness.point_bits.max": "bits", "witness.size_refusals": "1/call", "oracle.calls": "1/call",
    "oracle.refusals": "1/call", "setup.import_s": "s", "trace.overhead": "ratio",
    "trace.verdict_mismatches": "count",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s/call" if name.endswith("_s") else "count")


def summarize_kinds(records) -> list[str]:
    lines = []
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for r in records:
        groups.setdefault((r["kind"], r["tier"], r["command"]), []).append(r)
    for (kind, tier, command), group in sorted(groups.items()):
        classes = {}
        for r in group:
            label = r["class"] if r["class"] != "failed" else f"failed:{r['exception'] or r['refusal'] or r['exit']}"
            classes[label] = classes.get(label, 0) + 1
        decided = sorted(r["time_s"] for r in group if r["class"] == "decided")
        median = f"{statistics.median(decided):.4f}s" if decided else "-"
        lines.append(f"  {kind:15s} {tier:10s} {command:8s} n={len(group):4d} "
                     f"median(decided)={median:>9s} {classes}")
    return lines


def fmt(name: str, value) -> str:
    if value is None:
        return f"{name} = n/a"
    if isinstance(value, float) and math.isinf(value):
        return f"{name} = miss (no result within the limit)"
    return f"{name} = {value:.6g} {unit_of(name)}"


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    run_dir = HERE / "_runs" / f"{workload}-s{seed}-t{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    records, pool = run_workload(workload, seed, seconds, trace, run_dir)
    e2e = end_to_end(records, pool)
    layers = per_layer(records, pool) if trace else {}
    wrong = [r for r in records if r["problems"]]
    print(f"[{workload}] seed={seed} seconds={seconds} trace={int(trace)}")
    for line in summarize_kinds(records):
        print(line)
    for name, value in list(e2e.items()) + list(layers.items()):
        print("  " + fmt(name, value))
    for r in wrong[:20]:
        print(f"  WRONG {r['id']} {r['command']}: {'; '.join(r['problems'])}")
    with open(run_dir / "records.jsonl", "w", encoding="utf-8") as out:
        for r in records:
            out.write(json.dumps({k: v for k, v in r.items() if k != "traced"}) + "\n")
    summary = {"end_to_end": e2e, "per_layer": layers}
    (run_dir / "summary.json").write_text(json.dumps(_json_safe(summary), indent=1) + "\n")
    result = {"records": records, "end_to_end": e2e, "per_layer": layers}
    return result, not wrong


def _json_safe(obj):
    """Misses are infinite times; JSON has no infinity, so they are written as "miss"."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, float) and math.isinf(obj):
        return "miss"
    return obj


def contract_line(result: dict, trace: bool, correct: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else result["end_to_end"]
    records = result["records"]
    metrics = {}
    for metric in declared:
        value = source[metric["name"]]
        if value is None or math.isinf(value):
            # A percentile that falls on a miss: report the largest nominal limit, a lower bound.
            value = float(max(r["limit_s"] for r in records))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["class"] == "failed"),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subtrop" / "__init__.py").is_file():
        print(f"error: no subtrop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    lines = {}
    for workload in workloads:
        result, correct = run(workload, args.seed, args.seconds, bool(args.trace))
        all_correct = all_correct and correct
        lines[workload] = contract_line(result, bool(args.trace), correct)
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
