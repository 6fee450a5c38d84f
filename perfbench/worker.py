"""Benchmark worker: runs subtrop CLI calls in-process, one request at a time.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports ``subtrop`` once, then forks a fresh child for every
call (see :func:`fork_server`).  Each child announces itself with one JSON
line, reads one JSON request from stdin and answers with one JSON line on
the stdout it started with.  The CLI's own stdout and stderr are captured.
The child times the call, enforces the call's time limit with an interval
timer and reports its peak resident set size.  A call that hits the limit
is answered as ``timeout``; a child that is stuck past its limit is killed
by the driver and replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

IMPORT_START = time.perf_counter()
import subtrop  # noqa: E402
from calibration import calibrate  # noqa: E402
from subtrop import cli  # noqa: E402
from subtrop.condition import build_cnf  # noqa: E402
from subtrop.parser import parse_system  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START

# Outputs up to this size travel back whole; larger ones as a digest.
INLINE_BYTES = 1 << 20
# Exit status of a forked child that found stdin closed.
END_OF_INPUT = 17


class CallTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so no CLI handler catches it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def _digest(text: str) -> dict:
    """Sizes, hash and the counts the explain checks need, without shipping the text."""
    return {
        "bytes": len(text),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "clause_lines": text.count("clause "),
        "brackets": text.count("["),
        "literals_keys": text.count('"literals"'),
        "pos_keys": text.count('"pos"'),
    }


def _certificate_holds(path: str, payload) -> bool | None:
    """For a SAT answer with a vector n: does n satisfy the system's CNF?"""
    if not isinstance(payload, dict) or "n" not in payload:
        return None
    system = parse_system(Path(path).read_text(encoding="utf-8"))
    return build_cnf(system).satisfied_by(tuple(payload["n"]))


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``VmHWM`` belongs to the address space created at exec, whereas
    ``ru_maxrss`` also carries the parent's size at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_call(request: dict, tracer) -> dict:
    argv = request["argv"]
    calibration_s = calibrate()
    out, err = io.StringIO(), io.StringIO()
    outcome, code, exc_name = "exit", None, None
    if tracer is not None:
        tracer.begin()
    signal.setitimer(signal.ITIMER_REAL, request["limit_s"])
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CallTimeout:
        outcome = "timeout"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a result: the CLI crashed
        outcome, exc_name = "crash", type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    rss_mb = peak_rss_mb()  # before the checks below add memory of their own
    reply = {
        "id": request["id"],
        "outcome": outcome,
        "exit": code,
        "exception": exc_name,
        "time_s": elapsed,
        "calibration_s": calibration_s,
        "stderr": err.getvalue()[-2000:],
        "rss_mb": rss_mb,
    }
    text = out.getvalue()
    reply["digest"] = _digest(text)
    if len(text) <= INLINE_BYTES:
        reply["stdout"] = text
        payload = None
        if text.startswith("{") and outcome == "exit":
            payload = json.loads(text)
        reply["certificate"] = _certificate_holds(request["input"], payload)
    if tracer is not None:
        reply["trace"] = tracer.end()
    return reply


def _announce():
    sys.stdout.write(json.dumps({"ready": True, "import_s": IMPORT_S, "pid": os.getpid()}) + "\n")
    sys.stdout.flush()


def serve_one(tracer) -> bool:
    """Answer one request from stdin; False when stdin has closed."""
    line = sys.stdin.readline()
    if not line:
        return False
    request = json.loads(line)
    traced = tracer if request.get("traced") else None
    if traced is not None:
        traced.install()
    try:
        reply = run_call(request, traced)
    except CallTimeout:  # the timer fired after the call had already returned
        reply = {"id": request["id"], "outcome": "timeout", "time_s": request["limit_s"]}
    finally:
        if traced is not None:
            traced.uninstall()
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
    return True


def fork_server(tracer) -> int:
    """Fork one child per call from this already-imported interpreter.

    Every call starts from the same state, as a fresh CLI process would,
    without paying the import again, and its peak RSS is its own.  Only the
    child works; this process waits for it.  A child killed by the driver
    at a time limit is simply replaced.  The server stops when a child finds
    stdin closed.
    """
    while True:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _announce()
                code = 0 if serve_one(tracer) else END_OF_INPUT
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == END_OF_INPUT:
            return 0


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if Path(subtrop.__file__).resolve().parent != root / "src" / "subtrop":
        print(f"worker imported subtrop from {subtrop.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracing import Tracer

        tracer = Tracer()
    signal.signal(signal.SIGALRM, _on_alarm)
    return fork_server(tracer)


if __name__ == "__main__":
    sys.exit(main())
