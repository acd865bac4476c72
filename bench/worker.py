"""Run one ``crowdfuse`` command in this fresh process and report its cost.

Usage: ``python worker.py SPEC.json``. The spec holds ``argv`` (the command
line for ``crowdfuse.cli.main``, or null to only import), ``trace``,
``result`` (where to write this worker's JSON result) and ``spans`` (where
a traced worker writes its spans).

The set-up time is the process's CPU time when ``crowdfuse.cli`` has been
imported, so it counts interpreter start-up too. The command's time is the
CPU time spent inside ``cli.main``. The peak RSS is this process's
``VmHWM``, read just before the result is written; unlike ``ru_maxrss`` it
starts afresh at exec, so the memory of the process that started the
worker does not count. The worker records the type of an
exception that escapes the command's top-level library call, since the
command line turns it into exit code 1.
"""

import sys
import time

_wall0 = time.perf_counter()
import crowdfuse.cli as cli  # noqa: E402

SETUP_CPU_S = time.process_time()
IMPORT_WALL_S = time.perf_counter() - _wall0

import functools  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

from crowdfuse import backtest, gaps  # noqa: E402


def _note_failure(failure: dict, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            failure.setdefault("error", type(exc).__name__)
            raise

    return wrapper


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {
        "setup_cpu_s": SETUP_CPU_S,
        "import_wall_s": IMPORT_WALL_S,
        "module": cli.__file__,
    }
    if spec["argv"] is not None:
        failure: dict = {}
        for module, name in ((backtest, "run_backtest"), (backtest, "subset_sweep"), (gaps, "figure_grid")):
            if hasattr(module, name):
                setattr(module, name, _note_failure(failure, getattr(module, name)))
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        cpu0 = time.process_time()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            traceback.print_exc()
            failure.setdefault("error", type(exc).__name__)
            code = None
        result.update(
            main_cpu_s=time.process_time() - cpu0,
            exit_code=code,
            error=failure.get("error"),
        )
        if tracer is not None:
            tracer.dump(spec["spans"])
            result.update(span_names=tracer.names, counts=tracer.counts)
    result["peak_rss_kb"] = peak_rss_kb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
