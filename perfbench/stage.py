"""Run ``vceval`` commands in cold processes forked from a pristine one.

Usage:

    python3 stage.py serve <src dir>    # one request per stdin line
    python3 stage.py setup <src dir>    # time the import of vceval.cli

``serve`` imports ``vceval.cli`` and numpy once and never runs a command.
For each request line ``{"record": path, "trace": 0|1, "argv": [...]}`` it
forks a child that runs ``vceval.cli.main(argv)``, writes the record and
exits; the server then prints ``{"status": <exit code>}``. A child starts
with the module state and the cold per-process caches (``lru_cache`` and
the like) of a fresh ``vceval`` process that has just imported its modules.
Before its timer starts it also maps in every page the server had resident
(``MADV_POPULATE_*``, Linux 5.14 or later), so copy-on-write faults on the
shared pages are not counted as command time: in a fresh process those
pages were made during the import. The record holds the exit code, the
seconds spent in ``vceval.cli.main`` (``stage_s``), the process's peak RSS
and, with tracing on, the per-layer summary; the spans go to
``<record>.spans.json`` and the command's output to ``<record>.log``.

``setup`` runs in a fresh interpreter of its own and prints
``{"setup_s": ...}``: the seconds to import ``vceval.cli`` and numpy, the
start-up a user of the ``vceval`` command waits for and the forked children
skip.
"""

import ctypes
import json
import os
import struct
import sys
import time
import traceback

MADV_POPULATE_READ = 22
MADV_POPULATE_WRITE = 23
PAGE = os.sysconf("SC_PAGE_SIZE")
SPECIAL = ("[vsyscall]", "[vvar]", "[vvar_vclock]", "[vdso]")


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry the peak of
    # the parent that spawned us across exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _resident_runs() -> list[tuple[int, int, int]]:
    """(address, length, advice) of each run of resident pages of this
    process: private writable ones to copy, the rest to map."""
    runs = []
    with open("/proc/self/maps") as fh:
        maps = [line.split() for line in fh]
    with open("/proc/self/pagemap", "rb") as pagemap:
        for fields in maps:
            perms = fields[1]
            if perms[0] != "r" or (len(fields) > 5 and fields[5] in SPECIAL):
                continue
            advice = MADV_POPULATE_WRITE if perms[1] == "w" and perms[3] == "p" \
                else MADV_POPULATE_READ
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            pages = (hi - lo) // PAGE
            pagemap.seek(lo // PAGE * 8)
            start = None
            for i, (entry,) in enumerate(struct.iter_unpack("<Q", pagemap.read(pages * 8))):
                if entry >> 63 and start is None:
                    start = i
                elif not entry >> 63 and start is not None:
                    runs.append((lo + start * PAGE, (i - start) * PAGE, advice))
                    start = None
            if start is not None:
                runs.append((lo + start * PAGE, (pages - start) * PAGE, advice))
    return runs


def _populate(runs: list[tuple[int, int, int]]) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    for address, length, advice in runs:
        if libc.madvise(address, length, advice) != 0:
            raise OSError(ctypes.get_errno(), f"madvise({advice}) failed")


def _import(src: str):
    sys.path.insert(0, src)
    import numpy
    import vceval.cli

    return vceval, numpy


def _run_stage(vceval, numpy, record_path: str, trace: bool, argv: list) -> int:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = vceval.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    t1 = time.perf_counter()
    record = {
        "rc": rc,
        "stage_s": t1 - t0,
        "peak_rss_mb": _peak_rss_mb(),
        "backend": getattr(vceval, "backend_name", lambda: "unknown")(),
        "numpy": numpy.__version__,
        "vceval": vceval.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        # a layer whose counts could not be read is as unmeasured as a missing one
        record["absent"] = tracer.absent + [f"{layer} counts"
                                            for layer in sorted(tracer.count_errors)]
        tracer.dump(record_path[: -len(".json")] + ".spans.json", argv[0])
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


def _child(vceval, numpy, runs, request: dict) -> int:
    record_path = request["record"]
    log = os.open(record_path[: -len(".json")] + ".log",
                  os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
    os.dup2(log, 1)
    os.dup2(log, 2)
    try:
        _populate(runs)
        rc = _run_stage(vceval, numpy, record_path, bool(request["trace"]), request["argv"])
        return rc if isinstance(rc, int) and 0 <= rc < 256 else 1
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()


def serve(src: str) -> int:
    vceval, numpy = _import(src)
    runs = _resident_runs()
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # skip interpreter teardown: it is not timed and only lengthens a pass
            os._exit(_child(vceval, numpy, runs, request))
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


def setup(src: str) -> int:
    t0 = time.perf_counter()
    _import(src)
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0}), flush=True)
    return 0


if __name__ == "__main__":
    mode, src = sys.argv[1], sys.argv[2]
    code = {"serve": serve, "setup": setup}[mode](src)
    sys.stdout.flush()
    os._exit(code)
