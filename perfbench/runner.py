"""One CLI run as a user gets it, with the records the harness needs.

    python3 perfbench/runner.py <record.json> <trace 0|1> <simulate arguments...>

Runs ``droplet_lattice.cli.main`` from the checkout's ``src`` in this
process.  It stamps ``time.perf_counter`` when the CLI enters ``run`` (the
first layer call follows at once), so the harness can measure set-up from
the moment it started the process.  With trace 1 it installs the spans of
``spans.py`` first and wraps ``cli.main`` in the root span.  It sets no
thread or worker variable and changes no solver argument.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SIMULATE_WORKERS")


def blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process with its configuration and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    out_dir = os.path.dirname(record_path)
    from droplet_lattice import cli

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(os.path.basename(out_dir), out_dir)
        spans.install(recorder)
    record = {"setup_end": None}
    run = cli.run

    def stamped_run(cfg):
        if record["setup_end"] is None:
            record["setup_end"] = time.perf_counter()
        return run(cfg)

    cli.run = stamped_run
    entry = recorder.wrap("cli.main", cli.main) if trace else cli.main
    code = entry(argv)
    if recorder is not None:
        recorder.flush()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["child_cpu_s"] = children.ru_utime + children.ru_stime
    record["environment"] = environment()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
