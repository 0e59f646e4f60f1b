"""One fresh-interpreter measurement, run as a child process by run.py.

    python3 probe.py setup <src-dir> <config>
        Imports sgdcheck and does the set-up of `sgdcheck run` (load_config,
        build_problem, build_schedule, certify, validate_schedule), then prints
        `time.monotonic()`: the moment just before the first replication.
    python3 probe.py run|verify <src-dir> <config>
        Calls `sgdcheck.cli.main([command, config])` once, then prints the
        exit code and the process's peak RSS from `resource.getrusage`.

The last line of standard output is a JSON object.
"""
import json
import resource
import sys
import time


def main() -> int:
    mode, src, config = sys.argv[1:4]
    sys.path.insert(0, src)
    import sgdcheck

    if mode == "setup":
        cfg = sgdcheck.load_config(config)
        problem = sgdcheck.build_problem(cfg.problem)
        schedule = sgdcheck.build_schedule(cfg.schedule)
        cert = problem.certify(cfg.region_radius, cfg.x0)
        sgdcheck.validate_schedule(schedule, cert.strong_convexity)
        print(json.dumps({"ready": time.monotonic(), "module": sgdcheck.__file__}))
        return 0

    from sgdcheck.cli import main as cli_main

    code = cli_main([mode, config])
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"exit": code, "peak_rss_mb": peak_mb, "module": sgdcheck.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
