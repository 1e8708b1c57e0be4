"""Run one `gsm-gof` command in this process and report its phase timings.

    python child.py SPAWN_T REPORT_FD SPANS_PATH -- ARGV...

SPAWN_T is the CLOCK_MONOTONIC time at which the parent spawned this process,
so set-up time covers interpreter start plus `import gsmgof.cli`.  SPANS_PATH
is "-" for an untraced run; otherwise the package's public functions are
wrapped after import and the spans are written there when `main` returns.
The report (JSON) goes to the inherited pipe REPORT_FD; the command's own
output stays on stdout and stderr.
"""

import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    t_start = _now()
    spawn_t, report_fd, spans_path = float(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[5:]

    import gsmgof.cli

    t_imported = _now()
    tracer = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t_main = _now()
    code = gsmgof.cli.main(argv)
    t_done = _now()
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)

    import json
    import resource

    report = {
        "code": code,
        "setup_s": t_imported - spawn_t,
        "import_s": t_imported - t_start,
        "main_s": t_done - t_main,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with os.fdopen(report_fd, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
