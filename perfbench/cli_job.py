"""Run one ellgenus CLI job in this fresh interpreter and time main().

usage: python3 perfbench/cli_job.py REPORT TRACE CLI-ARG...

The CLI report goes to standard output exactly as ``ellgenus`` prints it, and
the exit code is the CLI's.  REPORT receives a small JSON document with the
wall time of ``ellgenus.cli.main`` and, when TRACE is 1, the layer-trace
totals of the job.  The package must be importable (PYTHONPATH=src).
"""

import json
import sys
import time


def main() -> int:
    report_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from ellgenus import cli

    tracer = None
    if trace:
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    report = {"main_s": main_s}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.dump()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
