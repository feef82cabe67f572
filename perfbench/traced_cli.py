"""One traced ``telegate`` invocation.

    python traced_cli.py <telegate arguments>

Imports the CLI, wraps the public functions of its layers (see tracer.py),
runs ``telegate.cli.main`` on the arguments exactly as the console script
does, and prints the job's per-layer self times and counters to standard
error, as one JSON line after SUMMARY_MARK, also when the command raises.
"""
import json
import sys
import time

import tracer

SUMMARY_MARK = "perfbench-trace-summary: "


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    import telegate.cli

    import_s = time.perf_counter() - start
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return telegate.cli.main(argv)
    finally:
        summary = spans.summary()
        summary["cli.import_s"] = import_s
        print(SUMMARY_MARK + json.dumps(summary), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
