"""Run one logcentre command line in this process, for a traced cli pass.

    python3 perfbench/cli_child.py RECORD_PATH [LOGCENTRE ARGUMENTS...]

Times ``import logcentre.cli`` in CPU seconds, then installs the spans of ``spans.py`` and
times ``cli.main`` on the arguments. Installing imports nothing, so a module
that ``cli`` imports only when a command needs it is timed in ``main_s``, and
wrapped when it loads. Stdout and the exit code are those of
``python -m logcentre``. Writes ``{"import_s", "main_s", "spans"}`` as JSON to
RECORD_PATH; without logcentre arguments it only imports and records
``import_s``.
"""

import json
import sys
from time import process_time


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    start = process_time()
    from logcentre import cli

    record = {"import_s": process_time() - start}
    code = 0
    if argv:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        start = process_time()
        code = cli.main(argv)
        record["main_s"] = process_time() - start
        tracer.uninstall()
        record["spans"] = tracer.spans
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
