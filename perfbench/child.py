"""Run goalshot CLI commands in this fresh process, timing the import.

Usage: python3 child.py TIMES_PATH '<JSON list of goalshot CLI argv lists>'

Each command runs through goalshot.cli.main, as the ``goalshot`` console
script runs it, in order; the first nonzero exit code stops the list and
becomes this process's exit code. TIMES_PATH receives a JSON object with
the seconds spent importing goalshot.cli.
goalshot must be importable (the benchmark sets PYTHONPATH).
"""

import json
import sys
import time


def main() -> int:
    times_path, commands = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    from goalshot import cli
    imported = time.perf_counter()
    code = 0
    for argv in commands:
        code = cli.main(argv)
        if code:
            break
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": imported - start}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
