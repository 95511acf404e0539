"""Run one ``scusum`` CLI call in this fresh process and report its peak memory.

    python3 perfbench/one_call.py <src dir> <scusum arguments...>

The CLI's own output is discarded; the last stdout line is the process's peak
resident set (``VmHWM``) in kB, and the exit code is the CLI's. ``VmHWM`` is
read instead of ``getrusage`` because ``ru_maxrss`` carries the parent's
resident set over fork and exec.
"""

import contextlib
import os
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from scusum import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(sys.argv[2:])
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    return code


if __name__ == "__main__":
    sys.exit(main())
