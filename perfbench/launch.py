"""Run snippetnet's console entry point and record this process's peak RSS.

Usage: python3 perfbench/launch.py PEAK_OUT <snippetnet arguments...>

This runs what the installed ``snippetnet`` script runs. It then writes
VmHWM from /proc/self/status, in KiB, to PEAK_OUT. VmHWM counts only this
program's own address space. The maxrss that wait4 reports to a parent also
counts the address space the child was spawned from, which is the
benchmark's own process, so the benchmark does not use it.
"""

from __future__ import annotations

import sys

from snippetnet.cli import main


def peak_rss_kb():
    """This process's VmHWM in KiB, or None where /proc does not give it."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


if __name__ == "__main__":
    code = 1
    try:
        code = main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="ascii") as handle:
            handle.write(f"{peak_rss_kb()}\n")
    sys.exit(code)
