"""What ``/proc`` says about a process: the benchmark's outside view."""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int | str) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may hold spaces; fields resume after
        # its closing parenthesis, utime and stime being fields 14 and 15.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM``, the peak resident size of ``pid``'s current program.

    Unlike ``ru_maxrss`` it restarts at ``exec``: a forked child's
    ``ru_maxrss`` begins at its parent's resident size, so it would
    follow the benchmark's own footprint whenever that is the larger.
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
