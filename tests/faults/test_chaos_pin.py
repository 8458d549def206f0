"""The chaos-smoke campaign's survival report, pinned by digest.

CI's chaos-smoke job runs the campaign twice and compares the two
reports, which any deterministic change to the recovery path passes.
This pin compares against the report the recovery path last produced:
a change to what any cell counts, costs or degrades fails here.  A
change that alters the report on purpose regenerates it with::

    PYTHONPATH=src python -m repro chaos --nodes 16 --references 300 \\
        --drop-rates 0.0 0.02 0.05 0.1 --duplicate-rate 0.05 \\
        --delay-rate 0.05 --kill-link 1:3 --fault-seeds 0 1 \\
        --output chaos.json

and updates the digest below in the same change, saying why.
"""

import hashlib

from repro.cli import main

CHAOS_SMOKE_ARGS = [
    "chaos",
    "--nodes", "16",
    "--references", "300",
    "--drop-rates", "0.0", "0.02", "0.05", "0.1",
    "--duplicate-rate", "0.05",
    "--delay-rate", "0.05",
    "--kill-link", "1:3",
    "--fault-seeds", "0", "1",
]

CHAOS_SMOKE_SHA256 = (
    "391dbc01da237b76226e67d0f9376b7497716c753ec9daff651f15134748d00a"
)


def test_chaos_smoke_report_is_pinned(tmp_path):
    report = tmp_path / "chaos.json"
    assert main([*CHAOS_SMOKE_ARGS, "--output", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == CHAOS_SMOKE_SHA256
