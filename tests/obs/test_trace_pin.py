"""The trace-smoke sweep's artifacts, pinned by digest.

CI's trace-smoke job records the same seeded sweep twice and compares the
two artifact sets, which any deterministic change to the traced body
passes.  This pin compares against the artifacts the traced body last
produced: a change to which references a traced cell replays, in what
order, or what the recorder sees of them fails here.  A change that
alters the artifacts on purpose regenerates them with::

    PYTHONPATH=src python -m repro sweep --nodes 16 --sharers 2 4 \\
        --references 200 --seed 7 --workers 0 --trace-dir traces

and updates the digests below in the same change, saying why.
"""

import hashlib

from repro.cli import main

TRACE_SMOKE_ARGS = [
    "sweep",
    "--nodes", "16",
    "--sharers", "2", "4",
    "--references", "200",
    "--seed", "7",
    "--workers", "0",
]

#: sha256 over every artifact with that suffix, in file-name order, each
#: preceded by its name.
TRACE_SMOKE_SHA256 = {
    ".trace.jsonl": (
        "acaf2c7407b8ca61cc0798401c6d46ca5664db90b8d22d27fb0f54ebf77e73ad"
    ),
    ".chrome.json": (
        "354184168be946803eb268035bef54480fbb93c671cab182a319f4af40d3e46f"
    ),
    ".heatmap.json": (
        "d2bc25a176e8f308d31c4901e6038807e51fae7c834bc40df63d8bcabb990bb0"
    ),
}


def test_trace_smoke_artifacts_are_pinned(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    assert main([*TRACE_SMOKE_ARGS, "--trace-dir", str(trace_dir)]) == 0
    capsys.readouterr()
    digests = {}
    for suffix in TRACE_SMOKE_SHA256:
        paths = sorted(trace_dir.glob(f"*{suffix}"))
        assert len(paths) == 12  # six protocols x two sharer counts
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[suffix] = digest.hexdigest()
    assert digests == TRACE_SMOKE_SHA256
