"""The differential fuzzer's summary, pinned as text.

CI's mc-smoke job runs the fuzzer and fails on a divergence, which any
change that moves the simulator and the model together passes.  This
pin compares the whole summary with the one the recovery path last
produced: a change to how many runs each fault mode draws, or to how
many blocks the concrete simulator degrades, fails here.  A change that
alters the summary on purpose regenerates it with::

    PYTHONPATH=src python -m repro mc --nodes 2 --blocks 1 --exhaustive \\
        --fuzz 1000 --fuzz-mode mixed --fuzz-nodes 4 --fuzz-blocks 2 \\
        --seed 20260807 --output mc-fuzz.txt

and updates the text below in the same change, saying why.
"""

from repro.cli import main

FUZZ_ARGS = [
    "mc",
    "--nodes", "2",
    "--blocks", "1",
    "--exhaustive",
    "--fuzz", "1000",
    "--fuzz-mode", "mixed",
    "--fuzz-nodes", "4",
    "--fuzz-blocks", "2",
    "--seed", "20260807",
]

FUZZ_SUMMARY = """\
nodes             : 2
blocks            : 1
default mode      : global-read
fault actions     : on
states explored   : 30
transitions       : 297
diameter          : 3
exhaustive        : True
violations        : 0
differential fuzz:
runs              : 1000 (dead=324, none=330, scripted=346)
operations        : 24000
degradations      : 944
divergences       : 0
"""


def test_fuzz_summary_is_pinned(tmp_path, capsys):
    summary = tmp_path / "mc-fuzz.txt"
    assert main([*FUZZ_ARGS, "--output", str(summary)]) == 0
    capsys.readouterr()
    assert summary.read_text() == FUZZ_SUMMARY
