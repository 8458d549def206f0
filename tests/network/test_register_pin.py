"""Cells that pick their multicast scheme by §5 break-even registers, pinned.

Each cell replays one generated trace on a system whose multicasts are
decided by two compiled break-even registers, and the pin holds the
SHA-256 of its ``report.to_dict()`` (as JSON, so ``Stats`` key order
counts) and of the network's four link and switch counter arrays.  The
grid: registers for ``N = 128, n1 = 32`` and ``N = 64, n1 = 16`` (the
tasks sit on ports ``0 .. n1 - 1``); ``two-mode`` under a
distributed-write and a global-read default and ``full-map``; a one-block
Markov trace and a shared structure; verification on and off.  A change
to how a register-selected multicast is priced, walked or replayed fails
here.  A change that alters these runs on purpose regenerates the
digests with ``_cell`` below and updates them in the same change, saying
why.

The digests were recorded while register cells were still sent one by
one on the slow loop; they now run in the ledger window and, with
verification off, on the kernel, and still match.  Each cell also equals
the same run forced onto per-send accounting by the message log.
"""

import hashlib
import json

import pytest

from repro.analysis.compare import default_factories
from repro.cache.state import Mode
from repro.network.selector import compile_registers
from repro.protocol.stenstrom import StenstromProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.markov import markov_block_trace, shared_structure_trace

#: ``(N, n1)``: the register file is ``compile_registers(N, n1, 20)``.
GEOMETRIES = [(128, 32), (64, 16)]
PROTOCOLS = {
    "two-mode-dw": lambda system: StenstromProtocol(
        system, default_mode=Mode.DISTRIBUTED_WRITE
    ),
    "two-mode-gr": lambda system: StenstromProtocol(
        system, default_mode=Mode.GLOBAL_READ
    ),
    "full-map": default_factories()["full-map"],
}
TRACES = {
    "markov": lambda n, tasks: markov_block_trace(
        n, tasks, 0.3, 1000, seed=41
    ),
    "structure": lambda n, tasks: shared_structure_trace(
        n, tasks, 0.3, 1000, n_blocks=8, seed=41
    ),
}
RUNS = {
    "verify": {"verify": True},
    "fast": {"verify": False, "check_invariants_every": 0},
}


def _system(n_nodes, registers):
    return System(SystemConfig(n_nodes=n_nodes, multicast_scheme=registers))


def _sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _cell(geometry, protocol_name, trace_name, run_name, forced_slow=False):
    """``(report digest, arrays digest, protocol)`` of one register cell."""
    n_nodes, n_partition = geometry
    system = _system(n_nodes, compile_registers(n_nodes, n_partition, 20))
    protocol = PROTOCOLS[protocol_name](system)
    if forced_slow:
        protocol.enable_message_log()
    trace = TRACES[trace_name](n_nodes, list(range(n_partition)))
    report = run_trace(protocol, trace, **RUNS[run_name])
    links = system.network.link_utilization()
    switches = system.network.switch_utilization()
    arrays = [
        links.bits.tolist(),
        links.messages.tolist(),
        switches.messages.tolist(),
        switches.splits.tolist(),
    ]
    return _sha(report.to_dict()), _sha(arrays), protocol


CELLS = [
    (geometry, protocol_name, trace_name, run_name)
    for geometry in GEOMETRIES
    for protocol_name in PROTOCOLS
    for trace_name in TRACES
    for run_name in RUNS
]

#: ``(report, arrays)`` digests per cell.
PINS = {
    "128x32-two-mode-dw-markov-verify": (
        "3a254f7a0c10712e05c40041bc4f3d56e088e6778be0b69ee254d33bdbf1b2cf",
        "60fd39c35ca7d1024e85d15fdfbcdeb9eaed9f1efc05cff1dfb6c40e87dfebde",
    ),
    "128x32-two-mode-dw-markov-fast": (
        "36e491ef39d62125c160350d2433cb1da98ed9c36fb28b21c03e6324c36b2dba",
        "60fd39c35ca7d1024e85d15fdfbcdeb9eaed9f1efc05cff1dfb6c40e87dfebde",
    ),
    "128x32-two-mode-dw-structure-verify": (
        "370ca1ac66b88d9eb188ee75c5ca937439f50c24befd4751317be7fa01081b84",
        "c24d894a8190deed66298d859e645a43b3f193e329b6d9a5cb01339869ba18bc",
    ),
    "128x32-two-mode-dw-structure-fast": (
        "914690ebb7639d8e7df9319ede19c7fb8b65addcc92c9eefa4183746a847fc64",
        "c24d894a8190deed66298d859e645a43b3f193e329b6d9a5cb01339869ba18bc",
    ),
    "128x32-two-mode-gr-markov-verify": (
        "ac03ab235d2059576eebc091e423d16fa5cdc2f3a55d3fa4e412691c7a3e060f",
        "381515cc9207acb8d02af78e8ed96ddf4f770456b5bac2bcc7be234398b90e77",
    ),
    "128x32-two-mode-gr-markov-fast": (
        "0c6d784f9fb378da350d18f549ab6b35bbe81ec4599415a1347382d54a5ea917",
        "381515cc9207acb8d02af78e8ed96ddf4f770456b5bac2bcc7be234398b90e77",
    ),
    "128x32-two-mode-gr-structure-verify": (
        "4c2360ff3ce22a2fc9dc87d2f4385c60db42ade31eacfeabf652eadc8ed49615",
        "e99241881e48b1a4f16733a35499821e3bbf35ea11a2591a56e8bc96a34aa65a",
    ),
    "128x32-two-mode-gr-structure-fast": (
        "1d23b79cd25c288eeb63d533177dba1483333138817fd82d2e9f61b489d75edb",
        "e99241881e48b1a4f16733a35499821e3bbf35ea11a2591a56e8bc96a34aa65a",
    ),
    "128x32-full-map-markov-verify": (
        "15a6aa4acc13ee589d49c01eca9cea18a13fae02ffff5057bcd3cce71451f447",
        "76823e15995c9fca3274a492f3d4173bf2b66d11e65a2cb378f5f8457ece877a",
    ),
    "128x32-full-map-markov-fast": (
        "0fa1587436d34bf2ca276a6cd14f967cfd85471251d812093729cdb009b6ac08",
        "76823e15995c9fca3274a492f3d4173bf2b66d11e65a2cb378f5f8457ece877a",
    ),
    "128x32-full-map-structure-verify": (
        "c3b8feaff8054cce338f070c15d2bdfa51ac03cccc216ada013df5e0df4e5b9b",
        "6e8620612f7eca931f353d5267908120b93fc26a302d0957fb2494de50f9954b",
    ),
    "128x32-full-map-structure-fast": (
        "3989693f14cd6737170ac682d9e45bbcd8c3e4f993a2f1792fcf8ab71fdcc7ea",
        "6e8620612f7eca931f353d5267908120b93fc26a302d0957fb2494de50f9954b",
    ),
    "64x16-two-mode-dw-markov-verify": (
        "010ba03ff23ba566f69f2a90fb3854cea0b04941e55de219062cf6414d36224a",
        "340c3b55d2492d9fbcd667eeb8f0f4a3ee5cba5bcadd342eab59bf0bd50d7ea3",
    ),
    "64x16-two-mode-dw-markov-fast": (
        "53d61e26623ba758925e3dfe2dc14332bca89953adac4d33e86c2911ce0ef070",
        "340c3b55d2492d9fbcd667eeb8f0f4a3ee5cba5bcadd342eab59bf0bd50d7ea3",
    ),
    "64x16-two-mode-dw-structure-verify": (
        "c0f884fbf4016da8b339f1e52cb37fd79dc5b74d3f578015eb8264c2a47c98cb",
        "a8f7d8090fc7d8fb53c3969b37f8bfa033e3eb7478d02e5b227c146e5bdb42d7",
    ),
    "64x16-two-mode-dw-structure-fast": (
        "047ef6cf24ac63d2e3dba14897f53846eb49362a41c756c1def5a81c7585e87b",
        "a8f7d8090fc7d8fb53c3969b37f8bfa033e3eb7478d02e5b227c146e5bdb42d7",
    ),
    "64x16-two-mode-gr-markov-verify": (
        "967dc221d30b5197afc912c3e6930ea76e9b26aa154cc1bcdc1a7741a311af80",
        "8809c00b6f55dc8e76efbd71bdde9bcaf50a6761cc3a8a898b007e446689a10a",
    ),
    "64x16-two-mode-gr-markov-fast": (
        "f30388e0483e6c860e95fd152a797e38c7f5856a68460b1178af2544d155a808",
        "8809c00b6f55dc8e76efbd71bdde9bcaf50a6761cc3a8a898b007e446689a10a",
    ),
    "64x16-two-mode-gr-structure-verify": (
        "ca4f8e2f44f534c69df144c2fc325e02570109ad1bca96b0d3902c98a2bbd514",
        "15aa5e1e7191fc2d288ddc922d0be9fe74e57f3d9a67155963c07a6846e7e24c",
    ),
    "64x16-two-mode-gr-structure-fast": (
        "af311fdcd56ea91662634f8e0c8406c0b381e1f8a3c2873c9a8d3d905b03e691",
        "15aa5e1e7191fc2d288ddc922d0be9fe74e57f3d9a67155963c07a6846e7e24c",
    ),
    "64x16-full-map-markov-verify": (
        "2ce703146d3e527ec0c797199310d1871cab21a2e0fe762d363271248ec959d7",
        "39fc124c405f5dc9bb22a0c610cdf1e0aeed2ab541d05fbfb8d6dad4a4896734",
    ),
    "64x16-full-map-markov-fast": (
        "fa4b93c72ee0048bbd36a20276bd631c216667b52e6160290d4763a905bfb3db",
        "39fc124c405f5dc9bb22a0c610cdf1e0aeed2ab541d05fbfb8d6dad4a4896734",
    ),
    "64x16-full-map-structure-verify": (
        "da78c150d0afe566d3b737d359bcbfdef6297bbaacdbe2910a2bd7a1456fc663",
        "1ec90a20d7733c882c36b1a9bb031cfdabb4f2ec264caba685b57c220143d084",
    ),
    "64x16-full-map-structure-fast": (
        "189beb6d3e3168a7ab3260f1512cb9cfbaf1ab84b3e397c3909dbbce5f7bdf52",
        "1ec90a20d7733c882c36b1a9bb031cfdabb4f2ec264caba685b57c220143d084",
    ),
}


def _id(cell):
    (n_nodes, n_partition), protocol_name, trace_name, run_name = cell
    return f"{n_nodes}x{n_partition}-{protocol_name}-{trace_name}-{run_name}"


@pytest.mark.parametrize("cell", CELLS, ids=_id)
def test_register_cell_is_pinned(cell):
    report, arrays, _ = _cell(*cell)
    assert (report, arrays) == PINS[_id(cell)]


@pytest.mark.parametrize("cell", CELLS, ids=_id)
def test_register_cell_equals_per_send_accounting(cell):
    report, arrays, protocol = _cell(*cell)
    assert protocol._sends_watched() is None
    assert _cell(*cell, forced_slow=True)[:2] == (report, arrays)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
@pytest.mark.parametrize("protocol_name", ["two-mode-dw", "two-mode-gr"])
def test_register_cells_batch_on_the_kernel(geometry, protocol_name):
    for trace_name in TRACES:
        _, _, protocol = _cell(geometry, protocol_name, trace_name, "fast")
        assert protocol.batched_kernel().batched_refs > 0
