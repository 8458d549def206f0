"""Pinned end states of the four baselines on a replacement-heavy trace.

One random trace on a 2-way, 4-entry cache: every kind of victim --
Dirty, Reserved (write-once), Valid and invalidated -- is replaced, and
the one-pointer directory overflows.  Each baseline's run is reduced to
one SHA-256 over

* ``Stats.to_dict()`` in its key order (events, traffic and message
  counts, in first-occurrence order);
* the network's bits by level;
* every cache entry's tag, V/O/M bits and data words, set by set;
* every memory module's stored blocks, in insertion order.

The compiled trace replays with ``verify=False`` (the kernel, where the
protocol offers one) and with ``verify=True`` (the slow loop, invariants
after every reference); both must land on the pinned digest.  A change
to the directory protocols' miss path, replacement or invalidation that
moves any event, message, word or recency order shows up here.
"""

import hashlib
import json

import pytest

from repro.protocol.full_map import FullMapProtocol
from repro.protocol.limited_pointer import LimitedPointerProtocol
from repro.protocol.no_cache import NoCacheProtocol
from repro.protocol.write_once import WriteOnceProtocol
from repro.sim.engine import run_trace
from repro.sim.system import System, SystemConfig
from repro.workloads.synthetic import random_trace

FACTORIES = {
    "full-map": FullMapProtocol,
    "limited-pointer-1": lambda s: LimitedPointerProtocol(s, n_pointers=1),
    "limited-pointer-2": lambda s: LimitedPointerProtocol(s, n_pointers=2),
    "write-once": WriteOnceProtocol,
    "no-cache": NoCacheProtocol,
}

PINS = {
    "full-map": (
        "9de8ad1d4521f7e3182fff6d95a84b9bf4b9654acd3cada0b1c44e14f565e853"
    ),
    "limited-pointer-1": (
        "d3686b539e6f6976c9f5c9174038f9dfe1e71644a0cb766e21b425268dde54c5"
    ),
    "limited-pointer-2": (
        "10e97eecf6a305c584f765c70e5bea5cda318b38a158e1c376bf350a19a42340"
    ),
    "write-once": (
        "75268202c1b097891e17dd1c9d7c34f6e56be76e09f190f43973d8b4716b4770"
    ),
    "no-cache": (
        "e1bdd9a46bd2eef0c3fbbeba3a95db2838503f237044e99b0a7f1b9107a41c22"
    ),
}

#: The victim states each directory protocol must replace on this trace.
VICTIMS = {
    "full-map": {"dirty", "valid", "invalid"},
    "limited-pointer-1": {"dirty", "valid", "invalid"},
    "limited-pointer-2": {"dirty", "valid", "invalid"},
    "write-once": {"dirty", "reserved", "valid", "invalid"},
}


def _trace():
    return random_trace(
        8, 1500, n_blocks=12, block_size_words=2, write_fraction=0.35,
        locality=0.5, seed=1989,
    )


def _victim_kind(field):
    if not field.valid:
        return "invalid"
    if field.modified:
        return "dirty"
    return "reserved" if field.owned else "valid"


def _run(name, verify):
    system = System(
        SystemConfig(
            n_nodes=8, cache_entries=4, associativity=2, block_size_words=2
        )
    )
    protocol = FACTORIES[name](system)
    victims = set()
    replace = getattr(protocol, "_replace_entry", None)
    if replace is not None:

        def spying_replace(node, entry):
            victims.add(_victim_kind(entry.state_field))
            return replace(node, entry)

        protocol._replace_entry = spying_replace
    report = run_trace(protocol, _trace(), verify=verify)
    caches = [
        [
            (
                entry.tag,
                entry.state_field.valid,
                entry.state_field.owned,
                entry.state_field.modified,
                entry.data,
            )
            for entry in cache.iter_entries()
        ]
        for cache in system.caches
    ]
    modules = [list(module._data.items()) for module in system.memories]
    payload = json.dumps(
        [
            report.stats.to_dict(),
            list(report.network_bits_by_level),
            caches,
            modules,
        ]
    )
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return digest, victims, report.stats.events


@pytest.mark.parametrize("verify", [False, True], ids=["kernel", "verified"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_end_state_is_pinned(name, verify):
    digest, victims, events = _run(name, verify)
    assert digest == PINS[name]
    assert victims >= VICTIMS.get(name, set())
    if name == "limited-pointer-1":
        assert events["directory_overflows"] > 0
