"""Draw-exactness of the generators' column emission.

The seeded generators inline CPython's bounded-draw rule instead of
calling ``rng.randrange`` per reference (docs/PERF.md, "Before replay").
Three things keep that honest:

* the inlined rule returns ``randrange``'s value and leaves the Mersenne
  state where ``randrange`` leaves it, on whichever interpreter runs the
  suite -- an interpreter whose ``_randbelow`` differs fails here instead
  of silently changing every exhibit;
* the five columns of every generator hash to digests pinned from the
  per-reference ``randrange`` implementation this one replaced;
* ``WorkloadSpec.build()`` is ``build_compiled().to_trace()``.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import WorkloadSpec
from repro.workloads import (
    jacobi_trace,
    markov_block_trace,
    matrix_multiply_trace,
    migratory_trace,
    ping_pong_trace,
    producer_consumer_trace,
    random_trace,
    shared_structure_trace,
    spinlock_trace,
)

from tests.workloads.cases import CASES


def inlined_randbelow(rng: random.Random, n: int) -> int:
    """The rule the generators inline, spelled once for the test."""
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    draw = getrandbits(bits)
    while draw >= n:
        draw = getrandbits(bits)
    return draw


class TestInlinedBoundedDraw:
    @given(
        n=st.one_of(
            st.integers(1, 4096),
            st.sampled_from([1 << k for k in range(13)]),
        ),
        seed=st.integers(0, 2**48),
        draws=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_value_and_state_match_randrange(self, n, seed, draws):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert inlined_randbelow(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    def test_interleaves_with_random(self):
        ours, theirs = random.Random(11), random.Random(11)
        for n in (4, 64, 3, 1, 1024):
            assert inlined_randbelow(ours, n) == theirs.randrange(n)
            assert ours.random() == theirs.random()
        assert ours.getstate() == theirs.getstate()


# ---------------------------------------------------------------------------
# Pinned column digests
# ---------------------------------------------------------------------------

#: SHA-256 of each case's columns as emitted by the per-reference
#: ``rng.randrange`` generators of the commit before the column rewrite.
PINNED = {
    "markov-seed7":
        "08647370bc2ff9a74fb2dab5a5aab3e960a358aabed93270dfa6f3158c7aa588",
    "markov-seed1989":
        "8ba0db6e388860ccd9e3d0b6bd2af6e8373846d67368b866164b63621db82c48",
    "markov-odd-geometry":
        "4369837902f30e0f318ab950323e22dffd668f1662ed0a5ece581ad328c47db6",
    "markov-n0":
        "0ccf27255c1ed53378cffdceb6f6e9c5667df2054532995af79603880649fa46",
    "markov-n1":
        "eb7a75e5cee374ebb2970c19e9b8e9dfc9584a4d894d02778ec128d185e7e0e0",
    "markov-one-task":
        "3b3c907d3111d2322ceb867c0075ddc84a9cb546059fff5aa502c4322b2d98c0",
    "markov-w0":
        "93301569d10f3e8a1493b0a160b4bb39131aeeeaa0058a3a13ed23db7848cf77",
    "markov-w1":
        "7605043fb1ca01cd3a38cdea4049b671eb6ba88609385461f1b12e9f8d2df3e8",
    "markov-one-word":
        "ef985f5976d2db30848377a063a32f582ce9a451fe2aee26b91cedf90ffb49bc",
    "shared-seed7":
        "b72a4538e686d67892f9e0336e4a586c5dd531470aa2135b8603e518c86bf39c",
    "shared-seed1989":
        "2f52dd80babea93e317245d16a03f2fb0c6ea099352f977bce93df1a1fa893e9",
    "shared-n0":
        "0ccf27255c1ed53378cffdceb6f6e9c5667df2054532995af79603880649fa46",
    "shared-n1":
        "814f1319640be13508afaad110bf856f88a1293d262237d786c25d1615a082e8",
    "shared-one-task-one-block":
        "e458134f11c830b2dfb0d2625fc99fa9011ebe811fc95456d46dd481945f312e",
    "shared-w0":
        "03a1dd7596462dae7bb883311970fd318b48b8e5b82490979e5f5187e5421c5f",
    "shared-w1":
        "64ba21b03752e78ef03347a43da25456590905e5352552304d220a40b6205aff",
    "random-seed7":
        "44538fa5a534ad1b8de25bdd7165d5bb6da2c0e8e5f42f63cbe28c8dd633137c",
    "random-seed1989":
        "9ea883989ab319855bc8a5815ffddb6016a985ca9f8e5e8d41915ebab79bf03d",
    "random-n0":
        "0ccf27255c1ed53378cffdceb6f6e9c5667df2054532995af79603880649fa46",
    "random-n1":
        "cfbf225829c698af1077a84794207b6426b567e9d86d032b52f623a4fa748a48",
    "random-one-node-one-block":
        "914075a6d2cd09315c4846505b46747fa6ef4a302593c5d3fa04bbb6a877a107",
    "random-w0":
        "822f067af6d37a11f1b935e70befd840eb09b6d083de759a6756cf82e30a5997",
    "random-w1":
        "6baecef5220e525367b6f903ccf52d5458251c23d607941ec44b70c92d063ae0",
    "random-no-locality":
        "bafe88a9ad56422d31d35b1785f7781738fea5d5710c829f670b206014177029",
    "random-full-locality":
        "9f03a0dfc41a96eb36334a3ec3f0256ee9f92d14e392840f169c40412994011e",
    "producer-consumer":
        "78cf8b94810698c3f70e0c2db4ce194ef42f3097614acaaf691e7d8dd9867321",
    "producer-consumer-n0":
        "b2f1cbc1f47f89718c8437356bb869d30718f08d0dc3bfe55fb6424d0899cc84",
    "producer-consumer-no-consumers":
        "ac15d0b58f06764c3d314805ea35ec2d48e7c84923f9fa05c3dff75f62b82eba",
    "migratory":
        "94f6dc1d0c2dd1419ae7f9b7f5a7e3d731930e2abed6328acfbf0dac2c31bb57",
    "migratory-n0":
        "b2f1cbc1f47f89718c8437356bb869d30718f08d0dc3bfe55fb6424d0899cc84",
    "migratory-one-task":
        "18eed8398c725e8a81e70d12b463301b619e9a57ae1628540facd1501a45f9a1",
    "ping-pong":
        "ba5b8d77497889457de1234c61e855817ec5318f2be51cf125984d810781badf",
    "ping-pong-n0":
        "b2f1cbc1f47f89718c8437356bb869d30718f08d0dc3bfe55fb6424d0899cc84",
    "spinlock":
        "3c76e5df6b4292da3359b1c9efa79ac8e6d33e1d6cc814bbbb9b43925eb15258",
    "spinlock-n0":
        "b2f1cbc1f47f89718c8437356bb869d30718f08d0dc3bfe55fb6424d0899cc84",
    "spinlock-one-task-no-spin":
        "612b7b1c690d6bb809f6a77b0c40fe29f08da22eece46986265281e2e418861c",
    "jacobi":
        "093d231924244a1d9e34337988aeea46157d53e11cea141588c3f2ff3c02aaf6",
    "jacobi-no-sweeps":
        "b2f1cbc1f47f89718c8437356bb869d30718f08d0dc3bfe55fb6424d0899cc84",
    "jacobi-one-task":
        "532f45fadb7e84ba279b82a39e91530e55010f66135afb183d2c97dc56c7c227",
    "matrix-multiply":
        "b31009228d0492693c399b88bd786da64a87891036bce9fd36e5393c66c3bf95",
    "matrix-multiply-one-task":
        "3718917f9e6b16ac54db8d2e92d630d2224ad3ed13e3fa60151f447fbe0d7871",
}


def column_digest(columns) -> str:
    payload = json.dumps(
        [
            columns.n_nodes,
            columns.block_size_words,
            list(columns.nodes),
            list(columns.ops),
            list(columns.blocks),
            list(columns.offsets),
            list(columns.values),
        ]
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class TestPinnedColumns:
    def test_every_generator_is_pinned(self):
        assert set(PINNED) == set(CASES)
        assert {case[0] for case in CASES.values()} == {
            jacobi_trace, markov_block_trace, matrix_multiply_trace,
            migratory_trace, ping_pong_trace, producer_consumer_trace,
            random_trace, shared_structure_trace, spinlock_trace,
        }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_columns_match_the_pinned_digest(self, case):
        generator, args, kwargs = CASES[case]
        columns = generator(*args, **kwargs, compiled=True)
        assert column_digest(columns) == PINNED[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reference_form_is_the_columns_as_a_trace(self, case):
        generator, args, kwargs = CASES[case]
        columns = generator(*args, **kwargs, compiled=True)
        trace = generator(*args, **kwargs)
        assert trace == columns.to_trace()
        assert trace.compile() == columns


class TestWorkloadSpecForms:
    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("markov", dict(tasks=(0, 4, 9))),
            ("shared-structure", dict(tasks=(1, 2, 8), n_blocks=5)),
            ("random", dict(n_blocks=5, locality=0.4)),
        ],
    )
    def test_build_is_build_compiled_as_a_trace(self, kind, extra):
        spec = WorkloadSpec(
            kind=kind, n_nodes=16, n_references=300, write_fraction=0.3,
            seed=604, **extra,
        )
        assert spec.build() == spec.build_compiled().to_trace()
        assert spec.build().compile() == spec.build_compiled()
