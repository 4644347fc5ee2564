"""Byte identity of the RPST encoding, pinned by literal digests.

The digests below are the sha256 of whole ``to_bytes`` blobs, recorded
from the schema-5 encoder before it became single-pass.  Any change to
the container bytes -- key order, float formatting, array directory,
the content-hash slot -- fails here, and so would change every state
fingerprint the federation benchmarks compare against.  A deliberate
layout change bumps ``STATE_SCHEMA_VERSION`` and re-records them.

``tests/data/rpst_v5_hand.rpst`` is the hand-built tree's blob written
by that same encoder: it must load and re-encode to the same bytes.

The container checks are pinned here too: the content hash is verified
over the raw header bytes, so a flipped byte anywhere in the header or
a re-serialized (non-canonical) header is refused, and
``state_fingerprint`` agrees between a snapshot and its blob.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
import pathlib
from enum import IntEnum

import numpy as np
import pytest

from repro.errors import StateError
from repro.state import (
    STATE_SCHEMA_VERSION,
    SimState,
    diff_states,
    from_bytes,
    snapshot,
    state_digest,
    state_fingerprint,
    to_bytes,
)

from .state_scenarios import build_rich, build_small, step_until

BLOB_PATH = pathlib.Path(__file__).parent / "data" / "rpst_v5_hand.rpst"
SLOT = b'"content_hash":"'


class Level(IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "left right")


def hand_tree() -> dict:
    """A tree that reaches every branch of the tree encoder."""
    return {
        "builtins": {
            "none": None, "yes": True, "no": False, "zero": 0, "neg": -7,
            "big": 2 ** 70, "ratio": 0.1 + 0.2, "tiny": 5e-324,
            "inf": math.inf, "ninf": -math.inf, "nan": math.nan,
            "empty": "", "text": 'héllo "quoted"\n\ttab',
            "list": [1, [2, [3, []]], {}],
        },
        "leaves": {
            "enum": Level.HIGH,
            "f64": np.float64(1.5),
            "f32": np.float32(0.25),
            "i64": np.int64(-3),
            "u8": np.uint8(200),
            "bool": np.bool_(True),
            "enum_list": [Level.LOW, np.int32(4), np.float64(-0.0)],
        },
        "containers": {
            "tuple": (1, "a", (2.0, None)),
            "empty_tuple": (),
            "named": Pair(1, (2, 3)),
            "set": {3, 1, 2},
            "empty_set": set(),
            "frozen": frozenset({"b", "a"}),
            "tuple_set": {(1, 2), (0, 5)},
            "mixed_set": {1, "a", 2.5},
            "ordered": collections.OrderedDict([("b", 1), ("a", 2)]),
        },
        "keys": {
            "by_id": {2: "two", 1: "one", (0, 1): 5.0, None: [1]},
            "dunder": {"x": 2, "__nd__": 1},
            "marker": {"__t__": [1]},
            "array_value": {7: np.arange(3, dtype=np.uint8)},
        },
        "arrays": [
            np.arange(5.0),
            {"inner": np.arange(6, dtype=np.int32).reshape(2, 3)},
            (np.array([True, False]),),
            {"deep": {"empty": np.zeros(0), "f32": np.ones(4, np.float32)}},
            np.array([[1.5, -2.0], [np.inf, np.nan]]),
        ],
        "content_hash": "0" * 64,
        "nested": {"content_hash": ""},
        "trap": '"content_hash":""',
        "trap_key": {'"content_hash":""': 1},
    }


def _pinned(state: SimState) -> SimState:
    """Fix the package version so only the encoding is pinned."""
    return dataclasses.replace(state, repro_version="pinned")


def hand_state() -> SimState:
    return SimState(STATE_SCHEMA_VERSION, "pinned", hand_tree())


SCENARIOS = {
    "small-fcfs@700": lambda: step_until(build_small(), 700.0),
    "small-easy@700": lambda: step_until(build_small(scheduler="easy"), 700.0),
    "rich@900": lambda: step_until(build_rich(), 900.0),
}

#: sha256 of ``to_bytes`` per scenario, recorded before the single-pass
#: encoder landed.
SCENARIO_SHA256 = {
    "small-fcfs@700": (
        "4414b4ae2dcdc3e2bbfbccb0916a16db1fff2e58a667599ffde3b4ac8b87c905"
    ),
    "small-easy@700": (
        "2f1b40005cd7153e149ad81ee649329475db6bcebb334521327ed9f89068705d"
    ),
    "rich@900": (
        "35d701841693e00a3fbe4c03a34db92cce2a54c601f38e42c21f1a0bae5bbd7a"
    ),
}

HAND_SHA256 = (
    "9d701515545fbe64e8da0faf7ebdfebb94c795a1009e5c892de6fffcbb1f2129"
)


@pytest.fixture(scope="module")
def scenario_states():
    return {name: _pinned(snapshot(build()))
            for name, build in SCENARIOS.items()}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(SCENARIO_SHA256))
    def test_scenario_bytes(self, scenario_states, name):
        blob = to_bytes(scenario_states[name])
        assert hashlib.sha256(blob).hexdigest() == SCENARIO_SHA256[name]

    def test_hand_tree_bytes(self):
        blob = to_bytes(hand_state())
        assert hashlib.sha256(blob).hexdigest() == HAND_SHA256

    def test_committed_blob_reencodes_identically(self):
        blob = BLOB_PATH.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == HAND_SHA256
        back = from_bytes(blob)
        assert to_bytes(back) == blob
        assert diff_states(back, from_bytes(to_bytes(hand_state()))) == []


def _set_byte(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    # Stay printable ASCII so the header still parses as JSON text.
    out[index] = ord("1") if out[index] != ord("1") else ord("2")
    return bytes(out)


def _flip_data_byte(blob: bytes) -> bytes:
    return _set_byte(blob, blob.index(b'"text":"h') + len(b'"text":"h'))


def _flip_hash_hex(blob: bytes) -> bytes:
    return _set_byte(blob, blob.index(SLOT) + len(SLOT) + 10)


def _loosen_header(blob: bytes) -> bytes:
    """Same header content and hash, re-dumped with default whitespace."""
    hlen = int.from_bytes(blob[4:8], "little")
    loose = json.dumps(json.loads(blob[8:8 + hlen]), sort_keys=True).encode()
    assert loose != blob[8:8 + hlen]
    return blob[:4] + len(loose).to_bytes(4, "little") + loose + blob[8 + hlen:]


def _flip_payload_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


def _rename_hash_key(blob: bytes) -> bytes:
    return blob.replace(SLOT, b'"content_hosh":"', 1)


TAMPERS = {
    "data-byte": _flip_data_byte,
    "hash-hex": _flip_hash_hex,
    "non-canonical-header": _loosen_header,
    "payload-byte": _flip_payload_byte,
    "no-hash-slot": _rename_hash_key,
}


class TestContainerStrictness:
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_blob_is_refused(self, tamper):
        bad = TAMPERS[tamper](to_bytes(hand_state()))
        with pytest.raises(StateError, match="hash"):
            from_bytes(bad)
        with pytest.raises(StateError, match="hash"):
            state_fingerprint(bad)

    def test_fingerprint_of_blob_matches_state(self, scenario_states):
        for state in [*scenario_states.values(), hand_state()]:
            blob = to_bytes(state)
            assert state_fingerprint(blob) == state_fingerprint(state)
            assert state_fingerprint(blob) == state_digest(state)
