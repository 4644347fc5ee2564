"""Tests for the RPST checkpoint container (repro.state.serialize)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import StateError
from repro.state import (
    STATE_SCHEMA_VERSION,
    SimState,
    diff_states,
    from_bytes,
    load_state,
    save_state,
    state_digest,
    to_bytes,
)


def make_state(data) -> SimState:
    return SimState(schema=STATE_SCHEMA_VERSION, repro_version="test", data=data)


class TestRoundTrip:
    def test_scalars_and_containers(self):
        data = {
            "none": None,
            "flag": True,
            "count": 42,
            "ratio": 0.1 + 0.2,
            "text": "hello",
            "inf": float("inf"),
            "ninf": float("-inf"),
            "tup": (1, 2.5, "x"),
            "nested": {"a": [1, 2, {"b": (3,)}]},
            "ints": {"__weird": 1},
        }
        st = make_state(data)
        back = from_bytes(to_bytes(st))
        assert diff_states(st, back) == []
        assert back.schema == STATE_SCHEMA_VERSION
        assert back.repro_version == "test"

    def test_nan_round_trips(self):
        st = make_state({"x": float("nan")})
        back = from_bytes(to_bytes(st))
        assert math.isnan(back.data["x"])

    def test_numpy_arrays(self):
        data = {
            "f64": np.linspace(0.0, 1.0, 17),
            "i64": np.arange(9, dtype=np.int64).reshape(3, 3),
            "u8": np.array([0, 255], dtype=np.uint8),
            "boolean": np.array([True, False, True]),
            "empty": np.zeros(0),
        }
        back = from_bytes(to_bytes(make_state(data)))
        for key, arr in data.items():
            out = back.data[key]
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_restored_arrays_are_writable_copies(self):
        back = from_bytes(to_bytes(make_state({"a": np.arange(4.0)})))
        back.data["a"][0] = 99.0  # must not raise (no read-only frombuffer view)

    def test_sets_and_nonstring_keys(self):
        data = {
            "s": {3, 1, 2},
            "fs": frozenset({"b", "a"}),
            "by_id": {1: "one", 2: "two"},
            "mixed": {(0, 1): 5.0},
        }
        back = from_bytes(to_bytes(make_state(data))).data
        assert back["s"] == {1, 2, 3}
        assert back["fs"] == {"a", "b"}
        assert back["by_id"] == {1: "one", 2: "two"}
        assert back["mixed"] == {(0, 1): 5.0}

    def test_unserializable_type_raises(self):
        with pytest.raises(StateError, match="cannot serialize object at 'data.bad'"):
            to_bytes(make_state({"bad": object()}))
        # The message names the full dotted path through plain dicts,
        # lists, tuples and sets alike.
        nested = {"outer": {"inner": [1, {"leaf": object()}]}}
        with pytest.raises(StateError, match=r"'data\.outer\.inner\.leaf'"):
            to_bytes(make_state(nested))
        nested = {"outer": ({"mid": {frozenset({1}), 2.0}}, {"leaf": object()})}
        with pytest.raises(StateError, match=r"'data\.outer\.leaf'"):
            to_bytes(make_state(nested))


class TestCanonical:
    def test_insertion_order_does_not_change_bytes(self):
        a = {"alpha": np.arange(16.0), "beta": np.arange(13.0), "x": 1}
        b = {"x": 1, "beta": np.arange(13.0), "alpha": np.arange(16.0)}
        assert to_bytes(make_state(a)) == to_bytes(make_state(b))
        assert state_digest(make_state(a)) == state_digest(make_state(b))

    def test_digest_stable_across_round_trip(self):
        st = make_state({"z": np.arange(5.0), "a": [1, (2, 3)], "m": {"k": 1.5}})
        assert state_digest(from_bytes(to_bytes(st))) == state_digest(st)

    def test_digest_changes_with_content(self):
        base = state_digest(make_state({"a": 1}))
        assert state_digest(make_state({"a": 2})) != base


class TestContainerValidation:
    def test_bad_magic(self):
        with pytest.raises(StateError, match="magic"):
            from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated_header(self):
        blob = to_bytes(make_state({"a": 1}))
        with pytest.raises(StateError, match="truncated"):
            from_bytes(blob[:10])

    def test_truncated_payload(self):
        blob = to_bytes(make_state({"a": np.arange(64.0)}))
        with pytest.raises(StateError):
            from_bytes(blob[:-8])

    def test_hash_mismatch_on_flipped_byte(self):
        blob = bytearray(to_bytes(make_state({"a": np.arange(64.0)})))
        blob[-1] ^= 0xFF
        with pytest.raises(StateError, match="hash"):
            from_bytes(bytes(blob))

    def test_unsupported_schema(self):
        blob = to_bytes(make_state({"a": 1}))
        hlen = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8:8 + hlen])
        header["schema"] = STATE_SCHEMA_VERSION + 999
        hbytes = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode()
        doctored = blob[:4] + len(hbytes).to_bytes(4, "little") + hbytes
        with pytest.raises(StateError, match="schema"):
            from_bytes(doctored)


class TestFiles:
    def test_save_load(self, tmp_path):
        st = make_state({"a": np.arange(10.0), "b": "text"})
        path = tmp_path / "deep" / "ck.ckpt"
        save_state(str(path), st)
        back = load_state(str(path))
        assert diff_states(st, back) == []
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        save_state(str(path), make_state({"v": 1}))
        save_state(str(path), make_state({"v": 2}))
        assert load_state(str(path)).data["v"] == 2
