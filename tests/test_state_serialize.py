"""Tests for the RPST checkpoint container (repro.state.serialize)."""

from __future__ import annotations

import hashlib
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
    snapshot,
    to_bytes,
)
from repro.state import serialize
from repro.state.serialize import clear_record_memo

from .state_scenarios import build_rich, build_small, step_until
from .test_state_bytes_pinned import hand_tree


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


# ----------------------------------------------------------------------
# Record memo: the bytes never depend on what the memo holds
# ----------------------------------------------------------------------
def one_dump_blob(state: SimState) -> bytes:
    """Reference encoder: the encoded tree through one ``json.dumps``
    of the whole header, with no memo (the bytes the memoized encoder
    must reproduce)."""
    arrays = []
    tree = serialize._encode(state.data, arrays, "data")
    directory, offset = [], 0
    for arr in arrays:
        directory.append({"dtype": arr.dtype.str, "shape": list(arr.shape),
                          "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    payload = b"".join(arr.tobytes() for arr in arrays)
    blank = json.dumps(
        {"schema": state.schema, "repro_version": state.repro_version,
         "content_hash": "", "arrays": directory, "data": tree},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    digest = hashlib.sha256(blank + payload).hexdigest().encode()
    header = blank.replace(b'"content_hash":""',
                           b'"content_hash":"' + digest + b'"', 1)
    return b"RPST" + len(header).to_bytes(4, "little") + header + payload


def memo_size():
    """``(entries, bytes)`` held by the record memo."""
    return len(serialize._memo), serialize._memo_bytes


def cold_bytes(state: SimState) -> bytes:
    clear_record_memo()
    return to_bytes(state)


def cold_digest(state: SimState) -> str:
    clear_record_memo()
    return state_digest(state)


def in_memo_lists(*records) -> SimState:
    """A state carrying *records* in each of the memoized lists."""
    return make_state({
        "engine": {"now": 1.0, "events": list(records)},
        "jobs": list(records),
        "other": list(records),
        "trace": {"emitted": 3, "records": [(2.0, "cat", r) for r in records]},
    })


SCENARIO_CUTS = {
    "small-fcfs": (build_small, (0.0, 300.0, 700.0, 1500.0, 4000.0)),
    "small-easy": (lambda: build_small(scheduler="easy"), (250.0, 700.0)),
    "rich": (build_rich, (0.0, 400.0, 900.0, 2500.0)),
}


def scenario_states():
    """Snapshots of every scenario at each of its cuts, in cut order."""
    states = []
    for name, (build, cuts) in SCENARIO_CUTS.items():
        sim = build()
        for cut in cuts:
            states.append((f"{name}@{cut:g}", snapshot(step_until(sim, cut))))
    return states


class TestRecordMemo:
    def test_scenario_cuts_cold_and_warm_match(self):
        states = scenario_states()
        cold = {name: cold_bytes(st) for name, st in states}
        for name, st in states:
            assert cold[name] == one_dump_blob(st), name
        # Warm the memo with every other cut (forward and backward),
        # then encode each cut again.
        for order in (states, states[::-1]):
            clear_record_memo()
            for name, st in order:
                for other_name, other in order:
                    if other_name != name:
                        to_bytes(other)
                assert to_bytes(st) == cold[name], name
        assert state_digest(states[-1][1]) == cold_digest(states[-1][1])

    @pytest.mark.parametrize("group", [
        [1, 1.0, True, np.int64(1), np.float64(1.0), np.bool_(True)],
        [0, 0.0, -0.0, False, np.float64(-0.0)],
        [float("nan"), float("inf"), float("-inf"), -float("nan")],
        [(1, 2), [1, 2], {"__t__": [1, 2]}],
        [{9, 1, 17}, {1, 9, 17}, {17, 9, 1}, frozenset({1, 9, 17})],
        [{"a": 1, "b": 2.0}, {"b": 2.0, "a": 1}],
        [{1: "x", 2: "y"}, {2: "y", 1: "x"}],
        ["1", "1.0", "True", None],
    ])
    def test_lookalike_records_encode_like_cold(self, group):
        for first in group:
            for second in group:
                clear_record_memo()
                to_bytes(in_memo_lists({"v": first}, [first]))
                st = in_memo_lists({"v": second}, [second])
                warm = to_bytes(st)
                assert warm == cold_bytes(st) == one_dump_blob(st)

    def test_every_encoder_branch_inside_records(self):
        # The pinned hand tree's branches (enums, numpy scalars, named
        # tuples, marker-colliding keys, arrays), one record each.
        st = in_memo_lists(*hand_tree().values())
        cold = cold_bytes(st)
        assert cold == one_dump_blob(st)
        assert to_bytes(st) == cold

    def test_array_record_is_never_memoized(self):
        clear_record_memo()
        arr = {"v": np.arange(3.0)}
        st = make_state({"jobs": [{"plain": 1}, arr, arr, {"plain": 2}],
                         "nodes": np.ones(2)})
        blob = to_bytes(st)
        assert memo_size()[0] == 2
        assert blob == one_dump_blob(st)
        # The same record placed after other arrays takes later payload
        # slots; a stored fragment would carry the old indices.
        moved = make_state({"a": np.zeros(4), "jobs": [arr, {"plain": 1}]})
        assert to_bytes(moved) == one_dump_blob(moved)
        assert memo_size()[0] == 2
        back = from_bytes(to_bytes(moved)).data
        assert np.array_equal(back["jobs"][0]["v"], np.arange(3.0))

    @pytest.mark.parametrize("leaf", [lambda: 0, object()],
                             ids=["unpicklable", "picklable"])
    def test_bad_leaf_raises_with_dotted_path(self, leaf):
        clear_record_memo()
        st = make_state({"jobs": [{"ok": 1}, {"x": {"leaf": leaf}}]})
        with pytest.raises(StateError, match=r"'data\.jobs\.x\.leaf'"):
            to_bytes(st)
        st = make_state({"trace": {"records": [(1.0, "cat", {"leaf": leaf})]}})
        with pytest.raises(StateError, match=r"'data\.trace\.records\.leaf'"):
            to_bytes(st)
        assert memo_size()[0] == 1

    def test_memo_stays_under_its_cap(self, monkeypatch):
        cap = 4096
        monkeypatch.setattr(serialize, "_MEMO_MAX_BYTES", cap)
        clear_record_memo()
        for batch in range(20):
            st = make_state({"jobs": [{"id": f"b{batch}-{i}", "t": float(i)}
                                      for i in range(25)]})
            assert to_bytes(st) == one_dump_blob(st)
            entries, size = memo_size()
            assert 0 < entries and size <= cap
        # A record larger than the whole cap is rendered, not stored.
        clear_record_memo()
        big = make_state({"jobs": [{"text": "x" * cap}]})
        assert to_bytes(big) == one_dump_blob(big)
        assert memo_size() == (0, 0)

    def test_default_cap_holds_on_a_large_state(self):
        clear_record_memo()
        st = make_state({"jobs": [{"id": f"j{i}", "pad": "p" * 200}
                                  for i in range(15000)]})
        assert to_bytes(st) == one_dump_blob(st)
        assert memo_size()[1] <= serialize._MEMO_MAX_BYTES

