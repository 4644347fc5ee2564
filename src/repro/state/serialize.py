"""Compact, versioned serialization of :class:`SimState`.

Container layout (``RPST`` format)::

    b"RPST" | u32 header_length (little-endian) | JSON header | raw array payload

The JSON header carries the schema version, the repro package version,
a sha256 content hash, an array directory (dtype/shape/offset per
array) and the state tree with ``{"__nd__": i}`` placeholders where
numpy arrays sit.  Array payloads are concatenated raw C-order bytes —
nothing in a blob is pickled, so checkpoints are safe to load from
untrusted paths and stable across Python versions.

The encoding is canonical (sorted JSON keys, sorted set elements,
order-preserving pair lists for tuples and non-string-keyed dicts), so
equal states produce identical bytes and the content hash doubles as a
state fingerprint.  The hash covers the header bytes with an empty
``content_hash`` value plus the payload; it is written by splicing the
hex digest into that slot, and readers verify it over the raw bytes, so
a header re-serialized in any other (non-canonical) form is refused.

Records of the capture lists that mostly repeat between snapshots of
one simulation (jobs, live events, trace records) are rendered through
a process-level memo keyed by each record's in-memory pickle; the
rendered text is spliced into the header, so the bytes are the same
whatever the memo holds.

Only JSON-able scalars, lists, tuples, sets, dicts and numpy arrays may
appear in the tree; the capture layer encodes object references as
plain ``{"$...": ...}`` marker dicts *before* serialization, so this
module never needs to know about simulation objects.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..errors import StateError

MAGIC = b"RPST"
#: Bump on any incompatible change to the capture tree layout.
#: 2: periodic-chain descriptions carry the phase-locked grid
#: (``epoch``/``index``); v1 checkpoints would silently re-anchor
#: restored chains off-grid, breaking replay identity.
#: 3: vector-backend execution membership is SoA (``exec_slot`` rows
#: rebuilt from the executions section; per-node ``running_job`` is
#: None on that backend), so v2 vector checkpoints — whose node
#: states carry job ids the restore path would re-stamp — are
#: rejected instead of silently diverging.
#: 4: the queue section is a dict (``jobs`` + ``table_live``) and the
#: restore path rebuilds the queue's SoA JobTable through the same
#: hooks submissions use; v3 restores grafted ``_jobs`` directly,
#: which would leave the mirror empty and every batched scheduler
#: pass blind to the restored backlog.
#: 5: policy/component capture gained ``__repro_getstate__`` hooks
#: for nested-dataclass state (energy reports, tag
#: characterizations, admin scripts, learned predictors) and a
#: ``components`` section for attached auxiliaries (telemetry
#: samplers); v4 snapshots silently dropped that state on restore,
#: which diverged replay for five of the nine center scenarios.
STATE_SCHEMA_VERSION = 5


@dataclass
class SimState:
    """An in-memory snapshot of one :class:`ClusterSimulation`.

    ``data`` is a plain tree (dicts/lists/tuples/sets/scalars/numpy
    arrays plus ``$``-marker reference dicts) — fully decoupled from
    the live simulation it was captured from.
    """

    schema: int
    repro_version: str
    data: Dict[str, Any]


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------
#: Exact builtin leaf types: JSON carries them as they are.
_EXACT_LEAVES = frozenset({type(None), bool, int, float, str})


def _encode(value: Any, arrays: List[np.ndarray], path: str) -> Any:
    kind = type(value)
    # Exact builtins, lists and dicts are nearly every node of a capture
    # tree: one type lookup each, and leaf children are taken as they
    # are without a call.  Everything else (numpy values, tuples, sets,
    # builtin subclasses) goes through the isinstance chain below.
    if kind in _EXACT_LEAVES:
        return value
    if kind is list:
        return [v if type(v) in _EXACT_LEAVES else _encode(v, arrays, path)
                for v in value]
    if kind is dict or isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("__") for k in value):
            # Sorted walk: array payload order must match the sorted
            # JSON key order so equal states serialize to equal bytes
            # regardless of in-memory dict insertion order.
            return {
                k: v if type(v := value[k]) in _EXACT_LEAVES
                else _encode(v, arrays, f"{path}.{k}")
                for k in sorted(value)
            }
        # Non-string (or marker-colliding) keys: order-preserving pairs.
        return {"__kv__": [[_encode(k, arrays, path), _encode(v, arrays, path)]
                           for k, v in value.items()]}
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    # json round-trips python floats exactly (repr shortest-round-trip;
    # inf/nan use the python-json Infinity/NaN literals).
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        arrays.append(np.ascontiguousarray(value))
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, list):
        return _encode(list(value), arrays, path)
    if isinstance(value, tuple):
        return {"__t__": _encode(list(value), arrays, path)}
    if isinstance(value, (set, frozenset)):
        return {"__s__": _encode(sorted(value, key=repr), arrays, path)}
    raise StateError(
        f"cannot serialize {type(value).__name__} at {path!r}; the capture "
        f"layer must encode object references before serialization"
    )


def _decode(value: Any, arrays: List[np.ndarray]) -> Any:
    # The parsed header holds only JSON types; leaf children are taken
    # as they are without a call.
    if isinstance(value, list):
        return [v if type(v) in _EXACT_LEAVES else _decode(v, arrays)
                for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if "__nd__" in value:
                return arrays[value["__nd__"]]
            if "__t__" in value:
                return tuple(_decode(value["__t__"], arrays))
            if "__s__" in value:
                return set(_decode(value["__s__"], arrays))
            if "__kv__" in value:
                return {_decode(k, arrays): _decode(v, arrays)
                        for k, v in value["__kv__"]}
        return {k: v if type(v) in _EXACT_LEAVES else _decode(v, arrays)
                for k, v in value.items()}
    return value


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
#: The header's hash slot.  Sorted keys put ``content_hash`` right
#: after the ``arrays`` directory (dtypes and integers only), and JSON
#: escapes every quote inside ``data``, so in a canonical header the
#: first occurrence of these bytes is the slot itself.
_HASH_SLOT = b'"content_hash":"'
_HASH_HEX = 64


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with
#: the encoder built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# ----------------------------------------------------------------------
# Record memo
# ----------------------------------------------------------------------
#: The capture lists whose records mostly repeat from one snapshot of a
#: site to the next (future and terminal jobs, pending submit events,
#: old trace records): a key tree from ``data`` whose ``True`` leaves
#: mark the lists.
_MEMO_LISTS: Dict[str, Any] = {
    "engine": {"events": True},
    "jobs": True,
    "trace": {"records": True},
}
#: Memo bound: the memo is emptied when its keys and fragments would
#: pass this many bytes.
_MEMO_MAX_BYTES = 4 << 20

#: ``pickle.dumps(record, 5)`` -> the record's canonical JSON text.
_memo: Dict[bytes, str] = {}
_memo_bytes = 0


def clear_record_memo() -> None:
    """Empty the record memo; encodes after this one render cold."""
    global _memo_bytes
    _memo.clear()
    _memo_bytes = 0


def _render_record(record: Any, arrays: List[np.ndarray], path: str) -> str:
    """Canonical JSON text of one list record, through the memo.

    The key is the record's pickle, which tells apart everything the
    encoding tells apart (``1``/``1.0``/``True``, ``0.0``/``-0.0``,
    tuple/list, dict and set order), so a hit returns exactly the text
    a fresh render would.  A record without a key renders the plain
    way; one that placed arrays is never stored, since its
    ``{"__nd__": i}`` indices depend on its place in the payload.
    """
    global _memo_bytes
    try:
        key = pickle.dumps(record, 5)
    except Exception:
        key = None
    else:
        text = _memo.get(key)
        if text is not None:
            return text
    placed = len(arrays)
    text = _dumps(_encode(record, arrays, path))
    if key is not None and len(arrays) == placed:
        size = len(key) + len(text)
        if size <= _MEMO_MAX_BYTES:
            if _memo_bytes + size > _MEMO_MAX_BYTES:
                clear_record_memo()
            _memo[key] = text
            _memo_bytes += size
    return text


def _join_object(members: Dict[str, str]) -> str:
    """A JSON object from rendered member texts, keys in ``sort_keys``
    order."""
    return "{" + ",".join(
        f"{_dumps(k)}:{members[k]}" for k in sorted(members)
    ) + "}"


def _render(value: Any, arrays: List[np.ndarray], path: str, memo: Any) -> str:
    """Canonical JSON text of ``_encode(value)``, with the records of
    the lists *memo* marks rendered through the memo.

    The walk order (sorted string keys, list order) is ``_encode``'s,
    so arrays land in the payload in the same order and the text is
    the bytes one ``json.dumps`` of the whole tree would give.
    """
    if memo is True and type(value) is list:
        return "[" + ",".join(
            [_render_record(v, arrays, path) for v in value]
        ) + "]"
    if (type(memo) is dict and type(value) is dict
            and all(isinstance(k, str) and not k.startswith("__")
                    for k in value)):
        return _join_object({
            k: _render(value[k], arrays, f"{path}.{k}", memo.get(k))
            for k in sorted(value)
        })
    return _dumps(_encode(value, arrays, path))


def _encode_state(state: SimState) -> Tuple[bytes, str]:
    """Encode *state* once: ``(blob, content_hash)``.

    The header is rendered a single time with an empty hash slot; the
    sha256 is taken over those bytes plus the payload (the hash's
    definition) and its hex digest is then spliced into the slot.
    """
    arrays: List[np.ndarray] = []
    data = _render(state.data, arrays, "data", _MEMO_LISTS)
    directory = []
    offset = 0
    chunks = []
    for arr in arrays:
        raw = arr.tobytes()
        directory.append({
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        offset += len(raw)
        chunks.append(raw)
    payload = b"".join(chunks)
    blank = _join_object({
        "schema": _dumps(int(state.schema)),
        "repro_version": _dumps(state.repro_version),
        "content_hash": '""',
        "arrays": _dumps(directory),
        "data": data,
    }).encode("utf-8")
    hasher = hashlib.sha256(blank)
    hasher.update(payload)
    digest = hasher.hexdigest()
    cut = blank.index(_HASH_SLOT) + len(_HASH_SLOT)
    hbytes = b"".join((blank[:cut], digest.encode("ascii"), blank[cut:]))
    blob = b"".join(
        (MAGIC, len(hbytes).to_bytes(4, "little"), hbytes, payload)
    )
    return blob, digest


def _header_length(blob: bytes) -> int:
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise StateError("not an RPST checkpoint (bad magic)")
    hlen = int.from_bytes(blob[4:8], "little")
    if len(blob) < 8 + hlen:
        raise StateError("truncated RPST checkpoint (header)")
    return hlen


def _verified_hash(blob: bytes, hlen: int) -> str:
    """Check an ``RPST`` blob's content hash without parsing its header.

    The hash is recomputed over the raw header bytes with the slot
    blanked again, plus the payload, so it covers exactly the bytes
    the encoder hashed: any edited byte, or a header re-serialized
    non-canonically, is refused.
    """
    cut = blob.find(_HASH_SLOT, 8, 8 + hlen)
    if cut < 0:
        raise StateError("RPST header has no content hash")
    cut += len(_HASH_SLOT)
    view = memoryview(blob)
    hasher = hashlib.sha256(view[8:cut])
    hasher.update(view[cut + _HASH_HEX:])
    digest = hasher.hexdigest()
    if digest.encode("ascii") != blob[cut:cut + _HASH_HEX]:
        raise StateError("RPST content hash mismatch (corrupt checkpoint)")
    return digest


def to_bytes(state: SimState) -> bytes:
    """Serialize *state* into the self-contained ``RPST`` container."""
    return _encode_state(state)[0]


def from_bytes(blob: bytes) -> SimState:
    """Parse an ``RPST`` container, verifying magic, schema and hash."""
    hlen = _header_length(blob)
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StateError(f"corrupt RPST header: {exc}") from exc
    schema = header.get("schema")
    if schema != STATE_SCHEMA_VERSION:
        raise StateError(
            f"checkpoint schema {schema} is not supported "
            f"(this build reads schema {STATE_SCHEMA_VERSION})"
        )
    if header.get("content_hash") != _verified_hash(blob, hlen):
        raise StateError("RPST content hash is not in the header's hash slot")
    payload = blob[8 + hlen:]
    arrays: List[np.ndarray] = []
    for entry in header["arrays"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise StateError("truncated RPST checkpoint (payload)")
        arr = np.frombuffer(
            payload[start:start + nbytes], dtype=np.dtype(entry["dtype"])
        ).reshape(entry["shape"]).copy()
        arrays.append(arr)
    data = _decode(header["data"], arrays)
    return SimState(schema=schema, repro_version=header["repro_version"], data=data)


def blob_digest(blob: bytes) -> str:
    """Verified content hash of an ``RPST`` blob, read without parsing
    its header (equal to :func:`state_digest` of the encoded state)."""
    return _verified_hash(blob, _header_length(blob))


def state_digest(state: SimState) -> str:
    """Canonical sha256 fingerprint of *state* (the content hash of its
    serialized form)."""
    return _encode_state(state)[1]


def save_state(path: str, state: SimState) -> str:
    """Atomically write *state* to *path* (tmp file + rename)."""
    blob = to_bytes(state)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_state(path: str) -> SimState:
    """Read and verify a checkpoint written by :func:`save_state`."""
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
