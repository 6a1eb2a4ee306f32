"""Binary model checkpoints.

Layout::

    b"LRCK1\\n"                      6-byte magic
    uint64 little-endian             manifest byte length
    manifest                         UTF-8 JSON
    payload                          raw little-endian float32 tensors

The manifest holds the model topology (field layouts, layer attributes,
flags) and a tensor table: name, shape, dtype tag ``"f32"``, byte offset
into the payload and byte length.  ``manifest_for`` alone defines the
table: one entry per ``DeepFMModel.named_parameters()`` item, in that
order, each tensor starting where the one before it ends.  The loader
builds the model the topology describes and accepts only the table
``manifest_for`` gives that model.  Serialization is canonical (sorted
keys, no whitespace) so identical models produce identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError, ShapeError
from .linalg import TTCores
from .nn import (
    DeepFMModel,
    DenseLayer,
    EmbeddingTable,
    ProjectionLayer,
    TTEmbeddingTable,
)

MAGIC = b"LRCK1\n"
_FORMAT_VERSION = 1


def _topology(model: DeepFMModel) -> dict:
    fields = []
    for table in model.tables:
        if isinstance(table, TTEmbeddingTable):
            fields.append(
                {
                    "kind": "tt",
                    "vocab": table.vocab,
                    "dim": table.dim,
                    "row_factors": list(table.cores.row_factors),
                    "col_factors": list(table.cores.col_factors),
                    "ranks": list(table.cores.ranks),
                }
            )
        else:
            fields.append(
                {"kind": "dense", "vocab": table.vocab, "dim": table.dim}
            )
    return {
        "kind": "deepfm",
        "embed_dim": model.embed_dim,
        "n_continuous": model.n_continuous,
        "fm_enabled": model.fm_enabled,
        "fused": model.fused,
        "has_projections": model.projections is not None,
        "has_first_order": bool(model.first_order),
        "fields": fields,
        "mlp": [
            {
                "activation": layer.activation,
                "dropout_rate": float(layer.dropout_rate),
                "dropout_site": bool(layer.dropout_site),
            }
            for layer in model.mlp
        ],
    }


def manifest_for(model: DeepFMModel) -> dict:
    """The manifest that ``save_checkpoint`` would write, without payload."""
    tensors = []
    offset = 0
    for name, arr in model.named_parameters():
        if arr.dtype != np.float32:
            raise ShapeError(
                f"checkpoints store float32 tensors; {name} is {arr.dtype}"
            )
        nbytes = arr.size * 4
        tensors.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f32",
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset += nbytes
    return {
        "format_version": _FORMAT_VERSION,
        "topology": _topology(model),
        "tensors": tensors,
    }


def save_checkpoint(model: DeepFMModel, path) -> None:
    manifest = manifest_for(model)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in model.named_parameters():
            # a contiguous array is written as it is, a strided view from one copy
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def _skeleton(topo: dict, stored: list, payload_bytes: int) -> DeepFMModel:
    """The model a topology describes, with placeholder parameters; raises
    DataError where the topology contradicts itself.  MLP out widths come
    from the stored ``mlp.{j}.weight`` shapes: the topology does not hold them.
    Only what the model packs into arrays of its own is allocated here, once
    charged to the payload size; the MLP and the cores stay placeholders."""
    if topo.get("kind") != "deepfm":
        raise DataError(f"unknown model kind {topo.get('kind')}")
    fields = topo["fields"]
    kinds = {f["kind"] for f in fields}
    if not kinds <= {"dense", "tt"}:
        raise DataError(f"unknown field kind {sorted(kinds - {'dense', 'tt'})}")
    embed_dim = int(topo["embed_dim"])
    projected, fused = bool(topo["has_projections"]), bool(topo["fused"])
    if fused and not projected:
        raise DataError("fused model without projections")
    if bool(topo["has_first_order"]) != bool(topo["fm_enabled"]):
        raise DataError("first-order weights in a model without the FM term"
                        if topo["has_first_order"] else "the FM term without first-order weights")

    room = payload_bytes // 4  # every zero the model packs is stored, so fits the payload

    def placeholder(*shape):  # one 0.0 read at every index, taking no memory
        return np.broadcast_to(np.float32(0), shape)

    def packed(*shape):
        nonlocal room
        room -= math.prod(shape)
        if room < 0:
            raise DataError(f"the topology needs more than the {payload_bytes}-byte payload")
        return placeholder(*shape)

    tables = []
    for i, f in enumerate(fields):
        vocab, dim = int(f["vocab"]), int(f["dim"])
        if vocab < 1 or dim < 1:
            raise DataError(f"field {i}: vocab {vocab} and dim {dim} must be positive")
        if not projected and dim != embed_dim:
            raise DataError(f"field {i}: width {dim} without projections to {embed_dim}")
        if f["kind"] == "dense":
            tables.append(EmbeddingTable(packed(dim, vocab)))
            continue
        ranks = [int(r) for r in f["ranks"]]
        rf = [int(x) for x in f["row_factors"]]
        cf = [int(x) for x in f["col_factors"]]
        if (
            not len(ranks) - 1 == len(rf) == len(cf) >= 1
            or ranks[0] != 1
            or ranks[-1] != 1
            or min(ranks + rf + cf) < 1
            or math.prod(rf) < vocab
            or math.prod(cf) < dim
        ):
            raise DataError(
                f"field {i}: tensor-train ranks {ranks}, row factors {rf} and "
                f"column factors {cf} do not describe a ({vocab}, {dim}) table"
            )
        cores = [placeholder(*s) for s in zip(ranks, rf, cf, ranks[1:])]
        tables.append(TTEmbeddingTable(TTCores(tuple(cores)), vocab, dim))
    first_order = []
    if topo["has_first_order"]:
        first_order = [packed(int(f["vocab"])) for f in fields]
    projections = None
    if projected:
        projections = [
            ProjectionLayer(packed(embed_dim, int(f["dim"])), packed(embed_dim))
            for f in fields
        ]
    width = sum(int(f["dim"]) for f in fields) if fused else len(fields) * embed_dim
    width += int(topo["n_continuous"])
    shapes = {entry["name"]: entry["shape"] for entry in stored}
    mlp = []
    for j, spec in enumerate(topo["mlp"]):
        name = f"mlp.{j}.weight"
        if name not in shapes:
            raise DataError(f"missing tensor {name}")
        out = int(shapes[name][0])
        if out < 1 or (j == len(topo["mlp"]) - 1 and out != 1):
            raise DataError(
                f"{name} has {out} outputs; layers need at least 1 and the last exactly 1"
            )
        mlp.append(DenseLayer(placeholder(out, width), placeholder(out), spec["activation"],
                              float(spec["dropout_rate"]), bool(spec["dropout_site"])))
        width = out
    if not mlp:
        raise DataError("model has no MLP layers")
    return DeepFMModel(tables, first_order, mlp, int(topo["n_continuous"]), projections, fused)


def _check_table(stored: list, expected: list) -> None:
    """Raise DataError naming the first tensor where a stored tensor table
    departs from the one the writer produces for the same model."""
    names = [entry["name"] for entry in expected]
    for k, entry in enumerate(stored):
        if k < len(expected) and entry == expected[k]:
            continue
        name = entry["name"]
        if name in names[:k]:
            raise DataError(f"duplicate tensor {name}")
        if name not in names:
            raise DataError(f"tensor {name}, which the topology does not use")
        want = expected[k]
        if name != want["name"]:
            if want["name"] not in {e["name"] for e in stored}:
                raise DataError(f"missing tensor {want['name']}")
            raise DataError(f"tensor {name} is listed where the writer puts {want['name']}")
        if list(entry["shape"]) != want["shape"]:
            raise DataError(
                f"tensor {name} has shape {tuple(entry['shape'])}, "
                f"the topology implies {tuple(want['shape'])}"
            )
        if entry["dtype"] != "f32":
            raise DataError(f"unsupported tensor dtype {entry['dtype']}")
        raise DataError(f"tensor {name}: {entry['nbytes']} bytes at offset {entry['offset']}, "
                        f"where the previous tensor ends at {want['offset']} and its shape "
                        f"needs {want['nbytes']}")
    if len(stored) < len(expected):
        raise DataError(f"missing tensor {expected[len(stored)]['name']}")


def load_checkpoint(path) -> DeepFMModel:
    """Read a checkpoint into the model its topology describes.

    The stored tensor table must equal ``manifest_for`` of that model entry
    for entry, in canonical order, and end where the payload ends; a
    difference, a non-finite value, a read that comes back short or a
    topology that contradicts itself raises DataError naming the first
    tensor or field concerned.  All of that is checked before any tensor
    gets memory.  Each tensor is then read from the file into one float32
    buffer, sized to the largest tensor and reused by every one, checked
    there and copied into the model's array, so a load holds the model and
    one tensor, not the payload as well."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
        header = fh.read(8)
        if len(header) < 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (length,) = struct.unpack("<Q", header)
        # checked before reading, so a length past the file's end allocates nothing
        if length > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataError(f"{path}: truncated manifest")
        blob = fh.read(length)
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise DataError(f"{path}: corrupt manifest ({exc})") from exc
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()

        if not isinstance(manifest, dict):
            raise DataError(f"{path}: corrupt manifest (not an object)")

        if manifest.get("format_version") != _FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported format version {manifest.get('format_version')}"
            )
        try:
            model = _skeleton(manifest["topology"], manifest["tensors"], payload_bytes)
            expected = manifest_for(model)["tensors"]
            _check_table(manifest["tensors"], expected)
            end = expected[-1]["offset"] + expected[-1]["nbytes"]
            if end != payload_bytes:  # a truncated payload, or bytes after the last tensor
                raise DataError(f"the tensors end at byte {end} of a {payload_bytes}-byte payload")
            # the payload holds every tensor, so the MLP and the cores get memory now
            for layer in model.mlp:
                layer.weight, layer.bias = np.empty_like(layer.weight), np.empty_like(layer.bias)
            for table in model.tt_tables:
                table.cores = TTCores(tuple(map(np.empty_like, table.cores.cores)))
            params = model.named_parameters()
            buf = np.empty(max(arr.size for _, arr in params), "<f4")
            for (name, arr), entry in zip(params, expected):
                stored = buf[: arr.size]
                got = fh.readinto(stored)
                if got != entry["nbytes"]:
                    raise DataError(f"tensor {name}: read {got} of its {entry['nbytes']} bytes")
                if not np.isfinite(stored).all():
                    raise DataError(f"tensor {name} holds non-finite values")
                arr[...] = stored.reshape(arr.shape)
            return model
        except (DataError, ShapeError) as exc:
            raise DataError(f"{path}: {exc}") from exc
        except (LookupError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: corrupt manifest ({exc!r})") from exc
