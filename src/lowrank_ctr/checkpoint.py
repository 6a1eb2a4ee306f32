"""Binary model checkpoints.

Layout::

    b"LRCK1\\n"                      6-byte magic
    uint64 little-endian             manifest byte length
    manifest                         UTF-8 JSON
    payload                          raw little-endian float32 tensors

The manifest holds the model topology (field layouts, layer attributes,
flags) and a tensor table: name, shape, dtype tag ``"f32"``, byte offset
into the payload and byte length.  Serialization is canonical (sorted
keys, no whitespace) so identical models produce identical files.
"""

from __future__ import annotations

import json
import math
import mmap
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
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _topology_shapes(topo: dict) -> dict:
    """Tensor name -> shape for every tensor but the MLP's, as the topology
    implies; raises DataError where the topology contradicts itself."""
    fields = topo["fields"]
    kinds = {f["kind"] for f in fields}
    if not kinds <= {"dense", "tt"}:
        raise DataError(f"unknown field kind {sorted(kinds - {'dense', 'tt'})}")
    if len(kinds) > 1:
        raise DataError("fields mix dense tables and tensor-train cores")
    embed_dim = int(topo["embed_dim"])
    projected = bool(topo["has_projections"])
    if topo["fused"] and not projected:
        raise DataError("fused model without projections")
    widths = sorted({int(f["dim"]) for f in fields if f["kind"] == "dense"})
    if len(widths) > 1:
        raise DataError(f"dense fields must share one width, got {widths}")
    shapes = {}
    for i, f in enumerate(fields):
        vocab, dim = int(f["vocab"]), int(f["dim"])
        if vocab < 1 or dim < 1:
            raise DataError(f"field {i}: vocab {vocab} and dim {dim} must be positive")
        if not projected and dim != embed_dim:
            raise DataError(
                f"field {i}: width {dim} without projections to {embed_dim}"
            )
        if f["kind"] == "dense":
            shapes[f"emb.{i}.weight"] = (dim, vocab)
        else:
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
            for j in range(len(rf)):
                shapes[f"emb.{i}.core.{j}"] = (ranks[j], rf[j], cf[j], ranks[j + 1])
    if projected:
        for i, f in enumerate(fields):
            shapes[f"proj.{i}.weight"] = (embed_dim, int(f["dim"]))
            shapes[f"proj.{i}.bias"] = (embed_dim,)
    if topo["has_first_order"]:
        for i, f in enumerate(fields):
            shapes[f"fo.{i}.weight"] = (int(f["vocab"]),)
    return shapes


def load_checkpoint(path) -> DeepFMModel:
    """Read a checkpoint, checking every tensor against the topology.

    Any inconsistency (a tensor whose shape the topology does not imply, an
    MLP whose widths do not chain from the input width down to 1, a
    non-finite value, mixed dense and tensor-train fields) raises DataError
    before a model is built.  The payload is mapped, not read, and dense
    tables and first-order weights are copied from it once, by
    ``DeepFMModel.packed``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
        header = fh.read(8)
        if len(header) < 8:
            raise DataError(f"{path}: truncated checkpoint header")
        (length,) = struct.unpack("<Q", header)
        blob = fh.read(length)
        if len(blob) < length:
            raise DataError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise DataError(f"{path}: corrupt manifest ({exc})") from exc
        # unmapped once the last array viewing it is gone
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        payload = memoryview(mapped)[fh.tell() :]

    if not isinstance(manifest, dict):
        raise DataError(f"{path}: corrupt manifest (not an object)")

    if manifest.get("format_version") != _FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {manifest.get('format_version')}"
        )
    try:
        return _build(manifest, payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt manifest ({exc!r})") from exc


def _build(manifest: dict, payload) -> DeepFMModel:
    entries = {}
    for entry in manifest["tensors"]:
        if entry["dtype"] != "f32":
            raise DataError(f"unsupported tensor dtype {entry['dtype']}")
        entries[entry["name"]] = entry

    topo = manifest["topology"]
    if topo.get("kind") != "deepfm":
        raise DataError(f"unknown model kind {topo.get('kind')}")
    shapes = _topology_shapes(topo)

    def read(name: str, shape=None) -> np.ndarray:
        """Tensor ``name`` as a read-only view of the payload."""
        if name not in entries:
            raise DataError(f"missing tensor {name}")
        entry = entries.pop(name)
        stored = tuple(int(d) for d in entry["shape"])
        want = shapes[name] if shape is None else shape
        if stored != tuple(want):
            raise DataError(
                f"tensor {name} has shape {stored}, the topology implies {tuple(want)}"
            )
        count = math.prod(stored)
        start = int(entry["offset"])
        if entry["nbytes"] != 4 * count or start < 0:
            raise DataError(
                f"tensor {name}: {entry['nbytes']} bytes at offset {start} "
                f"for shape {stored}"
            )
        if start + 4 * count > len(payload):
            raise DataError(f"truncated payload for {name}")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        if not np.isfinite(arr).all():
            raise DataError(f"tensor {name} holds non-finite values")
        return arr.reshape(stored)

    def take(name: str, shape=None) -> np.ndarray:
        return read(name, shape).astype(np.float32)

    fields = topo["fields"]
    tables = []
    first_order = []
    for i, fspec in enumerate(fields):
        if fspec["kind"] == "tt":
            ranks = fspec["ranks"]
            cores = tuple(take(f"emb.{i}.core.{j}") for j in range(len(ranks) - 1))
            tt = TTCores(
                cores,
                tuple(fspec["row_factors"]),
                tuple(fspec["col_factors"]),
                tuple(ranks),
            )
            tables.append(TTEmbeddingTable(tt, fspec["vocab"], fspec["dim"]))
        else:
            tables.append(EmbeddingTable(read(f"emb.{i}.weight")))
        if topo["has_first_order"]:
            first_order.append(read(f"fo.{i}.weight"))

    projections = None
    if topo["has_projections"]:
        projections = [
            ProjectionLayer(take(f"proj.{i}.weight"), take(f"proj.{i}.bias"))
            for i in range(len(tables))
        ]
    fused = bool(topo["fused"])
    if fused:
        width = sum(int(f["dim"]) for f in fields)
    else:
        width = len(fields) * int(topo["embed_dim"])
    width += int(topo["n_continuous"])
    mlp = []
    for j, spec in enumerate(topo["mlp"]):
        name = f"mlp.{j}.weight"
        if name not in entries:
            raise DataError(f"missing tensor {name}")
        out = int(entries[name]["shape"][0])
        last = j == len(topo["mlp"]) - 1
        if out < 1 or (last and out != 1):
            raise DataError(
                f"{name} has {out} outputs; layers need at least 1 "
                "and the last exactly 1"
            )
        mlp.append(
            DenseLayer(
                take(name, (out, width)),
                take(f"mlp.{j}.bias", (out,)),
                spec["activation"],
                float(spec["dropout_rate"]),
                bool(spec["dropout_site"]),
            )
        )
        width = out
    if not mlp:
        raise DataError("model has no MLP layers")
    if entries:
        raise DataError(f"tensors the topology does not use: {sorted(entries)}")
    model = DeepFMModel(
        tables=tables,
        first_order=first_order,
        mlp=mlp,
        n_continuous=int(topo["n_continuous"]),
        embed_dim=int(topo["embed_dim"]),
        projections=projections,
        fm_enabled=bool(topo["fm_enabled"]),
        fused=fused,
    )
    # copies the payload views out of the file, which no array then maps
    model.packed()
    return model
