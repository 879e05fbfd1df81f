"""Checkpoint file: canonical JSON manifest + little-endian float64 payload.

Layout: 8-byte magic, 8-byte LE manifest length, manifest bytes, payload.
The manifest records config, entry names/shapes/offsets and training-stage
provenance. A checkpoint holds weights and batch-norm statistics only; each
training loop starts its own optimizer state. load -> save is byte-identical.
"""

import json
import struct
from dataclasses import fields

import numpy as np

from .model import EncoderConfig, TransformerModel

MAGIC = b"MDAPTCK2"


class Checkpoint:
    def __init__(self, model, provenance=None):
        self.model = model
        self.provenance = provenance or {}

    def copy(self):
        m = TransformerModel(self.model.config, init=False)
        for name, p in self.model.params.items():
            m.params[name] = type(p)(name, p.data.copy(), p.requires_grad)
        m.bn_states = {k: s.copy() for k, s in self.model.bn_states.items()}
        return Checkpoint(m, dict(self.provenance))

    def _entries(self):
        """(name, array) pairs in a fixed, sorted order."""
        out = []
        for name in sorted(self.model.params):
            out.append((f"param/{name}", self.model.params[name].data))
        for name in sorted(self.model.bn_states):
            s = self.model.bn_states[name]
            out.append((f"bn/{name}/mean", s.running_mean))
            out.append((f"bn/{name}/var", s.running_var))
        return out

    def save(self, path):
        entries = self._entries()
        manifest = {
            "config": self.model.config.to_dict(),
            "provenance": self.provenance,
            "entries": [],
        }
        offset = 0
        for name, arr in entries:
            manifest["entries"].append({"name": name, "shape": list(arr.shape),
                                        "offset": offset})
            offset += arr.size * 8
        mbytes = json.dumps(manifest, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(mbytes)))
            f.write(mbytes)
            for _, arr in entries:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            magic = f.read(8)
            if magic != MAGIC:
                if magic.startswith(MAGIC[:-1]):
                    raise ValueError(f"{path}: checkpoint format {magic.decode('latin-1')} "
                                     f"is not supported; this version reads {MAGIC.decode()}")
                raise ValueError(f"{path}: not a checkpoint file")
            header = f.read(8)
            if len(header) < 8:
                raise ValueError(f"{path}: file ends inside the header")
            (mlen,) = struct.unpack("<Q", header)
            raw = f.read(mlen)
            if len(raw) < mlen:
                raise ValueError(f"{path}: file ends inside the manifest "
                                 f"({len(raw)} of {mlen} bytes)")
            try:
                manifest = json.loads(raw.decode("utf-8"))
            except ValueError as e:
                raise ValueError(f"{path}: manifest is not UTF-8 JSON ({e})") from None
            payload = f.read()
        if not isinstance(manifest, dict) or set(manifest) != {"config", "entries", "provenance"}:
            raise ValueError(f"{path}: manifest needs the keys config, entries and provenance")
        if not isinstance(manifest["config"], dict) or not isinstance(manifest["entries"], list):
            raise ValueError(f"{path}: manifest config must be an object and entries a list")
        if not isinstance(manifest["provenance"], dict):
            raise ValueError(f"{path}: manifest provenance must be an object, "
                             f"got {manifest['provenance']!r}")
        odd = set(manifest["config"]) ^ {f.name for f in fields(EncoderConfig)}
        if odd:
            raise ValueError(f"{path}: config keys {sorted(odd)} missing or unknown")
        try:
            config = EncoderConfig.from_dict(manifest["config"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: config: {e}") from None
        model = TransformerModel(config, init=True)
        # save writes the entries back to back in _entries() order
        expected, start, end = {}, {}, 0  # each entry's array, filled in place
        for name, arr in cls(model)._entries():
            expected[name], start[name] = arr, end
            end += 8 * arr.size
        for entry in manifest["entries"]:
            if not isinstance(entry, dict) or set(entry) != {"name", "shape", "offset"}:
                raise ValueError(f"{path}: entry {entry} needs the keys name, shape and offset")
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
            if not isinstance(name, str) or name not in expected:
                raise ValueError(f"{path}: unknown or repeated entry {name}")
            arr = expected.pop(name)
            if not isinstance(shape, list) or tuple(shape) != arr.shape:
                raise ValueError(f"{path}: entry {name} has shape {shape}, "
                                 f"expected {list(arr.shape)}")
            if type(offset) is not int or offset != start[name]:
                raise ValueError(f"{path}: entry {name} has offset {offset!r}, "
                                 f"expected {start[name]}")
            if offset + 8 * arr.size > len(payload):
                raise ValueError(f"{path}: payload too short for entry {name}")
            arr[...] = np.frombuffer(payload, dtype="<f8", count=arr.size,
                                     offset=offset).reshape(arr.shape)
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: entry {name} holds a non-finite value")
        if expected:
            raise ValueError(f"{path}: missing entry {min(expected)}")
        if end != len(payload):
            raise ValueError(f"{path}: {len(payload) - end} bytes after the last entry")
        return cls(model, manifest["provenance"])
