"""Checkpoint file: canonical JSON manifest + little-endian float64 payload.

Layout: 8-byte magic, 8-byte LE manifest length, manifest bytes, payload.
The manifest records config, entry names/shapes/offsets, optimizer scalars,
and training-stage provenance. load -> save is byte-identical.
"""

import json
import struct

import numpy as np

from .model import EncoderConfig, TransformerModel
from .optim import AdamState

MAGIC = b"MDAPTCK1"


class Checkpoint:
    def __init__(self, model, adam=None, provenance=None):
        self.model = model
        self.adam = adam if adam is not None else AdamState()
        self.provenance = provenance or {}

    def copy(self):
        m = TransformerModel(self.model.config, init=False)
        for name, p in self.model.params.items():
            m.params[name] = type(p)(name, p.data.copy(), p.trainable)
        m.bn_states = {k: s.copy() for k, s in self.model.bn_states.items()}
        return Checkpoint(m, self.adam.copy(), dict(self.provenance))

    def _entries(self):
        """(name, array) pairs in a fixed, sorted order."""
        out = []
        for name in sorted(self.model.params):
            out.append((f"param/{name}", self.model.params[name].data))
        for name in sorted(self.model.bn_states):
            s = self.model.bn_states[name]
            out.append((f"bn/{name}/mean", s.running_mean))
            out.append((f"bn/{name}/var", s.running_var))
        for name in sorted(self.adam.m):
            out.append((f"adam.m/{name}", self.adam.m[name]))
            out.append((f"adam.v/{name}", self.adam.v[name]))
        return out

    def save(self, path):
        entries = self._entries()
        manifest = {
            "config": self.model.config.to_dict(),
            "trainable": sorted(n for n, p in self.model.params.items() if p.trainable),
            "adam": {"step": self.adam.step, "beta1": self.adam.beta1,
                     "beta2": self.adam.beta2, "eps": self.adam.eps},
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
            if f.read(8) != MAGIC:
                raise ValueError(f"{path}: not a checkpoint file")
            (mlen,) = struct.unpack("<Q", f.read(8))
            manifest = json.loads(f.read(mlen).decode("utf-8"))
            payload = f.read()
        config = EncoderConfig.from_dict(manifest["config"])
        model = TransformerModel(config, init=True)
        adam = AdamState(manifest["adam"]["beta1"], manifest["adam"]["beta2"],
                         manifest["adam"]["eps"])
        adam.step = manifest["adam"]["step"]
        trainable = set(manifest["trainable"])
        missing = {f"param/{n}" for n in model.params}
        missing |= {f"bn/{n}/{s}" for n in model.bn_states for s in ("mean", "var")}
        for entry in manifest["entries"]:
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
            size = int(np.prod(shape)) if shape else 1
            if offset < 0 or offset + 8 * size > len(payload):
                raise ValueError(f"{path}: payload too short for entry {name}")
            arr = np.frombuffer(payload, dtype="<f8", count=size,
                                offset=offset).reshape(shape).copy()
            kind, _, rest = name.partition("/")
            if kind in ("param", "bn"):
                if name not in missing:
                    raise ValueError(f"{path}: unknown or repeated entry {name}")
                missing.remove(name)
            if kind == "param":
                model.params[rest].data = arr
                model.params[rest].set_trainable(rest in trainable)
            elif kind == "bn":
                bn_name, _, stat = rest.partition("/")
                if stat == "mean":
                    model.bn_states[bn_name].running_mean = arr
                else:
                    model.bn_states[bn_name].running_var = arr
            elif kind == "adam.m":
                adam.m[rest] = arr
            elif kind == "adam.v":
                adam.v[rest] = arr
        if missing:
            raise ValueError(f"{path}: missing entry {min(missing)}")
        return cls(model, adam, manifest["provenance"])
