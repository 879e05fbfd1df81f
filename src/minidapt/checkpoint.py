"""Checkpoint file: canonical JSON manifest + little-endian float64 payload.

Layout: 8-byte magic, 8-byte LE manifest length, manifest bytes, payload.
The manifest holds exactly the encoder config and the training-stage
provenance. The config fixes every array's shape (model.param_shapes), so
the payload is the float64 values of the _entries() arrays back to back;
load checks its length against the config before it allocates any array,
then reads each array's bytes into an unfilled model with no random init,
so a load holds the weights once. A checkpoint holds weights and batch-norm
statistics only; each training loop starts its own optimizer state.
load -> save is byte-identical.
"""

import json
import math
import os
import struct
from dataclasses import fields

import numpy as np

from .model import EncoderConfig, TransformerModel, param_shapes

MAGIC = b"MDAPTCK3"


class Checkpoint:
    def __init__(self, model, provenance=None):
        self.model = model
        self.provenance = provenance or {}

    def copy(self):
        m = TransformerModel(self.model.config, init=False)
        for name, p in self.model.params.items():
            m.params[name].requires_grad = p.requires_grad
        clone = Checkpoint(m, dict(self.provenance))
        for (_, dst), (_, src) in zip(clone._entries(), self._entries(), strict=True):
            dst[...] = src
        return clone

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
        manifest = {"config": self.model.config.to_dict(), "provenance": self.provenance}
        mbytes = json.dumps(manifest, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(mbytes)))
            f.write(mbytes)
            for _, arr in self._entries():
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
            rest = os.fstat(f.fileno()).st_size - 16
            if rest < mlen:
                raise ValueError(f"{path}: file ends inside the manifest "
                                 f"({rest} of {mlen} bytes)")
            try:
                manifest = json.loads(f.read(mlen).decode("utf-8"))
            except ValueError as e:
                raise ValueError(f"{path}: manifest is not UTF-8 JSON ({e})") from None
            if not isinstance(manifest, dict) or set(manifest) != {"config", "provenance"}:
                raise ValueError(f"{path}: manifest needs the keys config and provenance")
            if not isinstance(manifest["config"], dict):
                raise ValueError(f"{path}: manifest config must be an object")
            if not isinstance(manifest["provenance"], dict):
                raise ValueError(f"{path}: manifest provenance must be an object, "
                                 f"got {manifest['provenance']!r}")
            odd = set(manifest["config"]) ^ {fld.name for fld in fields(EncoderConfig)}
            if odd:
                raise ValueError(f"{path}: config keys {sorted(odd)} missing or unknown")
            try:
                config = EncoderConfig.from_dict(manifest["config"])
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: config: {e}") from None
            # each batch-norm layer's mean and var, then the parameters; the
            # sum stops once it passes the payload, so a huge config fails at
            # once
            have, need, at_least = rest - mlen, 16 * sum(config.head_hidden), ""
            for _, shape in param_shapes(config):
                if need > have:
                    at_least = "at least "
                    break
                need += 8 * math.prod(shape)
            if need != have:
                raise ValueError(f"{path}: payload is {have} bytes, "
                                 f"the config needs {at_least}{need}")
            model = TransformerModel(config, init=False)
            # each array's bytes read into it in save's order, so the weights
            # are held once
            for name, arr in cls(model)._entries():
                if f.readinto(arr) != arr.nbytes:
                    raise ValueError(f"{path}: file ends inside entry {name}")
                if not np.little_endian:
                    arr.byteswap(inplace=True)
                if not np.isfinite(arr).all():
                    raise ValueError(f"{path}: entry {name} holds a non-finite value")
        return cls(model, manifest["provenance"])
