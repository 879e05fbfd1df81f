import struct

import numpy as np
import pytest

from minidapt.checkpoint import MAGIC, Checkpoint
from minidapt.model import EncoderConfig, TransformerModel
from minidapt.optim import set_trainable
from minidapt.tokenizer import DEFAULT_TARGET_SIZE

from conftest import (BAD_MANIFEST_VALUES, poison, rewrite_manifest, tiny_model, traced_growth,
                      traced_peak)


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab),
                          provenance={"stage": "mlm", "epoch": 3, "val_loss": 1.5})
        ckpt.model.params["head.out.b"].data[:] = 0.1
        ckpt.model.bn_states["head.bn2"].running_var[:] = 2.0
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ckpt.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_and_state_round_trip(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab))
        ckpt.model.bn_states["head.bn1"].running_mean[:] = 0.3
        path = tmp_path / "c.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        for name, p in ckpt.model.params.items():
            assert np.array_equal(loaded.model.params[name].data, p.data)
        assert np.array_equal(loaded.model.bn_states["head.bn1"].running_mean,
                              ckpt.model.bn_states["head.bn1"].running_mean)

    def test_holds_no_optimizer_state(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab))
        assert not hasattr(ckpt, "adam")
        path = tmp_path / "w.ckpt"
        ckpt.save(path)
        seen = {}
        rewrite_manifest(path, seen.update)  # an unchanged rewrite, to read the manifest
        assert set(seen) == {"config", "provenance"}
        # the payload after the manifest holds the weights and norm statistics only
        model = ckpt.model
        values = (sum(p.data.size for p in model.params.values())
                  + sum(2 * s.running_mean.size for s in model.bn_states.values()))
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        assert len(raw) == 16 + mlen + 8 * values

    def test_copy_is_deep(self, small_vocab):
        ckpt = Checkpoint(tiny_model(small_vocab))
        clone = ckpt.copy()
        clone.model.params["embed.tok"].data[:] = 0.0
        clone.model.bn_states["head.bn1"].running_mean[:] = 9.0
        assert not np.array_equal(ckpt.model.params["embed.tok"].data,
                                  clone.model.params["embed.tok"].data)
        assert not np.array_equal(ckpt.model.bn_states["head.bn1"].running_mean,
                                  clone.model.bn_states["head.bn1"].running_mean)

    def test_copy_keeps_values_and_freeze_flags(self, small_vocab):
        ckpt = Checkpoint(tiny_model(small_vocab), provenance={"stage": "mlm"})
        ckpt.model.params["embed.tok"].requires_grad = False
        ckpt.model.bn_states["head.bn1"].running_var[:] = 2.0
        clone = ckpt.copy()
        assert clone.provenance == ckpt.provenance
        for (name, a), (_, b) in zip(ckpt._entries(), clone._entries(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        for name, p in ckpt.model.params.items():
            assert clone.model.params[name].requires_grad == p.requires_grad
            assert clone.model.params[name].grad is None

    def test_untrained_parameters_have_no_gradient(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab))
        path = tmp_path / "z.ckpt"
        ckpt.save(path)
        frozen = ckpt.copy()
        set_trainable(frozen.model, "head-only")
        for model in (ckpt.model, ckpt.copy().model, Checkpoint.load(path).model):
            for name, p in model.params.items():
                assert p.grad is None, name
        for name, p in frozen.model.params.items():
            assert (p.grad is None) != p.requires_grad, name

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a checkpoint")
        try:
            Checkpoint.load(path)
        except ValueError as e:
            assert "checkpoint" in str(e)
        else:
            raise AssertionError("expected ValueError")


def assert_rejected(path, message):
    """Checkpoint.load raises a ValueError that names the file and says `message`."""
    with pytest.raises(ValueError) as e:
        Checkpoint.load(path)
    assert str(e.value).startswith(f"{path}: ") and message in str(e.value), str(e.value)


class TestStrictLoad:
    @pytest.fixture
    def saved(self, small_vocab, tmp_path):
        path = tmp_path / "s.ckpt"
        Checkpoint(tiny_model(small_vocab)).save(path)
        return path

    def test_previous_format_is_named(self, saved):
        raw = saved.read_bytes()
        for old in ("MDAPTCK1", "MDAPTCK2"):
            saved.write_bytes(old.encode() + raw[8:])
            assert_rejected(saved, f"checkpoint format {old} is not supported; "
                                   f"this version reads {MAGIC.decode()}")

    # the length of a saved checkpoint's payload: what its config needs
    @staticmethod
    def payload_bytes(path):
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        return len(raw) - 16 - mlen

    def test_short_payload_is_named(self, saved):
        raw, need = saved.read_bytes(), self.payload_bytes(saved)
        for cut in (8, 1):  # one value short, or one byte
            saved.write_bytes(raw[:-cut])
            assert_rejected(saved, f"payload is {need - cut} bytes, the config needs {need}")

    def test_config_that_disagrees_with_payload_rejected(self, saved):
        # d_model 8 instead of 16: every shape shrinks, so the payload is too long
        need = self.payload_bytes(saved)
        rewrite_manifest(saved, lambda m: m["config"].update(d_model=8, d_ff=16))
        assert_rejected(saved, f"payload is {need} bytes, the config needs ")

    @pytest.mark.parametrize("size", [8, 9, 15])
    def test_file_cut_inside_header(self, saved, size):
        saved.write_bytes(saved.read_bytes()[:size])
        assert_rejected(saved, "file ends inside the header")

    def test_trailing_bytes_rejected(self, saved):
        raw, need = saved.read_bytes(), self.payload_bytes(saved)
        for extra in (8, 1):  # one value too many, or one stray byte
            saved.write_bytes(raw + bytes(extra))
            assert_rejected(saved, f"payload is {need + extra} bytes, the config needs {need}")

    # colour is unknown; the others are missing, and max_len has a default
    @pytest.mark.parametrize("key", ["colour", "max_len", "head_hidden", "vocab_size"])
    def test_config_key_mismatch_is_named(self, saved, key):
        def edit(m):
            if key in m["config"]:
                del m["config"][key]
            else:
                m["config"][key] = "red"
        rewrite_manifest(saved, edit)
        assert_rejected(saved, f"config keys ['{key}'] missing or unknown")

    def test_missing_provenance_rejected(self, saved):
        rewrite_manifest(saved, lambda m: m.pop("provenance"))
        assert_rejected(saved, "manifest needs the keys config and provenance")

    @pytest.mark.parametrize("entry, value", [("param/head.out.b", np.nan),
                                              ("param/embed.tok", np.inf),
                                              ("bn/head.bn1/var", -np.inf)])
    def test_non_finite_entry_rejected(self, saved, entry, value):
        poison(saved, saved, entry, value)
        assert_rejected(saved, f"entry {entry} holds a non-finite value")

    @pytest.mark.parametrize("case", sorted(BAD_MANIFEST_VALUES))
    def test_wrong_value_type_rejected(self, saved, case):
        edit, message = BAD_MANIFEST_VALUES[case]
        rewrite_manifest(saved, edit)
        assert_rejected(saved, message)


class TestWeightsOnly:
    """A copy or a load of the default encoder holds its weights and no
    gradient arrays: about the weights' bytes, where a gradient per
    parameter made it twice them."""

    @pytest.fixture(scope="class")
    def ckpt(self):
        return Checkpoint(TransformerModel(EncoderConfig(vocab_size=DEFAULT_TARGET_SIZE)))

    def _weights(self, ckpt):
        return sum(arr.nbytes for _, arr in ckpt._entries())

    def test_copy_allocates_the_weights_once(self, ckpt):
        _, grown = traced_growth(ckpt.copy)
        # 1.01 of the weights' bytes; 2.01 with a zero gradient per parameter
        assert grown <= 1.1 * self._weights(ckpt)

    def test_load_allocates_the_weights_once(self, ckpt, tmp_path):
        path = tmp_path / "d.ckpt"
        ckpt.save(path)
        _, peak = traced_peak(lambda: Checkpoint.load(path))
        # the peak bounds what load keeps too: 1.04 of the weights' bytes
        # (1.01 kept); 2.04 while load held the whole file's bytes
        assert peak <= 1.1 * self._weights(ckpt)
