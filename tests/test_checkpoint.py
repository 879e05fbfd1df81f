import numpy as np
import pytest

from minidapt.checkpoint import Checkpoint
from minidapt.optim import AdamState, adam_step, set_trainable

from conftest import rewrite_manifest, tiny_model


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab),
                          provenance={"stage": "mlm", "epoch": 3, "val_loss": 1.5})
        # populate optimizer state so moments round-trip too
        set_trainable(ckpt.model, "all")
        for p in ckpt.model.params.values():
            p.grad = np.full_like(p.data, 0.1)
        adam_step(list(ckpt.model.params.values()), ckpt.adam, lr=1e-3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ckpt.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_and_state_round_trip(self, small_vocab, tmp_path):
        ckpt = Checkpoint(tiny_model(small_vocab))
        set_trainable(ckpt.model, "head-only")
        ckpt.model.bn_states["head.bn1"].running_mean[:] = 0.3
        ckpt.adam.step = 7
        ckpt.adam.m["head.out.w"] = np.ones((4, 1)) * 0.5
        ckpt.adam.v["head.out.w"] = np.ones((4, 1)) * 0.25
        path = tmp_path / "c.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        for name, p in ckpt.model.params.items():
            assert np.array_equal(loaded.model.params[name].data, p.data)
            assert loaded.model.params[name].trainable == p.trainable
        assert np.array_equal(loaded.model.bn_states["head.bn1"].running_mean,
                              ckpt.model.bn_states["head.bn1"].running_mean)
        assert loaded.adam.step == 7
        assert np.array_equal(loaded.adam.m["head.out.w"],
                              ckpt.adam.m["head.out.w"])

    def test_copy_is_deep(self, small_vocab):
        ckpt = Checkpoint(tiny_model(small_vocab))
        clone = ckpt.copy()
        clone.model.params["embed.tok"].data[:] = 0.0
        clone.model.bn_states["head.bn1"].running_mean[:] = 9.0
        assert not np.array_equal(ckpt.model.params["embed.tok"].data,
                                  clone.model.params["embed.tok"].data)
        assert not np.array_equal(ckpt.model.bn_states["head.bn1"].running_mean,
                                  clone.model.bn_states["head.bn1"].running_mean)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a checkpoint")
        try:
            Checkpoint.load(path)
        except ValueError as e:
            assert "checkpoint" in str(e)
        else:
            raise AssertionError("expected ValueError")


class TestStrictLoad:
    @pytest.fixture
    def saved(self, small_vocab, tmp_path):
        path = tmp_path / "s.ckpt"
        Checkpoint(tiny_model(small_vocab)).save(path)
        return path

    def test_missing_entry_is_named(self, saved):
        rewrite_manifest(saved, lambda m: m.update(
            entries=[e for e in m["entries"] if e["name"] != "param/embed.pos"]))
        with pytest.raises(ValueError, match="missing entry param/embed.pos"):
            Checkpoint.load(saved)

    def test_unknown_parameter_is_named(self, saved):
        def rename(m):
            for e in m["entries"]:
                if e["name"] == "param/embed.pos":
                    e["name"] = "param/embed.where"
        rewrite_manifest(saved, rename)
        with pytest.raises(ValueError, match="param/embed.where"):
            Checkpoint.load(saved)

    def test_short_payload_is_named(self, saved):
        saved.write_bytes(saved.read_bytes()[:-8])  # no Adam state: bn entries come last
        with pytest.raises(ValueError, match="payload too short for entry bn/head.bn2/var"):
            Checkpoint.load(saved)
