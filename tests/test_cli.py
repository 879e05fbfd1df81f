import json
import math
import os
import shutil
import struct
import subprocess
import sys

import pytest

from minidapt.checkpoint import MAGIC, Checkpoint
from minidapt.cli import main
from minidapt.metrics import EvalReport
from minidapt.tokenizer import Vocabulary

from conftest import BAD_MANIFEST_VALUES, poison, rewrite_manifest

TINY = [
    "--set", "encoder.num_layers=1",
    "--set", "encoder.d_model=16",
    "--set", "encoder.num_heads=2",
    "--set", "encoder.d_ff=32",
    "--set", "encoder.max_len=64",
    "--set", "encoder.head_hidden=[8,4]",
    "--set", "chunk_size=32",
    "--set", "mlm.epochs=2",
    "--set", "mlm.batch_size=8",
    "--set", "mlm.peak_lr=0.001",
    "--set", "finetune.stage1_epochs=2",
    "--set", "finetune.stage2_epochs=1",
    "--set", "finetune.batch_size=8",
    "--set", "finetune.lr_frozen=0.001",
    "--set", "finetune.lr_unfrozen=0.0001",
    "--set", "baseline.epochs=20",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Run the whole pipeline once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    d = {k: str(root / k) for k in
         ("fix", "vocab", "adapt", "ft_vanilla", "ft_adapted", "base", "cmp",
          "eval")}
    assert run("fixtures", "generate", "--seed", 7, "--out", d["fix"]) == 0
    corpora = [os.path.join(d["fix"], f"{n}.jsonl")
               for n in ("corpus_a", "corpus_b", "dataset")]
    assert run("vocab", "--corpus", *corpora, "--set", "vocab_target_size=200",
               "--seed", 7, "--out", d["vocab"], *TINY) == 0
    vocab_path = os.path.join(d["vocab"], "vocab.json")
    corpus_b = os.path.join(d["fix"], "corpus_b.jsonl")
    dataset = os.path.join(d["fix"], "dataset.jsonl")
    assert run("adapt", "--vocab", vocab_path, "--corpus", corpus_b,
               "--seed", 7, "--out", d["adapt"], *TINY) == 0
    adapted = os.path.join(d["adapt"], "adapted.ckpt")
    assert run("finetune", "--vocab", vocab_path, "--dataset", dataset,
               "--base", "vanilla", "--seed", 7, "--out", d["ft_vanilla"],
               *TINY) == 0
    assert run("finetune", "--vocab", vocab_path, "--dataset", dataset,
               "--base", adapted, "--seed", 7, "--out", d["ft_adapted"],
               *TINY) == 0
    assert run("baseline", "--dataset", dataset, "--seed", 7,
               "--out", d["base"], *TINY) == 0
    d.update(vocab_path=vocab_path, corpus_b=corpus_b, dataset=dataset,
             adapted=adapted)
    return d


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


def csv_rows(path):
    with open(path, encoding="utf-8") as f:
        return f.read().strip().split("\n")


def assert_same_files(a, b):
    """Every file under a and b, manifests included, is byte-identical."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestFixturesCommand:
    def test_writes_all_corpora(self, ws):
        names = ["corpus_a.jsonl", "corpus_b.jsonl", "dataset.jsonl"]
        assert sorted(os.listdir(ws["fix"])) == names
        for name in names:
            assert os.path.getsize(os.path.join(ws["fix"], name)) > 0

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        assert run("fixtures", "generate", "--seed", 7, "--out", tmp_path) == 0
        for name in ("corpus_a", "corpus_b", "dataset"):
            a = open(os.path.join(ws["fix"], f"{name}.jsonl"), "rb").read()
            b = open(tmp_path / f"{name}.jsonl", "rb").read()
            assert a == b


class TestVocabCommand:
    def test_vocab_loads_and_has_target_size(self, ws):
        vocab = Vocabulary.load(ws["vocab_path"])
        assert vocab.size == 200

    def test_stats_report_high_coverage(self, ws):
        with open(os.path.join(ws["vocab"], "vocab_stats.json")) as f:
            stats = json.load(f)
        assert stats["vocab_size"] == 200
        assert stats["coverage"] > 0.99

    def test_manifest_has_input_hashes(self, ws):
        m = read_manifest(ws["vocab"])
        assert list(m["inputs"]) == ["corpus"]
        assert len(m["inputs"]["corpus"]) == 3
        assert all(len(h) == 64 for h in m["inputs"]["corpus"])

    def test_target_size_flag_is_gone(self, ws, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run("vocab", "--corpus", ws["corpus_b"], "--target-size", 200,
                "--seed", 7, "--out", tmp_path)
        assert e.value.code == 2
        assert "--target-size" in capsys.readouterr().err

    def test_too_small_target_exits_2(self, ws, tmp_path, capsys):
        code = run("vocab", "--corpus", ws["corpus_b"], "--set", "vocab_target_size=3",
                   "--seed", 7, "--out", tmp_path)
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestConfigSections:
    def test_unknown_key_exits_2(self, ws, tmp_path, capsys):
        code = run("adapt", "--vocab", ws["vocab_path"], "--corpus", ws["corpus_b"],
                   "--seed", 7, "--out", tmp_path, *TINY, "--set", "encoder.d_modle=32")
        assert code == 2
        assert "d_modle" in capsys.readouterr().err

    def test_negative_weight_decay_exits_2(self, ws, tmp_path, capsys):
        code = run("adapt", "--vocab", ws["vocab_path"], "--corpus", ws["corpus_b"],
                   "--seed", 7, "--out", tmp_path, *TINY, "--set", "mlm.weight_decay=-1")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "weight_decay" in err

    @pytest.mark.parametrize("item", [
        "mlm.epochs=-1", "mlm.batch_size=0", "mlm.peak_lr=0", "mlm.warmup_steps=-5",
        "finetune.stage1_epochs=-1", "finetune.stage2_epochs=-2",
        "finetune.batch_size=0", "finetune.batch_size=1",
        "finetune.lr_frozen=-0.1", "finetune.lr_unfrozen=0",
    ])
    def test_impossible_training_setting_exits_2(self, ws, tmp_path, capsys, item):
        # each section is checked by the step that reads it
        step = (["finetune", "--dataset", ws["dataset"], "--base", "vanilla"]
                if item.startswith("finetune.") else ["adapt", "--corpus", ws["corpus_b"]])
        code = run(*step, "--vocab", ws["vocab_path"],
                   "--seed", 7, "--out", tmp_path, *TINY, "--set", item)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {item.partition('=')[0]} must be")

    @pytest.mark.parametrize("item", ["encoder.dropout_rate=1.0",
                                      "encoder.head_dropout=-0.5"])
    def test_impossible_dropout_rate_exits_2(self, ws, tmp_path, capsys, item):
        code = run("adapt", "--vocab", ws["vocab_path"], "--corpus", ws["corpus_b"],
                   "--seed", 7, "--out", tmp_path, *TINY, "--set", item)
        err = capsys.readouterr().err
        assert code == 2
        key = item.partition("=")[0].removeprefix("encoder.")
        assert err.startswith(f"error: {key} must be a number in [0, 1)")

    @pytest.mark.parametrize("item, key", [
        ("chunk_size.a=1", "'chunk_size.a'"),     # a path through a scalar
        ("chunk_sise=64", "'chunk_sise'"),        # a top-level typo
        ("baseline.epoch=3", "'baseline.epoch'"),  # a typo inside a section
        ("encoder=5", "'encoder'"),               # a value in place of a section
    ])
    def test_bad_key_path_exits_2(self, tmp_path, capsys, item, key):
        code = run("fixtures", "generate", "--seed", 7, "--out", tmp_path,
                   "--set", item)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("text, message", [
        ('{"baseline": {"epoch": 3}}', "'baseline.epoch'"),
        ('[7]', "expected a JSON object"),
        ('{"masking": {"p_mask": -Infinity}}',
         "config key 'masking.p_mask' must be a finite number"),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = run("fixtures", "generate", "--seed", 7, "--config", cfg_path,
                   "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("raw", [b'{"seed": ', b"\xff{}"])
    def test_config_file_not_json_is_named(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(raw)
        code = run("fixtures", "generate", "--seed", 7, "--config", cfg_path,
                   "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {cfg_path}: not UTF-8 JSON (")

    @pytest.mark.parametrize("command, item, key", [
        ("vocab", 'vocab_target_size="512"', "'vocab_target_size'"),
        ("adapt", 'mlm.weight_decay="x"', "'mlm.weight_decay'"),
        ("adapt", 'mlm.warmup_steps="x"', "'mlm.warmup_steps'"),
        ("adapt", 'masking.p_mask="x"', "'masking.p_mask'"),
        ("adapt", 'masking.p_wwm="x"', "'masking.p_wwm'"),
        ("adapt", 'chunk_size="x"', "'chunk_size'"),
        ("adapt", 'mlm_split=["a",1,0]', "'mlm_split'"),
        ("adapt", "masking.p_wwm=5", "p_wwm"),
        ("adapt", "masking.replacement_split=[1.5,-0.25,-0.25]", "replacement_split"),
        ("adapt", "masking.replacement_split=[0.5,0.25,0.125,0.125]", "three shares"),
        ("adapt", "encoder.head_hidden=[8]", "head_hidden"),
        ("baseline", 'baseline.epochs="x"', "'baseline.epochs'"),
        ("baseline", 'baseline.lambda_grid=["a"]', "'baseline.lambda_grid'"),
        ("baseline", "baseline.lambda_grid=[0.1,-1]", "lambda must be positive"),
        ("baseline", 'cls_split=["a",1,0]', "'cls_split'"),
        ("baseline", "baseline.epochs=-1", "baseline.epochs"),
        # JSON's NaN and Infinity are refused when the settings are read
        ("adapt", "mlm.peak_lr=Infinity", "config key 'mlm.peak_lr' must be a finite number"),
        ("adapt", "mlm.weight_decay=NaN", "config key 'mlm.weight_decay' must be a finite number"),
        ("baseline", "cls_split=[NaN,0.5,0.5]",
         "config key 'cls_split' must be a list of finite numbers"),
    ])
    def test_malformed_setting_exits_2(self, ws, tmp_path, capsys, command, item, key):
        argv = {"vocab": ["--corpus", ws["corpus_b"]],
                "adapt": ["--vocab", ws["vocab_path"], "--corpus", ws["corpus_b"], *TINY],
                "baseline": ["--dataset", ws["dataset"]]}[command]
        code = run(command, *argv, "--seed", 7, "--out", tmp_path, "--set", item)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and key in err


class TestSeedHandling:
    def test_missing_seed_exits_2(self, ws, tmp_path, capsys):
        code = run("fixtures", "generate", "--out", tmp_path)
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_from_config_file(self, ws, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 7}))
        assert run("fixtures", "generate", "--config", cfg_path,
                   "--out", tmp_path / "out") == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["fixtures", "vocab", "baseline"])
    def test_negative_seed_exits_2(self, ws, tmp_path, capsys, command, source):
        argv = {"fixtures": ["fixtures", "generate"],
                "vocab": ["vocab", "--corpus", ws["corpus_b"]],
                "baseline": ["baseline", "--dataset", ws["dataset"]]}[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", -1] if source == "flag" else ["--config", cfg_path]
        code = run(*argv, *seed, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative int, got -1\n"
        assert not os.path.exists(tmp_path / "out")


class TestAdaptCommand:
    def test_outputs_exist(self, ws):
        for name in ("adapted.ckpt", "curves.csv", "report.json",
                     "manifest.json"):
            assert os.path.exists(os.path.join(ws["adapt"], name))

    def test_curves_have_one_row_per_epoch(self, ws):
        rows = csv_rows(os.path.join(ws["adapt"], "curves.csv"))
        assert len(rows) == 1 + 2  # header + mlm epochs
        assert all(r.startswith("mlm,") for r in rows[1:])

    def test_report_is_mlm_with_finite_perplexity(self, ws):
        rep = EvalReport.load(os.path.join(ws["adapt"], "report.json"))
        assert rep.task == "mlm"
        assert rep.perplexity >= 1.0

    def test_manifest_records_overrides(self, ws):
        m = read_manifest(ws["adapt"])
        assert m["config"]["chunk_size"] == 32
        assert m["config"]["seed"] == 7
        assert m["provenance"]["stage"] == "mlm"

    def test_manifest_does_not_depend_on_paths(self, ws, tmp_path):
        manifests = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            inputs = root / "in"
            inputs.mkdir(parents=True)
            for src in (ws["vocab_path"], ws["corpus_b"], ws["adapted"]):
                shutil.copy(src, inputs)
            assert run("adapt", "--vocab", inputs / "vocab.json",
                       "--corpus", inputs / "corpus_b.jsonl",
                       "--init", inputs / "adapted.ckpt",
                       "--seed", 7, "--out", root / "out", *TINY) == 0
            manifests.append((root / "out" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert set(json.loads(manifests[0])["inputs"]) == {"vocab", "corpus", "init"}

    def test_rerun_byte_identical(self, ws, tmp_path):
        assert run("adapt", "--vocab", ws["vocab_path"], "--corpus",
                   ws["corpus_b"], "--seed", 7, "--out", tmp_path, *TINY) == 0
        for name in ("adapted.ckpt", "curves.csv", "report.json"):
            a = open(os.path.join(ws["adapt"], name), "rb").read()
            b = open(tmp_path / name, "rb").read()
            assert a == b, name


class TestFinetuneCommand:
    def test_both_paths_produce_outputs(self, ws):
        for out in (ws["ft_vanilla"], ws["ft_adapted"]):
            for name in ("classifier.ckpt", "curves.csv", "report.json"):
                assert os.path.exists(os.path.join(out, name))

    def test_curves_cover_both_stages(self, ws):
        rows = csv_rows(os.path.join(ws["ft_vanilla"], "curves.csv"))
        assert len(rows) == 1 + 2 + 1  # header + stage1 + stage2 epochs
        assert rows[1].startswith("frozen,") and rows[3].startswith("unfrozen,")

    def test_reports_are_schema_valid(self, ws):
        for out in (ws["ft_vanilla"], ws["ft_adapted"]):
            rep = EvalReport.load(os.path.join(out, "report.json"))
            assert rep.task == "classify"
            for v in (rep.accuracy, rep.precision, rep.recall, rep.f1):
                assert 0.0 <= v <= 1.0

    def test_checkpoint_loads(self, ws):
        ckpt = Checkpoint.load(os.path.join(ws["ft_vanilla"], "classifier.ckpt"))
        assert ckpt.provenance["stage"] in ("frozen", "unfrozen")

    def test_unlabeled_dataset_rejected(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text": "no label here"}\n')
        code = run("finetune", "--vocab", ws["vocab_path"], "--dataset", bad,
                   "--base", "vanilla", "--seed", 7, "--out", tmp_path, *TINY)
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_max_len_below_two_exits_2(self, ws, tmp_path, capsys):
        # a row holds at least CLS and SEP
        code = run("finetune", "--vocab", ws["vocab_path"], "--dataset", ws["dataset"],
                   "--base", "vanilla", "--seed", 7, "--out", tmp_path, *TINY,
                   "--set", "encoder.max_len=1")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: max_len must be at least 2")

    def test_broken_base_checkpoint_exits_2(self, ws, tmp_path, capsys):
        broken = tmp_path / "broken.ckpt"
        shutil.copyfile(ws["adapted"], broken)
        broken.write_bytes(broken.read_bytes()[:-8])  # one value short
        code = run("finetune", "--vocab", ws["vocab_path"], "--dataset", ws["dataset"],
                   "--base", broken, "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {broken}: payload is ") and "the config needs" in err

    @pytest.mark.parametrize("case", ["seed-str", "seed-negative", "provenance-int"])
    def test_bad_header_value_in_base_exits_2(self, ws, tmp_path, capsys, case):
        edit, message = BAD_MANIFEST_VALUES[case]
        broken = tmp_path / "broken.ckpt"
        shutil.copyfile(ws["adapted"], broken)
        rewrite_manifest(broken, edit)
        code = run("finetune", "--vocab", ws["vocab_path"], "--dataset", ws["dataset"],
                   "--base", broken, "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {broken}: ") and message in err


@pytest.fixture(scope="module")
def vocab_150(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("vocab_150")
    assert run("vocab", "--corpus", ws["corpus_b"], ws["dataset"],
               "--set", "vocab_target_size=150", "--seed", 7, "--out", out) == 0
    path = str(out / "vocab.json")
    assert Vocabulary.load(path).size == 150
    return path


class TestVocabularyFitsCheckpoint:
    """A checkpoint's embedding is built for one vocabulary size; a vocabulary
    of another size is an error, not a run on the wrong rows."""

    @pytest.mark.parametrize("command", ["adapt", "finetune", "evaluate"])
    def test_vocabulary_of_another_size_exits_2(self, ws, vocab_150, tmp_path, capsys,
                                                 command):
        argv = {"adapt": ["adapt", "--corpus", ws["corpus_b"], "--init", ws["adapted"]],
                "finetune": ["finetune", "--dataset", ws["dataset"], "--base", ws["adapted"]],
                "evaluate": ["evaluate", "--task", "classify", "--data", ws["dataset"],
                             "--ckpt", ws["adapted"]]}[command]
        code = run(*argv, "--vocab", vocab_150, "--seed", 7, "--out", tmp_path / "out",
                   *TINY)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {vocab_150} has 150 tokens but {ws['adapted']} was built for 200\n")
        assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command", ["adapt", "finetune"])
def test_encoder_too_large_to_allocate_exits_2(ws, tmp_path, capsys, command):
    # 2**40 columns: the embedding (1.6 PiB) is larger than the address
    # space, so the allocation fails at once and touches no memory
    argv = {"adapt": ["adapt", "--corpus", ws["corpus_b"]],
            "finetune": ["finetune", "--dataset", ws["dataset"], "--base", "vanilla"]}[command]
    code = run(*argv, "--vocab", ws["vocab_path"], "--seed", 7, "--out", tmp_path / "out",
               *TINY, "--set", f"encoder.d_model={2**40}")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


@pytest.fixture(scope="class")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, os.path.join(root, "scripts", "run_pipeline.py"),
                    "--quick", "--seed", "0", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out


class TestPipelineScript:
    def test_quick_vocab_manifest_records_size_used(self, quick_run):
        with open(quick_run / "vocab" / "vocab_stats.json") as f:
            assert json.load(f)["vocab_size"] == 200
        assert read_manifest(quick_run / "vocab")["config"]["vocab_target_size"] == 200

    def test_quick_manifests_record_what_each_step_read(self, quick_run):
        read = {
            "vocab": {"seed", "vocab_target_size"},
            "adapt": {"seed", "chunk_size", "mlm_split", "mlm", "masking", "encoder"},
            "finetune_adapted": {"seed", "cls_split", "finetune"},
            "finetune_vanilla": {"seed", "cls_split", "finetune", "encoder"},
            "baseline": {"seed", "cls_split", "baseline"},
        }
        for step, keys in read.items():
            assert set(read_manifest(quick_run / step)["config"]) == keys, step


class TestManifestKeys:
    """A manifest records the config keys its step read; a loaded checkpoint
    is the only source of its encoder config."""

    def test_adapt_from_checkpoint(self, ws, tmp_path):
        assert run("adapt", "--vocab", ws["vocab_path"], "--corpus", ws["corpus_b"],
                   "--init", ws["adapted"], "--seed", 7, "--out", tmp_path, *TINY) == 0
        assert set(read_manifest(tmp_path)["config"]) == {
            "seed", "chunk_size", "mlm_split", "mlm", "masking"}

    @pytest.mark.parametrize("task, keys", [
        ("mlm", {"seed", "chunk_size", "mlm", "masking"}),
        ("classify", {"seed", "finetune"}),
    ])
    def test_evaluate(self, ws, tmp_path, task, keys):
        ckpt, data = {"mlm": (ws["adapted"], ws["corpus_b"]),
                      "classify": (os.path.join(ws["ft_vanilla"], "classifier.ckpt"),
                                   ws["dataset"])}[task]
        assert run("evaluate", "--vocab", ws["vocab_path"], "--ckpt", ckpt, "--data", data,
                   "--task", task, "--seed", 7, "--out", tmp_path, *TINY) == 0
        assert set(read_manifest(tmp_path)["config"]) == keys

    @pytest.mark.parametrize("command, item", [
        ("finetune", "mlm.epochs=-1"),
        ("classify", "masking.p_mask=2.0"),
    ])
    def test_bad_value_in_a_section_not_read_is_ignored(self, ws, tmp_path, command, item):
        argv = {"finetune": ["finetune", "--dataset", ws["dataset"], "--base", ws["adapted"]],
                "classify": ["evaluate", "--task", "classify", "--data", ws["dataset"],
                             "--ckpt", os.path.join(ws["ft_vanilla"], "classifier.ckpt")]}
        assert run(*argv[command], "--vocab", ws["vocab_path"], "--seed", 7,
                   "--out", tmp_path, *TINY, "--set", item) == 0

    def test_bad_value_in_a_section_read_exits_2(self, ws, tmp_path, capsys):
        code = run("evaluate", "--task", "mlm", "--data", ws["corpus_b"],
                   "--ckpt", ws["adapted"], "--vocab", ws["vocab_path"], "--seed", 7,
                   "--out", tmp_path, *TINY, "--set", "masking.p_mask=2.0")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: p_mask must be in [0, 1)")

    def test_baseline_outputs_ignore_other_sections(self, ws, tmp_path):
        for out, extra in [("plain", []),
                           ("set", ["--set", "mlm.epochs=5", "--set", "encoder.d_model=32"])]:
            assert run("baseline", "--dataset", ws["dataset"], "--seed", 7,
                       "--out", tmp_path / out, *TINY, *extra) == 0
        assert_same_files(tmp_path / "plain", tmp_path / "set")

    def test_finetune_from_checkpoint_ignores_encoder_section(self, ws, tmp_path):
        for out, extra in [("plain", []), ("set", ["--set", "encoder.dropout_rate=0.3"])]:
            assert run("finetune", "--vocab", ws["vocab_path"], "--dataset", ws["dataset"],
                       "--base", ws["adapted"], "--seed", 7, "--out", tmp_path / out,
                       *TINY, *extra) == 0
        assert_same_files(tmp_path / "plain", tmp_path / "set")


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["vocab", "adapt", "finetune", "baseline"])
    def test_non_object_record_exits_2(self, ws, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"text": "doc one", "label": 0}\n[1, 2]\n')
        argv = {"vocab": ["--corpus", bad],
                "adapt": ["--vocab", ws["vocab_path"], "--corpus", bad],
                "finetune": ["--vocab", ws["vocab_path"], "--dataset", bad,
                             "--base", "vanilla"],
                "baseline": ["--dataset", bad]}[command]
        code = run(command, *argv, "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "line 2: expected a JSON object" in err

    @pytest.mark.parametrize("name, text, line", [
        ("bad.jsonl", '{"text": "doc one", "label": 0}\n{"text": " \\t ", "label": 1}\n', 2),
        ("bad.csv", 'text,label\n"doc one",0\n"  ",1\n', 3),
    ])
    def test_whitespace_text_names_file_and_line(self, tmp_path, capsys, name, text, line):
        bad = tmp_path / name
        bad.write_text(text)
        code = run("baseline", "--dataset", bad, "--seed", 7, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: line {line}: Document: empty text")

    def test_malformed_vocabulary_exits_2(self, ws, tmp_path, capsys):
        bad = tmp_path / "vocab.json"
        bad.write_text('{"toks": []}')
        code = run("adapt", "--vocab", bad, "--corpus", ws["corpus_b"],
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: ") and '"tokens" list of strings' in err

    @pytest.mark.parametrize("raw, message", [
        (b'{"tokens": [', "Expecting value"),
        (b"\xff", "'utf-8' codec can't decode"),
    ])
    def test_unreadable_vocabulary_is_named(self, ws, tmp_path, capsys, raw, message):
        bad = tmp_path / "vocab.json"
        bad.write_bytes(raw)
        code = run("adapt", "--vocab", bad, "--corpus", ws["corpus_b"],
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("command", ["evaluate", "finetune", "adapt"])
    def test_non_finite_checkpoint_exits_2(self, ws, tmp_path, capsys, command):
        # a NaN bias made every probability NaN, which evaluate scored as
        # "real" and finetune trained on until adam_step failed
        broken = tmp_path / "nan.ckpt"
        poison(os.path.join(ws["ft_vanilla"], "classifier.ckpt"), broken,
               "param/head.out.b", float("nan"))
        argv = {"evaluate": ["--ckpt", broken, "--data", ws["dataset"], "--task", "classify"],
                "finetune": ["--dataset", ws["dataset"], "--base", broken],
                "adapt": ["--corpus", ws["corpus_b"], "--init", broken]}[command]
        code = run(command, "--vocab", ws["vocab_path"], *argv,
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {broken}: entry param/head.out.b holds a non-finite value\n"


class TestBaselineCommand:
    def test_outputs_and_lambda(self, ws):
        m = read_manifest(ws["base"])
        assert m["chosen_lambda"] in m["config"]["baseline"]["lambda_grid"]
        assert os.path.exists(os.path.join(ws["base"], "baseline.json"))

    def test_shares_test_split_with_finetune(self, ws):
        m_ft = read_manifest(ws["ft_vanilla"])
        m_bl = read_manifest(ws["base"])
        assert m_ft["test_indices"] == m_bl["test_indices"]
        assert len(m_bl["test_indices"]) == 24  # 20% of 120

    def test_single_class_split_exits_1(self, ws, tmp_path, capsys):
        bad = tmp_path / "oneclass.jsonl"
        bad.write_text("".join(json.dumps({"text": f"doc number {i}", "label": 1})
                               + "\n" for i in range(20)))
        code = run("baseline", "--dataset", bad, "--seed", 7, "--out", tmp_path)
        assert code == 1
        assert "single class" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_mlm_evaluation_runs(self, ws, capsys):
        code = run("evaluate", "--vocab", ws["vocab_path"],
                   "--ckpt", ws["adapted"], "--data", ws["corpus_b"],
                   "--task", "mlm", "--seed", 7, "--out", ws["eval"], *TINY)
        assert code == 0
        out = capsys.readouterr().out
        assert '"perplexity"' in out
        rep = EvalReport.load(os.path.join(ws["eval"], "report.json"))
        assert rep.task == "mlm"

    def test_classify_evaluation_runs(self, ws, tmp_path):
        code = run("evaluate", "--vocab", ws["vocab_path"],
                   "--ckpt", os.path.join(ws["ft_vanilla"], "classifier.ckpt"),
                   "--data", ws["dataset"], "--task", "classify",
                   "--seed", 7, "--out", tmp_path, *TINY)
        assert code == 0
        rep = EvalReport.load(tmp_path / "report.json")
        assert rep.task == "classify"

    def test_cut_checkpoint_exits_2(self, ws, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(MAGIC + b"\x01")
        code = run("evaluate", "--vocab", ws["vocab_path"], "--ckpt", cut,
                   "--data", ws["corpus_b"], "--task", "mlm",
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {cut}: file ends inside the header")

    def test_older_format_exits_2(self, ws, tmp_path, capsys):
        old = tmp_path / "old.ckpt"
        with open(ws["adapted"], "rb") as f:
            old.write_bytes(b"MDAPTCK2" + f.read()[8:])
        code = run("evaluate", "--vocab", ws["vocab_path"], "--ckpt", old,
                   "--data", ws["corpus_b"], "--task", "mlm",
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {old}: checkpoint format MDAPTCK2 is not supported")

    @pytest.mark.parametrize("declared, manifest, message", [
        (None, b'{"config": }', "manifest is not UTF-8 JSON (Expecting value"),
        (None, b'{"\xff": 1}', "manifest is not UTF-8 JSON ("),
        (100, b'{"config": {}}', "file ends inside the manifest (14 of 100 bytes)"),
        # lengths too large to read or allocate are compared, not read
        (2**64 - 1, b"{}", f"file ends inside the manifest (2 of {2**64 - 1} bytes)"),
        (2**40, b"{}", f"file ends inside the manifest (2 of {2**40} bytes)"),
    ])
    def test_unreadable_manifest_exits_2(self, ws, tmp_path, capsys, declared, manifest,
                                         message):
        broken = tmp_path / "broken.ckpt"
        size = len(manifest) if declared is None else declared
        broken.write_bytes(MAGIC + struct.pack("<Q", size) + manifest)
        code = run("evaluate", "--vocab", ws["vocab_path"], "--ckpt", broken,
                   "--data", ws["corpus_b"], "--task", "mlm",
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {broken}: {message}")

    @pytest.mark.parametrize("case", sorted(BAD_MANIFEST_VALUES))
    def test_wrong_manifest_value_exits_2(self, ws, tmp_path, capsys, case):
        edit, message = BAD_MANIFEST_VALUES[case]
        broken = tmp_path / "broken.ckpt"
        shutil.copyfile(ws["adapted"], broken)
        rewrite_manifest(broken, edit)
        code = run("evaluate", "--vocab", ws["vocab_path"], "--ckpt", broken,
                   "--data", ws["corpus_b"], "--task", "mlm",
                   "--seed", 7, "--out", tmp_path / "out", *TINY)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {broken}: ") and message in err


class TestCompareCommand:
    def test_renders_table_and_csv(self, ws, capsys):
        code = run("compare",
                   os.path.join(ws["ft_vanilla"], "report.json"),
                   os.path.join(ws["ft_adapted"], "report.json"),
                   os.path.join(ws["base"], "report.json"),
                   "--out", ws["cmp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "F1-score" in out and "**" in out
        rows = csv_rows(os.path.join(ws["cmp"], "comparison.csv"))
        assert rows[0] == "Model,Precision,Recall,F1-score,Accuracy"
        assert len(rows) == 4

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--set", "encoder.d_model=5"],
                                      ["--config", "cfg.json"]])
    def test_config_flags_are_gone(self, ws, tmp_path, capsys, flag):
        # compare reads no setting, so it takes none
        with pytest.raises(SystemExit) as e:
            run("compare", os.path.join(ws["ft_vanilla"], "report.json"),
                os.path.join(ws["base"], "report.json"), *flag, "--out", tmp_path)
        assert e.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_single_report_exits_2(self, ws, tmp_path):
        code = run("compare", os.path.join(ws["base"], "report.json"),
                   "--out", tmp_path)
        assert code == 2

    @pytest.mark.parametrize("value", [None, "0.9", True, math.nan, math.inf])
    def test_non_numeric_metric_exits_1(self, ws, tmp_path, capsys, value):
        with open(os.path.join(ws["base"], "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        if value is None:
            del report["recall"]
        else:
            report["recall"] = value
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(report))
        code = run("compare", os.path.join(ws["ft_vanilla"], "report.json"), bad,
                   "--out", tmp_path / "cmp")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: schema mismatch (recall is ")
        assert err.endswith(", not a finite number)\n")

    @pytest.mark.parametrize("raw, message", [
        (b'"classify"', "a report is a JSON object"),
        (b"0.9", "a report is a JSON object"),
        (b"null", "a report is a JSON object"),
        (b'[{"task": "classify"}]', "a report is a JSON object"),
        (b'{"task": "classify", "n": 3', "Expecting"),
        (b'{"task": "\xff"}', "'utf-8' codec can't decode"),
    ])
    def test_unreadable_report_exits_1(self, ws, tmp_path, capsys, raw, message):
        bad = tmp_path / "report.json"
        bad.write_bytes(raw)
        code = run("compare", os.path.join(ws["ft_vanilla"], "report.json"), bad,
                   "--out", tmp_path / "cmp")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: schema mismatch ({message}")

    def test_mlm_report_rejected(self, ws, tmp_path):
        code = run("compare",
                   os.path.join(ws["adapt"], "report.json"),
                   os.path.join(ws["base"], "report.json"),
                   "--out", tmp_path)
        assert code == 1
