#!/usr/bin/env python3
"""Run the full experiment pipeline on the synthetic two-domain fixtures.

Steps: generate fixtures, train a vocabulary, MLM-adapt on domain B, fine-tune
a classifier from both the adapted and the vanilla starting point, train the
TF-IDF + linear-SVM baseline, and render the comparison table.

Everything is seeded; rerunning with the same arguments reproduces every
artifact byte for byte. Use --quick for a desk-scale configuration that
finishes in seconds; the default uses the full-size hyperparameters and takes
much longer.
"""

import argparse
import os
import sys

from minidapt.cli import main as cli

QUICK = [
    "--set", "vocab_target_size=200",
    "--set", "encoder.num_layers=1",
    "--set", "encoder.d_model=16",
    "--set", "encoder.num_heads=2",
    "--set", "encoder.d_ff=32",
    "--set", "encoder.max_len=64",
    "--set", "encoder.head_hidden=[8,4]",
    "--set", "chunk_size=32",
    "--set", "mlm.epochs=3",
    "--set", "mlm.batch_size=8",
    "--set", "mlm.peak_lr=0.001",
    "--set", "finetune.stage1_epochs=3",
    "--set", "finetune.stage2_epochs=3",
    "--set", "finetune.batch_size=8",
    "--set", "finetune.lr_frozen=0.003",
    "--set", "finetune.lr_unfrozen=0.0003",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="root directory for artifacts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny model and short schedules for a fast smoke run")
    args = ap.parse_args()

    extra = list(QUICK) if args.quick else []
    seed = ["--seed", str(args.seed)]
    d = {k: os.path.join(args.out, k)
         for k in ("fixtures", "vocab", "adapt", "finetune_adapted",
                   "finetune_vanilla", "baseline", "compare")}

    def run(name, *argv):
        print(f"== {name}")
        code = cli([str(a) for a in argv])
        if code != 0:
            sys.exit(code)

    run("fixtures", "fixtures", "generate", *seed, "--out", d["fixtures"])
    corpus_a = os.path.join(d["fixtures"], "corpus_a.jsonl")
    corpus_b = os.path.join(d["fixtures"], "corpus_b.jsonl")
    dataset = os.path.join(d["fixtures"], "dataset.jsonl")

    run("vocab", "vocab", "--corpus", corpus_a, corpus_b, dataset,
        *seed, "--out", d["vocab"], *extra)
    vocab = os.path.join(d["vocab"], "vocab.json")

    run("adapt (domain B)", "adapt", "--vocab", vocab, "--corpus", corpus_b,
        *seed, "--out", d["adapt"], *extra)

    run("finetune from adapted", "finetune", "--vocab", vocab,
        "--dataset", dataset,
        "--base", os.path.join(d["adapt"], "adapted.ckpt"),
        *seed, "--out", d["finetune_adapted"], *extra)
    run("finetune from vanilla", "finetune", "--vocab", vocab,
        "--dataset", dataset, "--base", "vanilla",
        *seed, "--out", d["finetune_vanilla"], *extra)

    run("baseline", "baseline", "--dataset", dataset, *seed,
        "--out", d["baseline"], *extra)

    run("compare", "compare",
        os.path.join(d["finetune_adapted"], "report.json"),
        os.path.join(d["finetune_vanilla"], "report.json"),
        os.path.join(d["baseline"], "report.json"),
        "--out", d["compare"])
    print(f"\nartifacts under {args.out}")


if __name__ == "__main__":
    main()
