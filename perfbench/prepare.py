"""Build the artifacts the workloads start from, with the code under test.

``python -m perfbench.prepare model OUT`` trains the reference pipeline and
saves it with the raw TypeSpace layout (the serving layout, memory-mapped on
load).  ``python -m perfbench.prepare dataset OUT`` synthesizes the training
corpus and saves it as raw shards for memory-mapped streaming.  Both use
fixed seeds: the workload seed varies the inputs a workload sends, not the
artifacts it starts from.
"""

from __future__ import annotations

import sys

from repro.core import EncoderConfig, TrainingConfig, TypilusPipeline
from repro.corpus import DatasetConfig, SynthesisConfig, TypeAnnotationDataset

#: The reference model: a GGNN trained on a 100-file synthetic corpus.
MODEL_SYNTHESIS = SynthesisConfig(num_files=100, seed=11)
MODEL_DATASET = DatasetConfig(rarity_threshold=8, seed=5)
MODEL_ENCODER = EncoderConfig(family="graph", hidden_dim=32, gnn_steps=4, seed=5)
MODEL_TRAINING = TrainingConfig(epochs=3, seed=5)

#: The streaming-training corpus: 300 synthetic files in raw shards.
STREAM_SYNTHESIS = SynthesisConfig(num_files=300, seed=21)
STREAM_DATASET = DatasetConfig(rarity_threshold=8, seed=5)
STREAM_SHARD_SIZE = 32


def build_model(out: str) -> None:
    dataset = TypeAnnotationDataset.synthetic(MODEL_SYNTHESIS, MODEL_DATASET)
    pipeline = TypilusPipeline.fit(dataset, MODEL_ENCODER, training_config=MODEL_TRAINING)
    pipeline.save(out, typespace_layout="raw")


def build_dataset(out: str) -> None:
    dataset = TypeAnnotationDataset.synthetic(STREAM_SYNTHESIS, STREAM_DATASET)
    dataset.save(out, shard_size=STREAM_SHARD_SIZE, shard_format="raw")


BUILDERS = {"model": build_model, "dataset": build_dataset}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in BUILDERS:
        print(f"usage: python -m perfbench.prepare {{{'|'.join(BUILDERS)}}} OUT", file=sys.stderr)
        return 2
    BUILDERS[argv[0]](argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
