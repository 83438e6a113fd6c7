"""Trainable encoder-decoder stack with shared encoders per dimension family."""

from ifthen.seq2seq.checkpoint import load_checkpoint, save_checkpoint
from ifthen.seq2seq.config import ModelConfig, ModelVariant, encoder_grouping
from ifthen.seq2seq.embeddings import load_embedding_file
from ifthen.seq2seq.gradcheck import gradient_check
from ifthen.seq2seq.model import (
    ModelParams,
    TrainingInstance,
    batch_losses,
    decode_step,
    init_params,
    initial_decoder_state,
    make_training_instances,
    sequence_loss,
)
from ifthen.seq2seq.train import (
    AdamOptimizer,
    NumericError,
    batch_loss_and_grads,
    clip_gradients,
    train,
)
from ifthen.seq2seq.vocab import RESERVED_TOKENS, VocabularyMap, build_vocab

__all__ = [
    "ModelConfig",
    "ModelVariant",
    "ModelParams",
    "TrainingInstance",
    "VocabularyMap",
    "RESERVED_TOKENS",
    "NumericError",
    "AdamOptimizer",
    "batch_loss_and_grads",
    "batch_losses",
    "build_vocab",
    "clip_gradients",
    "decode_step",
    "encoder_grouping",
    "gradient_check",
    "init_params",
    "initial_decoder_state",
    "load_checkpoint",
    "load_embedding_file",
    "make_training_instances",
    "save_checkpoint",
    "sequence_loss",
    "train",
]
