"""Desk-scale speculative decoding with a shared-weight multi-token draft head.

A frozen decoder-only backbone is paired with a single recursively
reused draft head, fine-tuned on self-distilled data, and used for
lossless draft/verify generation. Drafting can project onto compressed
vocabularies: a per-language bank picks one for each round, by tag or
by which keep set covers the recent context best.
"""

from .data import EOS_TOKEN, PAD_TOKEN, VOCAB_SIZE, TrainingExample
from .model import (KVCache, ModelConfig, MainModel, MTPHead, greedy_argmax,
                    init_model, main_forward, mtp_step)
from .specdec import (DecodeMetrics, DecodeSession, baseline_decode, draft_round,
                      speculative_decode, verify_round)
from .tensor import Tape, Tensor, causal_attention, grad_check, rms_norm
from .training import TrainConfig, mtp_training_loss, pretrain_main, step_weights, train_mtp_head
from .vocab import (CompressedVocab, FrequencyTable, VocabBank, build_frequency_table,
                    compress_vocab, draft_logits_compressed)

__version__ = "0.1.0"

__all__ = [
    "EOS_TOKEN", "PAD_TOKEN", "VOCAB_SIZE", "TrainingExample",
    "KVCache", "ModelConfig", "MainModel", "MTPHead", "greedy_argmax",
    "init_model", "main_forward", "mtp_step",
    "DecodeMetrics", "DecodeSession", "baseline_decode", "draft_round",
    "speculative_decode", "verify_round",
    "Tape", "Tensor", "causal_attention", "grad_check", "rms_norm",
    "TrainConfig", "mtp_training_loss", "pretrain_main", "step_weights",
    "train_mtp_head",
    "CompressedVocab", "FrequencyTable", "VocabBank", "build_frequency_table",
    "compress_vocab", "draft_logits_compressed",
]
