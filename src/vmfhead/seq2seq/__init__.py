"""Sequence-to-sequence pipeline: digit encoding and stack assembly."""

from .encoding import (
    DigitConfig,
    SequenceSample,
    RAggregate,
    psi_encode,
    psi_strided,
    aggregate_R,
    decode_sequence,
    reference_seq2seq,
    sequence_mean,
)
from .assembly import build_seq2seq_transformer, Seq2SeqStack

__all__ = [
    "DigitConfig",
    "SequenceSample",
    "RAggregate",
    "psi_encode",
    "psi_strided",
    "aggregate_R",
    "decode_sequence",
    "reference_seq2seq",
    "sequence_mean",
    "build_seq2seq_transformer",
    "Seq2SeqStack",
]
