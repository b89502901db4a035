"""Bit pins: SHA-256 digests of the desk model's outputs and gradients.

A change that only makes the forward primitives cheaper must leave every
bit of every logit, hidden state and gradient alone. The digests below
were taken from the code before such changes and must not move after
them. They pin float64 results of numpy and its BLAS (x86-64,
OpenBLAS); a BLAS that rounds matrix products differently would change
them without any change to this code.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mtpspec import tensor as tn
from mtpspec.data import sample_prompts
from mtpspec.model import (MainModel, ModelConfig, MTPHead, init_model, main_forward, mtp_step,
                           token_input_table)
from mtpspec.specdec import speculative_decode
from mtpspec.tensor import Tape
from mtpspec.training import TrainConfig, backbone_hidden, head_stream_loss
from mtpspec.vocab import VocabBank, load_compressed_vocab

STACK = Path(__file__).resolve().parents[1] / "perfbench" / "stack"

PINS = {
    "full": "58929f2f5301e2c63769ba342fb34bfc419850aa02add225896074e98aa8746b",
    "prefill": "396712f8d7dd78ce689f65de31aa5cbcfb752de8269be7a1de8cd816f2d164eb",
    "verify1": "8e9d6f272189b8991841b8fcbcb9d79d6100dbdd40527e93e7701564fe6b2e9f",
    "verify2": "80f86a2f5a31184c61db75216c66e29d83d91c7636ab4e8d4a171501e9a347f7",
    "verify4": "c77034e01291ca7cad2d31585b1ee08f7c57b252e8848b94e571314015c9f0de",
    "head3": "aa2fa95a8b5a216df654865143200b71ee048b24a2f3d1216d78b93d4e1a8314",
    "head1": "cb1d6b872e96f18261349c103dc3fdf45e84fd623bd73f9e333c0cb009ea1707",
    "table": "3ac03e94bd2a6ad8950f4aad55d23cec4817195b9977c0bc5fa971a860ef4973",
    "verify3": "94277a87882e7455abb4263ed5213f11dd0b6100fc04314a1b9d634cf1ad9cb6",
    "main_grads": "dd0154a50e19200f39645f347af3f167f2885e91788567fa7cdf39a906324660",
    "head_grads": "46854a1f04f4d1f379722fdb6f16415c8887f211b59c4be481fd962f334609e5",
    "spec": "e8e78db6742dcdf7d96cd5f16c154fcba4eb051c01c900a4314575f48ce59a40",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def forward_digests() -> dict[str, str]:
    """A cache-free forward, a prefill, cached verifies of 1, 2 and 4 rows, head steps
    of 3 and 1 rows, the head's token-input table, then a cached verify of 3 rows."""
    main, head = init_model(ModelConfig())
    main.freeze()
    rng = np.random.default_rng(12)
    prompt = rng.integers(main.config.vocab_size, size=24).tolist()
    sequence = np.random.default_rng(14).integers(main.config.vocab_size, size=40)
    out = {"full": digest(backbone_hidden(main, sequence), main_forward(main, sequence)[1].data)}
    cache = main.new_cache()
    hidden, logits = main_forward(main, prompt, cache)
    out["prefill"] = digest(hidden.data, logits.data)
    for rows in (1, 2, 4):
        hidden, logits = main_forward(main, rng.integers(main.config.vocab_size, size=rows).tolist(), cache)
        out[f"verify{rows}"] = digest(hidden.data, logits.data)
    table = token_input_table(head)
    head_cache = head.new_cache()
    h, pre = mtp_step(head, hidden.data[-3:], [7, 300, 41], head_cache, token_table=table)
    out["head3"] = digest(h.data, pre.data)
    h, pre = mtp_step(head, h.data[-1:], [99], head_cache, token_table=table)
    out["head1"] = digest(h.data, pre.data)
    out["table"] = digest(table)
    hidden, logits = main_forward(main, rng.integers(main.config.vocab_size, size=3).tolist(), cache)
    out["verify3"] = digest(hidden.data, logits.data)
    return out


def decode_digests() -> dict[str, str]:
    """One speculative decode at K=3 on the committed stack, over a two-entry bank
    that picks by context: its tokens and counters (rebuilding the stack moves it)."""
    main = MainModel.load(STACK / "main.npz")
    head = MTPHead.load(STACK / "head.npz", main)
    bank = VocabBank(main, [load_compressed_vocab(STACK / f"vocab_{tag}_128.json", 512)
                            for tag in ("zh", "en")])
    tokens, m = speculative_decode(main, head, sample_prompts("en", 111, 1, 24)[0], 64, 3,
                                   vocab=bank)
    return {"spec": digest(np.array(tokens), np.array([m.rounds, m.draft_forwards, m.draft_mults]))}


def gradient_digests() -> dict[str, str]:
    """Taped backbone losses over 12 tokens and over 1, then a head stream loss at K=3."""
    main, head = init_model(ModelConfig())
    rng = np.random.default_rng(13)
    for n in (12, 1):
        tokens = rng.integers(main.config.vocab_size, size=n)
        with Tape() as tape:
            _, logits = main_forward(main, tokens)
            tape.backward(tn.cross_entropy_rows(logits, np.roll(tokens, -1), np.full(n, 0.5)))
    main_grads = digest(*(p.grad for p in main.parameters().values()))
    main.freeze()  # the head trains against a frozen backbone; freezing drops the gradients
    tokens = rng.integers(main.config.vocab_size, size=8)
    h_main = backbone_hidden(main, tokens)
    with Tape() as tape:
        loss, _ = head_stream_loss(head, h_main, tokens, 1, TrainConfig(k_steps=3), [1.0, 0.5, 0.25])
        tape.backward(loss)
    return {
        "main_grads": main_grads,
        "head_grads": digest(*(p.grad for p in head.parameters().values())),
    }


@pytest.fixture(scope="module")
def digests():
    return {**forward_digests(), **gradient_digests(), **decode_digests()}


@pytest.mark.parametrize("name", list(PINS))
def test_outputs_keep_their_bits(digests, name):
    assert digests[name] == PINS[name]
