"""Bit pins: SHA-256 digests of the desk model's outputs and gradients.

A change that only makes the forward primitives cheaper must leave every
bit of every logit, hidden state and gradient alone. The digests below
were taken from the code before such changes and must not move after
them. They pin float64 results of numpy and its BLAS (x86-64,
OpenBLAS); a BLAS that rounds matrix products differently would change
them without any change to this code.
"""

import hashlib

import numpy as np
import pytest

from mtpspec import tensor as tn
from mtpspec.model import ModelConfig, init_model, main_forward, mtp_step, token_input_table
from mtpspec.tensor import Tape
from mtpspec.training import TrainConfig, backbone_hidden, head_stream_loss

PINS = {
    "prefill": "396712f8d7dd78ce689f65de31aa5cbcfb752de8269be7a1de8cd816f2d164eb",
    "verify1": "8e9d6f272189b8991841b8fcbcb9d79d6100dbdd40527e93e7701564fe6b2e9f",
    "verify2": "80f86a2f5a31184c61db75216c66e29d83d91c7636ab4e8d4a171501e9a347f7",
    "verify4": "c77034e01291ca7cad2d31585b1ee08f7c57b252e8848b94e571314015c9f0de",
    "head3": "aa2fa95a8b5a216df654865143200b71ee048b24a2f3d1216d78b93d4e1a8314",
    "head1": "cb1d6b872e96f18261349c103dc3fdf45e84fd623bd73f9e333c0cb009ea1707",
    "main_grads": "dd0154a50e19200f39645f347af3f167f2885e91788567fa7cdf39a906324660",
    "head_grads": "46854a1f04f4d1f379722fdb6f16415c8887f211b59c4be481fd962f334609e5",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def forward_digests() -> dict[str, str]:
    """A prefill, cached verifies of 1, 2 and 4 rows, then head steps of 3 and 1 rows."""
    main, head = init_model(ModelConfig())
    main.freeze()
    rng = np.random.default_rng(12)
    prompt = rng.integers(main.config.vocab_size, size=24).tolist()
    out = {}
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
    return out


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
    return {**forward_digests(), **gradient_digests()}


@pytest.mark.parametrize("name", list(PINS))
def test_outputs_keep_their_bits(digests, name):
    assert digests[name] == PINS[name]
