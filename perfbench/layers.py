"""What the traced run times in each layer, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layer is the mtpspec module the
timed function belongs to (``bench`` and ``cli`` spans are opened by the
benchmark around its own calls into the program). Metrics of a layer a
workload does not reach read 0.
"""

from __future__ import annotations

import statistics

from mtpspec import data, dedup, distill, model, specdec, tensor, training, vocab
from spans import Target, Tracer

TENSOR_OPS = ("matmul", "causal_attention", "rms_norm", "rope_rotate", "embedding",
              "silu", "transpose", "reshape")
# traced too, so that tensor self time covers every primitive a forward runs
OTHER_TENSOR_OPS = ("add", "mul", "scale", "softmax_last", "concat_last", "rows",
                    "cross_entropy_rows")
CLI_STAGES = ("pretrain-main", "distill", "dedup", "train-head", "build-vocab")
LAYERS = ("bench", "cli", "specdec", "model", "vocab", "tensor", "training",
          "distill", "dedup", "data")


def _forward_name(tracer: Tracer, args, kwargs) -> str:
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    if cache is None:
        return "model.forward_full"
    if cache.length == 0:
        return "model.forward_prefill"
    caller = tracer.caller()
    if caller == "specdec.verify_round":
        return "model.forward_verify"
    if caller == "specdec.decode":
        tracer.count("specdec.greedy_steps")
    return "model.forward_1tok"


def _count_op(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("model.forward"):
        tracer.count("tensor.ops_in_forward")


def _count_mults(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("vocab.draft_mults", int(args[1].w_view.size))


def _count_tape(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("tensor.tape_ops", len(args[0]))


def _count_pretrain(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("training.pretrain_tokens", sum(len(s) for s in args[0]) * args[2].epochs)


def _count_head(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("training.head_tokens", sum(len(ex.tokens) for ex in args[0]) * args[3].epochs)


def _count_distill(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("distill.tokens", sum(len(ex.response) for ex in result))


def _count_dedup(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("dedup.in", len(args[0]))
    tracer.count("dedup.kept", len(result))


def targets() -> list[Target]:
    t = Target
    return [
        t(specdec, "speculative_decode", "specdec.decode"),
        t(specdec, "baseline_decode", "specdec.decode"),
        t(specdec.DecodeSession, "prefill", "specdec.prefill"),
        t(specdec, "draft_round", "specdec.draft_round"),
        t(specdec, "verify_round", "specdec.verify_round"),
        t(model, "main_forward", _forward_name),
        t(model, "mtp_step", "model.mtp_step"),
        t(model, "greedy_argmax", "model.greedy_argmax"),
        t(model.KVCache, "truncate", "model.kv_truncate"),
        t(model, "save_checkpoint", "model.checkpoint_io"),
        t(model, "load_checkpoint", "model.checkpoint_io"),
        t(vocab, "draft_logits_compressed", "vocab.draft_logits", hook=_count_mults),
        t(vocab, "build_frequency_table", "vocab.build"),
        t(vocab, "compress_vocab", "vocab.build"),
        t(vocab, "save_frequency_table", "vocab.io"),
        t(vocab, "save_compressed_vocab", "vocab.io"),
        t(vocab, "load_compressed_vocab", "vocab.io"),
        *[t(tensor, op, f"tensor.{op}", keep_spans=False, hook=_count_op)
          for op in TENSOR_OPS + OTHER_TENSOR_OPS],
        t(tensor.Tape, "backward", "tensor.backward", hook=_count_tape),
        t(training, "pretrain_main", "training.pretrain", hook=_count_pretrain),
        t(training, "train_mtp_head", "training.head", hook=_count_head),
        t(training.AdamW, "step", "training.adamw_step"),
        t(distill, "self_distill", "distill.self_distill", hook=_count_distill),
        t(dedup, "dedup_and_filter", "dedup.filter", hook=_count_dedup),
        t(dedup, "mix_back", "dedup.mix_back"),
        t(data, "save_dataset", "data.dataset_io"),
        t(data, "load_dataset", "data.dataset_io"),
        t(data, "mixed_dataset", "data.corpus"),
    ]


def _p50_us(tracer: Tracer, name: str, self_time: bool = False) -> float:
    st = tracer.stats.get(name)
    if st is None or not st.count:
        return 0.0
    return statistics.median(st.selfs if self_time else st.durations) / 1e3


def _total_ns(tracer: Tracer, name: str) -> int:
    st = tracer.stats.get(name)
    return sum(st.durations) if st is not None else 0


def _self_ns(tracer: Tracer, name: str) -> int:
    st = tracer.stats.get(name)
    return sum(st.selfs) if st is not None else 0


def _calls(tracer: Tracer, name: str) -> int:
    st = tracer.stats.get(name)
    return st.count if st is not None else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(run, k_depth: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus the self-time breakdown.

    Totals and counts are per traced pass. Speed-up figures come from
    the untraced passes, whose timings tracing does not disturb.
    """
    tr = run.tracer
    traced = [p for p in run.passes if p.traced]
    plain = [p for p in run.passes if not p.traced]
    n = len(traced)
    first = plain[0]
    spec = first.spec

    m: dict[str, float] = {}
    for name in ("forward_1tok", "forward_verify", "forward_prefill", "mtp_step",
                 "kv_truncate", "greedy_argmax"):
        m[f"model.{name}_us_p50"] = _p50_us(tr, f"model.{name}")
    m["model.checkpoint_io_ms"] = _total_ns(tr, "model.checkpoint_io") / n / 1e6

    m["vocab.draft_logits_us_p50"] = _p50_us(tr, "vocab.draft_logits")
    m["vocab.draft_mults"] = tr.counts.get("vocab.draft_mults", 0) // n

    # c_draft as the decoder measures it: mean draft step over mean verify forward
    draft_ns = sum(p.spec.draft_ns for p in plain)
    draft_steps = sum(p.spec.draft_steps for p in plain)
    verify_ns = sum(p.spec.verify_ns for p in plain)
    rounds = sum(p.spec.rounds for p in plain)
    c_draft = _ratio(_ratio(draft_ns, draft_steps), _ratio(verify_ns, rounds))
    tau = _ratio(spec.output_tokens, spec.rounds) if spec.rounds else 1.0
    k = k_depth if spec.rounds else 0
    greedy_ns = run.setup_greedy_ns or [p.greedy_ns for p in plain if p.greedy_ns]
    spec_ns = [p.spec_ns for p in plain]
    m.update({
        "specdec.draft_round_us_p50": _p50_us(tr, "specdec.draft_round"),
        "specdec.verify_round_us_p50": _p50_us(tr, "specdec.verify_round"),
        "specdec.verify_self_us_p50": _p50_us(tr, "specdec.verify_round", self_time=True),
        "specdec.decode_self_us": _ratio(_self_ns(tr, "specdec.decode") / 1e3,
                                         _calls(tr, "specdec.verify_round")
                                         + tr.counts.get("specdec.greedy_steps", 0)),
        "specdec.c_draft": c_draft,
        "specdec.analytic_speedup": tau / (1.0 + k * c_draft),
        "specdec.wall_speedup": (_ratio(statistics.median(greedy_ns), statistics.median(spec_ns))
                                 if any(spec_ns) else 1.0),
        "specdec.rounds": spec.rounds,
        "specdec.main_forwards": spec.main_forwards or first.main_forwards,
        "specdec.draft_steps": spec.draft_steps,
        "specdec.accept_ratio": _ratio(spec.accepted, spec.draft_steps),
    })

    for op in TENSOR_OPS:
        m[f"tensor.{op}_us_p50"] = _p50_us(tr, f"tensor.{op}")
        m[f"tensor.{op}_calls"] = _calls(tr, f"tensor.{op}") // n
    forwards = sum(_calls(tr, f"model.forward_{kind}")
                   for kind in ("1tok", "verify", "prefill", "full"))
    m["tensor.ops_per_forward"] = _ratio(tr.counts.get("tensor.ops_in_forward", 0), forwards)
    m["tensor.backward_ms_p50"] = _p50_us(tr, "tensor.backward") / 1e3
    m["tensor.tape_ops_per_seq"] = _ratio(tr.counts.get("tensor.tape_ops", 0),
                                          _calls(tr, "tensor.backward"))

    m["training.pretrain_tokens_per_s"] = _ratio(tr.counts.get("training.pretrain_tokens", 0),
                                                 _total_ns(tr, "training.pretrain") / 1e9)
    m["training.head_tokens_per_s"] = _ratio(tr.counts.get("training.head_tokens", 0),
                                             _total_ns(tr, "training.head") / 1e9)
    m["training.adamw_step_ms_p50"] = _p50_us(tr, "training.adamw_step") / 1e3
    m["distill.tokens_per_s"] = _ratio(tr.counts.get("distill.tokens", 0),
                                       _total_ns(tr, "distill.self_distill") / 1e9)
    m["dedup.s"] = _total_ns(tr, "dedup.filter") / n / 1e9
    m["dedup.kept_ratio"] = _ratio(tr.counts.get("dedup.kept", 0), tr.counts.get("dedup.in", 0))
    m["data.dataset_io_ms"] = _total_ns(tr, "data.dataset_io") / n / 1e6
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = _total_ns(tr, f"cli.{stage}") / n / 1e9

    # self time per layer; with the remainder they add up to the traced wall time
    wall_ns = sum(p.ns for p in traced)
    by_layer = tr.self_ns_by_layer()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0) / n / 1e9
    m["trace.wall_s"] = wall_ns / n / 1e9
    m["trace.remainder_s"] = (wall_ns - sum(by_layer.values())) / n / 1e9
    m["trace.overhead_share"] = _ratio(wall_ns / n, sum(p.ns for p in plain) / len(plain)) - 1.0

    breakdown = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "span_names": {name: {"calls": st.count // n, "total_ms": sum(st.durations) / n / 1e6,
                              "self_ms": sum(st.selfs) / n / 1e6}
                       for name, st in sorted(tr.stats.items())},
    }
    unknown = set(by_layer) - set(LAYERS)
    if unknown:
        raise AssertionError(f"spans outside the known layers: {sorted(unknown)}")
    return m, breakdown
