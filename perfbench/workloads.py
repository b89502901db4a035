"""The benchmark's workloads: seeded inputs, timed passes and output checks.

All three workloads are closed loops with one client: the next request
starts when the previous one returns. A run repeats whole passes over
the workload's fixed unit of work (a request list, or one build
pipeline) until the measured time is used up; set-up is repeated at
evenly spaced points of the run and timed on its own. Untraced passes
and set-ups time the reference computation of ``refclock`` between
their units of work, and the end-to-end times are scaled by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mtpspec import cli, specdec
from mtpspec.data import LANG_TAGS, sample_prompts, seed_key
from mtpspec.model import MainModel, MTPHead, main_forward
from mtpspec.vocab import VocabBank, load_compressed_vocab
from refclock import RefClock, scaled_ns
from spans import Tracer, assert_clean

K_DEPTH = 3
PROMPT_LEN = 24
PER_TASK = 22             # 110 requests: p90 over requests has 10 beyond it
MAX_NEW = (32, 128)       # range of max_new_tokens, both ends included
VOCAB_SIZE = 128
STACK_DIR = Path(__file__).resolve().parent / "stack"

# Reduced pipeline: same stages, model shape and section seeds as the CLI
# defaults, with less data and fewer epochs, so one pass takes seconds
# rather than minutes. The workload seed picks only the evaluation
# prompts: at this size the head's tau swings by 2x between training
# seeds, which would drown every decode figure of the workload.
PIPELINE_CONFIG = {
    "data": {"per_lang": 24},
    "pretrain": {"epochs": 2},
    "distill": {"prompts_per_lang": 8, "max_new_tokens": 32},
    "train": {"k_steps": K_DEPTH, "epochs": 1},
    "vocab": {"size": VOCAB_SIZE},
}
EVAL_PER_TASK = 22
EVAL_MAX_NEW = 32


class BenchError(Exception):
    """A precondition failed; the run stops without reporting a result."""


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Request:
    lang: str
    prompt: tuple[int, ...]
    max_new: int


def make_requests(seed: int, per_task: int = PER_TASK, max_new=MAX_NEW,
                  prompt_len: int = PROMPT_LEN) -> list[Request]:
    """A shuffled request list with prompts from every desk task.

    Every task gets the same max_new values, evenly spread over the
    range, and the seed deals them out to its prompts; so seeds differ
    in prompts and order but not in how much each task generates.
    """
    rng = np.random.default_rng(seed_key(seed, "perfbench-requests"))
    spread = np.linspace(max_new[0], max_new[1], per_task).round().astype(int)
    requests = [Request(tag, tuple(p), int(n)) for tag in LANG_TAGS
                for p, n in zip(sample_prompts(tag, seed, per_task, prompt_len),
                                rng.permutation(spread))]
    return [requests[i] for i in rng.permutation(len(requests))]


@dataclass
class Stack:
    main: MainModel
    head: MTPHead
    bank: VocabBank


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stack_files() -> list[str]:
    return ["main.npz", "head.npz"] + [f"vocab_{lang}_{VOCAB_SIZE}.json" for lang in LANG_TAGS]


def load_stack(stack_dir: Path = STACK_DIR) -> Stack:
    """Load the fixed desk stack after checking every file's SHA-256."""
    try:
        sums = dict(reversed(line.split()) for line in
                    (stack_dir / "SHA256SUMS").read_text().splitlines())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {stack_dir / 'SHA256SUMS'}: {exc}") from exc
    for name in stack_files():
        path = stack_dir / name
        if not path.is_file() or sha256_file(path) != sums.get(name):
            raise BenchError(f"stack file {name} is missing or does not match "
                             f"SHA256SUMS; regenerate with perfbench/stack/make_stack.py")
    main = MainModel.load(stack_dir / "main.npz")
    head = MTPHead.load(stack_dir / "head.npz", main)
    return Stack(main, head, load_bank(main, stack_dir))


def load_bank(main: MainModel, directory: Path) -> VocabBank:
    return VocabBank(main, [load_compressed_vocab(directory / f"vocab_{lang}_{VOCAB_SIZE}.json",
                                                  main.config.vocab_size)
                            for lang in LANG_TAGS])


def outputs_digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def teacher_forced_mismatches(main: MainModel, prompt, output) -> int:
    """Positions where the greedy output disagrees with one cache-free forward."""
    if not output:
        return 0
    _, logits = main_forward(main, list(prompt) + list(output[:-1]))
    rows = logits.data[len(prompt) - 1:]
    return int(sum(int(np.argmax(rows[i])) != tok for i, tok in enumerate(output)))


# ---------------------------------------------------------------------------
# run bookkeeping


@dataclass
class DecodeTotals:
    """Exact counters and phase timings summed over one pass's spec decodes."""

    rounds: int = 0
    output_tokens: int = 0
    main_forwards: int = 0
    draft_steps: int = 0
    accepted: int = 0
    draft_mults: int = 0
    draft_ns: int = 0
    verify_ns: int = 0

    def add(self, m: specdec.DecodeMetrics) -> None:
        self.rounds += m.rounds
        self.output_tokens += m.output_tokens
        self.main_forwards += m.main_forwards
        self.draft_steps += m.draft_forwards
        self.accepted += sum(m.accepted.values())
        self.draft_mults += m.draft_mults
        self.draft_ns += m.draft_ns
        self.verify_ns += m.verify_ns

    def counters(self) -> dict:
        """Everything except timings; must repeat exactly between passes."""
        return {k: v for k, v in vars(self).items() if not k.endswith("_ns")}


@dataclass
class PassResult:
    ns: int = 0
    traced: bool = False
    samples: list = field(default_factory=list)      # (unit, tokens, ns, reference ns)
    counters: dict = field(default_factory=dict)     # exact, must repeat
    spec: DecodeTotals = field(default_factory=DecodeTotals)
    spec_ns: int = 0                                 # summed speculative request time
    greedy_ns: int = 0                               # summed greedy request time
    main_forwards: int = 0                           # backbone forwards in greedy decodes
    check_ns: int = 0                                # untimed checks and reference samples
    partial: bool = False                            # stopped at the end of the run
    digest: str = ""


@dataclass
class Run:
    passes: list[PassResult] = field(default_factory=list)
    setup_ns: list[int] = field(default_factory=list)
    setup_ref_ns: list[float] = field(default_factory=list)
    setup_greedy_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    clock: RefClock = field(default_factory=RefClock)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 50:
            self.errors.append(message)


class Units:
    """Records a pass's units of work, each between two reference samples.

    A unit is a request (keyed by its index) or a pipeline stage (keyed
    by its command line). Without a clock, as in traced passes, no
    reference is sampled and a unit's reference time reads 0.
    """

    def __init__(self, res: PassResult, clock: RefClock | None):
        self.res = res
        self.clock = clock
        self.before = self.sample()

    def sample(self) -> int:
        if self.clock is None:
            return 0
        ns = self.clock.sample()
        self.res.check_ns += ns
        return ns

    def add(self, key, tokens: int, ns: int) -> None:
        after = self.sample()
        self.res.samples.append((key, tokens, ns, (self.before + after) / 2))
        self.before = after


@contextlib.contextmanager
def request_span(tracer, index: int):
    if tracer is None:
        yield
        return
    tracer.request_id = index
    with tracer.span("bench.request"):
        yield


# ---------------------------------------------------------------------------
# workloads


class DecodeGreedy:
    """Plain greedy decoding of the request list on the fixed stack.

    The first pass's outputs are the reference for later passes.
    """

    name = "decode-greedy"
    min_passes = 1
    setups = 9        # loading the stack takes milliseconds; more set-ups steady the median

    def __init__(self, seed: int, stack_loader=load_stack, per_task: int = PER_TASK,
                 max_new=MAX_NEW):
        self.seed = seed
        self.stack_loader = stack_loader
        self.per_task = per_task
        self.max_new = max_new
        self.reference: list[list[int]] | None = None

    def setup(self, run: Run) -> None:
        self.stack = self.stack_loader()
        self.requests = make_requests(self.seed, self.per_task, self.max_new)

    def decode(self, req: Request):
        """One request; returns its output and, for speculative decoding, metrics."""
        return specdec.baseline_decode(self.stack.main, req.prompt, req.max_new), None

    def run_pass(self, run: Run, tracer=None, stop_at: int | None = None) -> PassResult:
        res = PassResult(traced=tracer is not None)
        units = Units(res, None if tracer else run.clock)
        outputs = []
        for i, req in enumerate(self.requests):
            if stop_at is not None and time.perf_counter_ns() - res.check_ns >= stop_at:
                res.partial = True
                break
            run.attempted += 1
            try:
                with request_span(tracer, i):
                    t0 = time.perf_counter_ns()
                    out, m = self.decode(req)
                    dt = time.perf_counter_ns() - t0
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                run.fail(f"request {i}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            outputs.append(out)
            units.add(i, len(out), dt)
            if m is None:
                res.greedy_ns += dt
                res.main_forwards += len(out)
            else:
                res.spec_ns += dt
                res.spec.add(m)
            if self.reference is not None and out != self.reference[i]:
                run.fail(f"request {i}: output differs from the greedy reference")
        if self.reference is None:
            self.reference = outputs
        res.digest = outputs_digest(outputs)
        res.counters = {**res.spec.counters(), "greedy_forwards": res.main_forwards}
        return res

    def finish(self, run: Run) -> None:
        """Check the reference outputs against cache-free forwards (untimed)."""
        for i, (req, out) in enumerate(zip(self.requests, self.reference or [])):
            if out is not None and teacher_forced_mismatches(self.stack.main, req.prompt, out):
                run.fail(f"request {i}: greedy output disagrees with a cache-free forward")


class DecodeSpec(DecodeGreedy):
    """Speculative decoding at K=3 with the language-tagged compressed bank.

    Every set-up decodes the greedy references that every output must
    equal, with a reference sample after each.
    """

    name = "decode-spec"
    setups = 3        # each set-up decodes the greedy references, seconds of work

    def setup(self, run: Run) -> None:
        super().setup(run)
        refs, greedy_ns = [], 0
        for req in self.requests:
            t0 = time.perf_counter_ns()
            refs.append(specdec.baseline_decode(self.stack.main, req.prompt, req.max_new))
            greedy_ns += time.perf_counter_ns() - t0
            run.clock.sample()
        if self.reference is not None and refs != self.reference:
            run.fail("greedy references differ between set-ups", len(refs))
        self.reference = refs
        run.setup_greedy_ns.append(greedy_ns)

    def decode(self, req: Request):
        s = self.stack
        return specdec.speculative_decode(s.main, s.head, req.prompt, req.max_new, K_DEPTH,
                                          vocab=s.bank, lang=req.lang)


class BuildPipeline:
    """The README pipeline through ``cli.main``, then the new head's tau."""

    name = "build-pipeline"
    min_passes = 2    # the stack checksum must repeat within the run
    setups = 9

    def __init__(self, seed: int, work_root: Path, config: dict | None = None,
                 eval_per_task: int = EVAL_PER_TASK, eval_max_new: int = EVAL_MAX_NEW):
        self.seed = seed
        self.work_root = work_root
        self.config = PIPELINE_CONFIG if config is None else config
        self.eval_per_task = eval_per_task
        self.eval_max_new = eval_max_new
        self.stack_digest: str | None = None
        self.eval_reference: list[list[int]] | None = None

    def setup(self, run: Run) -> None:
        self.work_root.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_root / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.eval_requests = make_requests(self.seed, self.eval_per_task,
                                           (self.eval_max_new, self.eval_max_new))

    def stages(self) -> list[list[str]]:
        steps = [["pretrain-main"], ["distill"], ["dedup"], ["train-head"]]
        return steps + [["build-vocab", "--lang", lang] for lang in LANG_TAGS]

    def run_pass(self, run: Run, tracer=None, stop_at: int | None = None) -> PassResult:
        """One whole pipeline; `stop_at` is ignored, a stage is not cut short."""
        res = PassResult(traced=tracer is not None)
        out_dir = self.work_root / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        base = ["--config", str(self.config_path), "--out-dir", str(out_dir)]
        if tracer is not None:
            tracer.request_id = -1
        units = Units(res, None if tracer else run.clock)
        for step in self.stages():
            run.attempted += 1
            span = tracer.span(f"cli.{step[0]}") if tracer else contextlib.nullcontext()
            try:
                # stage reports would precede the result line on stdout
                with span, contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter_ns()
                    code = cli.main(base + step)
                    dt = time.perf_counter_ns() - t0
            except Exception as exc:  # noqa: BLE001 - a failed stage is counted, not fatal
                run.fail(f"stage {' '.join(step)}: {type(exc).__name__}: {exc}")
                return res
            if code != 0:
                run.fail(f"stage {' '.join(step)} exited with {code}")
                return res
            units.add(" ".join(step), 0, dt)
        main = MainModel.load(out_dir / "main.npz")
        head = MTPHead.load(out_dir / "head.npz", main)
        bank = load_bank(main, out_dir)
        params = sorted(main.parameters().items()) + sorted(head.parameters().items())
        digest = hashlib.sha256(b"".join(p.data.tobytes() for _, p in params)).hexdigest()
        if self.stack_digest is not None and digest != self.stack_digest:
            run.fail("trained backbone or head differs from the first pass")
        self.stack_digest = res.digest = digest
        if self.eval_reference is None:
            # greedy references for the new stack: a check, kept out of the pass time
            t0 = time.perf_counter_ns()
            try:
                self.eval_reference = [specdec.baseline_decode(main, r.prompt, r.max_new)
                                       for r in self.eval_requests]
            except Exception as exc:  # noqa: BLE001 - counted as a failed stage
                run.fail(f"greedy references: {type(exc).__name__}: {exc}")
                return res
            res.greedy_ns = time.perf_counter_ns() - t0
            res.check_ns += res.greedy_ns
            res.main_forwards = sum(len(ref) for ref in self.eval_reference)
            units.before = units.sample()
        for i, req in enumerate(self.eval_requests):
            run.attempted += 1
            try:
                with request_span(tracer, i):
                    t0 = time.perf_counter_ns()
                    out, m = specdec.speculative_decode(main, head, req.prompt, req.max_new,
                                                        K_DEPTH, vocab=bank, lang=req.lang)
                    dt = time.perf_counter_ns() - t0
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                run.fail(f"eval request {i}: {type(exc).__name__}: {exc}")
                continue
            units.add(i, len(out), dt)
            res.spec_ns += dt
            res.spec.add(m)
            if out != self.eval_reference[i]:
                run.fail(f"eval request {i}: speculative output differs from greedy")
        res.counters = res.spec.counters()
        return res

    def finish(self, run: Run) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)


# ---------------------------------------------------------------------------
# the measuring loop


def measure(workload, seconds: float, targets=None) -> Run:
    """Run set-ups and passes until `seconds` of passes have been measured.

    Set-up number i runs once the measured time reaches i/setups of the
    run, between two reference samples. Once the first pass is whole,
    an untraced decode pass may stop between requests when the measured
    time is up. With trace targets, passes
    alternate untraced and traced, are always whole, and the same tracer
    collects every traced pass. Before each untraced pass the originals
    are asserted to be back in place.
    """
    run = Run()
    budget = int(seconds * 1e9)
    min_passes = workload.min_passes if targets is None else 2
    measured = 0
    while True:
        if (len(run.setup_ns) < workload.setups
                and measured >= len(run.setup_ns) * budget // workload.setups):
            refs = run.clock.samples
            before = run.clock.sample()
            mark = len(refs)
            t0 = time.perf_counter_ns()
            workload.setup(run)
            dt = time.perf_counter_ns() - t0
            after = run.clock.sample()
            inside = refs[mark:-1]
            run.setup_ns.append(dt - sum(inside))
            run.setup_ref_ns.append(statistics.mean([before, *inside, after]))
            continue
        n = len(run.passes)
        if n >= min_passes and measured >= budget and len(run.setup_ns) >= workload.setups:
            break
        traced = targets is not None and n % 2 == 1
        if traced:
            run.tracer.install(targets)
        else:
            assert_clean()
        t0 = time.perf_counter_ns()
        try:
            stop_at = t0 + budget - measured if run.passes and targets is None else None
            res = workload.run_pass(run, run.tracer if traced else None, stop_at)
        finally:
            dt = time.perf_counter_ns() - t0
            if traced:
                run.tracer.uninstall()
        dt -= res.check_ns
        res.ns = dt
        measured += dt
        first = run.passes[0] if run.passes else None
        if first is not None and not res.partial and res.counters != first.counters:
            run.fail(f"pass {n}: exact counters differ from the first pass")
        if first is not None and not res.partial and res.digest != first.digest:
            run.fail(f"pass {n}: output digest differs from the first pass")
        run.passes.append(res)
    assert_clean()
    workload.finish(run)
    return run


def end_to_end_metrics(run, scale: bool = True) -> dict[str, float]:
    """End-to-end metrics from the untraced passes and the set-ups of a run.

    Each unit of work (request or stage) pools its repetitions across
    the run, and its time per repetition is its summed time scaled by
    its summed reference time (``scale=False`` leaves times as
    measured). A request's time per token is that over its tokens, and
    the percentiles are taken over requests; ``tokens_per_s`` and
    ``pass_s`` add up one repetition of every unit. Set-up times are
    scaled by the reference samples around each set-up.
    """
    plain = [p for p in run.passes if not p.traced]
    units: dict = {}
    for p in plain:
        for key, tokens, ns, ref_ns in p.samples:
            acc = units.setdefault(key, [0, 0, 0, 0.0])
            acc[0] += 1
            acc[1] += tokens
            acc[2] += ns
            acc[3] += ref_ns
    # summed time over summed reference time is already per repetition
    unit_ns = {key: scaled_ns(ns, ref_ns) if scale else ns / reps
               for key, (reps, _, ns, ref_ns) in units.items()}
    requests = {key: tokens / reps for key, (reps, tokens, _, _) in units.items()
                if isinstance(key, int) and tokens}
    if len(requests) < 2:
        raise RuntimeError("fewer than two requests completed")
    ms_per_token = [unit_ns[key] / tokens / 1e6 for key, tokens in requests.items()]
    first = plain[0].spec
    return {
        "setup_s": statistics.median(scaled_ns(ns, ref_ns) if scale else ns for ns, ref_ns
                                     in zip(run.setup_ns, run.setup_ref_ns)) / 1e9,
        "tokens_per_s": sum(requests.values()) / (sum(unit_ns[k] for k in requests) / 1e9),
        "ms_per_token_p50": statistics.median(ms_per_token),
        "ms_per_token_p90": statistics.quantiles(ms_per_token, n=10)[8],
        "tau": first.output_tokens / first.rounds if first.rounds else 1.0,
        "pass_s": sum(unit_ns.values()) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
