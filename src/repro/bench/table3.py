"""Experiment: paper Table 3 -- accuracy of compressed models.

End-to-end pipeline at substrate scale:

1. pre-train the MICRO LLaMA-architecture model on the synthetic fact corpus
   and instruction split (the "pretrained LLaMA 7B" stand-in);
2. apply each compression scheme -- RTN / GPTQ / AWQ / SmoothQuant post-
   training, LLM-QAT and eDKM as fine-tunes;
3. score the seven synthetic suites with lm-eval-style rules;
4. report accuracy alongside the analytic model size at true LLaMA-7B
   dimensions (the paper's "Model Size (GB)" column is spec arithmetic).

Scale calibration (docs/edkm-pipeline.md, "Beyond the paper"): at dim=32,
per-channel grids are disproportionately fine, so uniform baselines use
per-tensor grids (RTN, LLM-QAT) and per-row grids (GPTQ, AWQ) to match the
relative harshness of 3/4-bit quantization at 7B scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    apply_qat,
    freeze_qat,
    quantize_model_awq,
    quantize_model_gptq,
    quantize_model_rtn,
    quantize_model_smoothquant,
)
from repro.bench.tables import PaperTable, render_table
from repro.core import DKMConfig, ModelCompressor
from repro.data import (
    FactWorld,
    alpaca_batches,
    corpus_batches,
    generate_alpaca,
    generate_corpus,
    standard_suites,
)
from repro.data.corpus import corpus_vocabulary
from repro.evalsuite import (
    EvalReport,
    evaluate_suites,
    model_size_gb,
    paper_schemes,
)
from repro.llm import (
    LLAMA_7B,
    MICRO,
    FinetuneConfig,
    WordTokenizer,
    build_model,
    train_causal_lm,
)
from repro.tensor.device import GPU

SUITE_ORDER = [
    "piqa_syn",
    "hellaswag_syn",
    "winogrande_syn",
    "arc_easy_syn",
    "arc_challenge_syn",
    "triviaqa_syn",
    "mmlu_syn",
]

# Paper Table 3 (percent), for paper-vs-measured reporting.
PAPER_TABLE3 = {
    "fp16": dict(bits=16, size_gb=12.6, piqa=79.3, hellaswag=76.1, winogrande=70.0,
                 arc_e=73.0, arc_c=48.0, triviaqa=57.0, mmlu=35.2),
    "rtn4": dict(bits=4, size_gb=3.5, piqa=77.3, hellaswag=72.7, winogrande=66.9,
                 arc_e=68.8, arc_c=46.4, triviaqa=44.9, mmlu=28.9),
    "gptq4": dict(bits=4, size_gb=3.7, piqa=77.2, hellaswag=54.0, winogrande=65.7,
                  arc_e=61.6, arc_c=None, triviaqa=None, mmlu=None),
    "awq4": dict(bits=4, size_gb=3.7, piqa=78.1, hellaswag=55.8, winogrande=65.8,
                 arc_e=66.8, arc_c=None, triviaqa=None, mmlu=None),
    "llmqat4": dict(bits=4, size_gb=3.5, piqa=78.3, hellaswag=74.0, winogrande=69.0,
                    arc_e=70.0, arc_c=45.0, triviaqa=50.8, mmlu=30.8),
    "gptq3": dict(bits=3, size_gb=3.0, piqa=70.9, hellaswag=46.8, winogrande=60.9,
                  arc_e=66.1, arc_c=None, triviaqa=None, mmlu=None),
    "awq3": dict(bits=3, size_gb=3.0, piqa=76.7, hellaswag=53.6, winogrande=66.1,
                 arc_e=65.7, arc_c=None, triviaqa=None, mmlu=None),
    "edkm3": dict(bits=3, size_gb=2.5, piqa=77.7, hellaswag=54.6, winogrande=66.1,
                  arc_e=72.3, arc_c=40.3, triviaqa=35.2, mmlu=30.3),
}


@dataclass
class Table3Row:
    method: str
    bits: int
    size_gb: float  # analytic, at LLaMA-7B dimensions
    report: EvalReport

    def accuracies(self) -> list[float]:
        return self.report.as_row(SUITE_ORDER)

    @property
    def mean_accuracy(self) -> float:
        return self.report.mean_accuracy


@dataclass
class Table3Harness:
    """Shared world/model state so methods start from the same checkpoint."""

    seed: int = 0
    n_corpus: int = 2400
    n_alpaca: int = 800
    n_items: int = 30
    corpus_epochs: int = 2
    alpaca_epochs: int = 1
    pretrain_lr: float = 3e-3
    compress_lr: float = 1e-3
    world: FactWorld = field(init=False)
    tokenizer: WordTokenizer = field(init=False)

    def __post_init__(self) -> None:
        self.world = FactWorld(seed=self.seed)
        self.tokenizer = WordTokenizer(corpus_vocabulary(self.world))
        self.corpus = generate_corpus(self.world, self.n_corpus, seed=self.seed + 1)
        self.alpaca = generate_alpaca(self.world, self.n_alpaca, seed=self.seed + 2)
        self.suites = standard_suites(self.world, n_items=self.n_items)
        self._snapshot: dict | None = None
        self._model = None

    # -- shared checkpoint ------------------------------------------------

    def pretrained(self):
        """The fine-tuned fp16 stand-in model (built once, then snapshotted)."""
        if self._model is None:
            model = build_model(MICRO, vocab_size=self.tokenizer.vocab_size, seed=self.seed)
            model.to(GPU)
            cfg = FinetuneConfig(lr=self.pretrain_lr)
            train_causal_lm(
                model,
                corpus_batches(
                    self.corpus, self.tokenizer, 16, GPU,
                    epochs=self.corpus_epochs, seed=self.seed + 3,
                ),
                cfg,
            )
            train_causal_lm(
                model,
                alpaca_batches(
                    self.alpaca, self.tokenizer, 16, GPU,
                    epochs=self.alpaca_epochs, seed=self.seed + 4,
                ),
                cfg,
            )
            self._model = model
            self._snapshot = {
                k: v.numpy().copy() for k, v in model.state_dict().items()
            }
        return self._model

    def restore(self):
        """A fresh model loaded from the pre-trained snapshot.

        Rebuilds the module tree every time (rather than copying values in
        place) because several methods -- LLM-QAT, eDKM -- structurally wrap
        the model's Linears and would otherwise leak into later rows.
        """
        self.pretrained()  # ensure the snapshot exists
        model = build_model(MICRO, vocab_size=self.tokenizer.vocab_size, seed=self.seed)
        model.to(GPU)
        for name, param in model.state_dict().items():
            param.copy_(self._snapshot[name])
        self._model = model
        return model

    def _evaluate(self) -> EvalReport:
        return evaluate_suites(self._model, self.tokenizer, self.suites, GPU)

    def calibration_batches(self, n: int = 16):
        return list(
            corpus_batches(
                self.corpus[: 16 * n], self.tokenizer, 16, GPU, seed=self.seed + 9
            )
        )

    # -- methods (Table 3 rows) --------------------------------------------

    def run_fp16(self) -> Table3Row:
        self.restore()
        return self._row("LLaMA (fp16)", "fp16", 16, self._evaluate())

    def run_rtn(self, bits: int) -> Table3Row:
        self.restore()
        quantize_model_rtn(self._model, bits=bits, per_channel=False)
        return self._row("RTN", f"rtn{bits}", bits, self._evaluate())

    def run_gptq(self, bits: int, group_size: int | None = None) -> Table3Row:
        self.restore()
        calib = self.calibration_batches()
        quantize_model_gptq(self._model, calib, bits=bits, group_size=group_size)
        return self._row("GPTQ", f"gptq{bits}_g128", bits, self._evaluate())

    def run_awq(self, bits: int, group_size: int | None = None) -> Table3Row:
        self.restore()
        calib = self.calibration_batches()
        quantize_model_awq(self._model, calib, bits=bits, group_size=group_size)
        return self._row("AWQ", f"awq{bits}_g128", bits, self._evaluate())

    def run_smoothquant(self, bits: int = 8) -> Table3Row:
        self.restore()
        calib = self.calibration_batches()
        quantize_model_smoothquant(self._model, calib, bits=bits)
        return self._row("SmoothQuant", "rtn4", bits, self._evaluate())

    def run_llm_qat(self, bits: int) -> Table3Row:
        self.restore()
        wrapped = apply_qat(self._model, bits=bits)
        train_causal_lm(
            self._model,
            alpaca_batches(
                self.alpaca, self.tokenizer, 16, GPU,
                epochs=self.alpaca_epochs, seed=self.seed + 5,
            ),
            FinetuneConfig(lr=self.compress_lr),
        )
        freeze_qat(wrapped)
        # Unwrap for evaluation: QATLinear.forward quantizes already-frozen
        # weights, which is idempotent, so evaluating through it is fine.
        return self._row("LLM-QAT", f"llmqat{bits}", bits, self._evaluate())

    def run_edkm(self, bits: int, epochs: int | None = None) -> Table3Row:
        self.restore()
        compressor = ModelCompressor(DKMConfig(bits=bits, iters=4))
        compressor.compress(self._model)
        train_causal_lm(
            self._model,
            alpaca_batches(
                self.alpaca, self.tokenizer, 16, GPU,
                epochs=epochs or 2 * self.alpaca_epochs, seed=self.seed + 6,
            ),
            FinetuneConfig(lr=self.compress_lr),
        )
        return self._row("eDKM", f"edkm{bits}", bits, self._evaluate())

    def _row(self, method: str, scheme_key: str, bits: int, report: EvalReport) -> Table3Row:
        scheme = paper_schemes().get(scheme_key)
        size = model_size_gb(LLAMA_7B, scheme) if scheme else float("nan")
        return Table3Row(method=method, bits=bits, size_gb=size, report=report)


def run_table3(harness: Table3Harness | None = None, quick: bool = False) -> list[Table3Row]:
    """All Table 3 rows.  ``quick`` runs the fp16/RTN/eDKM subset."""
    harness = harness or Table3Harness()
    rows = [harness.run_fp16()]
    if quick:
        rows.append(harness.run_rtn(3))
        rows.append(harness.run_edkm(3))
        return rows
    rows.append(harness.run_rtn(4))
    rows.append(harness.run_gptq(4))
    rows.append(harness.run_awq(4))
    rows.append(harness.run_llm_qat(4))
    rows.append(harness.run_gptq(3))
    rows.append(harness.run_awq(3))
    rows.append(harness.run_edkm(3))
    return rows


# (method, bits) -> PAPER_TABLE3 key, for the rows the paper reports.
_PAPER_KEYS = {
    ("LLaMA (fp16)", 16): "fp16",
    ("RTN", 4): "rtn4",
    ("GPTQ", 4): "gptq4",
    ("AWQ", 4): "awq4",
    ("LLM-QAT", 4): "llmqat4",
    ("GPTQ", 3): "gptq3",
    ("AWQ", 3): "awq3",
    ("eDKM", 3): "edkm3",
}
_PAPER_COLUMNS = ["piqa", "hellaswag", "winogrande", "arc_e", "arc_c", "triviaqa", "mmlu"]


@dataclass
class Table3BenchResult(PaperTable):
    """Table 3 rows with the paper's relative claims as gates.

    The absolute accuracies belong to the synthetic world; the claims are
    the relative ones: eDKM 3-bit is no worse than the 3-bit uniform
    baselines and within a few points of fp16, 4-bit RTN is mild, and the
    fp16 model is clearly above chance.
    """

    rows: list[Table3Row]

    def render(self) -> str:
        lines = [
            render_table(
                ["method", "bits", "size (GB)"] + SUITE_ORDER + ["mean"],
                [
                    [row.method, row.bits, row.size_gb]
                    + row.accuracies()
                    + [row.mean_accuracy]
                    for row in self.rows
                ],
                title="Table 3: accuracy of compressed models "
                "(synthetic suites, MICRO scale)",
            ),
            "",
            "paper reference rows (percent):",
        ]
        for row in self.rows:
            key = _PAPER_KEYS.get((row.method, row.bits))
            if key is None:
                continue
            cells = "  ".join(
                f"{col}={PAPER_TABLE3[key][col]!s:>5}" for col in _PAPER_COLUMNS
            )
            lines.append(f"  {row.method:<12} {row.bits}bit  {cells}")
        return "\n".join(lines)

    def failures(self) -> list[str]:
        """Gates on the rows present (``--quick`` runs fp16 / RTN-3 / eDKM-3)."""
        mean = {(r.method, r.bits): r.mean_accuracy for r in self.rows}
        fp16, edkm3 = mean[("LLaMA (fp16)", 16)], mean[("eDKM", 3)]
        failures = [
            f"table3: eDKM-3bit mean {edkm3:.1f} trails {method}-3bit "
            f"{mean[(method, 3)]:.1f} by more than 1 point"
            for method in ("GPTQ", "AWQ", "RTN")
            if (method, 3) in mean and not edkm3 >= mean[(method, 3)] - 1.0
        ]
        if not edkm3 >= fp16 - 8.0:
            failures.append(
                f"table3: eDKM-3bit mean {edkm3:.1f} is more than 8 points "
                f"below fp16 {fp16:.1f}"
            )
        if ("RTN", 4) in mean and not mean[("RTN", 4)] >= fp16 - 8.0:
            failures.append(
                f"table3: RTN-4bit mean {mean[('RTN', 4)]:.1f} is more than "
                f"8 points below fp16 {fp16:.1f}"
            )
        if not fp16 > 60.0:
            failures.append(f"table3: fp16 mean {fp16:.1f} is not above 60")
        return failures


def run(quick: bool = False, seed: int = 0) -> Table3BenchResult:
    """``python -m repro.bench table3`` -- the slowest entry.

    ``quick`` keeps the harness and scores the fp16 / RTN-3 / eDKM-3 subset
    (~20 s on 2 cores); the full run adds a 3-bit RTN reference row to the
    paper's eight.
    """
    harness = Table3Harness(seed=seed, n_items=25)
    rows = run_table3(harness, quick=quick)
    if not quick:
        rows.append(harness.run_rtn(3))
    return Table3BenchResult(rows)
