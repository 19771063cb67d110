"""End-to-end LLM compression: the paper's headline experiment in miniature.

Fine-tunes a LLaMA-architecture model on a synthetic instruction dataset
*while clustering its weights to 3 bits with eDKM*, then palettizes and
evaluates against the uncompressed model and a 3-bit RTN baseline on seven
lm-eval-style suites -- the Table 3 pipeline at substrate scale.

Run:  python examples/compress_llm.py         (~2-3 minutes on a laptop)
"""


import repro
import repro.tensor as rt
from repro.baselines import RTNConfig
from repro.core import DKMConfig, EDKMConfig, ModelCompressor, SavedTensorPipeline
from repro.data import (
    FactWorld,
    alpaca_batches,
    corpus_batches,
    generate_alpaca,
    generate_corpus,
    standard_suites,
)
from repro.data.corpus import corpus_vocabulary
from repro.distributed import LearnerGroup
from repro.evalsuite import evaluate_suites, model_size_gb, paper_schemes
from repro.llm import LLAMA_7B, MICRO, FinetuneConfig, WordTokenizer, build_model, train_causal_lm
from repro.memory import format_bytes


def pretrain(world, tokenizer):
    """The 'pretrained LLaMA' stand-in: fit the fact corpus + instructions."""
    corpus = generate_corpus(world, 2400, seed=1)
    alpaca = generate_alpaca(world, 800, seed=2)
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    model.to(rt.GPU)
    config = FinetuneConfig(lr=3e-3)
    train_causal_lm(
        model, corpus_batches(corpus, tokenizer, 16, rt.GPU, epochs=2, seed=3), config
    )
    train_causal_lm(
        model, alpaca_batches(alpaca, tokenizer, 16, rt.GPU, epochs=1, seed=4), config
    )
    return model, alpaca


def clone_weights(model, tokenizer, state):
    fresh = build_model(MICRO, vocab_size=tokenizer.vocab_size, seed=0)
    fresh.to(rt.GPU)
    for name, param in fresh.state_dict().items():
        param.copy_(state[name])
    return fresh


def main() -> None:
    world = FactWorld(seed=0)
    tokenizer = WordTokenizer(corpus_vocabulary(world))
    suites = standard_suites(world, n_items=25)

    print("pre-training the fp16 stand-in model...")
    model, alpaca = pretrain(world, tokenizer)
    snapshot = {k: v.numpy().copy() for k, v in model.state_dict().items()}

    fp16_report = evaluate_suites(model, tokenizer, suites, rt.GPU)
    print(f"fp16 mean accuracy: {fp16_report.mean_accuracy:.1f}%")

    # --- RTN 3-bit post-training baseline --------------------------------
    rtn_model = clone_weights(model, tokenizer, snapshot)
    repro.quantize(rtn_model, RTNConfig(bits=3, per_channel=False))
    rtn_report = evaluate_suites(rtn_model, tokenizer, suites, rt.GPU)
    print(f"RTN 3-bit mean accuracy: {rtn_report.mean_accuracy:.1f}%")

    # --- eDKM 3-bit train-time clustering ---------------------------------
    print("fine-tuning with eDKM 3-bit train-time clustering...")
    edkm_model = clone_weights(model, tokenizer, snapshot)
    compressor = ModelCompressor(DKMConfig(bits=3, iters=4))
    compressor.compress(edkm_model)
    pipeline = SavedTensorPipeline(EDKMConfig(group=LearnerGroup(8)))
    result = train_causal_lm(
        edkm_model,
        alpaca_batches(alpaca, tokenizer, 16, rt.GPU, epochs=2, seed=7),
        FinetuneConfig(lr=1e-3),
        pipeline=pipeline,
    )
    print(f"  compression fine-tune loss: "
          f"{result.losses[0]:.3f} -> {result.final_loss:.3f}")
    print(f"  saved-tensor copies avoided by marshaling: "
          f"{pipeline.stats.copies_avoided}, sharded tensors: "
          f"{pipeline.stats.tensors_sharded}")

    edkm_report = evaluate_suites(edkm_model, tokenizer, suites, rt.GPU)
    print(f"eDKM 3-bit mean accuracy: {edkm_report.mean_accuracy:.1f}%")

    # --- palettize and report sizes ---------------------------------------
    report = compressor.finalize(edkm_model)
    fp16_bytes = 2 * sum(p.numel for p in edkm_model.parameters())
    print(f"\npalettized model: {format_bytes(report.total_bytes)} vs fp16 "
          f"{format_bytes(fp16_bytes)} "
          f"({fp16_bytes / report.total_bytes:.1f}x smaller)")

    schemes = paper_schemes()
    print(f"at true LLaMA-7B dimensions this configuration is "
          f"{model_size_gb(LLAMA_7B, schemes['edkm3']):.2f} GB "
          f"(paper: 2.5 GB; fp16: 12.6 GB)")

    print("\nper-suite accuracy (fp16 / RTN-3bit / eDKM-3bit):")
    for name in fp16_report.results:
        print(f"  {name:20s} {fp16_report.results[name].accuracy:5.1f}  "
              f"{rtn_report.results[name].accuracy:5.1f}  "
              f"{edkm_report.results[name].accuracy:5.1f}")


if __name__ == "__main__":
    main()
