"""Count a corpus, then watch the counts break a tie.

The model is nothing but frequency tables: how often characters follow
each other inside source words, and how often each target letter stood
for each source character in hand-aligned word pairs.  A candidate's
score is the product of its emission ratio and the two neighbour
transition ratios.

Run:  python3 demos/03_train_and_disambiguate.py
"""

import tempfile
from pathlib import Path

from sindhi_translit import data as shipped
from sindhi_translit.ngram import BOUNDARY, bigram_prob, emission_prob
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import load_inventory
from sindhi_translit.training import load_aligned, save_model, train_model

inventory = load_inventory(shipped.inventory_path())
corpus = Path(shipped.demo_corpus_path()).read_text(encoding="utf-8").splitlines()
pairs = load_aligned(shipped.demo_aligned_path())

model = train_model(inventory, corpus, pairs)
print(f"trained on {len(corpus)} lines and {len(pairs)} aligned rows: {model}")
print()

# a few of the ratios the scorer will multiply together
print("some counted ratios:")
for args in [("त", "ा"), (BOUNDARY, "त"), ("ख", "ं")]:
    p = bigram_prob(model, *args)
    print(f"  P({args[1]} | {args[0]})  = {p.numerator}/{p.denominator}")
for target, source in [("ت", "त"), ("ط", "त"), ("ن", "ं"), ("م", "ं")]:
    p = emission_prob(model, target, source)
    print(f"  P({source} | {target})  = {p.numerator}/{p.denominator}")
print()

# the engine reads the model file once, so a throwaway copy will do
with tempfile.TemporaryDirectory(prefix="sindhi_demo_") as workdir:
    model_path = Path(workdir) / "model.tsv"
    save_model(model, model_path)
    engine = Transliterator(EngineConfig(model=str(model_path)))
    print("the model file is plain TSV; it starts:")
    for row in model_path.read_text(encoding="utf-8").splitlines()[:4]:
        print(f"  {row}")
    print()

for line in ["तारो", "खंड", "हिकु"]:
    result = engine.transliterate_line(line, collect_trace=True)
    print(f"{line}  ->  {result.output}")
    for record in result.trace:
        if record.scores is None:
            continue  # rule rows are not interesting here
        scored = ", ".join(
            f"{cand}={score:.4f}"
            for cand, score in zip(record.candidates, record.scores)
        )
        print(f"    {record.source}: {scored}  ->  {record.chosen}"
              f"  ({record.resolution.value})")
