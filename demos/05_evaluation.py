"""Score the engine against hand-aligned gold rows.

Accuracy is counted per character, split by how each choice was made:
the rule share (unambiguous table rows) and the statistical share.
Pass-through characters (spaces, punctuation) sit outside the totals
unless explicitly included.

Run:  python3 demos/05_evaluation.py
"""

import tempfile
from pathlib import Path

from sindhi_translit import data as shipped
from sindhi_translit.evaluation import evaluate, format_report
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import load_inventory
from sindhi_translit.training import (
    WORD_GAP,
    load_aligned,
    save_model,
    train_model,
)

inventory = load_inventory(shipped.inventory_path())
corpus = Path(shipped.demo_corpus_path()).read_text(encoding="utf-8").splitlines()
model = train_model(inventory, corpus, load_aligned(shipped.demo_aligned_path()))
with tempfile.TemporaryDirectory(prefix="sindhi_demo_") as workdir:
    model_path = Path(workdir) / "model.tsv"
    save_model(model, model_path)
    engine = Transliterator(EngineConfig(model=str(model_path)))

gold = load_aligned(shipped.demo_gold_path())
system_rows = []
for pair in gold:
    text = "".join(" " if u == WORD_GAP else u for u in pair.source_units)
    system_rows.append(engine.transliterate_line(text).units)

report = evaluate(system_rows, gold)
print(format_report(report))
print()

# the same run with spaces and punctuation counted as well
included = evaluate(system_rows, gold, include_passthrough=True)
print(f"with pass-through units: {included.total_characters} characters, "
      f"overall {included.overall_accuracy:.2f}%")
print()
print("the CLI wraps this:  translit evaluate --gold ... --end-to-end --model ...")
