"""End to end: configure once, convert many lines.

Run:  python3 demos/04_full_pipeline.py
"""

import tempfile
from pathlib import Path

from sindhi_translit import data as shipped
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import load_inventory
from sindhi_translit.training import load_aligned, save_model, train_model

# train into a throwaway location; real deployments keep the model file
inventory = load_inventory(shipped.inventory_path())
corpus = Path(shipped.demo_corpus_path()).read_text(encoding="utf-8").splitlines()
model = train_model(inventory, corpus, load_aligned(shipped.demo_aligned_path()))
with tempfile.TemporaryDirectory(prefix="sindhi_demo_") as tmp:
    workdir = Path(tmp)
    save_model(model, workdir / "model.tsv")
    # a config file is just key=value lines; paths resolve against the file
    config_path = workdir / "engine.cfg"
    config_path.write_text("model = model.tsv\nmode = bigram\n", encoding="utf-8")
    engine = Transliterator(EngineConfig.from_file(config_path))

sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()
print(f"{len(sample)} lines through the engine:")
print()
for line in sample[:12]:
    print(f"  {line:<24} {engine.transliterate_line(line).output}")
print("  ...")
print()

# the same thing, counted
units = 0
ambiguous = 0
for line in sample:
    result = engine.transliterate_line(line)
    units += len(result.units)
    ambiguous += sum(1 for u in result.units if u.is_ambiguous)
print(f"{units} units total, {ambiguous} needed the statistical layer")
print()
print("the CLI wraps exactly this:  translit transliterate --model ... -i ...")
