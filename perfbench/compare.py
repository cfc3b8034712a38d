"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py OLD.json NEW.json

Records live in `.perfbench/results/`.  Prints each metric of NEW as a
share of OLD, flags an end-to-end metric that got worse by more than its
bound in BENCHMARK.json, and warns when the records were made with different
numpy versions: NEP 19 keeps `Generator` streams stable only within one
numpy release, so their CSVs may differ for that reason alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(old: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    for key in ("numpy", "python", "scipy", "nproc", "cpu_model"):
        if old["env"].get(key) != new["env"].get(key):
            lines.append(f"WARN {key} differs: {old['env'].get(key)} vs {new['env'].get(key)}")
    if old["env"]["seed"] != new["env"]["seed"] or old["env"]["workload"] != new["env"]["workload"]:
        lines.append("WARN the records differ in workload or seed")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name, m in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = m["value"]
        if before is None or after is None:
            lines.append(f"{name}: {before} -> {after} {m['unit']}")
            continue
        ratio = after / before if before else float("nan")
        verdict = ""
        if name in bounds:
            b = bounds[name]
            worse = ratio - 1.0 if b["better"] == "lower" else 1.0 - ratio
            verdict = "  REGRESSION" if worse > b["bound"] else "  ok"
        lines.append(f"{name}: {before:.6g} -> {after:.6g} {m['unit']} ({ratio:.3f}x){verdict}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for line in compare(old, new, spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
