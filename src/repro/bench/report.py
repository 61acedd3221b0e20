"""The paper-result layout: where tables are written and read back.

The paper-table benchmarks persist each table as ``<stem>.txt`` under
:data:`RESULTS_DIR` through :func:`emit` (metric registries beside
them as ``<name>_metrics.json`` through :func:`export_metrics`);
:func:`collect_results` stitches the tables into one report (the basis
for EXPERIMENTS.md's measured numbers), and :func:`results_manifest`
reports which experiments have been regenerated and which are missing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

__all__ = ["EXPECTED_RESULTS", "RESULTS_DIR", "collect_results", "emit",
           "export_metrics", "results_manifest"]

#: ``benchmarks/results`` of the source checkout this package runs from
RESULTS_DIR = str(
    Path(__file__).resolve().parents[3] / "benchmarks" / "results"
)

# experiment id -> result file stem
EXPECTED_RESULTS = {
    "Table 2": "table2",
    "Table 3": "table3",
    "Table 4": "table4",
    "Table 5": "table5",
    "Table 6": "table6",
    "Table 7": "table7",
    "Figure 10": "fig10",
    "Figure 11": "fig11",
    "COST metric": "cost",
    "Threshold ablation": "ablation_threshold",
    "Partition ablation": "ablation_partition",
    "Time breakdown": "breakdown",
}


def _write(filename: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def emit(stem: str, text: str) -> None:
    """Print a paper table and persist it as ``<stem>.txt``."""
    print()
    print(text)
    _write(f"{stem}.txt", text)


def export_metrics(name: str, registry) -> str:
    """Persist a metric registry as ``<name>_metrics.json``.

    Returns the path written, so CI can pick the file up as an
    artifact.
    """
    return _write(f"{name}_metrics.json", registry.export_json_str())


@dataclass(frozen=True)
class Manifest:
    """Which expected results are present on disk."""

    present: Dict[str, str]
    missing: List[str]

    @property
    def complete(self) -> bool:
        return not self.missing


def results_manifest(results_dir: str) -> Manifest:
    """Check the results directory against the expected experiments."""
    present: Dict[str, str] = {}
    missing: List[str] = []
    for name, stem in EXPECTED_RESULTS.items():
        path = os.path.join(results_dir, f"{stem}.txt")
        if os.path.exists(path):
            present[name] = path
        else:
            missing.append(name)
    return Manifest(present=present, missing=missing)


def collect_results(results_dir: str, output_path: str | None = None) -> str:
    """Concatenate all regenerated tables into one report string.

    Writes the report to ``output_path`` when given.  Missing
    experiments are listed at the top so a partial bench run is
    visible.
    """
    manifest = results_manifest(results_dir)
    sections = ["SympleGraph reproduction: collected measurements", "=" * 48]
    if manifest.missing:
        sections.append(
            "MISSING (re-run `pytest benchmarks/ --benchmark-only`): "
            + ", ".join(manifest.missing)
        )
    for name, path in manifest.present.items():
        with open(path, "r", encoding="utf-8") as fh:
            body = fh.read().rstrip()
        sections.append("")
        sections.append(f"## {name}")
        sections.append(body)
    report = "\n".join(sections) + "\n"
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    return report
