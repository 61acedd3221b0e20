"""Analysis reports: human-readable explain plus lint writers.

`explain_signal` renders what the analyzer found and what the
instrumenter generated — the Python analogue of inspecting the
source-to-source output of the paper's clang tool (Figure 5).

The lint writers serialize a list of
:class:`~repro.analysis.rules.LintMessage` findings — a
:class:`~repro.analysis.verify.VerifyReport`'s, for ``repro verify``:
compiler-style text, a stable JSON shape for scripting, and SARIF
2.1.0 for code-scanning UIs (one run, one ``repro-lint`` driver, rule
metadata taken from the registry docstrings).
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Union

from repro.analysis.ast_analysis import analyze_signal
from repro.analysis.instrument import AnalyzedSignal, instrument_signal
from repro.analysis.rules import LintMessage, iter_rules
from repro.analysis.slotspec import MIN_FOLD_RULE, min_fold_pair

__all__ = ["explain_signal", "render_text", "render_json", "render_sarif"]


def explain_signal(signal: Union[Callable, AnalyzedSignal]) -> str:
    """Describe a signal UDF's dependency structure and instrumentation."""
    if isinstance(signal, AnalyzedSignal):
        analyzed = signal
        info = signal.info
    else:
        info = analyze_signal(signal)
        analyzed = instrument_signal(signal) if info.has_dependency else None

    lines = []
    lines.append("SympleGraph UDF analysis")
    lines.append("========================")
    lines.append(f"neighbor loop found : {info.has_neighbor_loop}")
    if info.has_neighbor_loop:
        lines.append(f"loop variable       : {info.loop_var}")
        lines.append(f"neighbors parameter : {info.nbrs_param}")
    lines.append(f"control dependency  : {info.has_break} (break in loop)")
    lines.append(
        "data dependency     : "
        + (", ".join(info.carried_vars) if info.carried_vars else "none")
    )
    if not info.has_dependency:
        lines.append("verdict             : no loop-carried dependency;")
        lines.append("                      runs unmodified on every engine")
        return "\n".join(lines)

    lines.append("verdict             : loop-carried dependency detected;")
    lines.append("                      " + (
        MIN_FOLD_RULE if min_fold_pair(analyzed)
        else "dependency propagation enabled"
    ))
    if analyzed is not None and analyzed.instrumented_source:
        lines.append("")
        lines.append("instrumented UDF (generated):")
        lines.append("-" * 40)
        lines.append(analyzed.instrumented_source)
    return "\n".join(lines)


# -- lint writers ------------------------------------------------------


def render_text(messages: Iterable[LintMessage]) -> str:
    """Compiler-style one-line-per-finding text output."""
    lines = []
    for m in messages:
        lines.append(f"{m.location}: {m.level}[{m.code}]: {m.message}")
    return "\n".join(lines)


def render_json(messages: Iterable[LintMessage]) -> str:
    """Stable JSON array of findings, one object per message."""
    payload = [
        {
            "code": m.code,
            "level": m.level,
            "message": m.message,
            "path": m.path,
            "line": m.lineno,
            "function": m.func,
        }
        for m in messages
    ]
    return json.dumps(payload, indent=2)


# SARIF reserves "error"/"warning"/"note" as result levels — ours map 1:1.
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(messages: Iterable[LintMessage]) -> str:
    """SARIF 2.1.0 log with one run and the full rule catalog.

    Rule metadata (short description = the rule's registered
    rationale) is emitted for every registered rule plus any ad-hoc
    codes present in the findings (``analysis-error``/``load-error``),
    so viewers can resolve every ``ruleId``.
    """
    messages = list(messages)
    rules = {
        spec.code: {
            "id": spec.code,
            "shortDescription": {"text": spec.doc.splitlines()[0] if spec.doc else spec.code},
            "fullDescription": {"text": spec.doc or spec.code},
            "defaultConfiguration": {"level": spec.level},
        }
        for spec in iter_rules()
    }
    for m in messages:
        rules.setdefault(
            m.code,
            {
                "id": m.code,
                "shortDescription": {"text": m.code},
                "defaultConfiguration": {"level": m.level},
            },
        )
    results = []
    for m in messages:
        result = {
            "ruleId": m.code,
            "level": m.level,
            "message": {"text": m.message},
        }
        if m.path and m.lineno:
            result["locations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": m.path},
                        "region": {"startLine": m.lineno},
                    }
                }
            ]
        results.append(result)
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": sorted(rules.values(), key=lambda r: r["id"]),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
