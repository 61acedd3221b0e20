"""UDF analysis and instrumentation (the paper's compiler component).

The pipeline: :func:`parse_signal` reads a UDF's source,
:func:`build_cfg` turns the body into a control-flow graph,
:class:`ReachingDefinitions`/:class:`LiveVariables` compute the
dataflow facts, :func:`analyze_signal` derives the loop-carried
dependency from them, :func:`instrument_signal` generates the
dependency-aware variant, and the lint engine
(:func:`lint_signal`/:func:`lint_slot`, extensible via :func:`rule`)
reports hazards the analyzer tolerates but distribution does not.
:func:`classify_kernel`, :func:`classify_slot` and
:func:`classify_push` match a program's three UDFs — pull signal, slot,
push signal — against the shapes the batched fast paths run.
"""

from repro.analysis.ast_analysis import (
    DependencyInfo,
    SignalAst,
    analyze_signal,
    parse_signal,
)
from repro.analysis.cfg import CFG, BasicBlock, Instr, build_cfg
from repro.analysis.dataflow import (
    Definition,
    LiveVariables,
    ReachingDefinitions,
    def_use_chains,
    definitely_assigned_at,
    loop_carried_vars,
)
from repro.analysis.dsl import fold_while
from repro.analysis.instrument import (
    AnalyzedSignal,
    analyze_and_instrument,
    instrument_signal,
)
from repro.analysis.kernelspec import KernelSpec, classify_kernel
from repro.analysis.linter import LintRun, discover_udfs, run_lint
from repro.analysis.properties import (
    CheckResult,
    check_dependency_threading,
    check_no_loop_carried_dependency,
    check_parallel_decomposable,
    check_slot_commutative,
)
from repro.analysis.purity import Effect, signal_effects
from repro.analysis.pushspec import PushSpec, classify_push
from repro.analysis.report import (
    explain_signal,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    LintConfig,
    LintContext,
    LintMessage,
    iter_rules,
    lint_signal,
    lint_slot,
    rule,
)
from repro.analysis.slotspec import SlotSpec, classify_slot

__all__ = [
    "CheckResult",
    "check_slot_commutative",
    "check_no_loop_carried_dependency",
    "check_parallel_decomposable",
    "check_dependency_threading",
    "LintMessage",
    "LintConfig",
    "LintContext",
    "lint_signal",
    "lint_slot",
    "rule",
    "iter_rules",
    "LintRun",
    "run_lint",
    "discover_udfs",
    "DependencyInfo",
    "SignalAst",
    "analyze_signal",
    "parse_signal",
    "CFG",
    "BasicBlock",
    "Instr",
    "build_cfg",
    "Definition",
    "ReachingDefinitions",
    "LiveVariables",
    "def_use_chains",
    "loop_carried_vars",
    "definitely_assigned_at",
    "Effect",
    "signal_effects",
    "AnalyzedSignal",
    "instrument_signal",
    "analyze_and_instrument",
    "KernelSpec",
    "classify_kernel",
    "SlotSpec",
    "classify_slot",
    "PushSpec",
    "classify_push",
    "fold_while",
    "explain_signal",
    "render_text",
    "render_json",
    "render_sarif",
]
