"""Soundness certifier: abstract interpretation, contracts, verdicts."""

import json

import pytest

from repro.algorithms import SIGNAL_UDFS
from repro.algorithms.bfs import bottom_up_signal
from repro.algorithms.cc import cc_signal
from repro.algorithms.kcore import kcore_signal
from repro.algorithms.pagerank import pagerank_signal
from repro.analysis.ast_analysis import analyze_parsed, parse_signal
from repro.analysis.kernelspec import (
    COUNT_TO_K_BREAK,
    FIRST_MATCH_BREAK,
    FULL_SCAN_MIN,
    FULL_SCAN_SUM,
    classify_kernel,
)
from repro.analysis.verify import (
    CONTRACTS,
    certify_spec,
    contract_kinds,
    summarize,
    uncontracted_kernels,
    verify_signal,
    verify_slot,
    verify_targets,
)
from repro.analysis.verify.domain import BOOL, FLOAT, INT, NUM, FoldKind
from repro.errors import KernelSoundnessError, VerificationError


def spec_of(fn):
    sig = parse_signal(fn)
    info = analyze_parsed(sig)
    return sig, info, classify_kernel(sig, info)


# -- mutation fixtures: one shape-contract violation each -----------------
# (module scope: the analyzer needs real source)


def broken_first_match_signal(v, nbrs, s, emit):
    # emit is not immediately followed by break
    for u in nbrs:
        if s.frontier[u]:
            emit(u)
        if s.frontier[v]:
            break


def broken_count_signal(v, nbrs, s, emit):
    # the fold is *=, which is not a count
    cnt = 0
    start = cnt
    for u in nbrs:
        if s.active[u]:
            cnt *= 2
            if cnt >= s.k:
                break
    if cnt > start:
        emit(cnt - start)


def broken_sum_signal(v, nbrs, s, emit):
    # full-scan-sum shape with an early break: partial sums diverge
    total = 0.0
    start = total
    for u in nbrs:
        total += s.rank[u] / s.out_degree[u]
        if total > 100.0:
            break
    if total > start:
        emit(total - start)


def broken_min_signal(v, nbrs, s, emit):
    # comparison flipped: computes a max while classified as a min
    best = s.label[v]
    for u in nbrs:
        if s.label[u] > best:
            best = s.label[u]
    if best < s.label[v]:
        emit(best)


# -- guard-polarity fixtures (else branches invert the path condition) ----


def else_branch_max_signal(v, nbrs, s, emit):
    # computes a MAX through the else branch of an inverted test; a
    # scanner that reuses the positive test for the else body would
    # classify this as a min-fold and certify it against full_scan_min
    best = s.label[v]
    for u in nbrs:
        if s.label[u] < best:
            pass
        else:
            best = s.label[u]
    if best < s.label[v]:
        emit(best)  # repro: noqa[cumulative-emit]


def else_branch_break_signal(v, nbrs, s, emit):
    # breaks when the counter has NOT saturated (else of cnt >= s.k)
    cnt = 0
    start = cnt
    for u in nbrs:
        if s.active[u]:
            cnt += 1
        if cnt >= s.k:
            pass
        else:
            break
    if cnt > start:
        emit(cnt - start)


def else_branch_emit_signal(v, nbrs, s, emit):
    # emits when the scan added NOTHING (else of total > start)
    total = 0.0
    start = total
    for u in nbrs:
        total += s.rank[u] / s.out_degree[u]
    if total > start:
        pass
    else:
        emit(total - start)


def while_test_emit_signal(v, nbrs, s, emit):
    # an emit hidden in a while-loop test after the neighbor scan
    total = 0.0
    start = total
    for u in nbrs:
        total += s.rank[u] / s.out_degree[u]
    while emit(total - start):
        pass
    if total > start:
        emit(total - start)


def walrus_header_signal(v, nbrs, s, emit):
    cnt = 0
    start = cnt
    for u in nbrs:
        if (w := s.active[u]) > 0:
            cnt += w
    if cnt > start:
        emit(cnt - start)


# -- determinism fixtures -------------------------------------------------

SHARED_SCRATCH = []


def capture_signal(v, nbrs, s, emit):
    for u in nbrs:
        if u in SHARED_SCRATCH:
            emit(u)
            break


def set_iter_signal(v, nbrs, s, emit):
    for u in nbrs:
        total = sum(s.rank[w] for w in {1, 2, 3})
        if total > s.k:
            emit(total)
            break


def overwrite_slot(v, value, s):
    s.label[v] = value


def floordiv_slot(v, value, s):
    s.total[v] //= value


# -- abstract interpretation ----------------------------------------------


class TestSummarize:
    def test_kcore_types_and_fold(self):
        sig = parse_signal(kcore_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert summary.var_types["cnt"] == INT
        assert summary.fold_of("cnt") == FoldKind.COUNT
        assert summary.order_insensitive("cnt")

    def test_pagerank_sum_fold_is_float(self):
        sig = parse_signal(pagerank_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert summary.var_types["total"] in (FLOAT, NUM)
        assert summary.fold_of("total") == FoldKind.SUM
        assert summary.order_insensitive("total")

    def test_cc_guarded_compare_assign_is_min(self):
        sig = parse_signal(cc_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert summary.fold_of("best") == FoldKind.MIN

    def test_bfs_reads_and_emits(self):
        sig = parse_signal(bottom_up_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert "frontier" in summary.arrays_read()
        assert len(summary.emits) == 1
        assert summary.emits[0].followed_by_break
        assert summary.emits[0].guarded

    def test_state_reads_are_numeric(self):
        sig = parse_signal(pagerank_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert set(summary.arrays_read()) == {"rank", "out_degree"}


# -- corpus certification -------------------------------------------------


class TestCorpusCertifies:
    @pytest.mark.parametrize(
        "fn,kind",
        [
            (bottom_up_signal, FIRST_MATCH_BREAK),
            (kcore_signal, COUNT_TO_K_BREAK),
            (pagerank_signal, FULL_SCAN_SUM),
            (cc_signal, FULL_SCAN_MIN),
        ],
    )
    def test_shape_udfs_certify(self, fn, kind):
        sig, info, spec = spec_of(fn)
        assert spec is not None and spec.kind == kind
        certify_spec(sig, info, spec)  # must not raise

    def test_every_corpus_signal_verdict_is_clean(self):
        for name, fns in sorted(SIGNAL_UDFS.items()):
            for fn in fns:
                verdict = verify_signal(fn, strict=True)
                assert verdict.status in ("certified", "unclassified"), name
                assert not [
                    m for m in verdict.messages if m.level in ("error", "warning")
                ], name

    def test_verify_targets_over_algorithms_exits_zero(self):
        report = verify_targets(["src/repro/algorithms"], strict=True)
        assert report.exit_code == 0
        certified = [v for v in report.verdicts if v.certified]
        assert len(certified) >= 7

    def test_every_registered_kernel_has_a_contract(self):
        assert uncontracted_kernels() == ()
        assert set(contract_kinds()) == set(CONTRACTS)

    def test_registry_gap_is_warning_not_error(self, monkeypatch):
        from repro.kernels import registry as kreg

        monkeypatch.setitem(kreg._REGISTRY, "exotic-scan", object())
        report = verify_targets([])
        assert report.exit_code == 1  # warning-level, matches the message
        (reg,) = [v for v in report.verdicts if v.kind == "registry"]
        assert reg.status == "registry"
        assert not reg.certified
        assert not report.errors
        # the synthetic entry must not inflate the UDF tally
        assert report.summary().startswith("verified 0 UDF(s)")


# -- mutation rejection ---------------------------------------------------


class TestMutationsRejected:
    @pytest.mark.parametrize(
        "broken,pristine,obligation",
        [
            (broken_first_match_signal, bottom_up_signal, "emit-then-break"),
            (broken_count_signal, kcore_signal, "fold-count"),
            (broken_sum_signal, pagerank_signal, "no-break"),
            (broken_min_signal, cc_signal, "fold-min"),
        ],
    )
    def test_broken_udf_refuted_with_program_point(
        self, broken, pristine, obligation
    ):
        _, _, spec = spec_of(pristine)
        sig = parse_signal(broken)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(sig, info, spec)
        exc = exc_info.value
        assert exc.obligation == obligation
        assert "test_verify.py" in exc.program_point
        line = int(exc.program_point.rpartition(":")[2])
        assert line > 0

    def test_certifier_never_trusts_the_classifier(self):
        # the broken min UDF *does* classify (as a max-flavored shape
        # miss -> None, or not at all); certification is against the
        # spec the caller supplies, so a tampered UDF paired with the
        # pristine spec is always caught
        _, _, spec = spec_of(cc_signal)
        sig = parse_signal(broken_min_signal)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError):
            certify_spec(sig, info, spec)

    def test_verdict_for_unsound_udf(self):
        # verify_signal recomputes the classification; a broken UDF that
        # no longer classifies is reported unclassified, never certified
        verdict = verify_signal(broken_sum_signal)
        assert verdict.status != "certified"


# -- guard polarity (else branches, while tests, header walruses) ---------


class TestGuardPolarity:
    def test_else_branch_extremum_is_not_a_min_fold(self):
        sig = parse_signal(else_branch_max_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert summary.fold_of("best") == FoldKind.OVERWRITE
        assert not summary.order_insensitive("best")

    def test_else_branch_max_refuted_against_min_spec(self):
        _, _, spec = spec_of(cc_signal)
        sig = parse_signal(else_branch_max_signal)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(sig, info, spec)
        assert exc_info.value.obligation == "fold-min"

    def test_else_branch_break_fails_saturation_guard(self):
        _, _, spec = spec_of(kcore_signal)
        sig = parse_signal(else_branch_break_signal)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(sig, info, spec)
        assert exc_info.value.obligation == "saturation-guard"

    def test_else_branch_emit_fails_delta_guard(self):
        _, _, spec = spec_of(pagerank_signal)
        sig = parse_signal(else_branch_emit_signal)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(sig, info, spec)
        assert exc_info.value.obligation == "delta-emit"

    def test_else_branch_emit_guard_is_negated_but_still_guarded(self):
        import ast

        sig = parse_signal(else_branch_emit_signal)
        summary = summarize(sig, analyze_parsed(sig))
        (site,) = summary.emits
        assert site.guarded
        guard = site.guards[-1]
        assert isinstance(guard, ast.UnaryOp)
        assert isinstance(guard.op, ast.Not)

    def test_while_test_emit_is_visible(self):
        sig = parse_signal(while_test_emit_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert len(summary.emits) == 2
        assert all(e.region == "post" for e in summary.emits)

    def test_while_test_emit_fails_single_post_emit(self):
        _, _, spec = spec_of(pagerank_signal)
        sig = parse_signal(while_test_emit_signal)
        info = analyze_parsed(sig)
        with pytest.raises(KernelSoundnessError) as exc_info:
            certify_spec(sig, info, spec)
        assert exc_info.value.obligation == "delta-emit"

    def test_walrus_in_loop_header_is_opaque_fold(self):
        sig = parse_signal(walrus_header_signal)
        summary = summarize(sig, analyze_parsed(sig))
        assert summary.fold_of("w") == FoldKind.OPAQUE


# -- determinism rules ----------------------------------------------------


class TestDeterminismRules:
    def test_mutable_capture_flagged(self):
        verdict = verify_signal(capture_signal)
        codes = [m.code for m in verdict.messages]
        assert "mutable-capture" in codes
        msg = next(m for m in verdict.messages if m.code == "mutable-capture")
        assert msg.level == "warning"
        assert "SHARED_SCRATCH" in msg.message

    def test_unordered_iteration_flagged(self):
        verdict = verify_signal(set_iter_signal)
        codes = [m.code for m in verdict.messages]
        assert "unordered-iteration" in codes

    def test_corpus_has_no_determinism_hazards(self):
        for name, fns in sorted(SIGNAL_UDFS.items()):
            for fn in fns:
                codes = [m.code for m in verify_signal(fn).messages]
                assert "mutable-capture" not in codes, name
                assert "unordered-iteration" not in codes, name


# -- strict slot rule -----------------------------------------------------


class TestStrictSlots:
    def test_overwrite_slot_promoted_under_strict(self):
        default = verify_slot(overwrite_slot)
        strict = verify_slot(overwrite_slot, strict=True)
        assert [m.level for m in default.messages] == ["note"]
        assert [m.level for m in strict.messages] == ["warning"]

    def test_non_commutative_augassign_flagged(self):
        verdict = verify_slot(floordiv_slot)
        assert [m.code for m in verdict.messages] == ["non-commutative-slot"]

    def test_strict_report_exit_code(self):
        report = verify_targets([], strict=True)
        report.verdicts.append(verify_slot(overwrite_slot, strict=True))
        assert report.exit_code == 1


# -- session gate and engine gate -----------------------------------------


class TestExecutionGates:
    def test_runconfig_validates_mode(self):
        from repro.api import RunConfig
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            RunConfig(verify="paranoid")

    def test_runconfig_roundtrips_verify(self):
        from repro.api import RunConfig

        cfg = RunConfig(verify="strict")
        assert RunConfig.from_dict(cfg.to_dict()).verify == "strict"

    def test_session_strict_runs_certified_corpus(self):
        from repro.api import RunConfig, Session
        from repro.graph.generators import rmat

        graph = rmat(scale=7, edge_factor=8, seed=3)
        with Session(graph) as session:
            result = session.run(
                RunConfig(engine="symple", algorithm="kcore", verify="strict")
            )
            assert result.simulated_time > 0
            assert ("kcore", "strict") in session._verified

    def test_engine_gate_drops_uncertified_kernel(self):
        from repro.engine import make_engine
        from repro.engine.fastpath import KERNEL
        from repro.graph.generators import rmat

        graph = rmat(scale=7, edge_factor=8, seed=3)
        engine = make_engine("single", graph, verify="strict")
        analyzed = engine.ensure_analyzed(kcore_signal)
        state = engine.new_state()
        state.add_array("active", "float64")
        state.add_scalar("k", 8)
        engine.fastpaths.plan(KERNEL, analyzed.original, state, analyzed)
        # pristine UDF: certification passes, the plan survives the gate
        assert engine.fastpaths.entry(KERNEL, analyzed.original).verdict is True
        # a tampered spec must be refused outright under strict
        _, _, wrong_spec = spec_of(pagerank_signal)
        analyzed.kernel = wrong_spec
        engine.fastpaths.cache.clear()
        with pytest.raises(KernelSoundnessError):
            engine.fastpaths.plan(KERNEL, analyzed.original, state, analyzed)

    def test_executor_parallel_attribute(self):
        from repro.exec import make_executor

        assert make_executor("serial").parallel is False
        with make_executor("process") as ex:
            assert ex.parallel is True


# -- CLI ------------------------------------------------------------------


class TestVerifyCli:
    def test_named_target_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "kcore"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out

    def test_strict_directory_run(self, capsys):
        from repro.cli import main

        assert main(["verify", "src/repro/algorithms", "--strict"]) == 0
        assert "0 unsound" in capsys.readouterr().out

    def test_sarif_output(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "verify.sarif"
        assert main(
            ["verify", "kcore", "--format", "sarif", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "kernel-certified" for r in results)


class TestErrors:
    def test_soundness_error_carries_structure(self):
        err = KernelSoundnessError(
            "emit not numeric", obligation="emit-numeric",
            program_point="x.py:3",
        )
        assert err.obligation == "emit-numeric"
        assert err.program_point == "x.py:3"
        assert "emit-numeric" in str(err) and "x.py:3" in str(err)

    def test_verification_error_is_exported(self):
        assert issubclass(VerificationError, Exception)
