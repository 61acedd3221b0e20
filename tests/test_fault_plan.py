"""FaultPlan construction, validation, and JSON round-trips."""

from __future__ import annotations

import pytest

from repro.errors import FaultPlanError
from repro.fault import CrashFault, FaultPlan, MessageFault, StragglerFault


def full_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        crashes=(
            CrashFault(machine=2, iteration=3, step=1),
            CrashFault(machine=0, iteration=7),
        ),
        stragglers=(
            StragglerFault(machine=1, factor=4.0, start=2, end=5),
            StragglerFault(machine=3, factor=2.0),
        ),
        messages=(
            MessageFault(kind="drop", rate=0.25, tag="update"),
            MessageFault(kind="delay", rate=0.5, tag=None, delay=80.0),
            MessageFault(kind="duplicate", rate=0.1, tag="sync"),
            MessageFault(kind="drop", rate=0.2, tag="dep"),
        ),
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_round_trip(self, tmp_path):
        plan = full_plan()
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_empty_plan_round_trip(self):
        plan = FaultPlan(seed=5)
        assert plan.empty
        loaded = FaultPlan.from_json(plan.to_json())
        assert loaded == plan and loaded.seed == 5

    def test_seed_defaults_to_zero(self):
        assert FaultPlan.from_dict({"events": []}).seed == 0


class TestValidation:
    def test_negative_crash_machine(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(CrashFault(machine=-1, iteration=0),))

    def test_negative_crash_iteration(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(CrashFault(machine=0, iteration=-2),))

    def test_straggler_speedup_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(stragglers=(StragglerFault(machine=0, factor=0.5),))

    def test_straggler_empty_window(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(
                stragglers=(
                    StragglerFault(machine=0, factor=2.0, start=4, end=4),
                )
            )

    def test_unknown_message_kind(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(messages=(MessageFault(kind="scramble", rate=0.1),))

    def test_rate_out_of_range(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(messages=(MessageFault(kind="drop", rate=1.5),))

    def test_unknown_tag(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(messages=(MessageFault(kind="drop", rate=0.1, tag="x"),))

    def test_cluster_fit(self):
        plan = FaultPlan(crashes=(CrashFault(machine=7, iteration=0),))
        plan.validate(num_machines=8)  # fits
        with pytest.raises(FaultPlanError):
            plan.validate(num_machines=4)

    def test_from_dict_rejects_unknown_event(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": 0, "events": [{"kind": "nope"}]})

    def test_from_dict_rejects_missing_field(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(
                {"seed": 0, "events": [{"kind": "crash", "machine": 1}]}
            )

    @pytest.mark.parametrize("payload", [
        {"events": [{"kind": "crash", "machine": 1.7, "iteration": 0}]},
        {"events": [{"kind": "crash", "machine": 1, "iteration": "2"}]},
        {"events": [{"kind": "straggler", "machine": 0, "factor": "nan"}]},
        {"events": [{"kind": "crash", "machine": 1, "iteration": 0,
                     "stepp": 1}]},
        {"seed": 0, "crashes": [{"machine": 1, "iteration": 0}]},
    ], ids=["float-machine", "string-iteration", "string-nan-factor",
            "misspelt-key", "unknown-top-level-key"])
    def test_from_dict_refuses_what_it_used_to_coerce_or_drop(self,
                                                              payload):
        """Never truncated, parsed from a string, or silently dropped:
        each of these would yield a different plan than written."""
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(payload)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")


class TestBuildersAndDerived:
    def test_single_crash_builder(self):
        plan = FaultPlan.single_crash(machine=3, iteration=5, step=2, seed=9)
        assert plan.crashes == (CrashFault(3, 5, 2),)
        assert plan.seed == 9 and not plan.empty

    def test_dep_loss_builder(self):
        plan = FaultPlan.dep_loss(0.3, seed=4)
        assert plan.messages == (MessageFault("drop", 0.3, tag="dep"),)
        assert plan.dep_loss_rate() == pytest.approx(0.3)

    def test_dep_loss_rate_combines_drops(self):
        plan = FaultPlan(
            messages=(
                MessageFault("drop", 0.5, tag="dep"),
                MessageFault("drop", 0.5),  # all tags, dep included
                MessageFault("drop", 0.9, tag="update"),  # not dep
                MessageFault("delay", 0.9),  # not a drop
            )
        )
        assert plan.dep_loss_rate() == pytest.approx(0.75)

    def test_straggler_window(self):
        fault = StragglerFault(machine=0, factor=2.0, start=2, end=4)
        assert [fault.active(i) for i in range(5)] == [
            False, False, True, True, False,
        ]
        open_ended = StragglerFault(machine=0, factor=2.0, start=1)
        assert not open_ended.active(0) and open_ended.active(100)

    def test_message_fault_applies(self):
        assert MessageFault("drop", 0.1).applies("update")
        assert MessageFault("drop", 0.1, tag="sync").applies("sync")
        assert not MessageFault("drop", 0.1, tag="sync").applies("update")
