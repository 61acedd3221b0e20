"""The config field table: every row's type check, drawn from the table.

``repro.api.FIELDS`` is the one place a config field's contract is
written; these tests walk it, so a row added tomorrow is checked with
the bad values of its kind the day it lands.
"""

import dataclasses
import re

import pytest

from repro.api import FIELDS, RunConfig
from repro.errors import EngineError, UnsupportedAlgorithmError
from repro.fault import FaultPlan

#: values no row of a kind accepts (a bool is no count, a float may
#: not be infinite, a vertex id is never truncated)
BAD = {
    int: [1.5, True, "7", None],
    float: [float("inf"), float("-inf"), float("nan"), True, "2.5"],
    bool: ["no", 1, None],
    tuple: [[1.5], ["2"], [True], [], [-1], 3],
}


def _rows():
    for name, row in FIELDS.items():
        for sub, sub_row in (row.fields or {}).items():
            yield f"{name}.{sub}", sub_row
        if not row.live:
            yield name, row


def _cases():
    for name, row in _rows():
        if row.choices:
            values = ["nope", 1]
        elif row.type in BAD:
            values = BAD[row.type]
        else:  # a nested block
            values = ["x", 1]
        for value in values:
            if value is None and row.optional:
                continue
            yield pytest.param(name, value, id=f"{name}={value!r}")


def _payload(name, value):
    """A from_dict payload setting dotted ``name`` to ``value``."""
    block, _, attr = name.rpartition(".")
    return {block: {attr: value}} if block else {name: value}


def test_rows_are_the_dataclass_fields():
    """``to_dict`` walks the dataclass fields and looks rows up."""
    assert list(FIELDS) == [f.name for f in dataclasses.fields(RunConfig)]
    for row in FIELDS.values():
        if row.fields is not None:
            assert list(row.fields) == [
                f.name for f in dataclasses.fields(row.type)
            ]


@pytest.mark.parametrize("name, value", _cases())
def test_each_row_refuses_the_bad_values_of_its_kind(name, value):
    with pytest.raises(EngineError, match=re.escape(name)):
        RunConfig.from_dict(_payload(name, value))


def test_a_misconfiguration_is_reported_before_unsupported():
    """A config that is wrong *and* faulted scc is refused as wrong."""
    with pytest.raises(EngineError) as info:
        RunConfig(algorithm="scc", faults=FaultPlan.dep_loss(0.1),
                  mode="async")
    assert not isinstance(info.value, UnsupportedAlgorithmError)
