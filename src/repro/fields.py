"""Config field rows: what one configuration field accepts.

``repro.api.FIELDS`` is the table of rows for
:class:`~repro.api.RunConfig`.  This module sits below every layer
that declares rows (the engine's ``SympleOptions``, fault-plan events),
so none of them imports the API to check a value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

from repro.errors import EngineError, ReproError
from repro.graph.csr import is_integer

__all__ = ["Field", "Rule", "check", "check_fields"]


@dataclass(frozen=True)
class Rule:
    """When a field applies: a config where ``holds(config)`` is false
    is refused with ``error(why(config))``."""

    holds: Callable[[Any], bool]
    why: Callable[[Any], str]
    error: Type[ReproError] = EngineError


@dataclass(frozen=True)
class Field:
    """One row of a config field table.

    ``type`` is ``int``, ``float`` (finite), ``bool``, ``str``,
    ``tuple`` (a non-empty sequence of non-negative integer vertex ids,
    stored as a tuple of ints) or the class of a nested block, whose
    rows are ``fields``.  A row with ``choices`` (a tuple, or a callable
    read when used) takes one of them.  An ``int`` is at least ``low``; a ``float`` lies
    strictly above it.  A ``live`` row is an attachment (a tracer): any
    value, never serialized or served.  ``served_max`` bounds what a
    served query may name.
    """

    type: Any = None
    choices: Union[Tuple[Any, ...], Callable[[], Tuple[Any, ...]]] = ()
    low: Optional[float] = None
    optional: bool = False
    rules: Tuple[Rule, ...] = ()
    served_max: Optional[int] = None
    live: bool = False
    fields: Optional[Dict[str, "Field"]] = None

    def options(self) -> Tuple[Any, ...]:
        """The choices this row accepts."""
        return self.choices() if callable(self.choices) else self.choices


def check(name: str, row: Field, value: Any,
          error: Type[ReproError] = EngineError) -> Any:
    """``value`` if ``row`` accepts it (vertex ids come back as a tuple
    of ints); otherwise raises ``error`` naming the field."""
    kind = row.type
    if row.live or (value is None and row.optional):
        return value
    if row.choices:
        choices = row.options()
        if value in choices:
            return value
        raise error(f"unknown {name} {value!r}; expected one of {choices}")
    low = row.low
    if kind is int:
        if is_integer(value) and (low is None or value >= low):
            return value
        need = "an integer" + ("" if low is None else f" >= {low}")
    elif kind is float:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if real and math.isfinite(value) and (low is None or value > low):
            return value
        need = "a finite number" + ("" if low is None else f" > {low}")
    elif kind is tuple:
        try:
            ids = tuple(value)
        except TypeError:
            ids = ()
        if ids and all(is_integer(v) and v >= 0 for v in ids):
            return tuple(map(int, ids))
        need = "a non-empty sequence of non-negative integer vertex ids"
    elif isinstance(value, kind):  # bool, str, a nested block
        return value
    else:
        need = f"a {kind.__name__}"
    raise error(f"{name} must be {need}, got {value!r}")


def check_fields(obj: Any, rows: Dict[str, Field], prefix: str = "") -> None:
    """Check each field of dataclass ``obj`` against its row (storing
    normalized values), then every row's rules.  A rule refusing with a
    narrower error than :class:`EngineError` (a valid config the
    algorithm cannot run) goes last, so a plain misconfiguration is
    reported first."""
    for name, row in rows.items():
        value = getattr(obj, name)
        checked = check(prefix + name, row, value)
        if checked is not value:
            object.__setattr__(obj, name, checked)
    rules = [rule for row in rows.values() for rule in row.rules]
    for rule in sorted(rules, key=lambda rule: rule.error is not EngineError):
        if not rule.holds(obj):
            raise rule.error(rule.why(obj))
