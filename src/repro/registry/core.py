"""Generic component registry: named, self-describing factories.

Every pluggable piece of the simulator -- topologies, routing policies,
placement policies -- is described by a :class:`ComponentSpec`: a name,
a one-line summary, and a tuple of typed :class:`Param` declarations.
A :class:`Registry` maps names (plus optional aliases) to specs and
produces the same key-path error style as the scenario parser
(``topology.k: expected an integer, got 'wide'``), because registry
lookups are driven by hand-written spec files and CLI flags -- error
messages are the user interface.

Concrete component kinds live in :mod:`repro.registry.topologies`,
:mod:`repro.registry.routings` and :mod:`repro.registry.placements`.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any


class RegistryError(ValueError):
    """A registry lookup or parameter resolution failed; the message
    names the offending key path and lists the valid alternatives."""


def _err(path: str, problem: str) -> RegistryError:
    where = f"{path}: " if path else ""
    return RegistryError(f"{where}{problem}")


def key_path(path: str, key: str) -> str:
    """``key`` under the table at ``path`` (``"jobs[2]"`` -> ``"jobs[2].nranks"``)."""
    return f"{path}.{key}" if path else key


#: Sentinel for parameters without a default (rarely used: most
#: component parameters take their defaults from a scale preset).
REQUIRED = object()

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Param:
    """One typed parameter of a component, or one key of a scenario table.

    ``kind`` is one of ``"int"``, ``"float"`` (finite), ``"str"``,
    ``"bool"``, ``"int_list"`` (a TOML/JSON array of integers, e.g. torus
    ``dims``), ``"str_list"`` (a string or an array of strings),
    ``"table"``, ``"tables"`` (an array of tables) or ``"name_or_table"``
    (a string ``s``, read as ``{"type": s}``, or a table).  ``exclusive``
    makes ``minimum`` a strict bound.  Only scenario tables
    (:mod:`repro.scenario.spec`) use the last two fields: an ``always``
    key is written even at its default; a ``when = (sibling, value)``
    key applies only while that sibling holds ``value`` -- refused
    elsewhere, always written where it applies.
    """

    name: str
    kind: str
    doc: str = ""
    default: Any = REQUIRED
    minimum: int | float | None = None
    maximum: int | float | None = None
    exclusive: bool = False
    choices: tuple[Any, ...] | None = None
    always: bool = False
    when: tuple[str, Any] | None = None

    _KINDS = ("int", "float", "str", "bool", "int_list", "str_list",
              "table", "tables", "name_or_table")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"param {self.name!r}: unknown kind {self.kind!r}")

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def describe(self) -> str:
        """Human-readable one-liner for help text and ``topologies`` output."""
        out = f"{self.name}: {self.kind}"
        if not self.required:
            out += f" = {self.default!r}"
        if self.doc:
            out += f"  ({self.doc})"
        return out

    def validate(self, value: Any, path: str) -> Any:
        """Coerce/validate one value; raises :class:`RegistryError`."""
        kind = self.kind
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise self._bad(path, "an integer", repr(value))
        elif kind == "float":
            # The bounds are false for nan, and keep an int too large
            # for a double from reaching float().
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise self._bad(path, "a number", repr(value))
            value = float(value)
        elif kind == "str":
            if not isinstance(value, str):
                raise self._bad(path, "a string", repr(value))
        elif kind == "bool":
            if not isinstance(value, bool):
                raise self._bad(path, "true/false", repr(value))
        elif kind == "table":
            if not isinstance(value, Mapping):
                raise self._bad(path, "a table/object", type(value).__name__)
            value = dict(value)
        elif kind == "tables":
            if not isinstance(value, list):
                raise self._bad(path, "an array of tables", type(value).__name__)
        elif kind == "str_list":
            value = [value] if isinstance(value, str) else value
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise self._bad(path, "a string or an array of strings", repr(value))
            value = list(value)
        elif kind == "name_or_table":
            value = {"type": value} if isinstance(value, str) else value
            if not isinstance(value, Mapping):
                raise self._bad(path, "a name or a table", repr(value))
            value = dict(value)
        else:  # int_list
            if not isinstance(value, (list, tuple)) or not value or any(
                isinstance(v, bool) or not isinstance(v, int) for v in value
            ):
                raise self._bad(path, "a non-empty array of integers", repr(value))
            value = tuple(int(v) for v in value)
        if self.minimum is not None:
            low = min(value) if kind == "int_list" else value
            if low < self.minimum or (self.exclusive and low == self.minimum):
                bound = ">" if self.exclusive else ">="
                raise _err(key_path(path, self.name),
                           f"must be {bound} {self.minimum}, got {value!r}")
        if self.maximum is not None and value > self.maximum:
            raise _err(key_path(path, self.name),
                       f"must be <= {self.maximum}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise _err(key_path(path, self.name),
                       f"{value!r} is not one of {list(self.choices)}")
        return value

    def _bad(self, path: str, expected: str, got: str) -> RegistryError:
        return _err(key_path(path, self.name), f"expected {expected}, got {got}")


@dataclass(frozen=True)
class ComponentSpec:
    """Base class for registered components: name, summary, typed params."""

    name: str
    summary: str
    params: tuple[Param, ...] = ()

    def param(self, name: str) -> Param | None:
        for p in self.params:
            if p.name == name:
                return p
        return None

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def validate_params(
        self, data: Mapping[str, Any], path: str = "", kind: str = "component"
    ) -> dict[str, Any]:
        """Validate explicitly supplied parameters (no default filling).

        Used where presets supply the baseline values and ``data`` only
        carries overrides; :meth:`resolve_params` additionally fills in
        defaults and enforces required parameters.
        """
        out: dict[str, Any] = {}
        for key, value in data.items():
            p = self.param(key)
            if p is None:
                expected = ", ".join(self.param_names()) or "(none)"
                raise _err(
                    key_path(path, key),
                    f"unknown parameter {key!r} for {kind} {self.name!r}; "
                    f"expected one of: {expected}",
                )
            out[key] = p.validate(value, path)
        return out

    def resolve_params(
        self, data: Mapping[str, Any], path: str = "", kind: str = "component"
    ) -> dict[str, Any]:
        """Validate ``data`` and fill defaults; required params must appear."""
        out = self.validate_params(data, path, kind)
        for p in self.params:
            if p.name in out:
                continue
            if p.required:
                raise _err(path, f"missing required parameter {p.name!r} "
                                 f"for {kind} {self.name!r}")
            out[p.name] = p.default
        return out


@dataclass
class Registry:
    """Ordered name -> spec mapping with alias support.

    Iteration and :meth:`names` preserve registration order, which the
    harness relies on for stable sweep/report ordering.
    """

    kind: str
    _specs: dict[str, ComponentSpec] = field(default_factory=dict)
    _aliases: dict[str, str] = field(default_factory=dict)

    def register(self, spec: ComponentSpec, aliases: tuple[str, ...] = (),
                 replace: bool = False) -> ComponentSpec:
        key = spec.name.lower()
        if not replace and (key in self._specs or key in self._aliases):
            raise ValueError(
                f"{self.kind} {spec.name!r} is already registered; "
                "pass replace=True to overwrite"
            )
        self._specs[key] = spec
        for alias in aliases:
            self._aliases[alias.lower()] = key
        return spec

    def canonical(self, name: str) -> str:
        key = name.lower()
        return self._aliases.get(key, key)

    def get(self, name: str, path: str = "") -> ComponentSpec:
        if not isinstance(name, str):
            raise _err(path, f"expected a {self.kind} name (string), got {name!r}")
        key = self.canonical(name)
        spec = self._specs.get(key)
        if spec is None:
            raise _err(path, f"unknown {self.kind} {name!r}; "
                             f"available: {list(self._specs)}")
        return spec

    def split_table(self, table: Mapping[str, Any],
                    path: str = "") -> tuple[ComponentSpec, dict[str, Any]]:
        """Resolve a canonical ``{"type": name, ...params}`` table into
        the named spec and the remaining, not yet validated, parameters."""
        rest = dict(table)
        name = rest.pop("type", None)
        where = key_path(path, "type")
        if name is None:
            raise _err(where, f"missing 'type' key naming the {self.kind}; "
                              f"available: {list(self._specs)}")
        return self.get(name, path=where), rest

    def names(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    def __contains__(self, name: str) -> bool:
        return self.canonical(name) in self._specs

    def __iter__(self):
        return iter(self._specs.values())
