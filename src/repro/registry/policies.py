"""Policy registry: session control policies as named, parameterized specs.

The session lifecycle (:mod:`repro.union.session`) exposes its decision
points -- admission, placement, routing selection -- as hooks on a
:class:`~repro.union.policy.ControlPolicy`.  This registry makes those
policies a component family like topologies, routings, placements and
engines: the scenario ``[env]`` table, ``union-sim env --policy`` and
:meth:`WorkloadManager.session` all resolve through one roster:

``scripted``
    The baseline: replay the configured placement/routing draws
    verbatim (bit-identical to the pre-session monolithic run).
``load-aware``
    Place arrivals on the least-loaded routers, read live from the
    session's observation.
``admission``
    Defer launches while fewer than ``min_free`` nodes are free.

Unlike engines, policy factories need no topology at build time -- the
session binds the live state later via ``policy.bind(session)`` -- so
:func:`build_policy` instantiates from the table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.registry.core import ComponentSpec, Param, Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.union.__init__ pulls in the
    # manager, which imports repro.registry -- a module-level import
    # here would close that cycle.
    from repro.union.policy import ControlPolicy


@dataclass(frozen=True)
class PolicySpec(ComponentSpec):
    """One registered control policy.

    ``factory(**params) -> ControlPolicy`` builds a fresh, unbound
    policy instance; ``hooks`` names the decision points the policy
    actually implements (documentation surface for rosters and
    ``docs/env.md``).
    """

    factory: "Callable[..., ControlPolicy] | None" = None
    hooks: tuple[str, ...] = ()

    def build(self, params: "Mapping[str, Any]") -> "ControlPolicy":
        assert self.factory is not None
        return self.factory(**params)


policy_registry = Registry("policy")


def register_policy(spec: PolicySpec, aliases: tuple[str, ...] = (),
                    replace: bool = False) -> PolicySpec:
    """Add a control policy to the roster (``docs/env.md``)."""
    if spec.factory is None:
        raise ValueError(f"policy {spec.name!r} needs a factory")
    policy_registry.register(spec, aliases=aliases, replace=replace)
    return spec


def build_policy(policy: "str | Mapping[str, Any] | ControlPolicy | None",
                 path: str = "policy") -> "ControlPolicy":
    """Resolve a policy argument to a ready :class:`ControlPolicy`.

    Accepts a registry name (``"load-aware"``), a canonical table
    (``{"type": "admission", "min_free": 8}``), a ready instance
    (passed through untouched) or ``None`` for the scripted baseline.
    Unknown names and parameters fail with the registry's key-path
    error.
    """
    from repro.union.policy import ControlPolicy

    if policy is None:
        policy = "scripted"
    if isinstance(policy, ControlPolicy):
        return policy
    spec, table = policy_registry.split_table(
        {"type": policy} if isinstance(policy, str) else policy, path)
    assert isinstance(spec, PolicySpec)
    params = spec.resolve_params(table, path, kind="policy")
    return spec.build(params)


def available_policies() -> tuple[str, ...]:
    return policy_registry.names()


# -- built-in roster ---------------------------------------------------------
# Thin lambdas defer the class imports to first use, keeping this module
# importable from repro.registry.__init__ without touching repro.union.

def _scripted(**params) -> "ControlPolicy":
    from repro.union.policy import ScriptedPolicy

    return ScriptedPolicy(**params)


def _load_aware(**params) -> "ControlPolicy":
    from repro.union.policy import LoadAwarePolicy

    return LoadAwarePolicy(**params)


def _admission(**params) -> "ControlPolicy":
    from repro.union.policy import AdmissionPolicy

    return AdmissionPolicy(**params)


register_policy(PolicySpec(
    name="scripted",
    summary="replay the configured placement/routing draws verbatim "
            "(the baseline; bit-identical to a policy-less run)",
    factory=_scripted,
), aliases=("baseline",))

register_policy(PolicySpec(
    name="load-aware",
    summary="place arrivals on the least-loaded routers, read live from "
            "the session observation",
    factory=_load_aware,
    hooks=("place",),
), aliases=("la",))

register_policy(PolicySpec(
    name="admission",
    summary="defer launches while fewer than min_free nodes are free",
    params=(
        Param("min_free", "int",
              "free nodes that must remain after the launch; arrivals "
              "that would dip below are deferred", default=0, minimum=0),
    ),
    factory=_admission,
    hooks=("admit",),
))
