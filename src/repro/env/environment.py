"""A gym-style control surface over the stepwise simulation session.

:class:`SimulationEnv` turns any scenario spec into an episodic
environment: ``reset(seed)`` builds a fresh
:class:`~repro.union.session.SimulationSession` from the spec,
``step(action)`` advances the simulation one decision window and
returns ``(observation, reward, done, info)``, and ``result()``
reduces the finished episode through the **same** reduction as
``union-sim scenario`` -- so a scripted-baseline episode reproduces the
monolithic run's result JSON bit for bit (modulo the episode's own
``env`` record).

Actions select which control policy answers the session's decision
hooks (admission / placement / routing) during the *next* window:

``keep``
    No-op: the currently active policy keeps deciding.
``scripted`` / ``load-aware``
    Switch the active policy (resolved through the ``policy`` registry
    family) from the next decision on.
``defer``
    Reject any arrival that lands in the next window.  Deferral is
    rejection in this runtime -- the launch decision fires once, so a
    deferred job reports ``not started`` with the policy named in the
    reason -- exactly like the ``admission`` policy's verdicts.

The reward is the negative delta of a cumulative cost signal (the
running mean message latency over measured jobs by default), so the
episode return is minus the final cost: maximizing return minimizes
the cost, and every reward is finite by construction.

There is deliberately no Gymnasium dependency: the spaces are the
lightweight descriptions in :mod:`repro.env.spaces`, and the ``step``
tuple follows the classic 4-tuple API.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Mapping

from repro.env.spaces import BoxSpace, DiscreteSpace, observation_names
from repro.scenario.runner import (
    ScenarioResult,
    build_manager,
    build_scenario_topology,
    reduce_scenario_result,
)
from repro.scenario.spec import (
    EnvEntry,
    ScenarioSpec,
    entry_dict,
    load_scenario,
    parse_env_table,
    parse_scenario,
)
from repro.union.policy import (
    AdmissionRequest,
    ControlPolicy,
    PlacementRequest,
    RoutingRequest,
)
from repro.union.session import Observation, SimulationSession


def coerce_spec(spec: "ScenarioSpec | Mapping | str | Path") -> ScenarioSpec:
    """Accept a parsed spec, a plain mapping, or a spec file path."""
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, Mapping):
        return parse_scenario(spec)
    return load_scenario(spec)


class _EnvControl(ControlPolicy):
    """The env's switchable delegate policy.

    Wraps the episode's configured base policy; :meth:`apply` retargets
    the hooks at the policy an action named, for the decisions of the
    next window.  Mirrors the base policy's ``scripted`` flag so a
    scripted-baseline episode keeps the bit-identical static placement
    path.
    """

    def __init__(self, base: ControlPolicy) -> None:
        super().__init__()
        self.base = base
        self.active = base
        self.name = f"env:{base.name}"
        self.scripted = base.scripted
        self.defer_window = False
        self._modes: dict[str, ControlPolicy] = {base.name: base}

    def bind(self, session) -> None:
        super().bind(session)
        for mode in self._modes.values():
            mode.bind(session)

    def apply(self, label: str) -> None:
        """Retarget the hooks per the action label (``keep``/``defer``/
        a policy name); deferral covers exactly one window."""
        self.defer_window = False
        if label == "keep":
            return
        if label == "defer":
            self.defer_window = True
            return
        if label not in self._modes:
            from repro.registry import build_policy

            mode = build_policy(label)
            if self.session is not None:
                mode.bind(self.session)
            self._modes[label] = mode
        self.active = self._modes[label]

    # -- hooks: delegate to the active mode --------------------------------
    def admit(self, req: AdmissionRequest) -> bool:
        if self.defer_window and req.arrival > 0:
            return False
        return self.active.admit(req)

    def place(self, req: PlacementRequest) -> list[int] | None:
        return self.active.place(req)

    def route(self, req: RoutingRequest) -> str | None:
        return self.active.route(req)


class SimulationEnv:
    """Episodic step/observe/act interface over one scenario.

    Configuration comes from the spec's ``[env]`` table, overridable
    per instance (``policy``/``window``/``reward`` keyword arguments);
    plain scenarios without an ``[env]`` table run with the defaults
    (scripted policy, horizon/8 window, ``avg_latency`` reward).
    """

    #: Action labels, in action-index order.
    ACTIONS = ("keep", "scripted", "load-aware", "defer")

    def __init__(
        self,
        spec: "ScenarioSpec | Mapping | str | Path",
        policy: "str | Mapping | None" = None,
        window: float | None = None,
        reward: str | None = None,
    ) -> None:
        self.spec = coerce_spec(spec)
        given = {"policy": policy, "window": window, "reward": reward}
        cfg = parse_env_table({**entry_dict(self.spec.env or EnvEntry()),
                               **{k: v for k, v in given.items() if v is not None}},
                              self.spec.horizon)
        self.policy_table = dict(cfg.policy)
        self.window = cfg.window if cfg.window is not None else self.spec.horizon / 8
        self.reward_kind = cfg.reward
        self.action_space = DiscreteSpace(self.ACTIONS)
        topo = build_scenario_topology(self.spec)
        self.observation_space = BoxSpace(observation_names(topo.n_routers))
        self._session: SimulationSession | None = None
        self._run_spec: ScenarioSpec = self.spec
        self._control: _EnvControl | None = None
        self._done = False
        self._cost = 0.0
        self._total_reward = 0.0
        self._step_log: list[dict[str, Any]] = []

    # -- episode lifecycle -------------------------------------------------
    def reset(self, seed: int | None = None) -> Observation:
        """Build a fresh session (optionally reseeded) and observe it.

        Every reset wires a brand-new manager/fabric/session -- the
        engines underneath are single-use -- so episodes are fully
        independent and reproducible from ``(spec, seed)``.
        """
        spec = self.spec
        if seed is not None and seed != spec.seed:
            spec = dataclasses.replace(spec, seed=seed)
        self._run_spec = spec
        from repro.registry import build_policy

        self._control = _EnvControl(build_policy(dict(self.policy_table)))
        mgr = build_manager(spec)
        self._session = mgr.session(self._control).build()
        self._done = False
        self._cost = 0.0
        self._total_reward = 0.0
        self._step_log = []
        return self._session.observe()

    def step(self, action: "int | str | None" = None
             ) -> tuple[Observation, float, bool, dict[str, Any]]:
        """Apply ``action`` to the next window and advance one window.

        ``action`` is an index into :attr:`action_space`, a label, or
        ``None`` for ``keep``.  Returns the classic 4-tuple
        ``(observation, reward, done, info)``.
        """
        if self._session is None:
            raise RuntimeError("call reset() before step()")
        if self._done:
            raise RuntimeError("episode is done; call reset() to start a new one")
        assert self._control is not None
        label = self.ACTIONS[self.action_space.index(
            "keep" if action is None else action)]
        self._control.apply(label)
        horizon = self._run_spec.horizon
        target = min(self._session.engine.now + self.window, horizon)
        self._session.step(target)
        obs = self._session.observe()
        cost = self._episode_cost()
        reward = -(cost - self._cost)
        self._cost = cost
        self._total_reward += reward
        # Episode ends at the horizon, or early once every job reached a
        # terminal state (endless background injectors run to the
        # horizon, so they never trigger the early exit).
        self._done = obs.clock >= horizon or all(
            state in ("finished", "skipped") for state in obs.job_states.values()
        )
        if self._done:
            self._session.finalize()
        info = {
            "action": label,
            "policy": self._control.active.name,
            "clock": obs.clock,
            "events": obs.events,
            self.reward_kind: cost,
        }
        self._step_log.append(
            {"action": label, "clock": obs.clock, "reward": reward})
        return obs, reward, self._done, info

    def result(self) -> ScenarioResult:
        """Reduce the finished episode to a :class:`ScenarioResult`.

        Identical to the ``union-sim scenario`` reduction (same job
        rows, link summary, metrics sinks) plus the episode's ``env``
        record (policy, window, per-step rewards).
        """
        if self._session is None or not self._done:
            raise RuntimeError("episode is not done; run it to completion "
                               "(step() until done) before result()")
        res = reduce_scenario_result(self._run_spec, self._session.finalize())
        res.env = {
            "policy": dict(self.policy_table),
            "window": self.window,
            "reward": self.reward_kind,
            "steps": len(self._step_log),
            "total_reward": self._total_reward,
            "step_log": [dict(s) for s in self._step_log],
        }
        return res

    # -- reward ------------------------------------------------------------
    def _episode_cost(self) -> float:
        """The cumulative cost signal so far (always finite).

        ``avg_latency``: mean message latency across every message the
        measured (non-background) jobs have received so far.
        ``comm_time``: the worst per-rank blocked-in-MPI time over
        measured jobs.
        """
        assert self._session is not None and self._session.mpi is not None
        measured = {j.name for j in self._session.manager.jobs
                    if not j.background}
        results = [r for r in self._session.mpi.results()
                   if r.name in measured]
        if self.reward_kind == "comm_time":
            return max((r.max_comm_time() for r in results), default=0.0)
        total = n = 0.0
        for r in results:
            lats = r.all_latencies()
            total += sum(lats)
            n += len(lats)
        return total / n if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("done" if self._done
                 else "running" if self._session is not None else "new")
        return (f"<SimulationEnv {self.spec.name!r} {state}: "
                f"policy {self.policy_table['type']!r}, "
                f"window {self.window:g}s, reward {self.reward_kind}>")
