"""Online drift detection: is the live execution still the reference one?

PYTHIA's tolerance machinery (§II-B2, §III-E) is deliberately silent:
an unexpected event reweights candidates, an unknown event loses the
tracker, a restart re-acquires it — and the consumer only notices once
hit-rate has already cratered.  A :class:`DriftMonitor` watches the
*signals* of that machinery online and raises a typed alarm instead:

- **EWMA hit-rate** of scored predictions,
- **unseen-event ratio** (events absent from the reference grammar),
- **resync rate** (restarts + lost→resync transitions per event),
- **candidate-set entropy** (how ambiguous the tracker's position is),

each compared against a :class:`DriftBaseline` — either the optimistic
default (perfect oracle) or one captured from a reference replay with
:func:`baseline_from_replay`.  A small state machine classifies the gap
(``OK → DRIFTING → DIVERGED``, with hysteresis on the way back down),
emitting ``pythia_drift_*`` gauges, a structured log event, a journal
entry + auto-dump on the session's flight recorder, and registered
callbacks — the OpenMP thread-count policy uses one to fall back to
default thread counts while DIVERGED.

Cost model: the monitor is *not* fed per event.  The tracker's hot path
already compares its observation count with its counter clock;
attaching a monitor sets that clock to the watcher cadence
(:data:`~repro.core.predict.WATCH_EVERY`, 32) and the tracker hands
:meth:`DriftMonitor.update` one counter **delta** per boundary — the
matched fast path pays zero additional work per event.  While the state
is OK and a window saw no anomalies the tracker stretches the feed to
every 4th boundary; any unexpected restart or unknown event snaps it
back, so a switch is still classified within two windows (see
``bench_obs_overhead.py``).  The monitor keeps no reference to a
tracker, and flight recorders read its :attr:`state` rather than a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.predict import PythiaPredict
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = [
    "OK",
    "DRIFTING",
    "DIVERGED",
    "STATE_CODES",
    "DriftBaseline",
    "DriftMonitor",
    "baseline_from_replay",
]

OK = "ok"
DRIFTING = "drifting"
DIVERGED = "diverged"

#: gauge encoding of the states (and their severity ordering)
STATE_CODES = {OK: 0, DRIFTING: 1, DIVERGED: 2}
_STATE_NAMES = (OK, DRIFTING, DIVERGED)

#: state transitions remembered by :meth:`DriftMonitor.report`
MAX_TRANSITIONS = 64

_log = get_logger("drift")


@dataclass(frozen=True, slots=True)
class DriftBaseline:
    """Expected steady-state signal levels, from the reference replay.

    The default is the optimistic baseline (perfect oracle): right for
    regular applications, pessimistic for irregular ones — capture a
    real one with :func:`baseline_from_replay` when the reference
    execution itself predicts imperfectly (Quicksilver-style grammars).
    """

    hit_rate: float = 1.0
    unseen_ratio: float = 0.0
    resync_rate: float = 0.0
    entropy: float = 0.0

    def to_obj(self) -> dict:
        return {
            "hit_rate": self.hit_rate,
            "unseen_ratio": self.unseen_ratio,
            "resync_rate": self.resync_rate,
            "entropy": self.entropy,
        }

    @staticmethod
    def from_obj(obj: dict) -> "DriftBaseline":
        return DriftBaseline(
            hit_rate=obj.get("hit_rate", 1.0),
            unseen_ratio=obj.get("unseen_ratio", 0.0),
            resync_rate=obj.get("resync_rate", 0.0),
            entropy=obj.get("entropy", 0.0),
        )


class DriftMonitor:
    """OK → DRIFTING → DIVERGED alarm over the tracker's drift signals.

    Attach with :meth:`~repro.core.predict.PythiaPredict.attach_drift`;
    one monitor may be shared by several trackers (per-thread sessions
    of one process) — each tracker feeds its own deltas, the alarm state
    is shared.  Thresholds are ``(drifting, diverged)`` pairs measured as
    the gap from the baseline; recovery requires ``recover_after``
    consecutive calmer classifications (hysteresis against flapping).
    """

    __slots__ = (
        "baseline",
        "alpha",
        "hit_drop",
        "unseen",
        "resync",
        "entropy_rise",
        "recover_after",
        "gauge_every",
        "state",
        "events",
        "updates",
        "hit_ewma",
        "unseen_ewma",
        "resync_ewma",
        "entropy_ewma",
        "transitions",
        "callbacks",
        "_calm_streak",
        "_floor_hit_1",
        "_floor_hit_2",
        "_ceil_unseen_1",
        "_ceil_unseen_2",
        "_ceil_resync_1",
        "_ceil_resync_2",
        "_ceil_entropy_1",
        "_ceil_entropy_2",
        "__weakref__",
    )

    def __init__(
        self,
        baseline: DriftBaseline | None = None,
        *,
        alpha: float = 0.4,
        hit_drop: tuple[float, float] = (0.15, 0.40),
        unseen: tuple[float, float] = (0.10, 0.35),
        resync: tuple[float, float] = (0.10, 0.35),
        entropy_rise: tuple[float, float] = (1.0, 3.0),
        recover_after: int = 3,
        gauge_every: int = 8,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.baseline = baseline if baseline is not None else DriftBaseline()
        self.alpha = alpha
        self.hit_drop = hit_drop
        self.unseen = unseen
        self.resync = resync
        self.entropy_rise = entropy_rise
        self.recover_after = recover_after
        self.gauge_every = gauge_every
        self.state = OK
        self.events = 0
        self.updates = 0
        self.hit_ewma = self.baseline.hit_rate
        self.unseen_ewma = self.baseline.unseen_ratio
        self.resync_ewma = self.baseline.resync_rate
        self.entropy_ewma = self.baseline.entropy
        self.transitions: list[dict] = []
        self.callbacks: list = []
        self._calm_streak = 0
        # thresholds as absolute signal levels (baseline is fixed at
        # construction), so the steady-state update is four comparisons
        base = self.baseline
        self._floor_hit_1 = base.hit_rate - hit_drop[0]
        self._floor_hit_2 = base.hit_rate - hit_drop[1]
        self._ceil_unseen_1 = base.unseen_ratio + unseen[0]
        self._ceil_unseen_2 = base.unseen_ratio + unseen[1]
        self._ceil_resync_1 = base.resync_rate + resync[0]
        self._ceil_resync_2 = base.resync_rate + resync[1]
        self._ceil_entropy_1 = base.entropy + entropy_rise[0]
        self._ceil_entropy_2 = base.entropy + entropy_rise[1]

    # ------------------------------------------------------------------

    def on_transition(self, callback):
        """Register ``callback(old_state, new_state, snapshot_dict)``.

        Called on every state transition; exceptions are logged and
        swallowed (an observer must not take the tracker down).
        Returns the callback, so it can be used as a decorator.
        """
        self.callbacks.append(callback)
        return callback

    def update(self, tracker, delta: tuple) -> None:
        """Consume one block's counter ``delta`` (``observed > 0``) from
        :meth:`~repro.core.predict.PythiaPredict.feed_watchers`.

        ``tracker`` is read for its candidates and its flight recorder
        (which journals a transition), never kept.
        """
        observed = delta[0]
        alpha = self.alpha
        d_hits = delta[4]
        d_scored = d_hits + delta[5]
        hit_ewma = self.hit_ewma
        if d_scored:
            hit_ewma += alpha * (d_hits / d_scored - hit_ewma)
            self.hit_ewma = hit_ewma
        ratio = delta[3] / observed
        unseen_ewma = self.unseen_ewma
        unseen_ewma += alpha * ((ratio if ratio < 1.0 else 1.0) - unseen_ewma)
        self.unseen_ewma = unseen_ewma
        ratio = delta[6] / observed
        resync_ewma = self.resync_ewma
        resync_ewma += alpha * ((ratio if ratio < 1.0 else 1.0) - resync_ewma)
        self.resync_ewma = resync_ewma
        cands = tracker.candidates
        if len(cands) > 1:
            entropy = 0.0
            for w in cands.values():
                if w > 0.0:
                    entropy -= w * math.log2(w)
        else:
            entropy = 0.0
        entropy_ewma = self.entropy_ewma
        entropy_ewma += alpha * (entropy - entropy_ewma)
        self.entropy_ewma = entropy_ewma
        self.events += observed
        self.updates += 1
        if (
            hit_ewma > self._floor_hit_1
            and unseen_ewma < self._ceil_unseen_1
            and resync_ewma < self._ceil_resync_1
            and entropy_ewma < self._ceil_entropy_1
        ):
            # clearly calm: skip the classify/advance calls entirely when
            # already OK — this is every tick of a healthy session
            if self.state is OK:
                self._calm_streak = 0
            else:
                self._advance(0, tracker.flight)
        else:
            self._advance(self._classify(), tracker.flight)
        if self.updates % self.gauge_every == 0:
            self._publish()

    # ------------------------------------------------------------------

    def _classify(self) -> int:
        if (
            self.hit_ewma <= self._floor_hit_2
            or self.unseen_ewma >= self._ceil_unseen_2
            or self.resync_ewma >= self._ceil_resync_2
            or self.entropy_ewma >= self._ceil_entropy_2
        ):
            return 2
        if (
            self.hit_ewma <= self._floor_hit_1
            or self.unseen_ewma >= self._ceil_unseen_1
            or self.resync_ewma >= self._ceil_resync_1
            or self.entropy_ewma >= self._ceil_entropy_1
        ):
            return 1
        return 0

    def _advance(self, level: int, flight) -> None:
        code = STATE_CODES[self.state]
        if level > code:
            # escalate immediately: an alarm must not wait out hysteresis
            self._calm_streak = 0
            self._transition(_STATE_NAMES[level], flight)
        elif level < code:
            self._calm_streak += 1
            if self._calm_streak >= self.recover_after:
                self._calm_streak = 0
                self._transition(_STATE_NAMES[level], flight)
        else:
            self._calm_streak = 0

    def _transition(self, new: str, flight) -> None:
        """Enter ``new``; ``flight`` (the triggering tracker's recorder, or
        None) journals the transition and dumps."""
        old = self.state
        self.state = new
        snapshot = self.snapshot()
        if len(self.transitions) < MAX_TRANSITIONS:
            self.transitions.append({"from": old, "to": new, **snapshot})
        _log.info(
            "drift_transition",
            old=old,
            new=new,
            events=self.events,
            hit_rate=round(self.hit_ewma, 4),
            unseen=round(self.unseen_ewma, 4),
            resync=round(self.resync_ewma, 4),
            entropy=round(self.entropy_ewma, 4),
        )
        self._publish()
        if flight is not None:
            flight.mark_transition(old, new, snapshot)
            flight.dump()
        for callback in self.callbacks:
            try:
                callback(old, new, snapshot)
            except Exception as exc:  # observer bugs must not kill tracking
                _log.info(
                    "drift_callback_error", callback=repr(callback), error=str(exc)
                )

    def _publish(self) -> None:
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        registry.gauge(
            "pythia_drift_state", help="Drift state (0=ok, 1=drifting, 2=diverged)"
        ).set(STATE_CODES[self.state])
        registry.gauge(
            "pythia_drift_hit_rate", help="EWMA prediction hit-rate"
        ).set(self.hit_ewma)
        registry.gauge(
            "pythia_drift_unseen_ratio",
            help="EWMA ratio of events unseen in the reference",
        ).set(self.unseen_ewma)
        registry.gauge(
            "pythia_drift_resync_rate", help="EWMA restarts + resyncs per event"
        ).set(self.resync_ewma)
        registry.gauge(
            "pythia_drift_entropy", help="EWMA candidate-set entropy (bits)"
        ).set(self.entropy_ewma)

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current signal levels as a JSON-safe dict."""
        return {
            "state": self.state,
            "state_code": STATE_CODES[self.state],
            "events": self.events,
            "updates": self.updates,
            "hit_rate_ewma": self.hit_ewma,
            "unseen_ewma": self.unseen_ewma,
            "resync_ewma": self.resync_ewma,
            "entropy_ewma": self.entropy_ewma,
        }

    def report(self) -> dict:
        """Snapshot + baseline + transition history (JSON-safe); the
        experiment harness attaches this next to ``accuracy_report``."""
        out = self.snapshot()
        out["baseline"] = self.baseline.to_obj()
        out["transitions"] = list(self.transitions)
        return out


def baseline_from_replay(
    grammar,
    events,
    *,
    timing=None,
    distance: int = 1,
    predict_every: int = 1,
    max_candidates: int = 64,
    alpha: float = 0.4,
) -> DriftBaseline:
    """Capture a :class:`DriftBaseline` by replaying reference events.

    Drives a fresh tracker over ``events`` (terminal ids, e.g. the
    stream the reference grammar was recorded from), predicting every
    ``predict_every`` events at ``distance``, and returns the lifetime
    signal levels — what a live run *matching the reference* should
    sustain.  Entropy is the EWMA a monitor with the same ``alpha``,
    fed at the tracker's cadence, would have settled on.
    """
    tracker = PythiaPredict(grammar, timing, max_candidates=max_candidates)
    probe = DriftMonitor(alpha=alpha)
    tracker.attach_drift(probe)
    count = 0
    for terminal in events:
        tracker.observe(terminal)
        count += 1
        if predict_every and count % predict_every == 0:
            tracker.predict(distance)
    tracker.feed_watchers()  # absorb the tail block
    accuracy = tracker.accuracy
    scored = accuracy.hits + accuracy.misses
    observed = tracker.observed
    return DriftBaseline(
        hit_rate=accuracy.hits / scored if scored else 1.0,
        unseen_ratio=tracker.unknown / observed if observed else 0.0,
        resync_rate=(
            (accuracy.resyncs + accuracy.unexpected_restarts) / observed
            if observed
            else 0.0
        ),
        entropy=probe.entropy_ewma,
    )
