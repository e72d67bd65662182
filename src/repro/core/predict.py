"""PYTHIA-PREDICT: tracking the execution and predicting its future.

The tracker maintains a weighted set of candidate progress sequences
(§II-B).  In the common deterministic case the set has a single complete
chain and :meth:`PythiaPredict.observe` is a cheap exact step; after a
mid-stream attach or an unexpected event the set holds several weighted
partial chains that narrow down as events confirm them (the paper's
example: four occurrences of ``b``, reduced to two after a ``c``).

:meth:`PythiaPredict.predict` simulates the future from a copy of the
candidates (§II-C): it advances ``distance`` steps without observation,
aggregates the weight mass per terminal, and reports the most probable
event — optionally with an estimated delay from the timing table.

By default the tracker runs on the grammar's shared
:class:`~repro.core.successor.SuccessorMachine`.  The in-sync observe
step, each step of the deterministic ``predict`` walk and the singleton
step of the simulation are one
:meth:`~repro.core.successor.SuccessorMachine.deterministic_next` call
each: a step inside the bottom rule's body is computed from the
machine's per-position table and stored nowhere, any other
deterministic step is read from its deterministic table (computed and
stored once).  Every other expansion is memoized per chain, and
:meth:`PythiaPredict.observe_and_predict` fuses the dominant
runtime-system call pattern (submit an event, then immediately ask
about the future) so the expansion a ``predict`` leaves in the cache
is the one the next ``observe`` consumes.  Pass
``compiled=False`` for the uncached reference traversal — both paths
perform identical float operations and produce byte-identical
predictions and statistics.

The compiled tracker also memoizes its non-deterministic predictions.
When the deterministic walk does not answer, a prediction is a pure
function of the tracker state: the candidate items in insertion order
(they fix the float-sum order and ``max()``'s tie-break), the distance
and whether an eta is estimated.  :meth:`PythiaPredict.predict` keeps
each such answer in a per-tracker memo keyed on exactly that and
simulates only on a miss; a hit is counted and scored like any other
prediction.  The memo holds at most :data:`_SIM_MEMO_ITEMS` candidate
items summed over its keys and is cleared when full.  ``explain``,
``predict_sequence`` and ``compiled=False`` always simulate.  A returned
:class:`Prediction` may therefore be handed out again: predictions are
shared value objects that callers must not mutate (``distribution``
included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter, sub

from repro.core.explain import EventExplanation, Explanation, SourceChain
from repro.core.frozen import FrozenGrammar
from repro.core.progress import (
    END,
    Chain,
    start_chains,
    successors,
    successors_rel,
    terminal_of,
)
from repro.core.timing import TimingTable
from repro.obs import metrics as obs_metrics
from repro.obs.accuracy import AccuracyTracker

__all__ = ["Prediction", "PythiaPredict"]

#: the tracker's clock publishes its counters and samples its candidate
#: count once per this many observations (the hot path only bumps plain
#: ints; readers call :meth:`PythiaPredict.flush_metrics`)
METRICS_FLUSH_EVERY = 1024

#: the watcher cadence: a tracker feeds its flight recorder and drift
#: monitor one counter delta every this many observations
WATCH_EVERY = 32

#: the cadence while the drift monitor reports OK: every 4th boundary
#: (any anomaly pulls the next feed back to the next boundary, so a
#: workload switch is classified within two windows)
_CALM_EVERY = 4 * WATCH_EVERY

#: the counter families a tracker publishes, as ``(name, help)``, in the
#: order :meth:`PythiaPredict.flush_metrics` reads their values
METRIC_FAMILIES: tuple[tuple[str, str], ...] = (
    ("pythia_predict_observe_total", "Events observed by PYTHIA-PREDICT trackers"),
    ("pythia_predict_matched_total", "Observed events that matched an expectation"),
    ("pythia_predict_unexpected_total", "Observed events that mismatched (restart)"),
    ("pythia_predict_unknown_total", "Observed events absent from the reference run"),
    ("pythia_predict_predictions_total", "Future-event predictions served"),
    ("pythia_predict_pruned_total", "Candidate chains dropped by pruning"),
    ("pythia_predict_hits_total", "Predictions whose target event matched"),
    ("pythia_predict_misses_total", "Predictions whose target event mismatched"),
    ("pythia_predict_lost_total", "Tracker transitions into the lost state"),
    ("pythia_predict_resyncs_total", "Tracker re-acquisitions after being lost"),
)

#: bound on the per-tracker timing-estimate memo (cleared when full)
_ETA_CACHE_MAX = 16384

#: bound on the per-tracker prediction memo, in candidate items summed
#: over its stored states (cleared when full)
_SIM_MEMO_ITEMS = 4096

_MISSING = object()
_WEIGHT = itemgetter(1)


@dataclass(frozen=True, slots=True)
class Prediction:
    """Outcome of one oracle query.

    ``terminal is None`` means "the reference execution ends here".
    ``eta`` is the estimated delay (same unit as recorded timestamps)
    until the predicted event, or ``None`` when no timing data exists.
    """

    terminal: int | None
    probability: float
    eta: float | None = None
    distribution: dict[int | None, float] = field(default_factory=dict)


class PythiaPredict:
    """Oracle side of PYTHIA: follows events, answers future queries.

    Parameters
    ----------
    grammar:
        Frozen grammar of the reference execution.
    timing:
        Optional duration table (enables ``eta`` in predictions).
    max_candidates:
        Cap on tracked candidate chains; lowest-weight candidates are
        pruned first (the paper tracks "all the possible sequences" —
        unbounded in theory, capped here for robustness).
    min_weight:
        Candidates below this fraction of total weight are dropped.
    compiled:
        Use the grammar's shared successor machine and memoize
        non-deterministic predictions per tracker state (the default).
        ``False`` selects the uncached reference traversal, which is
        byte-identical but recomputes every expansion and prediction.

    ``grammar``, ``timing``, ``max_candidates`` and ``min_weight`` are
    fixed once the tracker is built: the prediction memo keys on the
    candidate state alone, so changing any of them afterwards would
    return answers computed under the old settings.  Returned
    :class:`Prediction` objects are shared value objects (the memo and
    the deterministic walk hand the same one out again); callers must
    not mutate them.
    """

    def __init__(
        self,
        grammar: FrozenGrammar,
        timing: TimingTable | None = None,
        *,
        max_candidates: int = 64,
        min_weight: float = 1e-6,
        compiled: bool = True,
    ) -> None:
        self.grammar = grammar
        self.timing = timing
        self.max_candidates = max_candidates
        self.min_weight = min_weight
        self.machine = grammar.machine() if compiled else None
        #: weighted candidate chains; empty means "lost" (no knowledge)
        self.candidates: dict[Chain, float] = {}
        #: statistics a runtime system may want to report
        self.observed = 0
        self.unexpected = 0
        self.unknown = 0
        self.matched = 0
        self.predictions = 0
        #: candidates dropped by weight/cap pruning
        self.pruned = 0
        #: online hit/miss/lost/time-error scoring of every prediction
        self.accuracy = AccuracyTracker()
        self._published = [0] * len(METRIC_FAMILIES)
        #: memo of ``timing.estimate`` per chain — a pure
        #: function of the immutable table, used by both traversal paths
        self._eta_cache: dict[Chain, float | None] = {}
        #: reusable Prediction per terminal for the deterministic walk
        #: (predictions are value objects: callers must not mutate them)
        self._det_pred: dict[int, Prediction] = {}
        #: compiled path only: (candidate items, distance, timed) ->
        #: the prediction _simulate made for that state; the reference
        #: path (None) recomputes every query
        self._sim_memo: dict[tuple, Prediction | None] | None = (
            {} if compiled else None
        )
        #: candidate items summed over the memo's keys (<= _SIM_MEMO_ITEMS)
        self._sim_memo_items = 0
        #: optional observability hooks (see attach_flight / attach_drift).
        #: The matched fast path never touches them: both are fed from
        #: :meth:`_tick`.
        self.flight = None
        self.drift = None
        #: the tracker's one counter clock: :meth:`_tick` runs when
        #: ``observed`` reaches it
        self._due = METRICS_FLUSH_EVERY
        #: counters at the last feed: observed, matched, unexpected,
        #: unknown, hits, misses, resyncs
        self._fed = (0, 0, 0, 0, 0, 0, 0)

    # ------------------------------------------------------------------
    # following the execution (§II-B)
    # ------------------------------------------------------------------

    @property
    def lost(self) -> bool:
        """True when the tracker has no candidate position (no knowledge)."""
        return not self.candidates

    def observe(self, terminal: int, *, now: float | None = None) -> bool:
        """Submit one event; returns True if it matched an expected event.

        On mismatch the tracker restarts from every occurrence of the
        event (tolerance to unexpected events, §II-B2); if the event never
        occurred in the reference execution the tracker becomes *lost*
        and the runtime must fall back to its heuristics until a known
        event shows up.  ``now`` (any monotone clock, e.g. the recorded
        timestamps' unit) feeds the online time-error scoring.  The
        clock (:meth:`_tick`) runs after the event is classified, so a
        feed carries the outcome of every event it counts.
        """
        self.observed += 1
        try:
            machine = self.machine
            cands = self.candidates
            if cands:
                if machine is not None and len(cands) == 1:
                    # in-sync fast path: one deterministic machine step.
                    # A post-prune singleton always carries weight 1.0, so
                    # {next: 1.0} is exactly what the general path computes.
                    chain = next(iter(cands))
                    det = machine.deterministic_next(chain)
                    if det is not None and det[1] == terminal:
                        self.candidates = {det[0]: 1.0}
                        self.matched += 1
                        self.accuracy.note_observation(
                            terminal, matched=True, lost=False, now=now
                        )
                        return True
                matched: dict[Chain, float] = {}
                if machine is not None:
                    for chain, weight in cands.items():
                        for succ, rw, succ_terminal in machine.expand(chain):
                            if succ_terminal == terminal:
                                w = rw if weight == 1.0 else rw * weight
                                matched[succ] = matched.get(succ, 0.0) + w
                else:
                    for chain, weight in cands.items():
                        for succ, w in successors(self.grammar, chain, weight):
                            if succ is END or not succ:
                                continue
                            if terminal_of(self.grammar, succ) == terminal:
                                matched[succ] = matched.get(succ, 0.0) + w
                if matched:
                    self.candidates = self._prune(matched)
                    self.matched += 1
                    self.accuracy.note_observation(terminal, matched=True, lost=False, now=now)
                    return True
                self.unexpected += 1
            restart = (
                machine.start_chains(terminal)
                if machine is not None
                else start_chains(self.grammar, terminal)
            )
            if not restart:
                self.unknown += 1
                self.candidates = {}
                self.accuracy.note_observation(terminal, matched=False, lost=True, now=now)
                self._anomaly("unknown", terminal)
                return False
            agg: dict[Chain, float] = {}
            for chain, w in restart:
                agg[chain] = agg.get(chain, 0.0) + w
            self.candidates = self._prune(agg)
            self.accuracy.note_observation(terminal, matched=False, lost=False, now=now)
            self._anomaly("restart", terminal)
            return False
        finally:
            if self.observed >= self._due:
                self._tick()

    def observe_unknown(self, *, now: float | None = None) -> bool:
        """Submit an event absent from the reference registry.

        The oracle has no information at all: the tracker becomes lost
        and the runtime must rely on its heuristics (§II-B2).  Shared by
        the in-process facade and the daemon so both report identical
        statistics.  Always returns False.
        """
        self.observed += 1
        self.unknown += 1
        self.candidates = {}
        self.accuracy.note_observation(None, matched=False, lost=True, now=now)
        self._anomaly("unknown", None)
        if self.observed >= self._due:
            self._tick()
        return False

    def _anomaly(self, outcome: str, terminal: int | None) -> None:
        """Cold-path hook of a restart or unknown event: a calm stretch
        of the clock ends at its next WATCH_EVERY boundary, and the
        flight recorder journals the event."""
        if self.drift is not None:
            due = self._due
            self._due = due - (due - self.observed) // WATCH_EVERY * WATCH_EVERY
        if self.flight is not None:
            self.flight.anomaly(outcome, terminal, self)

    def _prune_impl(self, cands: dict[Chain, float]) -> tuple[dict[Chain, float], int]:
        """One-pass normalize / filter / cap; returns (kept, dropped).

        Both sums add left to right in plain floats: ``sum()`` of floats
        compensates since Python 3.12, which would make the answer bits
        depend on the interpreter version.
        """
        total = 0.0
        for w in cands.values():
            total += w
        if total <= 0.0:
            return {}, 0
        min_weight = self.min_weight
        items = [(c, q) for c, w in cands.items() if (q := w / total) >= min_weight]
        items.sort(key=_WEIGHT, reverse=True)
        if len(items) > self.max_candidates:
            del items[self.max_candidates :]
        dropped = len(cands) - len(items)
        norm = 0.0
        for _c, q in items:
            norm += q
        return {c: w / norm for c, w in items}, dropped

    def _prune(self, cands: dict[Chain, float]) -> dict[Chain, float]:
        out, dropped = self._prune_impl(cands)
        self.pruned += dropped
        return out

    def _prune_keep_end(self, cands: dict[Chain, float]) -> dict[Chain, float]:
        """Prune like :meth:`_prune` but on a simulation copy: END is a
        normal candidate and drops do not count as tracker pruning."""
        out, _dropped = self._prune_impl(cands)
        return out

    # ------------------------------------------------------------------
    # predicting the future (§II-C)
    # ------------------------------------------------------------------

    def predict(self, distance: int = 1, *, with_time: bool = False) -> Prediction | None:
        """Predict the event that will occur ``distance`` events from now.

        Returns ``None`` when the tracker is lost.  The prediction carries
        the full terminal distribution and, if ``with_time`` and a timing
        table is available, the estimated delay until that event.  Only
        the final step's distribution is materialized — use
        :meth:`predict_sequence` for every intermediate step.  On the
        compiled path a state this tracker already answered is served
        from its prediction memo (see the module docstring).
        """
        machine = self.machine
        cands = self.candidates
        have_time = with_time and self.timing is not None
        if machine is not None and len(cands) == 1 and distance >= 1 and not have_time:
            # deterministic walk: an in-sync tracker predicting ahead is
            # `distance` machine steps.  Each equals one general simulation
            # step on a weight-1.0 singleton (see _simulate's fast path);
            # a branch or END falls back.
            chain, weight = next(iter(cands.items()))
            if weight == 1.0 and chain is not END and chain:
                step = machine.deterministic_next
                nx = None
                for _ in range(distance):
                    nx = step(chain)
                    if nx is None:
                        break
                    chain = nx[0]
                if nx is not None:
                    term = nx[1]
                    self.predictions += 1
                    pred = self._det_pred.get(term)
                    if pred is None:
                        pred = Prediction(
                            terminal=term, probability=1.0, eta=None,
                            distribution={term: 1.0},
                        )
                        self._det_pred[term] = pred
                    self.accuracy.note_prediction(term, distance=distance, eta=None)
                    flight = self.flight
                    if flight is not None:
                        flight.last_distance = distance
                        flight.last_pred = pred
                    return pred
        # the simulation is a pure function of the candidate items in
        # order (they fix the float-sum order and max()'s tie-break),
        # the distance and whether etas are estimated: answer a repeated
        # state from the memo, counted like any other prediction
        memo = self._sim_memo
        key = None
        pred = _MISSING
        if memo is not None and cands:
            key = (tuple(cands.items()), distance, have_time)
            pred = memo.get(key, _MISSING)
        if pred is _MISSING:
            preds = self._simulate(distance, with_time=with_time, collect_all=False)
            pred = None if preds is None else preds[-1]
            if key is not None:
                self._memo_store(key, pred)
        else:
            self.predictions += 1
        if pred is None:
            return None
        self.accuracy.note_prediction(pred.terminal, distance=distance, eta=pred.eta)
        flight = self.flight
        if flight is not None:
            flight.last_distance = distance
            flight.last_pred = pred
        return pred

    def predict_sequence(
        self, distance: int = 1, *, with_time: bool = False
    ) -> list[Prediction] | None:
        """Predict every event from 1 to ``distance`` steps ahead."""
        return self._simulate(distance, with_time=with_time, collect_all=True)

    def explain(
        self,
        distance: int = 1,
        *,
        top_k: int = 3,
        max_sources: int = 8,
        with_time: bool = False,
    ) -> Explanation | None:
        """Provenance of :meth:`predict` for the current tracker state.

        Re-runs the §II-C simulation (same floats as ``predict``, via
        :meth:`_simulate`) but keeps the final candidate set and renders,
        per top-k terminal, the progress sequences backing its
        probability mass — see :mod:`repro.core.explain`.  Read-only:
        no counter moves, no prediction is registered for scoring, so
        an ``explain`` between two ``predict`` calls cannot change any
        statistic.  ``events[0]`` carries exactly the terminal and
        probability ``predict(distance)`` would return; returns ``None``
        when the tracker is lost (as ``predict`` does).  ``deterministic``
        is True when every step was a single successor at weight 1.0,
        whether or not the machine had expanded those chains before.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        candidates_before = len(self.candidates)
        capture: dict = {}
        preds = self._simulate(
            distance,
            with_time=with_time,
            collect_all=False,
            count=False,
            capture=capture,
        )
        if preds is None:
            return None
        pred = preds[-1]
        grammar = self.grammar
        by_term: dict[int | None, list[SourceChain]] = {}
        for chain, weight in capture["cands"].items():
            t = None if (chain is END or not chain) else terminal_of(grammar, chain)
            by_term.setdefault(t, []).append(
                SourceChain(chain=tuple(chain), terminal=t, weight=weight)
            )
        # stable descending sort: among equal masses the first-inserted
        # terminal wins, matching predict()'s max() tie-break exactly
        ordered = sorted(
            pred.distribution.items(), key=lambda kv: kv[1], reverse=True
        )
        events = []
        for t, mass in ordered[:top_k]:
            sources = sorted(by_term.get(t, ()), key=lambda s: s.weight, reverse=True)
            events.append(
                EventExplanation(
                    terminal=t,
                    probability=mass,
                    sources=tuple(sources[:max_sources]),
                    source_count=len(sources),
                )
            )
        return Explanation(
            distance=distance,
            path="compiled" if self.machine is not None else "reference",
            deterministic=capture["deterministic"],
            candidates=candidates_before,
            eta=pred.eta,
            events=tuple(events),
        )

    def _simulate(
        self,
        distance: int,
        *,
        with_time: bool,
        collect_all: bool,
        count: bool = True,
        capture: dict | None = None,
    ) -> list[Prediction] | None:
        """Advance a candidate copy ``distance`` steps without observing.

        With ``collect_all`` a :class:`Prediction` (with its full
        distribution) is built per step; otherwise only for the final
        step — the candidate evolution is identical either way.
        ``count=False`` leaves the ``predictions`` counter untouched
        (:meth:`explain` re-runs the simulation without becoming a new
        oracle query); ``capture`` receives the final candidate set and
        whether every step stayed deterministic.
        """
        if distance < 1:
            raise ValueError("distance must be >= 1")
        if not self.candidates:
            return None
        if count:
            self.predictions += 1
        machine = self.machine
        expand = self._expand_reference if machine is None else machine.expand
        # never mutated in place: every step rebinds to a fresh dict
        cands = self.candidates
        out: list[Prediction] = []
        elapsed = 0.0
        all_det = True
        have_time = with_time and self.timing is not None
        last_step = distance - 1
        for step in range(distance):
            if machine is not None and len(cands) == 1:
                # deterministic fast path: a singleton candidate always
                # carries weight exactly 1.0, so when its transition is
                # deterministic the whole step — advance, prune, weighted
                # eta, distribution — collapses to {next: 1.0} with the
                # same floats the general path below would produce.
                chain, weight = next(iter(cands.items()))
                if weight == 1.0 and chain is not END and chain:
                    det = machine.deterministic_next(chain)
                    if det is not None:
                        succ, term = det
                        cands = {succ: 1.0}
                        if have_time:
                            dt = self._estimate(succ)
                            if dt is not None:
                                elapsed += dt
                        if collect_all or step == last_step:
                            out.append(
                                Prediction(
                                    terminal=term,
                                    probability=1.0,
                                    eta=elapsed if have_time else None,
                                    distribution={term: 1.0},
                                )
                            )
                        continue
            all_det = False
            nxt: dict[Chain, float] = {}
            step_dt = 0.0
            dt_weight = 0.0
            for chain, weight in cands.items():
                if chain is END or not chain:
                    nxt[END] = nxt.get(END, 0.0) + weight
                    continue
                for succ, rw, term in expand(chain):
                    # the floats progress.successors(fg, chain, weight) makes
                    w = rw if weight == 1.0 else rw * weight
                    nxt[succ] = nxt.get(succ, 0.0) + w
                    if have_time and term is not None:
                        dt = self._estimate(succ)
                        if dt is not None:
                            step_dt += w * dt
                            dt_weight += w
            cands = self._prune_keep_end(nxt)
            if not cands:
                return None
            if have_time and dt_weight > 0.0:
                elapsed += step_dt / dt_weight
            if collect_all or step == last_step:
                dist: dict[int | None, float] = {}
                for chain, weight in cands.items():
                    t = None if (chain is END or not chain) else terminal_of(self.grammar, chain)
                    dist[t] = dist.get(t, 0.0) + weight
                best_t, best_w = max(dist.items(), key=_WEIGHT)
                out.append(
                    Prediction(
                        terminal=best_t,
                        probability=best_w,
                        eta=elapsed if have_time else None,
                        distribution=dist,
                    )
                )
        if capture is not None:
            capture["cands"] = cands
            capture["deterministic"] = all_det
        return out

    def _expand_reference(self, chain: Chain):
        """Uncached twin of :meth:`SuccessorMachine.expand
        <repro.core.successor.SuccessorMachine.expand>`: the same
        ``(successor, relative weight, terminal)`` triples, recomputed."""
        grammar = self.grammar
        return [
            (succ, rw, None if succ is END or not succ else terminal_of(grammar, succ))
            for succ, rw in successors_rel(grammar, chain)
        ]

    def _memo_store(self, key: tuple, pred: Prediction | None) -> None:
        """Keep one simulation result within the memo's item budget."""
        size = len(key[0])
        if size > _SIM_MEMO_ITEMS:
            return
        if self._sim_memo_items + size > _SIM_MEMO_ITEMS:
            self._sim_memo.clear()
            self._sim_memo_items = 0
        self._sim_memo[key] = pred
        self._sim_memo_items += size

    def _estimate(self, chain: Chain) -> float | None:
        """Memoized ``timing.estimate`` (the table is immutable)."""
        cache = self._eta_cache
        got = cache.get(chain, _MISSING)
        if got is not _MISSING:
            return got
        value = self.timing.estimate(chain)
        if len(cache) >= _ETA_CACHE_MAX:
            cache.clear()
        cache[chain] = value
        return value

    def predict_duration(self, distance: int = 1) -> float | None:
        """Estimated time until the event ``distance`` steps ahead."""
        pred = self.predict(distance, with_time=True)
        if pred is None:
            return None
        return pred.eta

    # ------------------------------------------------------------------
    # the fused fast path
    # ------------------------------------------------------------------

    def observe_and_predict(
        self,
        terminal: int,
        distance: int = 1,
        *,
        with_time: bool = False,
        now: float | None = None,
        require_match: bool = False,
    ) -> tuple[bool, Prediction | None]:
        """Fused §II-B observe + §II-C predict: the runtime-system loop.

        Semantically identical to :meth:`observe` followed by
        :meth:`predict` (counters and accuracy scoring included), but on
        the compiled machine the expansion this ``predict`` leaves in
        the cache is exactly the one the *next* ``observe`` needs, so a
        steady-state observe/predict loop computes each expansion once
        instead of twice.  With ``require_match`` the predict half is
        skipped after a mismatch (the runtime systems do not trust a
        prediction made right after a resync, §III-E) and ``None`` is
        returned in its place.
        """
        matched = self.observe(terminal, now=now)
        if require_match and not matched:
            return matched, None
        return matched, self.predict(distance, with_time=with_time)

    # ------------------------------------------------------------------
    # observability hooks (flight recorder / drift monitor)
    # ------------------------------------------------------------------

    def attach_flight(self, flight) -> None:
        """Attach a :class:`~repro.obs.flight.FlightRecorder` (None detaches).

        The recorder journals anomalies (restarts, unknown events) as
        they happen and one run summary per watcher feed; see
        :meth:`_tick` for the cadence, which belongs to the tracker.
        """
        self.flight = flight
        self._retune()

    def attach_drift(self, monitor) -> None:
        """Attach a :class:`~repro.obs.drift.DriftMonitor` (None detaches).

        The monitor consumes the counter delta of every watcher feed
        (see :meth:`_tick`), so the matched fast path pays nothing per
        event beyond the clock's one comparison.  The monitor may be
        shared by several trackers; it keeps no reference to any.
        """
        self.drift = monitor
        self._retune()

    def _retune(self) -> None:
        """Restart the clock at the base cadence of the attached watchers."""
        watched = self.flight is not None or self.drift is not None
        self._due = self.observed + (WATCH_EVERY if watched else METRICS_FLUSH_EVERY)

    def feed_watchers(self) -> None:
        """Hand the counter delta since the last feed to the watchers.

        The delta (observed, matched, unexpected, unknown, hits, misses,
        resyncs) is computed once and passed to the flight recorder, then
        to the drift monitor; a no-op without new events.  A feed that
        crosses a multiple of :data:`METRICS_FLUSH_EVERY` observations
        also samples ``pythia_predict_candidates`` and publishes the
        counters.  :meth:`_tick` calls it; call it to absorb a trailing
        partial block.
        """
        prev = self._fed
        if self.observed == prev[0]:
            return
        acc = self.accuracy
        self._fed = now = (self.observed, self.matched, self.unexpected, self.unknown,
                           acc.hits, acc.misses, acc.resyncs + acc.unexpected_restarts)
        delta = tuple(map(sub, now, prev))
        if self.flight is not None:
            self.flight.tick(self, delta)
        if self.drift is not None:
            self.drift.update(self, delta)
        if now[0] // METRICS_FLUSH_EVERY != prev[0] // METRICS_FLUSH_EVERY:
            obs_metrics.get_registry().histogram(
                "pythia_predict_candidates",
                help="Candidate-chain set size at flush points",
            ).observe(len(self.candidates))
            self.flush_metrics()

    def _tick(self) -> None:
        """The clock, run by the observation that reaches ``_due``.

        It feeds the watchers (:meth:`feed_watchers`) and sets the next
        due count :data:`WATCH_EVERY` observations ahead with a flight
        recorder or a drift monitor attached, METRICS_FLUSH_EVERY ahead
        without.  While the monitor reports OK the next feed is
        :data:`_CALM_EVERY` ahead: a calm run entry covers a longer
        block.  An anomaly pulls ``_due`` back to the next WATCH_EVERY
        boundary, so after a workload switch the monitor sees a
        mostly-anomalous window within two windows (at most 63 events)
        and the journal snaps back to one entry per window.  Reads
        never move the clock.
        """
        self.feed_watchers()
        self._retune()
        drift = self.drift
        if drift is not None and drift.state == "ok":
            self._due += _CALM_EVERY - WATCH_EVERY

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Tracking counters plus the online accuracy report.

        The four original keys (``observed`` / ``unexpected`` /
        ``unknown`` / ``candidates``) are preserved; the rest comes from
        the embedded :class:`~repro.obs.accuracy.AccuracyTracker`.  The
        oracle daemon's per-session ``stats`` op returns exactly this
        dict, so in-process and remote reporting share one shape.
        (Successor-cache counters are deliberately absent: compiled and
        reference trackers must report identical statistics.)
        """
        self.flush_metrics()
        out = {
            "observed": self.observed,
            "unexpected": self.unexpected,
            "unknown": self.unknown,
            "candidates": len(self.candidates),
            "matched": self.matched,
            "predictions": self.predictions,
            "pruned": self.pruned,
        }
        out.update(self.accuracy.report())
        return out

    def flush_metrics(self) -> None:
        """Publish counter deltas to the process metrics registry.

        Idempotent: it publishes what the counters gained since the last
        publish and samples nothing, so :meth:`stats`, the daemon's
        scrape collector and a closing session all call it.  It leaves
        the clock alone; the clock also publishes once per
        :data:`METRICS_FLUSH_EVERY` observations.
        """
        reg = obs_metrics.get_registry()
        if not reg.enabled:
            return
        acc = self.accuracy
        obs_metrics.publish_deltas(
            reg, METRIC_FAMILIES,
            (self.observed, self.matched, self.unexpected, self.unknown,
             self.predictions, self.pruned, acc.hits, acc.misses,
             acc.lost_events, acc.resyncs),
            self._published,
        )
        if self.machine is not None:
            self.machine.flush_metrics()
