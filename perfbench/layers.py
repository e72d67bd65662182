"""The per-layer ledger of a traced run, and the per-layer metrics.

Input: for each phase (``record``, ``predict``, ``serve``) the two passes
``replay.py --trace`` made, untraced then traced.  For each phase and
family the ledger lists every layer's self time per interposer call and
its share of the family's replay wall time; the layers add up to the
calls' measured latency, and the rest of the wall time is the residual
(the replay loop itself).  Tracing overhead compares the two passes'
calls per second.

In ``serve`` the client's round trip is split with each reply's own
timing (``PythiaClient.last_timing``, read after every call): queue and
handler time come from the daemon's ``srv`` echo, the wire is what is
left of the round trip once the client's frame decode is taken out, and
the handler is split into the tracker's cost (measured in-process by the
traced predict pass, per request) and the daemon's own overhead.
"""

from __future__ import annotations

from ledger import Layer, percentile

FAMILIES = ("loop", "irregular")


def _layer(ledger: dict, name: str) -> Layer:
    return ledger.get(name) or Layer()


def _sum(ledgers, name: str) -> Layer:
    out = Layer()
    for ledger in ledgers:
        out.merge(_layer(ledger, name))
    return out


def _mean_us(layer: Layer) -> float:
    return sum(layer.samples) / layer.calls * 1e6 if layer.calls else 0.0


def _self_us(layer: Layer, calls: int) -> float:
    return layer.self_s / calls * 1e6 if calls else 0.0


def _cps(p: dict) -> float:
    return sum(len(lat) for lat in p["lat"].values()) / p["wall"]


def _rows(title: str, rows: list[tuple[str, float]], wall: float, calls: int) -> tuple[list[str], float]:
    """Ledger lines for one family; returns them and the residual (s)."""
    accounted = sum(s for _name, s in rows)
    residual = wall - accounted
    lines = [f"  {title}: {calls} calls, {wall / calls * 1e6:.2f} us/call e2e"]
    for name, s in [*rows, ("residual (e2e - sum of layers)", residual)]:
        lines.append(f"    {name:<34} {s / calls * 1e6:10.3f} us/call {s / wall:7.1%}")
    return lines, residual


def _tracker_s(ledger: dict) -> float:
    return sum(layer.self_s for name, layer in ledger.items() if name.startswith("core.predict."))


def ledger(phases: dict[str, list[dict]]) -> tuple[str, dict]:
    """The printed ledger and ``{metric: (value, unit)}`` of a traced run."""
    out: dict[str, tuple[float, str]] = {}
    lines = ["per-layer ledger (self time per interposer call, share of replay wall time)"]
    _record(phases["record"], lines, out)
    tracker_per_request = _predict(phases["predict"], lines, out)
    _serve(phases["serve"], tracker_per_request, lines, out)
    lines.append("counters")
    lines += [f"  {name:<36} {value:>14.6g} {unit}" for name, (value, unit) in out.items()
              if unit in ("count", "ratio", "bytes")]
    return "\n".join(lines), out


def _overhead(phase: str, plain: dict, traced: dict, lines: list, out: dict) -> None:
    ratio = _cps(plain) / _cps(traced) - 1.0
    out[f"{phase}.tracing_overhead"] = (ratio, "ratio")
    lines.append(f"  tracing overhead: {_cps(plain):.0f} calls/s untraced, "
                 f"{_cps(traced):.0f} traced ({ratio:+.1%})")


def _record(passes: list[dict], lines: list, out: dict) -> None:
    plain, traced = passes
    lines.append("record")
    ledgers = [traced["ledgers"][fam] for fam in FAMILIES]
    calls_all = sum(len(traced["lat"][fam]) for fam in FAMILIES)
    res_all = 0.0
    for fam in FAMILIES:
        led = traced["ledgers"][fam]
        calls = len(traced["lat"][fam])
        rows = [(name, _layer(led, key).self_s) for name, key in (
            ("runtime shim", "runtime.shim"), ("core.oracle", "core.oracle"),
            ("core.record", "core.record"), ("core.events intern", "core.events.intern"),
            ("core.grammar append", "core.grammar.append"))]
        text, res = _rows(fam, rows, traced["spans"][fam], calls)
        lines += text
        res_all += res
        out[f"grammar.{fam}.append_us"] = (_mean_us(_layer(led, "core.grammar.append")), "us")
    fin = traced["ledgers"]["finish"]
    lines.append(f"  finish: {traced['finish_s']:.4f} s")
    for name, key in (("core.oracle finish", "core.oracle.finish"),
                      ("core.record finish", "core.record.finish"),
                      ("core.frozen freeze", "core.frozen.freeze"),
                      ("core.timing replay", "core.timing.replay"),
                      ("core.trace_file save", "core.trace_file.save")):
        lines.append(f"    {name:<34} {_layer(fin, key).self_s:10.4f} s self")
    _overhead("record", plain, traced, lines, out)
    out["record.shim_us"] = (_self_us(_sum(ledgers, "runtime.shim"), calls_all), "us")
    out["record.oracle_us"] = (_self_us(_sum(ledgers, "core.oracle"), calls_all), "us")
    out["record.record_us"] = (_self_us(_sum(ledgers, "core.record"), calls_all), "us")
    out["events.intern_us"] = (_mean_us(_sum(ledgers, "core.events.intern")), "us")
    append = _sum(ledgers, "core.grammar.append")
    out["grammar.append_us"] = (_mean_us(append), "us")
    out["grammar.append_us.p99"] = (percentile(append.samples, 99) * 1e6, "us")
    grammar = traced["grammar"]
    for key in ("rules_created", "exponent_merges", "rules_live"):
        out[f"grammar.{key}"] = (grammar[key], "count")
    out["grammar.rule_survival"] = (grammar["rules_live"] / grammar["rules_created"], "ratio")
    out["frozen.freeze_s"] = (sum(_layer(fin, "core.frozen.freeze").samples), "s")
    out["timing.replay_s"] = (sum(_layer(fin, "core.timing.replay").samples), "s")
    out["trace_file.save_s"] = (sum(_layer(fin, "core.trace_file.save").samples), "s")
    out["trace_file.bytes"] = (traced["bytes"], "bytes")
    out["record.finish_s"] = (plain["finish_s"], "s")
    out["record.residual_us"] = (res_all / calls_all * 1e6, "us")
    _gc(out, "record", plain)


def _predict(passes: list[dict], lines: list, out: dict) -> dict[str, float]:
    """Predict's ledger; returns the tracker's seconds per oracle request."""
    plain, traced = passes
    lines.append("predict")
    ledgers = [traced["ledgers"][fam] for fam in FAMILIES]
    calls_all = sum(len(traced["lat"][fam]) for fam in FAMILIES)
    res_all = 0.0
    tracker_per_request = {}
    for fam in FAMILIES:
        led = traced["ledgers"][fam]
        calls = len(traced["lat"][fam])
        rows = [("runtime shim", _layer(led, "runtime.shim").self_s),
                ("core.oracle", _layer(led, "core.oracle").self_s),
                ("core.events lookup", _layer(led, "core.events.lookup").self_s)]
        rows += [(name.replace("core.predict.", "core.predict "), layer.self_s)
                 for name, layer in sorted(led.items()) if name.startswith("core.predict.")]
        text, res = _rows(fam, rows, traced["spans"][fam], calls)
        lines += text
        res_all += res
        tracker_per_request[fam] = _tracker_s(led) / max(1, _layer(led, "core.oracle").calls)
        tracker = plain["tracker"][fam]
        observed = tracker["observed"]
        out[f"predict.{fam}.hit_rate"] = (tracker["hit_rate"], "ratio")
        out[f"predict.{fam}.matched_ratio"] = (tracker["matched"] / observed, "ratio")
        for key in ("unexpected", "unknown", "pruned"):
            out[f"predict.{fam}.{key}"] = (tracker[key], "count")
        out[f"predict.{fam}.candidates_mean"] = (tracker["candidates_mean"], "count")
        succ = tracker["successor"]
        for key in ("hits", "misses", "evictions", "det_hits", "entries"):
            out[f"successor.{fam}.{key}"] = (succ[key], "count")
        lookups = succ["hits"] + succ["misses"]
        out[f"successor.{fam}.hit_ratio"] = (succ["hits"] / lookups if lookups else 0.0, "ratio")
    load = _layer(traced["ledgers"]["setup"], "core.trace_file.load")
    lines.append(f"  setup: {traced['setup_s']:.4f} s, of which core.trace_file load "
                 f"{sum(load.samples):.4f} s")
    _overhead("predict", plain, traced, lines, out)
    out["trace_file.load_s"] = (sum(load.samples), "s")
    out["predict.shim_us"] = (_self_us(_sum(ledgers, "runtime.shim"), calls_all), "us")
    out["predict.oracle_us"] = (_self_us(_sum(ledgers, "core.oracle"), calls_all), "us")
    out["events.lookup_us"] = (_mean_us(_sum(ledgers, "core.events.lookup")), "us")
    observe = _sum(ledgers, "core.predict.observe")
    out["predict.observe_us"] = (_mean_us(observe), "us")
    out["predict.observe_us.p99"] = (percentile(observe.samples, 99) * 1e6, "us")
    for metric, key in (("predict_d1_us", "core.predict.predict_d1"),
                        ("predict_d16_us", "core.predict.predict_d16"),
                        ("predict_timed_us", "core.predict.predict_timed_d1")):
        out[f"predict.{metric}"] = (_mean_us(_sum(ledgers, key)), "us")
    out["predict.residual_us"] = (res_all / calls_all * 1e6, "us")
    _gc(out, "predict", plain)
    return tracker_per_request


def _serve(passes: list[dict], tracker_per_request: dict[str, float], lines: list,
           out: dict) -> None:
    plain, traced = passes
    lines.append("serve (connection A: loop, connection B: irregular, concurrent)")
    ledgers = [traced["ledgers"][fam] for fam in FAMILIES]
    calls_all = sum(len(traced["lat"][fam]) for fam in FAMILIES)
    res_all = 0.0
    client_own = 0.0
    for fam in FAMILIES:
        led = traced["ledgers"][fam]
        calls = len(traced["lat"][fam])
        total = _layer(led, "server.client.total")
        queue = _layer(led, "server.eventloop.queue")
        handler = _layer(led, "server.daemon.handler")
        decode = _layer(led, "server.protocol.decode")
        requests = total.calls
        tracker_s = tracker_per_request[fam] * requests
        own = _layer(led, "server.client").self_s - (total.self_s - decode.self_s)
        client_own += own
        wire = total.self_s - queue.self_s - handler.self_s
        rows = [("runtime shim", _layer(led, "runtime.shim").self_s),
                ("server.client", own),
                ("server.protocol encode", _layer(led, "server.protocol.encode").self_s),
                ("core.events lookup (client)", _layer(led, "core.events.lookup").self_s),
                ("server.protocol decode", decode.self_s),
                ("wire (excl. decode)", wire - decode.self_s),
                ("server.eventloop queue", queue.self_s),
                ("server.daemon overhead", handler.self_s - tracker_s),
                ("tracker (in-process cost)", tracker_s)]
        text, res = _rows(f"{fam} ({requests} requests)", rows, traced["spans"][fam], calls)
        lines += text
        res_all += res
        per = 1e6 / max(1, requests)
        out[f"serve.{fam}.total_us.p50"] = (percentile(total.samples, 50) * 1e6, "us")
        out[f"serve.{fam}.total_us.p99"] = (percentile(total.samples, 99) * 1e6, "us")
        out[f"serve.{fam}.wire_us"] = (wire * per, "us")
        out[f"serve.{fam}.queue_us"] = (queue.self_s * per, "us")
        out[f"serve.{fam}.handler_us"] = (handler.self_s * per, "us")
        out[f"serve.{fam}.overhead_us"] = ((handler.self_s - tracker_s) * per, "us")
    _overhead("serve", plain, traced, lines, out)
    daemon = plain["daemon"]
    lines.append(f"  daemon: cpu busy {daemon['cpu_busy']:.1%} of the untraced pass, "
                 f"store open {daemon['open_s']:.4f} s")
    out["serve.client_us"] = (client_own / max(1, calls_all) * 1e6, "us")
    out["protocol.encode_us"] = (_mean_us(_sum(ledgers, "server.protocol.encode")), "us")
    out["protocol.decode_us"] = (_mean_us(_sum(ledgers, "server.protocol.decode")), "us")
    out["daemon.cpu_busy"] = (daemon["cpu_busy"], "ratio")
    for key in ("requests_failed", "connections_dropped"):
        out[f"daemon.{key}"] = (sum(p["daemon"][key] for p in passes), "count")
    out["store.open_s"] = (daemon["open_s"], "s")
    out["store.misses"] = (daemon["store_misses"], "count")
    out["serve.residual_us"] = (res_all / calls_all * 1e6, "us")
    # serve is not a gated workload (see README): its end-to-end figures
    # from the untraced pass are kept here, unbounded
    out["serve.setup_s"] = (plain["setup_s"], "s")
    out["serve.calls_per_s"] = (_cps(plain), "calls/s")
    for fam in FAMILIES:
        for q in (50, 99):
            out[f"serve.{fam}.call_us.p{q}"] = (percentile(plain["lat"][fam], q) * 1e6, "us")
    out["serve.peak_rss_mb"] = (plain["peak_rss_mb"], "MB")


def _gc(out: dict, phase: str, p: dict) -> None:
    collections, pause_s = p["gc"]
    for gen, count in enumerate(collections):
        out[f"gc.{phase}.gen{gen}"] = (count, "count")
    out[f"gc.{phase}.pause_ms"] = (pause_s * 1e3, "ms")
