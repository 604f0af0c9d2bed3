"""Network file I/O.

Networks are described by a JSON document with three top-level keys:

``buses``
    list of ``{"id": int, "kind": "generator"|"load", "m_hat": float,
    "d_hat": float}``; generator entries may carry per-bus bound
    overrides ``m_lb``/``m_ub``/``d_lb``/``d_ub``, and load entries may not.
``lines``
    list of ``{"from": id, "to": id, "b": susceptance > 0}``.
``defaults``
    global bound values plus an optional ``ref_bus`` id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .netmodel import LOAD, Bus, DeviceParams, Line, NetworkSpec

DEFAULT_BOUNDS = {"m_lb": 0.0, "m_ub": 1.0, "d_lb": 0.0, "d_ub": 1.0}


@dataclass(frozen=True)
class NetworkDocument:
    """Parsed network file: the bus/line spec plus bound defaults."""

    spec: NetworkSpec
    defaults: dict[str, float] = field(default_factory=dict)
    bus_bounds: dict[int, dict[str, float]] = field(default_factory=dict)
    ref_bus: int | None = None


def bundled_network_path() -> Path:
    """Filesystem path of the twelve-bus dataset shipped with the package."""
    path = resources.files("vsmtune").joinpath("data/twelve_bus.json")
    return Path(str(path))


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ValidationError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _convert(value, kind, key: str, context: str):
    """``kind(value)``, or a ValidationError naming the entry and the key.

    Only JSON numbers convert: a boolean or a string is rejected, a fractional
    number given for an ``int`` is not truncated, and a non-finite float fails.
    """
    try:
        if isinstance(value, (bool, str)):
            raise TypeError(value)
        converted = kind(value)
        if kind is int and isinstance(value, float) and converted != value:
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{context}: {key!r} must be {noun}, got {value!r}") from None
    if kind is float and not math.isfinite(converted):
        raise ValidationError(f"{context}: {key!r} must be a finite number, got {value!r}")
    return converted


def _entries(doc: dict, key: str, noun: str) -> list[dict]:
    entries = _require(doc, key, "network document")
    if not isinstance(entries, list):
        raise ValidationError(f"network document: {key!r} must be a list, got {entries!r}")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{noun} entry {k}: must be a JSON object, got {entry!r}")
    return entries


def _bounds(mapping: dict, context: str) -> dict[str, float]:
    return {k: _convert(mapping[k], float, k, context) for k in DEFAULT_BOUNDS if k in mapping}


def parse_network(doc: dict) -> NetworkDocument:
    """Build a validated NetworkDocument from a decoded JSON object."""
    if not isinstance(doc, dict):
        raise ValidationError("network document must be a JSON object")

    buses = []
    bus_bounds: dict[int, dict[str, float]] = {}
    for k, raw in enumerate(_entries(doc, "buses", "bus")):
        entry = f"bus entry {k}"
        bus_id = _convert(_require(raw, "id", entry), int, "id", entry)
        context = f"bus {bus_id}"
        kind = str(_require(raw, "kind", context))
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                m_hat=_convert(raw.get("m_hat", 0.0), float, "m_hat", context),
                d_hat=_convert(raw.get("d_hat", 0.0), float, "d_hat", context),
            )
        )
        overrides = _bounds(raw, context)
        if overrides:
            if kind == LOAD:
                raise ValidationError(f"load bus {bus_id} carries bounds {sorted(overrides)}; "
                                      "static loads have no coefficients to bound")
            bus_bounds[bus_id] = overrides

    lines = []
    for k, raw in enumerate(_entries(doc, "lines", "line")):
        context = f"line entry {k}"
        lines.append(
            Line(
                from_bus=_convert(_require(raw, "from", context), int, "from", context),
                to_bus=_convert(_require(raw, "to", context), int, "to", context),
                b=_convert(_require(raw, "b", context), float, "b", context),
            )
        )

    spec = NetworkSpec(buses=tuple(buses), lines=tuple(lines))

    raw_defaults = doc.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        raise ValidationError(
            f"network document: 'defaults' must be a JSON object, got {raw_defaults!r}"
        )
    defaults = {**DEFAULT_BOUNDS, **_bounds(raw_defaults, "defaults")}
    ref_bus = raw_defaults.get("ref_bus")
    if ref_bus is not None:
        ref_bus = _convert(ref_bus, int, "ref_bus", "defaults")
        if ref_bus not in spec.generator_ids:
            raise ValidationError(f"defaults.ref_bus {ref_bus} is not a generator bus")
    return NetworkDocument(spec=spec, defaults=defaults, bus_bounds=bus_bounds, ref_bus=ref_bus)


def load_network(path: str | Path) -> NetworkDocument:
    """Read and parse a network JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read network file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"network file {path} is not valid JSON: {exc}") from exc
    return parse_network(doc)


def serialize_network(doc: NetworkDocument) -> dict:
    """Inverse of parse_network; round-trips the NetworkSpec exactly."""
    buses = []
    for bus in doc.spec.buses:
        entry: dict = {"id": bus.id, "kind": bus.kind}
        if bus.kind == "generator":
            entry["m_hat"] = bus.m_hat
            entry["d_hat"] = bus.d_hat
        entry.update(doc.bus_bounds.get(bus.id, {}))
        buses.append(entry)
    lines = [{"from": ln.from_bus, "to": ln.to_bus, "b": ln.b} for ln in doc.spec.lines]
    defaults = dict(doc.defaults)
    if doc.ref_bus is not None:
        defaults["ref_bus"] = doc.ref_bus
    return {"defaults": defaults, "buses": buses, "lines": lines}


def device_params(
    doc: NetworkDocument,
    gen_ids: tuple[int, ...],
    bounds_override: dict[str, float] | None = None,
) -> DeviceParams:
    """Assemble DeviceParams for the reduced generator ordering.

    Bound precedence: ``bounds_override`` (e.g. from the command line)
    replaces everything; otherwise per-bus overrides sit on top of the
    file defaults. Decision vectors start at the box midpoint.
    """
    by_id = {b.id: b for b in doc.spec.buses}
    n = len(gen_ids)
    bounds = {k: np.empty(n) for k in DEFAULT_BOUNDS}
    m_hat = np.empty(n)
    d_hat = np.empty(n)
    for i, gid in enumerate(gen_ids):
        bus = by_id[gid]
        m_hat[i] = bus.m_hat
        d_hat[i] = bus.d_hat
        for key in DEFAULT_BOUNDS:
            if bounds_override is not None:
                bounds[key][i] = bounds_override[key]
            else:
                per_bus = doc.bus_bounds.get(gid, {})
                bounds[key][i] = per_bus.get(key, doc.defaults[key])
    m0 = 0.5 * (bounds["m_lb"] + bounds["m_ub"])
    d0 = 0.5 * (bounds["d_lb"] + bounds["d_ub"])
    return DeviceParams(
        m_hat=m_hat,
        d_hat=d_hat,
        m=m0,
        d=d0,
        m_lb=bounds["m_lb"],
        m_ub=bounds["m_ub"],
        d_lb=bounds["d_lb"],
        d_ub=bounds["d_ub"],
    )
