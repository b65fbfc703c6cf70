"""Scenario documents: the single JSON file describing one experiment.

Parsing is fail-closed: unknown keys, wrong types, and violated invariants
are all rejected with an error naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .controllers import CONTROLLER_KINDS, ControllerConfig
from .sim import ClusterParams, ServiceModel
from .workload import SEED_LIMIT, WorkloadSpec, peak_arrivals

SCHEMA_VERSION = 1
_SHOWN_CHARS = 200  # the most of a document value an error message echoes


class ConfigError(ValueError):
    """Invalid scenario document."""


def _shown(text: str) -> str:
    """A document value's text as an error message echoes it: whole when it
    is at most _SHOWN_CHARS characters, else cut there with a marker, so
    that the message stays one short line however large the value."""
    return text if len(text) <= _SHOWN_CHARS else (
        f"{text[:_SHOWN_CHARS]}... ({len(text) - _SHOWN_CHARS} more characters)")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    horizon: float
    workload: WorkloadSpec
    tick: float = 1.0
    seed: int = 0
    repeats: int = 1
    service: ServiceModel = field(default_factory=ServiceModel)
    cluster: ClusterParams = field(default_factory=ClusterParams)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    controllers: tuple[str, ...] = CONTROLLER_KINDS

    def __post_init__(self):
        # the name is a directory under the output directory
        if self.name in ("", ".", "..") \
                or any(c in self.name for c in ("/", "\\", "\0")):
            raise ConfigError(
                f"name: {_shown(repr(self.name))} is not a plain directory"
                " name (not '.' or '..', and without '/', '\\' or NUL)")
        if self.tick <= 0:
            raise ConfigError("tick: must be > 0")
        # the run loop counts both in whole ticks
        for where, value in (("horizon", self.horizon),
                             ("controller.control_interval",
                              self.controller.control_interval)):
            ticks = value / self.tick
            if not (math.isfinite(ticks) and round(ticks) >= 1
                    and abs(ticks - round(ticks)) <= 1e-9):
                raise ConfigError(f"{where}: {value} is not a positive "
                                  f"multiple of tick {self.tick}")
        # every count the run sums stays a float; noise may still push a
        # tick past the bound
        n_ticks = round(self.horizon / self.tick)
        peak = peak_arrivals(self.workload, self.tick)
        if not math.isfinite(peak * n_ticks):
            raise ConfigError(
                f"workload: up to {peak:g} arrivals per tick over {n_ticks} "
                "ticks sum past the float range")
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        if self.seed < 0 or self.seed + self.repeats > SEED_LIMIT:
            raise ConfigError(
                f"seed: seeds {self.seed}..{self.seed + self.repeats - 1} "
                f"must lie in [0, {SEED_LIMIT})")
        for i, kind in enumerate(self.controllers):
            if kind not in CONTROLLER_KINDS:
                raise ConfigError(
                    f"controllers: unknown kind {_shown(repr(kind))}")
            if kind in self.controllers[:i]:
                raise ConfigError(f"controllers: kind {kind!r} repeated")
        if len(self.controllers) < 2:
            raise ConfigError(
                "controllers: need at least two distinct kinds to compare, "
                f"got {', '.join(self.controllers)}")


def _number(where: str, value):
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)) \
                and math.isfinite(value):
            return value
    except OverflowError:  # an int past the float range
        pass
    raise ConfigError(
        f"{where}: expected a finite number, got {_shown(repr(value))}")


def _integer(where: str, value) -> int:
    value = _number(where, value)
    if value != int(value):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _ramps(where: str, value) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of [start, end, rate]")
    parsed = []
    for i, seg in enumerate(value):
        if not (isinstance(seg, (list, tuple)) and len(seg) == 3):
            raise ConfigError(
                f"{where}[{i}]: expected [start, end, rate] numbers")
        start, end, rate = (float(_number(f"{where}[{i}]", v)) for v in seg)
        if end <= start or rate < 0:
            raise ConfigError(f"{where}[{i}]: need start < end and rate >= 0")
        parsed.append((start, end, rate))
    return tuple(parsed)


def _names(where: str, value) -> tuple[str, ...]:
    if not (isinstance(value, list) and value
            and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where}: expected a non-empty list of names")
    return tuple(value)


# fields whose JSON form is a list rather than a number, string or object
_LIST_FIELDS = {"ramps": _ramps, "controllers": _names}


def _value(section: str, key: str, ftype, value):
    where = f"{section}.{key}"
    if key in _LIST_FIELDS:
        return _LIST_FIELDS[key](where, value)
    if is_dataclass(ftype):
        return _build(key, value, ftype)
    if ftype is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{where}: must be a non-empty string")
        return value
    if ftype is int:
        return _integer(where, value)
    return _number(where, value)


def _build(section: str, doc, cls):
    """Parse one section into `cls`, taking keys and types from its fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected an object")
    types = get_type_hints(cls)
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(
            f"{section}: unknown key(s) {_shown(', '.join(map(repr, unknown)))}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING \
                and f.name not in doc:
            raise ConfigError(f"{section}.{f.name}: required field missing")
    kwargs = {key: _value(section, key, types[key], value)
              for key, value in doc.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise  # ScenarioConfig's own checks already name their field
    except ValueError as exc:
        raise ConfigError(f"{section}: {_shown(str(exc))}") from exc


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("document: expected a JSON object")
    body = dict(doc)
    if body.pop("schema", None) != SCHEMA_VERSION:
        raise ConfigError(f"schema: must be {SCHEMA_VERSION}")
    return _build("document", body, ScenarioConfig)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
        except RecursionError as exc:
            raise ConfigError(f"{path}: the JSON document nests too deeply"
                              ) from exc
    return parse_scenario(doc)
