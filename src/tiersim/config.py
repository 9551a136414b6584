"""Run configuration: one typed schema, one override path.

Format.  A config file holds one `dotted.key = value` per line; `#` starts a
comment.  A list value is comma-separated (`topology.nodes = 0, 1`) and a
boolean is `true` or `false`, in any case.  A file whose first non-blank
character is `{` is JSON and gives the same nested tree
(`{"policy": {"alpha": 0.5}}` is `policy.alpha = 0.5`), with JSON lists,
numbers, booleans and `null`.

Schema.  The tree is walked over the dataclasses `RunConfig`,
`WorkloadConfig`, `ProfilerConfig`, `PolicyConfig` and `CostModel`: every
key must name a field, every value is coerced by the field's annotation
(`Literal` fields take one of their listed names), and each dataclass checks
its ranges in `__post_init__`.  The topology takes `tierN` sections (in key
order; `id` defaults to the key) or a JSON `tiers` list, plus `nodes` and
`views.<node>`, which is also the node's first-touch order.  Every failure
is a ConfigError naming the dotted field.

Overrides.  Each is `set_key` on the parsed tree before that one
validation, in this order: the file's own lines, then `run --system`, a
`sweep` value or a `compare` member, then the `TIERSIM_SEED` environment
variable.
"""
from __future__ import annotations

import copy
import functools
import json
import math
import os
import re
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .baselines import BASELINE_KINDS
from .memmodel import (UNMAPPED, ConfigError, CostModel, TopologyError, build_topology,
                       require)
from .policy import PolicyConfig
from .profiler import ProfilerConfig
from .workload import NODE_ID_LIMIT


def set_key(tree: dict, key: str, value, where: str | None = None) -> None:
    """Set a dotted key in a nested config tree, making sections on the way."""
    *sections, last = key.split(".")
    node = tree
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"key {key!r} conflicts with a scalar", where or key)
    node[last] = value


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """`a.b.c = value` lines into a nested tree of raw strings."""
    tree: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, raw = body.partition("=")
        if not eq or not key.strip():
            raise ConfigError("expected key = value", f"{origin}:{lineno}")
        set_key(tree, key.strip(), raw.strip(), f"{origin}:{lineno}")
    return tree


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON: {exc}", path) from None
    return parse_config_text(text, origin=path)


@dataclass
class WorkloadConfig:
    kind: Literal["gups", "phase_change", "microbench"] = "gups"
    footprint_pages: int = 1024
    hotset_fraction: float = 0.2
    hot_access_fraction: float = 0.8
    accesses: int = 20480
    accesses_per_interval: int = 1024
    init_pass: bool = False
    phases: int = 4
    bench: Literal["read_only", "half_read"] = "read_only"
    array_pages: int = 2048
    passes: int = 4
    node: int = 0


@dataclass
class TierConfig:
    id: str
    capacity_bytes: int
    access_cost: float | None = None  # default: by rank, see build_topology


@dataclass
class TopologyConfig:
    tiers: list[TierConfig]
    nodes: list[int] = field(default_factory=lambda: [0])
    views: dict[int, list[str]] = field(default_factory=dict)


_TIER_SECTION = re.compile(r"tier\d+")


def _topology_spec(topo) -> dict:
    """The topology section typed and checked, in the form build_topology
    takes.  Canonical tier order is fastest first: a tier's access cost,
    given or by rank, may not fall below the tier before it."""
    if not isinstance(topo, dict) or not topo:
        raise ConfigError("topology section is mandatory", "topology")
    names = sorted((k for k in topo if _TIER_SECTION.fullmatch(k)),
                   key=lambda k: (int(k[4:]), k))
    if "tiers" not in topo:  # tierN sections by number N; ids default to the key
        sections = [{"id": n, **topo[n]} if isinstance(topo[n], dict) else topo[n]
                    for n in names]
        tiers = [asdict(_walk(TierConfig, section, f"topology.{n}"))
                 for n, section in zip(names, sections)]
        topo = {k: v for k, v in topo.items() if k not in names} | {"tiers": tiers}
    spec = asdict(_walk(TopologyConfig, topo, "topology"))
    require(all(0 <= n < NODE_ID_LIMIT for n in spec["nodes"]), "topology.nodes",
            f"must each be in 0..{NODE_ID_LIMIT - 1}")
    # a page's tier index is one byte, and the byte UNMAPPED is no tier's
    require(len(spec["tiers"]) <= UNMAPPED, "topology.tiers",
            f"must number at most {UNMAPPED}")
    try:
        tiers = build_topology(spec).tiers
    except TopologyError as exc:
        raise ConfigError(str(exc), "topology") from None
    names = names or [f"tiers.{i}" for i in range(len(tiers))]
    for name, faster, tier in zip(names[1:], tiers, tiers[1:]):
        require(tier.access_cost >= faster.access_cost, f"topology.{name}.access_cost",
                f"must be >= {faster.access_cost}, the cost of tier {faster.id}")
    return spec


@dataclass
class RunConfig:
    seed: int
    topology: dict  # build_topology's spec; __post_init__ normalizes the section
    system: Literal[BASELINE_KINDS] = "mtm"
    intervals: int = 20
    detect_threshold: float = 2.0
    # default: the system's native mechanism
    migrator_mode: Literal["sync", "async", "adaptive"] | None = None
    alloc_group_pages: int | None = None  # default: the profiler window size
    cost: CostModel = field(default_factory=CostModel)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def __post_init__(self):
        require(self.intervals >= 1, "intervals", "must be >= 1")
        require(self.alloc_group_pages is None or self.alloc_group_pages >= 1,
                "alloc_group_pages", "must be >= 1")
        self.topology = _topology_spec(self.topology)
        require(self.workload.kind != "microbench"
                or self.workload.node in self.topology["nodes"],
                "workload.node", "must be one of topology.nodes")


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string", list: "a list", dict: "a section"}
# the JSON value types each scalar annotation takes, matched exactly: a JSON
# boolean is no number, and a JSON 2.5 no integer
_JSON_SCALARS = {bool: (bool,), int: (int,), float: (int, float)}


def _value(value, tp, where: str):
    """`value`, a raw string from a dotted file or a JSON value, coerced to
    the annotation `tp`."""
    if get_origin(tp) in (Union, UnionType):  # `X | None`: None only from JSON null
        if value is None:
            return None
        tp = get_args(tp)[0]
    kind, args = get_origin(tp) or tp, get_args(tp)
    if is_dataclass(tp):
        return _walk(tp, value, where)
    if kind is list and isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if kind is list and isinstance(value, list):
        return [_value(v, args[0], f"{where}.{i}") for i, v in enumerate(value)]
    if kind is dict and isinstance(value, dict):
        return {_value(k, args[0], _join(where, k)): _value(v, args[1], _join(where, k))
                for k, v in value.items()} if args else value
    if kind is Literal and value in args:
        return value
    if kind is bool and isinstance(value, str) and value.strip().lower() in ("true", "false"):
        return value.strip().lower() == "true"
    if type(value) in _JSON_SCALARS.get(kind, ()) or (
            kind in (int, float, str) and isinstance(value, str)):
        try:
            coerced = kind(value.strip() if isinstance(value, str) else value)
            if kind is not float or math.isfinite(coerced):
                return coerced
        except (ValueError, OverflowError):  # OverflowError: a JSON integer past any float
            pass
    expected = "one of " + ", ".join(args) if kind is Literal else _EXPECTED[kind]
    raise ConfigError(f"expected {expected}, got {value!r}", where)


@functools.cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)


def _walk(cls, tree, where: str):
    """Dataclass `cls` built from a config section: every key must name a
    field, and every value is coerced by its field's annotation."""
    if not isinstance(tree, dict):
        raise ConfigError(f"expected a section, got {tree!r}", where)
    hints = _field_types(cls)
    kwargs = {}
    for key, value in tree.items():
        if key not in hints:
            raise ConfigError(f"unknown field {key!r}", _join(where, key))
        kwargs[key] = _value(value, hints[key], _join(where, key))
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{f.name} is mandatory", _join(where, f.name))
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # a range check of cls.__post_init__
        raise ConfigError(exc.message, _join(where, exc.location)) from None


def build_run_config(tree: dict, origin: str = "<config>",
                     overrides: dict | None = None) -> RunConfig:
    """Validate a parsed config tree after applying `overrides` ({dotted key:
    value}) and TIERSIM_SEED to a copy of it; errors name the field."""
    tree = copy.deepcopy(tree)
    overrides = dict(overrides or {})
    env_seed = os.environ.get("TIERSIM_SEED")
    if env_seed:
        overrides["seed"] = _value(env_seed, int, "TIERSIM_SEED")
    try:
        for key, value in overrides.items():
            set_key(tree, key, value)
        return _walk(RunConfig, tree, "")
    except ConfigError as exc:
        raise ConfigError(exc.message, f"{origin}:{exc.location}") from None
