"""Scenario config: a single JSON document describing lattice, regulatory
domain, per-PAN superframes and the request workload.

Example::

    {
      "lattice": {"index_bound_N": 2, "radius_R": 1.0, "origin": [0.0, 0.0]},
      "domain": "Europe",
      "superframes": [{"cell": [0, 0], "SO": 1, "BO": 4, "phase": 0}],
      "workload": {"requests_per_pan": 8, "slots_per_request": 3}
    }

The lattice may instead list explicit cells (``"cells": [[0, 0], [0, 2]]``)
for irregular deployments, and the domain may be a custom channel table
(``{"name": ..., "channels": [{"phy_channel": 4, "code": 7}, ...]}``).
A ``notes`` field is allowed in every object and ignored; any other key
outside an object's documented set is an error.  A custom table lists each
channel once.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from .dynamic_alloc import SuperframeConfig, cycle_structure
from .errors import ConfigError, HexchanError
from .evaluate import RequestScenario
from .lattice import CellIndex, Lattice, build_lattice, center_of, extreme_cells, lattice_from_cells
from .spectrum import (
    DOMAIN_NAMES,
    ChannelPlan,
    RegulatoryDomain,
    channel_plan,
    channels_from_pairs,
    default_domain,
)

# Largest lattice a config may describe; the full window N = 70 has 9941 cells.
MAX_CELLS = 10_000
# Largest number of (PAN, elementary cycle) entries, PANs x U, a config may
# ask for.  Each entry is a row of the dynamic and evaluation reports; these
# are streamed, so output size and run time bound this limit, not memory
# (see CHANGES.md).
MAX_PAN_CYCLES = 1 << 17
# Largest number of requests a PAN may serve per cycle.  Evaluation sums each
# distinct request list once: at 9941 PANs with 1000 distinct requests each,
# `load_config` takes 2.2 s and `compare_schemes` 0.46 s (see CHANGES.md).
MAX_REQUESTS_PER_PAN = 1000
# Longest request in slots; 100 x MAX_REQUESTS_PER_PAN x this < 2^53 keeps evaluation exact.
MAX_SLOTS_PER_REQUEST = 10**9

# The keys each config object may hold, by the object's field name ("" for
# the top level); the entries of a list go by the list's name.
_KNOWN_KEYS = {
    name: frozenset(keys.split()) | {"notes"}
    for name, keys in {
        "": "lattice domain us_data_card superframes workload out_dir",
        "lattice": "index_bound_N cells radius_R origin",
        "domain": "name channels",
        "domain.channels": "phy_channel code",
        "superframes": "cell SO BO phase",
        "workload": "per_pan requests_per_pan slots_per_request",
        "workload.per_pan": "cell slots",
    }.items()
}


class ScenarioConfig(namedtuple("ScenarioConfig", "lattice domain us_data_card superframes workload out_dir")):
    """A parsed config; the last four fields are None where it gives none."""

    __slots__ = ()

    def plan(self) -> ChannelPlan:
        return channel_plan(self.domain, us_data_card=self.us_data_card)

    def require_superframes(self) -> tuple[SuperframeConfig, ...]:
        if not self.superframes:
            raise ConfigError("command needs per-PAN superframes", field="superframes")
        return self.superframes

    def request_scenario(self) -> RequestScenario:
        """Explicit workload if given, else 8 requests of 3 slots per PAN."""
        if self.workload is not None:
            return self.workload
        cells = [cfg.pan_cell for cfg in self.require_superframes()]
        return RequestScenario.uniform(cells)


def _expect(mapping, key, kind, field):
    # JSON values have exact types, so an int field rejects booleans too.
    value = mapping.get(key)
    if type(value) is not kind:
        if key not in mapping:
            raise ConfigError("missing required field", field=field)
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    return value


def _known_keys(mapping: dict, field: str) -> None:
    """Reject the first key of the object ``mapping`` at ``field`` that is
    outside its documented set; an entry ``list[k]`` goes by the list."""
    known = _KNOWN_KEYS[field.partition("[")[0]]
    if not mapping.keys() <= known:
        key = next(key for key in mapping if key not in known)
        where = f"{field}.{key}" if field else key
        raise ConfigError(f"unknown key; expected one of {', '.join(sorted(known))}", field=where)


def _finite_number(value, field) -> float:
    """``value`` as a float; JSON admits NaN and Infinity, a config does not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"expected a number, got {type(value).__name__}", field=field)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"must be a finite number, got {value!r}", field=field)
    return number


def _int_pair(value) -> bool:
    """Whether ``value`` is a JSON ``[i, j]`` pair of integers."""
    return type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int


def _parse_cell(value, field) -> CellIndex:
    if not _int_pair(value):
        raise ConfigError("expected a two-integer [i, j] pair", field=field)
    try:
        return CellIndex(*value)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from None


def _entry_cells(entries: list, where: str, members, outside: str):
    """``(k, entry, cell)`` per object ``entry`` of list ``where`` whose cell
    is new and in ``members`` (None admits every cell) and whose keys are
    known; ``outside`` is the message for a cell not in ``members``.  A
    cell is built unchecked and is valid once found; only the error path
    formats a field name."""
    known = _KNOWN_KEYS[where]
    seen = set()
    for k, entry in enumerate(entries):
        value = entry.get("cell") if type(entry) is dict else None
        cell = CellIndex._make(value) if _int_pair(value) else None
        if (
            cell is None
            or cell in seen
            or (cell not in members if members is not None else sum(cell) % 2)
            or not entry.keys() <= known
        ):
            if type(entry) is not dict:
                raise ConfigError("expected an object", field=f"{where}[{k}]")
            _known_keys(entry, f"{where}[{k}]")
            field = f"{where}[{k}].cell"
            cell = _parse_cell(_expect(entry, "cell", list, field), field)
            if cell in seen:
                raise ConfigError("duplicate PAN cell (%d, %d)" % cell, field=field)
            raise ConfigError(outside % cell, field=field)
        seen.add(cell)
        yield k, entry, cell


def _parse_lattice(doc) -> Lattice:
    section = _expect(doc, "lattice", dict, "lattice")
    _known_keys(section, "lattice")
    if "radius_R" not in section:
        raise ConfigError("missing required field", field="lattice.radius_R")
    radius = _finite_number(section["radius_R"], "lattice.radius_R")
    if radius <= 0:
        raise ConfigError("must be positive", field="lattice.radius_R")
    origin_raw = section.get("origin", [0.0, 0.0])
    if not isinstance(origin_raw, list) or len(origin_raw) != 2:
        raise ConfigError("expected [x0, y0]", field="lattice.origin")
    origin = tuple(_finite_number(value, f"lattice.origin[{k}]") for k, value in enumerate(origin_raw))
    if "cells" in section and "index_bound_N" in section:
        raise ConfigError("give either index_bound_N or cells, not both", field="lattice")
    if "cells" in section:
        raw = _expect(section, "cells", list, "lattice.cells")
        if not raw:
            raise ConfigError("cell list must be non-empty", field="lattice.cells")
        if len(raw) > MAX_CELLS:
            raise ConfigError(f"{len(raw)} cells exceed the limit of {MAX_CELLS}", field="lattice.cells")
        cells = [_parse_cell(c, f"lattice.cells[{k}]") for k, c in enumerate(raw)]
        if len(set(cells)) != len(cells):
            raise ConfigError("duplicate cells", field="lattice.cells")
        return _finite_centers(lattice_from_cells(cells, radius_r=radius, origin=origin))
    bound = _expect(section, "index_bound_N", int, "lattice.index_bound_N")
    if bound < 0:
        raise ConfigError("must be non-negative", field="lattice.index_bound_N")
    num_cells = 2 * bound * bound + 2 * bound + 1
    if num_cells > MAX_CELLS:
        raise ConfigError(
            f"window of {num_cells} cells exceeds the limit of {MAX_CELLS}", field="lattice.index_bound_N"
        )
    return _finite_centers(build_lattice(bound, radius_r=radius, origin=origin))


def _finite_centers(lattice: Lattice) -> Lattice:
    """``lattice``, if every cell center is a finite float.  x grows with i
    and y with j, so the cells with extreme i and j decide."""
    for cell in extreme_cells(lattice.cells):
        if not all(map(math.isfinite, center_of(lattice, cell))):
            raise ConfigError(f"the center of cell ({cell.i}, {cell.j}) overflows the float range", field="lattice")
    return lattice


def _parse_domain(doc) -> RegulatoryDomain:
    section = doc.get("domain", "Europe")
    if isinstance(section, str):
        if section not in DOMAIN_NAMES:
            raise ConfigError(f"unknown domain {section!r}; expected one of {DOMAIN_NAMES}", field="domain")
        return default_domain(section)
    if not isinstance(section, dict):
        raise ConfigError("expected a domain name or a custom table object", field="domain")
    _known_keys(section, "domain")
    name = _expect(section, "name", str, "domain.name")
    raw = _expect(section, "channels", list, "domain.channels")
    pairs = set()
    for k, entry in enumerate(raw):
        field = f"domain.channels[{k}]"
        if not isinstance(entry, dict):
            raise ConfigError("expected an object with phy_channel and code", field=field)
        _known_keys(entry, field)
        phy = _expect(entry, "phy_channel", int, f"{field}.phy_channel")
        code = _expect(entry, "code", int, f"{field}.code")
        if (phy, code) in pairs:
            raise ConfigError(f"duplicate channel (phy_channel {phy}, code {code})", field=field)
        pairs.add((phy, code))
    try:
        table = channels_from_pairs(pairs)
    except ValueError as exc:
        raise ConfigError(str(exc), field="domain.channels") from None
    return RegulatoryDomain(name=name, total_channels=table)


def _parse_superframes(doc, lattice: Lattice):
    raw = doc.get("superframes")
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ConfigError("expected a non-empty list", field="superframes")
    configs = []
    for k, entry, cell in _entry_cells(raw, "superframes", lattice.members, "cell (%d, %d) is not in the lattice"):
        so, bo, phase = entry.get("SO"), entry.get("BO"), entry.get("phase", 0)
        if type(so) is not int or type(bo) is not int or type(phase) is not int:
            # Raises at the first bad field; a missing phase reads 0, so is never it.
            for key in ("SO", "BO", "phase"):
                _expect(entry, key, int, f"superframes[{k}].{key}")
        try:
            configs.append(SuperframeConfig(cell, so, bo, phase))
        except HexchanError as exc:
            raise ConfigError(str(exc), field=f"superframes[{k}]") from None
    u_cycles = cycle_structure(configs).u_cycles
    if len(configs) * u_cycles > MAX_PAN_CYCLES:
        raise ConfigError(
            f"{len(configs)} PANs x {u_cycles} elementary cycles = {len(configs) * u_cycles} "
            f"(PAN, cycle) entries exceed the limit of {MAX_PAN_CYCLES}",
            field="superframes",
        )
    return tuple(configs)


def _parse_workload(doc, superframes) -> RequestScenario | None:
    raw = doc.get("workload")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("expected an object", field="workload")
    _known_keys(raw, "workload")
    if "per_pan" in raw:
        if "requests_per_pan" in raw or "slots_per_request" in raw:
            raise ConfigError(
                "give either per_pan or requests_per_pan and slots_per_request, not both", field="workload"
            )
        entries = _expect(raw, "per_pan", list, "workload.per_pan")
        if not entries:
            raise ConfigError("must be non-empty", field="workload.per_pan")
        pans = None if superframes is None else {cfg.pan_cell for cfg in superframes}
        per_pan = {}
        cells = _entry_cells(entries, "workload.per_pan", pans, "no superframe runs a PAN at cell (%d, %d)")
        for k, entry, cell in cells:
            field = f"workload.per_pan[{k}].slots"
            slots = _expect(entry, "slots", list, field)
            if len(slots) > MAX_REQUESTS_PER_PAN:
                raise ConfigError(f"{len(slots)} requests exceed the limit of {MAX_REQUESTS_PER_PAN}", field=field)
            if not slots or set(map(type, slots)) != {int} or min(slots) < 1:
                raise ConfigError("expected a non-empty list of positive integers", field=field)
            if max(slots) > MAX_SLOTS_PER_REQUEST:
                raise ConfigError(f"a request exceeds the limit of {MAX_SLOTS_PER_REQUEST} slots", field=field)
            per_pan[cell] = tuple(slots)
        uncovered = [cfg.pan_cell for cfg in superframes or () if cfg.pan_cell not in per_pan]
        if uncovered:
            cell = uncovered[0]
            raise ConfigError(
                f"no entry for the PAN at cell ({cell.i}, {cell.j}); list every PAN exactly once",
                field="workload.per_pan",
            )
        return RequestScenario(per_pan=per_pan)
    count = _expect(raw, "requests_per_pan", int, "workload.requests_per_pan")
    slots = _expect(raw, "slots_per_request", int, "workload.slots_per_request")
    if count < 1:
        raise ConfigError("must be positive", field="workload.requests_per_pan")
    if count > MAX_REQUESTS_PER_PAN:
        raise ConfigError(f"{count} exceeds the limit of {MAX_REQUESTS_PER_PAN}", field="workload.requests_per_pan")
    if slots < 1:
        raise ConfigError("must be positive", field="workload.slots_per_request")
    if slots > MAX_SLOTS_PER_REQUEST:
        raise ConfigError(f"exceeds the limit of {MAX_SLOTS_PER_REQUEST}", field="workload.slots_per_request")
    if superframes is None:
        raise ConfigError("uniform workload needs superframes to know the PANs", field="workload")
    return RequestScenario.uniform([cfg.pan_cell for cfg in superframes], count=count, slots=slots)


def load_config(path: str | Path, domain_override: str | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config file.

    ``domain_override`` replaces the config's domain by a built-in one
    (the CLI's ``--domain`` flag); the config's own domain is still checked.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 (byte {exc.start})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        # An integer literal beyond the interpreter's int-string digit limit.
        raise ConfigError(f"config file {path} is not readable JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} nests arrays or objects too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    _known_keys(doc, "")

    lattice = _parse_lattice(doc)
    domain = _parse_domain(doc)
    if domain_override is not None:
        if domain_override not in DOMAIN_NAMES:
            raise ConfigError(f"unknown domain {domain_override!r}; expected one of {DOMAIN_NAMES}")
        domain = default_domain(domain_override)
    us_data_card = doc.get("us_data_card")
    if us_data_card is not None:
        if not isinstance(us_data_card, int) or us_data_card not in (24, 28):
            raise ConfigError("must be 24 or 28", field="us_data_card")
        if domain.name != "US":
            raise ConfigError("only meaningful with the US domain", field="us_data_card")
    superframes = _parse_superframes(doc, lattice)
    workload = _parse_workload(doc, superframes)
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("expected a path string", field="out_dir")
    return ScenarioConfig(
        lattice=lattice,
        domain=domain,
        us_data_card=us_data_card,
        superframes=superframes,
        workload=workload,
        out_dir=out_dir,
    )
