"""Canonical report emission and document (de)serialization.

Reports must be byte-identical across repeated runs, so floats are written
with a fixed 17-significant-digit format, which round-trips every double
but negative zero: ``%.17g`` writes it ``-0``, which JSON readers take for
the integer 0, so it is written ``-0.0``.  Object keys are emitted sorted,
and no locale- or platform-dependent formatting is used.

Selection tables are emitted as blocks: one ``%.17g`` template per table
shape, rows in sorted-key order, filled by one ``%`` with the whole table,
byte for byte what the generic emission writes for its rows.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from typing import Any, List, Optional

import numpy as np

from .errors import SchemaError, as_finite_array
from .iteration import IterationConfig, RoundRecord, SelectionSequence
from .metric import SampledMetricSpace, SeparationHierarchy, SeparationRound, as_table


# "%.17g" ends a number with "-0" only for negative zero (exponents have
# two digits)
_NEGATIVE_ZERO = re.compile(r"-0(?=[],\n])")


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError("reports must not contain non-finite numbers")
    return "-0.0" if x == 0.0 and math.copysign(1.0, x) < 0.0 else format(x, ".17g")


class Rendered(str):
    """Canonical JSON text rendered ahead of time, written as it stands."""


@lru_cache(maxsize=8)
def _keyed_rows(n: int, width: int) -> tuple:
    """The template of an ``n``-row table as an object keyed by row, rows in
    sorted-key order as ``_canonical`` writes them, and that row order."""
    order = sorted(range(n), key=str)
    row = "[" + ",".join(["%.17g"] * width) + "]"
    return "{" + ",".join(f'"{a}":{row}' for a in order) + "}", np.array(order)


def _fill(template: str, table: np.ndarray) -> str:
    """``template`` filled with the entries of ``table`` in row-major order,
    each as ``format_float`` writes it: a non-finite entry is a
    :class:`SchemaError`, and negative zero reads ``-0.0``."""
    if not np.isfinite(table).all():
        raise SchemaError("reports must not contain non-finite numbers")
    text = template % tuple(table.ravel().tolist())
    return _NEGATIVE_ZERO.sub("-0.0", text) if np.signbit(table[table == 0.0]).any() else text


def _canonical(obj: Any, out: List[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, Rendered):
        out.append(obj)
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=True))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _canonical(obj.tolist(), out)
    else:
        raise SchemaError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: List[str] = []
    _canonical(obj, out)
    out.append("\n")
    return "".join(out)


def write_report(path, obj: Any) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


def selection_csv_text(space: SampledMetricSpace, table: np.ndarray) -> str:
    n, width = table.shape
    header = "point_id," + ",".join(f"x{j + 1}" for j in range(width))
    row = ",".join(["%.17g"] * width)
    return _fill("\n".join([header] + [f"{a},{row}" for a in range(n)]) + "\n", table)


def table_from_dict(doc, space: SampledMetricSpace, dim: Optional[int] = None) -> np.ndarray:
    """Parse a selection-table document ``{"values": {"<id>": [x1, ...]}}``
    (as written by ``select --f0``, ``plip --table`` and stored sequences)
    into the ``(N, d)`` table of ``space``; ``dim``, when given, is the
    required row width."""
    if not isinstance(doc, dict) or not isinstance(doc.get("values"), dict):
        raise SchemaError("table document must carry a 'values' object")
    return as_table(space.keyed_entries(doc["values"], "table"), space, dim)


def profile_csv_text(profiles) -> str:
    """One ``point_id,r,ratio`` line per base point and radius, in the order
    of the profile columns."""
    lines = [f"{a},%.17g,%.17g" for a in profiles.points.tolist() for _ in profiles.radii]
    table = np.stack(np.broadcast_arrays(profiles.radii, profiles.ratios), axis=-1)
    return _fill("\n".join(["point_id,r,ratio"] + lines) + "\n", table)


# -- selection sequences -------------------------------------------------------


def sequence_to_dict(seq: SelectionSequence) -> dict:
    """Exportable view of a run: config, hierarchy, per-round evidence, and
    the selection tables as rendered blocks (anchored local selections are
    not exported)."""
    template, order = _keyed_rows(*seq.tables.shape[1:])
    return {
        "config": seq.config.to_json_dict(),
        "hierarchy": seq.hierarchy.to_json_dict(),
        "rounds": [
            {
                "n": record.n,
                "B": list(record.members),
                "new": list(record.new_points),
                "deltas": {str(b): float(d) for b, d in record.deltas.items()},
                "sup_change": float(record.sup_change),
            }
            for record in seq.rounds
        ],
        "selections": [
            {"round": n, "values": Rendered(_fill(template, table[order]))}
            for n, table in enumerate(seq.tables)
        ],
    }


def _integer(value) -> int:
    if type(value) is not int:
        raise SchemaError(f"stored sequence has {value!r} where an integer belongs")
    return value


def _resolve_ids(space: SampledMetricSpace, raw_ids) -> list:
    """Stored point ids as rows: an id must be the key of a row of ``space``."""
    out = []
    for raw in raw_ids:
        row = space.key_row(raw)
        if row is None:
            raise SchemaError(f"unknown point id {raw!r} in stored sequence")
        out.append(row)
    return out


def sequence_from_dict(doc: dict, correspondence) -> SelectionSequence:
    """Rebuild a stored sequence against its correspondence for re-checking.

    Anchored tables are not stored; the verification checks do not need
    them.  A missing field, a ragged row, a value of the wrong type or a
    selection whose ``round`` is not its position is a :class:`SchemaError`.
    """
    if not isinstance(doc, dict):
        raise SchemaError("sequence document must be a JSON object")
    space = correspondence.space
    try:
        config = IterationConfig.from_json_dict(doc["config"], complete=True)
        hierarchy = SeparationHierarchy(
            rounds=tuple(
                SeparationRound(
                    n=_integer(rd["n"]),
                    r=float(as_finite_array(rd["r"], "separation radius")),
                    members=tuple(_resolve_ids(space, rd["B"])),
                )
                for rd in doc["hierarchy"]["rounds"]
            )
        )
        rounds = []
        for rd in doc["rounds"]:
            new_points = tuple(_resolve_ids(space, rd["new"]))
            # the engine stores a radius for each new point and nothing else
            deltas = rd["deltas"]
            if not isinstance(deltas, dict) or set(deltas) != {str(b) for b in new_points}:
                raise SchemaError(f"round {rd['n']!r}: deltas must be keyed by exactly the new points")
            radii = as_finite_array([deltas[str(b)] for b in new_points], "adjustment radii").tolist()
            rounds.append(
                RoundRecord(
                    n=_integer(rd["n"]),
                    members=tuple(_resolve_ids(space, rd["B"])),
                    new_points=new_points,
                    deltas=dict(zip(new_points, radii)),
                    sup_change=float(as_finite_array(rd["sup_change"], "sup_change")),
                )
            )
        tables = []
        for pos, sel_doc in enumerate(doc["selections"]):
            if _integer(sel_doc["round"]) != pos:
                raise SchemaError(f"selection {pos} is stored as round {sel_doc['round']!r}")
            tables.append(table_from_dict(sel_doc, space, correspondence.ambient_dim))
    except KeyError as exc:
        raise SchemaError(f"sequence document is missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed sequence document: {exc}") from None
    if len(tables) != len(rounds) + 1:
        raise SchemaError("stored sequence must hold one selection per round plus f0")
    return SelectionSequence(
        correspondence=correspondence,
        config=config,
        hierarchy=hierarchy,
        tables=np.stack(tables),
        rounds=rounds,
    )
