"""Canonical report emission and document (de)serialization.

Reports must be byte-identical across repeated runs, so floats are written
with a fixed 17-significant-digit format (which round-trips doubles
exactly), object keys are emitted sorted, and no locale- or
platform-dependent formatting is used.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Optional

import numpy as np

from .errors import SchemaError
from .iteration import (
    IterationConfig,
    RoundRecord,
    Selection,
    SelectionSequence,
    as_table,
)
from .metric import SampledMetricSpace, SeparationHierarchy, SeparationRound


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError("reports must not contain non-finite numbers")
    return format(x, ".17g")


def _canonical(obj: Any, out: List[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
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
    header = "point_id," + ",".join(f"x{j + 1}" for j in range(table.shape[1]))
    lines = [header]
    for a, row in zip(space.point_ids, table):
        lines.append(str(a) + "," + ",".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def table_from_dict(doc, space: SampledMetricSpace, dim: Optional[int] = None) -> np.ndarray:
    """Parse a selection-table document ``{"values": {"<id>": [x1, ...]}}``
    (as written by ``select --f0``, ``plip --table`` and stored sequences)
    into the ``(N, d)`` table of ``space``; ``dim``, when given, is the
    required row width."""
    if not isinstance(doc, dict) or not isinstance(doc.get("values"), dict):
        raise SchemaError("table document must carry a 'values' object")
    return as_table(space.keyed_entries(doc["values"], "table"), space, dim)


def profile_csv_text(profiles) -> str:
    lines = ["point_id,r,ratio"]
    for profile in profiles:
        for r, ratio in profile.rows:
            lines.append(f"{profile.point},{format_float(r)},{format_float(ratio)}")
    return "\n".join(lines) + "\n"


# -- selection sequences -------------------------------------------------------


def sequence_to_dict(seq: SelectionSequence) -> dict:
    """Exportable view of a run: config, hierarchy, per-round evidence, and
    the selection tables (anchored local selections are not exported)."""
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
            {
                "round": sel.round_index,
                "values": {str(a): row for a, row in zip(seq.space.point_ids, sel.table.tolist())},
            }
            for sel in seq.selections
        ],
    }


def _resolve_ids(space: SampledMetricSpace, raw_ids) -> list:
    by_str = {str(a): a for a in space.point_ids}
    out = []
    for raw in raw_ids:
        key = str(raw)
        if key not in by_str:
            raise SchemaError(f"unknown point id {raw!r} in stored sequence")
        out.append(by_str[key])
    return out


def sequence_from_dict(doc: dict, correspondence) -> SelectionSequence:
    """Rebuild a stored sequence against its correspondence for re-checking.

    Anchored tables are not stored; the verification checks do not need
    them.  A missing field, a ragged row or a value of the wrong type is a
    :class:`SchemaError`.
    """
    if not isinstance(doc, dict):
        raise SchemaError("sequence document must be a JSON object")
    space = correspondence.space
    try:
        config = IterationConfig.from_json_dict(doc["config"], complete=True)
        hierarchy = SeparationHierarchy(
            rounds=tuple(
                SeparationRound(
                    n=rd["n"], r=rd["r"], members=tuple(_resolve_ids(space, rd["B"]))
                )
                for rd in doc["hierarchy"]["rounds"]
            )
        )
        rounds = []
        for rd in doc["rounds"]:
            new_points = tuple(_resolve_ids(space, rd["new"]))
            rounds.append(
                RoundRecord(
                    n=int(rd["n"]),
                    members=tuple(_resolve_ids(space, rd["B"])),
                    new_points=new_points,
                    deltas={b: float(rd["deltas"][str(b)]) for b in new_points},
                    sup_change=float(rd["sup_change"]),
                )
            )
        selections = [
            Selection(
                table=table_from_dict(sel_doc, space, correspondence.ambient_dim),
                round_index=int(sel_doc["round"]),
            )
            for sel_doc in doc["selections"]
        ]
    except KeyError as exc:
        raise SchemaError(f"sequence document is missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed sequence document: {exc}") from None
    if len(selections) != len(rounds) + 1:
        raise SchemaError("stored sequence must hold one selection per round plus f0")
    return SelectionSequence(
        correspondence=correspondence,
        config=config,
        hierarchy=hierarchy,
        selections=selections,
        rounds=rounds,
    )
