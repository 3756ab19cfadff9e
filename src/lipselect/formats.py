"""Canonical report emission and document (de)serialization.

Reports must be byte-identical across repeated runs, so floats are written
with a fixed 17-significant-digit format, which round-trips every double
but negative zero: ``%.17g`` writes it ``-0``, which JSON readers take for
the integer 0, so it is written ``-0.0``.  Object keys are emitted sorted,
and no locale- or platform-dependent formatting is used.

Selection tables are emitted as blocks, byte for byte what the generic
emission writes: a run's rows are formatted once, ``f0`` in full, and a
later table reuses the text of each row that its round left unchanged.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii
from typing import Any, List, Optional

import numpy as np

from .errors import SchemaError, as_finite_array
from .iteration import IterationConfig, RoundRecord, SelectionSequence, changed_rows
from .metric import SampledMetricSpace, as_table, build_separation_hierarchy, round_members


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


def _fill(template: str, table: np.ndarray) -> str:
    """``template`` filled with the entries of ``table`` in row-major order,
    each as ``format_float`` writes it: a non-finite entry is a
    :class:`SchemaError`, and negative zero reads ``-0.0``."""
    if not np.isfinite(table).all():
        raise SchemaError("reports must not contain non-finite numbers")
    text = template % tuple(table.ravel().tolist())
    return _NEGATIVE_ZERO.sub("-0.0", text) if np.signbit(table[table == 0.0]).any() else text


def _rendered_rows(tables: np.ndarray, keys, pattern: str) -> list:
    """The text of each row ``i`` of each table of the ``(T, N, d)`` stack
    ``tables``: ``pattern.format(keys[i], entries)``, entries as ``_fill``
    writes them.  Table 0 is formatted in full, a later one only where a
    row's bits differ from the table before (``0.0`` to ``-0.0`` counts), in
    one ``%``; every other row reuses the text made, and checked, before."""
    # each row ends in "\n", so the negative-zero rewrite sees its last entry
    row = pattern.format("{}", ",".join(["%.17g"] * tables.shape[2])) + "\n"
    templates = [row.format(key) for key in keys]
    changed = changed_rows(tables)
    rows_at = np.nonzero(changed)[1]
    text = _fill("".join(map(templates.__getitem__, rows_at.tolist())), tables[changed])
    pieces = np.array(text.split("\n"), dtype=object)
    out, rows, start = [], np.empty(len(templates), dtype=object), 0
    for end in np.cumsum(changed.sum(axis=1)).tolist():
        rows[rows_at[start:end]] = pieces[start:end]
        out.append(rows.tolist())
        start = end
    return out


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
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(str(key)))
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


def _pieces(obj: Any) -> List[str]:
    """The canonical text of ``obj`` and its final newline, in pieces."""
    out: List[str] = []
    _canonical(obj, out)
    out.append("\n")
    return out


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return "".join(_pieces(obj))


def write_report(path, obj: Any) -> None:
    """The text of :func:`dumps_canonical` as ASCII bytes, written piece by
    piece: no codec is looked up and no whole-report string is built."""
    with open(path, "wb") as fh:
        fh.writelines(piece.encode("ascii") for piece in _pieces(obj))


def selection_csv_texts(tables: np.ndarray) -> list:
    """The CSV text of each table of the ``(T, N, d)`` stack ``tables``: a
    ``point_id,x1,...`` header, then one line per row in row order."""
    header = "point_id," + ",".join(f"x{j + 1}" for j in range(tables.shape[2]))
    return ["\n".join([header] + rows) + "\n" for rows in _rendered_rows(tables, range(tables.shape[1]), "{},{}")]


def tables_from_dicts(docs: list, space: SampledMetricSpace, dim: Optional[int] = None) -> np.ndarray:
    """The ``(T, N, d)`` stack of the table documents ``docs``, each
    ``{"values": {"<id>": [x1, ...]}}``, read as one block; ``dim``, when
    given, is the required row width."""
    if not all(isinstance(doc, dict) and isinstance(doc.get("values"), dict) for doc in docs):
        raise SchemaError("table document must carry a 'values' object")
    return as_table([space.keyed_entries(doc["values"], "table") for doc in docs], space, dim, stacked=True)


def profile_csv_text(profiles) -> str:
    """One ``point_id,r,ratio`` line per base point and radius, in the order
    of the profile columns."""
    lines = [f"{a},%.17g,%.17g" for a in profiles.points.tolist() for _ in profiles.radii]
    table = np.stack(np.broadcast_arrays(profiles.radii, profiles.ratios), axis=-1)
    return _fill("\n".join(["point_id,r,ratio"] + lines) + "\n", table)


# -- selection sequences -------------------------------------------------------


def hierarchy_to_dict(entry: np.ndarray, n_rounds: int) -> dict:
    """The hierarchy as reports write it: ``B_n`` at ``r = 2^-(n-1)`` for
    each round ``n = 1..n_rounds`` of the ``entry`` column."""
    return {
        "rounds": [
            {"n": n, "r": 2.0 ** (-(n - 1)), "B": round_members(entry, n).tolist()}
            for n in range(1, n_rounds + 1)
        ]
    }


def sequence_to_dict(seq: SelectionSequence) -> dict:
    """Exportable view of a run: config, hierarchy, per-round evidence, and
    the selection tables as rendered blocks (anchored local selections are
    not exported)."""
    order = sorted(range(seq.tables.shape[1]), key=str)
    tables = _rendered_rows(seq.tables[:, order], order, '"{}":[{}]')
    hierarchy = hierarchy_to_dict(seq.entry, len(seq.rounds))
    return {
        "config": seq.config.to_json_dict(),
        "hierarchy": hierarchy,
        "rounds": [
            {
                "n": record.n,
                "B": level["B"],
                "new": list(record.deltas),
                "deltas": {str(b): float(d) for b, d in record.deltas.items()},
                "sup_change": float(record.sup_change),
            }
            for record, level in zip(seq.rounds, hierarchy["rounds"])
        ],
        "selections": [
            {"round": n, "values": Rendered("{" + ",".join(rows) + "}")} for n, rows in enumerate(tables)
        ],
    }


def _integer(value) -> int:
    if type(value) is not int:
        raise SchemaError(f"stored sequence has {value!r} where an integer belongs")
    return value


def _resolve_ids(space: SampledMetricSpace, raw_ids) -> list:
    """Stored point ids as rows: the ids must be a JSON array, each the key
    of a row of ``space``."""
    if not isinstance(raw_ids, list):
        raise SchemaError(f"stored sequence has {raw_ids!r} where an array of point ids belongs")
    rows = list(map(space.key_row, raw_ids))
    if None in rows:
        raise SchemaError(f"unknown point id {raw_ids[rows.index(None)]!r} in stored sequence")
    return rows


def sequence_from_dict(doc: dict, correspondence) -> SelectionSequence:
    """Rebuild a stored sequence against its correspondence for re-checking.

    Anchored tables are not stored; the verification checks do not need
    them.  A missing field, a ragged row, a value of the wrong type, an id
    list that is not an array or a selection whose ``round`` is not its
    position is a :class:`SchemaError`.

    The hierarchy is recomputed from the space, once, as the sequence's
    ``entry``.  What a run of the engine on this space could not have
    stored is one of its ``metadata_problems``: a hierarchy section or a
    round's ``B`` other than the greedy one, ``new != B_n \\ B_(n-1)``, a
    round ``n`` out of position, a ``config.rounds`` other than the number
    of rounds, and radii outside the halving schedule ``[delta_min,
    2^-(n+2)]``.
    """
    if not isinstance(doc, dict):
        raise SchemaError("sequence document must be a JSON object")
    space = correspondence.space
    try:
        config = IterationConfig.from_json_dict(doc["config"], complete=True)
        hierarchy = [
            {
                "n": _integer(rd["n"]),
                "r": float(as_finite_array(rd["r"], "separation radius")),
                "B": _resolve_ids(space, rd["B"]),
            }
            for rd in doc["hierarchy"]["rounds"]
        ]
        rounds, stored = [], []
        for rd in doc["rounds"]:
            new = _resolve_ids(space, rd["new"])
            # the engine stores a radius for each new point and nothing else
            deltas = rd["deltas"]
            if not isinstance(deltas, dict) or set(deltas) != {str(b) for b in new}:
                raise SchemaError(f"round {rd['n']!r}: deltas must be keyed by exactly the new points")
            radii = as_finite_array([deltas[str(b)] for b in new], "adjustment radii").tolist()
            sup_change = float(as_finite_array(rd["sup_change"], "sup_change"))
            rounds.append(RoundRecord(_integer(rd["n"]), dict(zip(new, radii)), sup_change))
            stored.append((_resolve_ids(space, rd["B"]), new))
        selections = doc["selections"]
        for pos, sel_doc in enumerate(selections):
            if _integer(sel_doc["round"]) != pos:
                raise SchemaError(f"selection {pos} is stored as round {sel_doc['round']!r}")
        if len(selections) != len(rounds) + 1:
            raise SchemaError("stored sequence must hold one selection per round plus f0")
        tables = tables_from_dicts(selections, space, correspondence.ambient_dim)
    except KeyError as exc:
        raise SchemaError(f"sequence document is missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed sequence document: {exc}") from None

    entry = build_separation_hierarchy(space, len(rounds)) if rounds else np.zeros(len(space), dtype=np.intp)
    problems = []
    if config.rounds != len(rounds):
        problems.append(f"config.rounds is {config.rounds} but {len(rounds)} rounds are stored")
    expected = hierarchy_to_dict(entry, len(rounds))["rounds"]
    if hierarchy != expected:
        problems.append("hierarchy differs from the one recomputed from the space")
    for pos, (record, (members, new)) in enumerate(zip(rounds, stored), 1):
        if record.n != pos:
            problems.append(f"round {pos} is stored as round {record.n}")
        if members != expected[pos - 1]["B"]:
            problems.append(f"round {pos}: B differs from the recomputed separation")
        if new != np.flatnonzero(entry == pos).tolist():
            problems.append(f"round {pos}: new is not B_n minus B_(n-1)")
        upper = 2.0 ** (-(pos + 2))
        outside = [b for b, d in record.deltas.items() if not config.delta_min <= d <= upper]
        if outside:
            problems.append(f"round {pos}: delta at {outside[0]!r} outside [delta_min, {upper}]")
    return SelectionSequence(correspondence, config, entry, tables, rounds, tuple(problems))
