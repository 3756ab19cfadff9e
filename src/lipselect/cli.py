"""Command-line front end.

Verbs: ``separate`` (separations and hierarchies of a space), ``select``
(run the selection iteration over a correspondence), ``plip`` (pointwise
ratio profiles of a stored table), ``bartle-graves`` (the right-inverse
pipeline), ``verify`` (re-check a stored selection sequence).

The command line, read off ``VERBS``, is a verb and then ``--flag value``
pairs, each flag exactly ``--config`` or an option key of the verb with
``-`` for ``_`` (no abbreviations, no ``--flag=value``); the last of a
repeated flag wins, and ``-h`` or ``--help`` anywhere prints the usage.

Exit status: 0 all requested checks pass, 1 a check failed, 2 a usage
error, an unreadable or unwritable path or a :class:`SchemaError`, 3 a
:class:`PreconditionError` (including non-finite numbers), 4 any other
:class:`LipselectError` or a failed linear-algebra call.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bartle_graves as bg
from .correspondence import Correspondence, LinearSurjection
from .errors import LipselectError, PreconditionError, SchemaError
from .formats import (
    dumps_canonical,
    hierarchy_to_dict,
    profile_csv_text,
    selection_csv_texts,
    sequence_from_dict,
    sequence_to_dict,
    tables_from_dicts,
    write_report,
)
from .iteration import IterationConfig, run_iteration, verify_sequence
from .lipschitz import default_radii, plip_profile
from .metric import (
    SampledMetricSpace,
    build_separation_hierarchy,
    covering_radius,
    greedy_maximal_separation,
    round_members,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load_json(path: str):
    """The document at ``path``; a decode failure (not UTF-8, not JSON, too
    deep, an integer too long) is a :class:`SchemaError` with its message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(str(exc)) from None


# -- option converters: a flag's text or a --config value to its type -------


def _path(key, value) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"option {key!r} must be a path, got {value!r}")
    return value


def _real(key, value) -> float:
    """A number, or a string that reads as one; booleans are not numbers
    and non-finite values are a precondition error."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SchemaError(f"option {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise SchemaError(f"option {key!r} must be a number, got {value!r}") from None
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise PreconditionError(f"option {key!r} must be finite, got {value!r}")
    return number


def _count(key, value) -> int:
    number = _real(key, value)
    if number != int(number):
        raise SchemaError(f"option {key!r} must be an integer, got {value!r}")
    if number < 0:
        raise PreconditionError(f"option {key!r} must be nonnegative, got {value!r}")
    return int(number)


def _items(value) -> list:
    """A comma-separated string or a JSON list; anything else is one item."""
    if isinstance(value, str):
        return value.split(",")
    return value if isinstance(value, list) else [value]


def _reals(key, value) -> list:
    return [_real(key, x) for x in _items(value)]


def _ids(key, value) -> list:
    return [str(x) for x in _items(value)]


# every option not listed here is a path
_CONVERTERS = {
    "r": _real, "beta": _real, "radii": _reals, "points": _ids,
    "rounds": _count, "sphere_count": _count, "seed": _count,
}


def _merge_config(flags: dict, keys) -> dict:
    """Options from ``--config`` overridden by ``flags``, each converted by
    the converter of its key."""
    merged = {}
    if "config" in flags:
        doc = _load_json(flags["config"])
        if not isinstance(doc, dict):
            raise SchemaError("--config document must be a JSON object")
        for key, value in doc.items():
            if key not in keys:
                raise SchemaError(f"unknown config key {key!r}")
            merged[key] = value
    for key in keys:
        if key in flags:
            merged[key] = flags[key]
    return {key: _CONVERTERS.get(key, _path)(key, value) for key, value in merged.items()}


def _outcomes(checks) -> dict:
    """Audit records, a passing one without its ``detail``."""
    return {name: c if not c["passed"] else {"passed": True, "worst": c["worst"]} for name, c in checks.items()}


def _emit(out, report: dict) -> None:
    if out:
        write_report(out, report)
        print(f"report written to {out}")
    else:
        sys.stdout.write(dumps_canonical(report))


def _cmd_separate(opts) -> int:
    space = SampledMetricSpace.from_json_dict(_load_json(opts["space"]))
    report: dict = {"command": "separate"}
    if "rounds" in opts:
        entry = build_separation_hierarchy(space, opts["rounds"])
        report["hierarchy"] = hierarchy_to_dict(entry, opts["rounds"])
        report["covering_radii"] = [
            covering_radius(space, round_members(entry, n)) for n in range(1, opts["rounds"] + 1)
        ]
    else:
        if "r" not in opts:
            raise PreconditionError("separate needs --r or --rounds")
        members = greedy_maximal_separation(space, opts["r"])
        report["r"] = opts["r"]
        report["B"] = list(members)
        report["covering_radius"] = covering_radius(space, members)
    _emit(opts.get("out"), report)
    return EXIT_OK


def _cmd_select(opts) -> int:
    phi = Correspondence.from_json_dict(_load_json(opts["correspondence"]))
    config = IterationConfig.from_json_dict(_load_json(opts["iteration"]))
    if opts.get("f0"):
        f0 = tables_from_dicts([_load_json(opts["f0"])], phi.space, phi.ambient_dim)[0]
    else:
        f0 = phi.canonical_selection()
    seq = run_iteration(phi, f0, config)
    audit = verify_sequence(seq)
    report = {
        "command": "select",
        "sequence": sequence_to_dict(seq),
        "tail_bound": seq.tail_bound,
        "checks": {
            **{f"round_{r['n']}": _outcomes(r["checks"]) for r in audit["rounds"]},
            **_outcomes(audit["sequence_checks"]),
        },
        "passed": audit["passed"],
    }
    _emit(opts.get("out"), report)
    if opts.get("tables_dir"):
        tables_dir = Path(opts["tables_dir"])
        tables_dir.mkdir(parents=True, exist_ok=True)
        for n, text in enumerate(selection_csv_texts(seq.tables)):
            (tables_dir / f"f{n}.csv").write_bytes(text.encode("ascii"))
        print(f"selection tables written to {tables_dir}")
    return EXIT_OK if audit["passed"] else EXIT_CHECK_FAILED


def _cmd_plip(opts) -> int:
    space = SampledMetricSpace.from_json_dict(_load_json(opts["space"]))
    values = tables_from_dicts([_load_json(opts["table"])], space)[0]
    radii = opts.get("radii") or list(default_radii(space))
    keys = opts.get("points") or []
    points = [space.key_row(p) for p in keys] or range(len(space))
    unknown = [p for p, row in zip(keys, points) if row is None]
    if unknown:
        raise SchemaError(f"unknown point id(s) {unknown!r}")
    profiles = plip_profile(values, space, points, radii)
    report = {
        "command": "plip",
        "radii": radii,
        "estimates": dict(zip(map(str, profiles.points.tolist()), profiles.estimates.tolist())),
    }
    _emit(opts.get("out"), report)
    if opts.get("profiles_csv"):
        Path(opts["profiles_csv"]).write_bytes(profile_csv_text(profiles).encode("ascii"))
        print(f"profiles written to {opts['profiles_csv']}")
    return EXIT_OK


def _cmd_bartle_graves(opts) -> int:
    T = LinearSurjection.from_json_dict(_load_json(opts["matrix"]))
    given = {key: opts[key] for key in ("sphere_count", "seed", "rounds") if key in opts}
    seq = bg.build_right_inverse(T, beta=opts["beta"], **given)
    report = {"command": "bartle-graves", **bg.verify_right_inverse(T, seq)}
    _emit(opts.get("out"), report)
    if opts.get("tau_csv"):
        Path(opts["tau_csv"]).write_bytes(selection_csv_texts(seq.tables[-1:])[0].encode("ascii"))
        print(f"sphere table written to {opts['tau_csv']}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _cmd_verify(opts) -> int:
    phi = Correspondence.from_json_dict(_load_json(opts["correspondence"]))
    seq = sequence_from_dict(_load_json(opts["sequence"]), phi)
    audit = verify_sequence(seq)
    report = {"command": "verify", **audit, "sequence_checks": _outcomes(audit["sequence_checks"])}
    _emit(opts.get("out"), report)
    for r in audit["rounds"]:
        print(f"round {r['n']}: {'pass' if r['passed'] else 'FAIL'}")
    return EXIT_OK if audit["passed"] else EXIT_CHECK_FAILED


# verb -> (handler, help, required option keys, other option keys); every
# verb also takes --config, and a key's flag is "--" plus the key with "-"
# in place of "_"
VERBS = {
    "separate": (_cmd_separate, "maximal separations and hierarchies", ("space",), ("r", "rounds", "out")),
    "select": (_cmd_select, "run the selection iteration", ("correspondence", "iteration"), ("f0", "tables_dir", "out")),
    "plip": (_cmd_plip, "pointwise Lipschitz profiles", ("space", "table"), ("points", "radii", "profiles_csv", "out")),
    "bartle-graves": (
        _cmd_bartle_graves,
        "homogeneous right-inverse pipeline",
        ("matrix", "beta"),
        ("rounds", "sphere_count", "seed", "tau_csv", "out"),
    ),
    "verify": (_cmd_verify, "re-check a stored selection sequence", ("correspondence", "sequence"), ("out",)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _usage() -> str:
    lines = ["usage: lipselect VERB --FLAG VALUE ...", "(flags in brackets are optional; a --config JSON object may give any)"]
    for verb, (_, help_text, required, optional) in VERBS.items():
        flags = [_flag(key) for key in required] + [f"[{_flag(key)}]" for key in ("config", *optional)]
        lines += [f"  {verb:<15}{help_text}", f"  {'':<15}{' '.join(flags)}"]
    return "\n".join(lines) + "\n"


def _parse(argv: list) -> tuple:
    """The verb of ``argv`` and its flags as ``{key: text}``."""
    verb, rest = argv[0], argv[1:]
    if verb not in VERBS:
        raise SchemaError(f"unknown verb {verb!r}; expected one of {', '.join(VERBS)}")
    _, _, required, optional = VERBS[verb]
    keys = {_flag(key): key for key in ("config", *required, *optional)}
    flags = {}
    for flag, value in zip(rest[::2], rest[1::2] + [None]):
        if flag not in keys:
            raise SchemaError(f"{verb} takes no flag {flag!r}")
        if value is None:
            raise SchemaError(f"{flag} needs a value")
        flags[keys[flag]] = value
    return verb, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or "-h" in argv or "--help" in argv:
        print(_usage(), end="", file=sys.stdout if argv else sys.stderr)
        return EXIT_OK if argv else EXIT_SCHEMA
    # a verb's documents hold no reference cycles, so the cyclic collector
    # would only re-scan them; it is back on afterwards if it was on
    collecting = gc.isenabled()
    gc.disable()
    try:
        verb, flags = _parse(argv)
        handler, _, required, optional = VERBS[verb]
        opts = _merge_config(flags, required + optional)
        missing = [key for key in required if key not in opts]
        if missing:
            raise SchemaError(f"{verb} requires {_flag(missing[0])}")
        return handler(opts)
    # an unreadable input or unwritable output path is a document problem
    except (SchemaError, OSError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PreconditionError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (LipselectError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
