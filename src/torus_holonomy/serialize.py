"""File formats and atomic output helpers.

Operators ship as JSON with a model echo, the lexicographic layout tag and
row-major [re, im] entries.  A full-lattice operator is block diagonal and
mostly zeros, so in memory its entries are ``(re, im)`` tuples of Python
floats, built only at the nonzero positions, and every entry whose parts are
both ``+0.0`` is one shared pair: a payload costs memory and time in
proportion to its nonzero entries.  The files are the bytes a list per entry
would give.  JSON files are one compact line with sorted keys, written
without ``indent`` so that ``json`` uses its C encoder, and without its
cycle check, since every payload is a tree the package builds.  An operator
payload's entries are the one part written without the encoder: each shared
zero pair is one constant text and every other part is ``float.__repr__``,
so writing a payload also costs time in proportion to its nonzero entries.
Trajectories ship as CSV with 17 significant digits, each row formatted
from Python floats by one format string; the bytes are those of formatting
every value with ``:.17g``.  All writers go through a temp file plus atomic
rename so failures never leave partial outputs.  JSON payloads and
trajectories with a non-finite number are refused before any file is
created: JSON has no form for them, and such a trajectory means the flow
did not stay bounded.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .classical import Trajectory
from .errors import TorusHolonomyError
from .lattice import TorusModel
from .operators import OperatorMatrix


def model_payload(model: TorusModel) -> dict:
    return {
        "m": model.m,
        "controlled": list(model.controlled),
        "offsets": list(model.offsets),
        "truncation": model.truncation,
    }


# the entry of every +0.0 + 0.0j element; immutable, so sharing it cannot alias
_ZERO_ENTRY = (0.0, 0.0)


def operator_payload(op: OperatorMatrix) -> dict:
    # zeros are found on the raw words, so an entry with a -0.0 part keeps its own pair
    flat = op.matrix.reshape(-1)
    words = flat.view(np.uint64).reshape(-1, 2)
    nonzero = np.flatnonzero(words[:, 0] | words[:, 1])
    values = flat[nonzero]
    entries = [_ZERO_ENTRY] * flat.size
    for i, pair in zip(nonzero.tolist(), zip(values.real.tolist(), values.imag.tolist())):
        entries[i] = pair
    return {
        "format": "operator",
        "model": model_payload(op.model),
        "layout": "lexicographic modes, |n_k| <= truncation",
        "shape": list(op.matrix.shape),
        "entries": entries,
    }


def trajectory_csv(trajectory: Trajectory) -> str:
    """Trajectory as CSV text; a table holding a non-finite number is refused."""
    m = trajectory.actions.shape[1]
    header = ["t"] + [f"I_{k + 1}" for k in range(m)] + [f"phi_{k + 1}" for k in range(m)]
    table = np.column_stack((trajectory.times, trajectory.actions, trajectory.angles))
    if not np.all(np.isfinite(table)):
        raise TorusHolonomyError("trajectory holds a non-finite number; the flow did not stay bounded")
    row = ",".join(["{:.17g}"] * (2 * m + 1))
    # one row of Python floats at a time: a whole-table tolist() costs peak memory
    lines = [",".join(header)]
    lines.extend(row.format(*values.tolist()) for values in table)
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write through a fresh temp file in the target directory, then rename.

    The temp file is created with mode 0666 less the umask, as a plain
    ``open(path, "w")`` would create it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _numpy_value(value):
    """JSON form of the numpy scalars and arrays ``json`` cannot encode itself."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    return json.dumps(
        value, sort_keys=True, allow_nan=False, check_circular=False, default=_numpy_value
    )


def _operator_text(payload: Mapping) -> str:
    """An operator payload as ``_dumps`` writes it, its entries rendered pair by pair.

    Every shared ``_ZERO_ENTRY`` is one constant text, and every other part
    goes through ``float.__repr__``, which is what the encoder writes for a
    float, so the entries cost time in proportion to the nonzero ones.  The
    other keys go through ``_dumps``, and all pieces are joined once, so the
    text is built once.  ``float.__repr__`` spells a non-finite part ``nan``,
    ``inf`` or ``-inf``, and no finite part holds an ``n``: one search of
    the entries' span of the text finds them.
    """
    keys = sorted(payload)
    at = keys.index("entries")
    head = "".join(f"{_dumps(key)}: {_dumps(payload[key])}, " for key in keys[:at])
    tail = "".join(f", {_dumps(key)}: {_dumps(payload[key])}" for key in keys[at + 1 :])
    prefix, suffix = f'{{{head}"entries": [', f"]{tail}}}\n"
    number = float.__repr__
    pieces = [
        "[0.0, 0.0]" if pair is _ZERO_ENTRY else f"[{number(pair[0])}, {number(pair[1])}]"
        for pair in payload["entries"]
    ]
    pieces[0] = prefix + pieces[0]
    pieces[-1] += suffix
    joined = ", ".join(pieces)
    if joined.find("n", len(prefix), len(joined) - len(suffix)) >= 0:
        raise ValueError("Out of range float values are not JSON compliant")
    return joined


def json_text(payload: Mapping) -> str:
    """Payload as JSON text; non-finite numbers have no JSON form and are refused.

    An ``operator`` payload's entries are rendered by ``_operator_text``;
    its bytes are those of ``json.dumps`` with sorted keys.
    """
    try:
        if payload.get("format") == "operator":
            return _operator_text(payload)
        return _dumps(payload) + "\n"
    except ValueError as exc:
        raise TorusHolonomyError(f"payload cannot be written as JSON: {exc}") from exc


def atomic_write_json(path: str, payload: Mapping) -> None:
    atomic_write_text(path, json_text(payload))
