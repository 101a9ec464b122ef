"""File formats for jobs and reports.

One JSON-compatible input grammar covers every job input, selected by the
top-level "kind" field:

* ``complex`` -- trace context, ambient dimensions per degree, dense
  differentials; complex numbers are written as ``[re, im]`` pairs.
* ``cw``      -- a representation, cells per degree as label lists, and
  incidence records ``{"from": .., "to": .., "word": [[elem, coeff], ..]}``.
* ``gluing``  -- embedded lower/upper ``cw`` objects plus coupling records
  in the same incidence shape.
* ``ses``     -- three embedded ``complex`` objects (sub, middle, quotient)
  and the per-degree matrices of the inclusion and projection.
* ``laurent`` -- a matrix of Laurent polynomials; each entry is the list of
  its ``[exponent, re, im]`` triples.

Reports are emitted in a canonical JSON form: object keys sorted, two-space
indentation, floats written with 15 significant digits after being
quantized to exactly the value those digits denote — so parsing an emitted
report and re-emitting it reproduces the same bytes.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import DataValidationError, NumericalError
from .kernel import is_integer, word_element

if TYPE_CHECKING:
    from .cells import GluingSpec, TwistedCellComplex
    from .complexes import CochainComplex
    from .exact import ComplexSES
    from .towers import LaurentMatrix

KINDS = ("complex", "cw", "gluing", "ses", "laurent")


# ---------------------------------------------------------------------------
# reading


def load_input(path: str) -> dict:
    """Read a job-input file and check its kind tag."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DataValidationError(f"cannot read input: {exc}", location=path) from None
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"not valid JSON: {exc}", location=path) from None
    if not isinstance(data, dict):
        raise DataValidationError("input must be a JSON object", location=path)
    kind = data.get("kind")
    if kind not in KINDS:
        raise DataValidationError(
            f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}",
            location=path)
    return data


def parse_scalar(value, where: str) -> complex:
    """A finite complex number: ``[re, im]`` pair, or a bare real number
    (``json.load`` reads ``NaN``, ``Infinity`` and ``1e400`` as non-finite)."""
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all((isinstance(x, float) or is_integer(x)) and abs(x) <= sys.float_info.max
               for x in pair):
        raise DataValidationError(
            f"expected a finite number or [re, im] pair, got {value!r}", location=where)
    return complex(*pair)


def parse_matrix(value, where: str) -> np.ndarray:
    """A dense matrix: nested rows of ``[re, im]`` entries."""
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise DataValidationError("matrix must be a list of rows", location=where)
    rows = []
    width = None
    for i, row in enumerate(value):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataValidationError("matrix rows have unequal lengths",
                                      location=where)
        rows.append([parse_scalar(x, f"{where} row {i}") for x in row])
    if width is None:
        raise DataValidationError("matrix has no rows", location=where)
    return np.asarray(rows, dtype=np.complex128).reshape(len(rows), width)


def parse_shaped_matrix(value, shape: tuple[int, int], where: str) -> np.ndarray:
    """A matrix of the given (rows, cols): nested rows as in ``parse_matrix``,
    or ``[]`` / ``null`` when a side is 0."""
    if 0 in shape and value in ([], None):
        return np.zeros(shape, np.complex128)
    matrix = parse_matrix(value, where)
    if matrix.shape != shape:
        raise DataValidationError(
            f"matrix has shape {matrix.shape}, expected {shape}", location=where)
    return matrix


def parse_context(obj, where: str):
    """A trace context; every error names ``where``."""
    try:
        return _context(obj)
    except DataValidationError as exc:
        raise DataValidationError(str(exc), location=where) from None


def _context(obj):
    from .vn import complex_field, cyclic_group, finite_group
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise DataValidationError("context needs a 'type' field")
    kind = obj["type"]
    if kind == "complex_field":
        return complex_field()
    if kind == "cyclic":
        order = obj.get("order")
        if not is_integer(order):
            raise DataValidationError("cyclic context needs integer 'order'")
        return cyclic_group(order)
    if kind == "finite_group":
        table, labels = obj.get("table"), obj.get("labels")
        if not isinstance(table, list) or any(
                not isinstance(row, list) or len(row) != len(table) for row in table):
            raise DataValidationError("finite_group context needs a square 'table'")
        n = len(table)
        if not all(is_integer(x) and 0 <= x < n for row in table for x in row):
            raise DataValidationError(
                f"group table entries must be integers in [0, {n})")
        if labels is not None and not isinstance(labels, list):
            raise DataValidationError("group 'labels' must be a list")
        return finite_group(table, labels)
    raise DataValidationError(f"unknown context type {kind!r}")


def parse_complex(obj, where: str = "complex") -> CochainComplex:
    from .complexes import CochainComplex
    from .vn import HilbertModule, Morphism
    ctx = parse_context(obj.get("context", {"type": "complex_field"}),
                        f"{where}.context")
    dims = obj.get("modules")
    if not isinstance(dims, list) or not all(is_integer(d) for d in dims):
        raise DataValidationError("'modules' must list ambient dimensions",
                                  location=where)
    for i, d in enumerate(dims):
        if d < 0:
            raise DataValidationError("ambient dimension must be >= 0",
                                      location=f"{where}.modules[{i}]")
    offset = obj.get("offset", 0)
    if not is_integer(offset):
        raise DataValidationError("'offset' must be an integer", location=where)
    modules = [HilbertModule(ctx, d) for d in dims]
    raw_diffs = obj.get("differentials", [])
    if not isinstance(raw_diffs, list):
        raise DataValidationError("'differentials' must be a list of matrices",
                                  location=where)
    if len(raw_diffs) != max(0, len(modules) - 1):
        raise DataValidationError(
            f"{len(modules)} modules need {max(0, len(modules) - 1)} "
            f"differentials, got {len(raw_diffs)}", location=where)
    diffs = [Morphism(modules[i], modules[i + 1], parse_shaped_matrix(
                 raw, (dims[i + 1], dims[i]), f"{where}.differentials[{i}]"))
             for i, raw in enumerate(raw_diffs)]
    return CochainComplex(modules, diffs, offset)


def parse_word(value, where: str) -> tuple:
    """A word: its elements as read by ``kernel.word_element``."""
    if not isinstance(value, list):
        raise DataValidationError("word must be a list of [element, coeff]",
                                  location=where)
    out = []
    for i, pair in enumerate(value):
        spot = f"{where}[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise DataValidationError("word entries are [element, coeff] pairs",
                                      location=spot)
        try:
            element = word_element(pair[0])
        except DataValidationError as exc:
            raise DataValidationError(str(exc), location=spot) from None
        out.append((element, parse_scalar(pair[1], spot)))
    return tuple(out)


def parse_representation(obj, where: str):
    from .cells import InfiniteCyclic, RegularRepresentation, UnitaryRepresentation
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise DataValidationError("representation needs a 'type' field",
                                  location=where)
    kind = obj["type"]
    if kind == "regular":
        ctx = parse_context(obj.get("context", {}), f"{where}.context")
        fiber_dim = obj.get("fiber_dim", 1)
        if not is_integer(fiber_dim) or fiber_dim < 1:
            raise DataValidationError("'fiber_dim' must be a positive integer",
                                      location=where)
        return RegularRepresentation(ctx, fiber_dim=fiber_dim)
    if kind == "unitary":
        gens = obj.get("generators")
        if not isinstance(gens, Mapping):
            raise DataValidationError("unitary representation needs 'generators'",
                                      location=where)
        matrices = {label: parse_matrix(mat, f"{where}.generators[{label}]")
                    for label, mat in gens.items()}
        try:
            return UnitaryRepresentation(matrices)
        except DataValidationError as exc:  # a generator that is not square or unitary
            raise DataValidationError(str(exc), location=f"{where}.generators") from None
    if kind == "infinite_cyclic":
        return InfiniteCyclic()
    raise DataValidationError(f"unknown representation type {kind!r}",
                              location=where)


def _parse_incidences(obj: Mapping, key: str, where: str, rep) -> dict:
    """The incidence records ``obj[key]`` (default none); every word element
    must be one the representation ``rep`` knows."""
    records = obj.get(key, [])
    where = f"{where}.{key}"
    if not isinstance(records, list):
        raise DataValidationError(f"'{key}' must be a list of records",
                                  location=where)
    element = getattr(rep, "element", None)  # infinite-cyclic words are read later
    out = {}
    for i, record in enumerate(records):
        spot = f"{where}[{i}]"
        if not isinstance(record, Mapping) or \
                not {"from", "to", "word"} <= set(record):
            raise DataValidationError(
                "incidence records need 'from', 'to' and 'word'", location=spot)
        if not (isinstance(record["from"], str) and isinstance(record["to"], str)):
            raise DataValidationError(
                "incidence 'from' and 'to' must be cell labels (strings)",
                location=spot)
        pair = (record["to"], record["from"])
        if pair in out:
            raise DataValidationError(
                f"duplicate incidence {record['from']!r} -> {record['to']!r}",
                location=spot)
        out[pair] = parse_word(record["word"], f"{spot}.word")
        if element is None:
            continue
        for j, (e, _) in enumerate(out[pair]):
            try:
                element(e)
            except DataValidationError as exc:  # an unknown generator or group element
                raise DataValidationError(str(exc), location=f"{spot}.word[{j}]") from None
    return out


def parse_cw(obj, where: str = "cw") -> TwistedCellComplex:
    from .cells import TwistedCellComplex
    rep = parse_representation(obj.get("representation", {}),
                               f"{where}.representation")
    top = obj.get("top_degree")
    if not is_integer(top):
        raise DataValidationError("'top_degree' must be an integer",
                                  location=where)
    raw_cells = obj.get("cells", {})
    if not isinstance(raw_cells, Mapping):
        raise DataValidationError("'cells' must map degree to label list",
                                  location=where)
    cells = {}
    for key, labels in raw_cells.items():
        try:
            degree = int(key)
        except (TypeError, ValueError):
            raise DataValidationError(f"cell degree {key!r} is not an integer",
                                      location=f"{where}.cells") from None
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise DataValidationError("cells are lists of string labels",
                                      location=f"{where}.cells[{key}]")
        cells[degree] = tuple(labels)
    incidences = _parse_incidences(obj, "incidences", where, rep)
    try:
        return TwistedCellComplex(representation=rep, cells=cells,
                                  incidences=incidences, top_degree=top)
    except DataValidationError as exc:  # labels, degrees and the window
        raise DataValidationError(str(exc), location=where) from None


def parse_gluing(obj, where: str = "gluing") -> GluingSpec:
    """The gluing of a ``gluing`` input; a window mismatch names ``where``
    and a coupling between the wrong cells names its record."""
    from .cells import GluingSpec, check_coupling, check_windows
    for part in ("lower", "upper"):
        if not isinstance(obj.get(part), Mapping):
            raise DataValidationError(f"gluing needs an embedded '{part}' complex",
                                      location=where)
    lower = parse_cw(obj["lower"], f"{where}.lower")
    upper = parse_cw(obj["upper"], f"{where}.upper")
    # the glued complex reads the coupling words in the upper representation
    coupling = _parse_incidences(obj, "coupling", where, upper.representation)
    spot = where
    try:
        check_windows(lower, upper)
        for i, (to_cell, from_cell) in enumerate(coupling):
            spot = f"{where}.coupling[{i}]"
            check_coupling(lower, upper, to_cell, from_cell)
    except DataValidationError as exc:
        raise DataValidationError(str(exc), location=spot) from None
    return GluingSpec(lower=lower, upper=upper, coupling=coupling)


def parse_ses(obj, where: str = "ses", rank_tol: float | None = None) -> ComplexSES:
    """The sequence of a ``ses`` input, with ``rank_tol`` as its rank cutoff."""
    from .complexes import ComplexMorphism
    from .exact import ComplexSES
    from .vn import Morphism
    parts = {}
    for part in ("sub", "middle", "quotient"):
        if not isinstance(obj.get(part), Mapping):
            raise DataValidationError(f"ses needs an embedded '{part}' complex",
                                      location=where)
        parts[part] = parse_complex(obj[part], f"{where}.{part}")
    sub, middle, quotient = parts["sub"], parts["middle"], parts["quotient"]

    def _morphism(source, target, key):
        raw = obj.get(key)
        if not isinstance(raw, list) or len(raw) != len(source.modules):
            raise DataValidationError(
                f"'{key}' must list one matrix per degree "
                f"({len(source.modules)} expected)", location=where)
        comps = []
        for i, entry in enumerate(raw):
            dom, cod = source.modules[i], target.modules[i]
            matrix = parse_shaped_matrix(entry, (cod.ambient_dim, dom.ambient_dim),
                                         f"{where}.{key}[{i}]")
            comps.append(Morphism(dom, cod, matrix))
        return ComplexMorphism(source, target, comps)

    include = _morphism(sub, middle, "include")
    project = _morphism(middle, quotient, "project")
    return ComplexSES(include, project, rank_tol=rank_tol)


def parse_laurent_matrix(obj, where: str = "laurent") -> LaurentMatrix:
    from .towers import LaurentMatrix, LaurentPoly
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows:
        raise DataValidationError("'rows' must be a non-empty list",
                                  location=where)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DataValidationError("each row is a list of entries",
                                      location=f"{where}.rows[{i}]")
        entries = []
        for j, entry in enumerate(row):
            spot = f"{where}.rows[{i}][{j}]"
            if not isinstance(entry, list):
                raise DataValidationError(
                    "each entry is a list of [exponent, re, im] triples",
                    location=spot)
            terms = []
            for triple in entry:
                if (not isinstance(triple, list) or len(triple) != 3
                        or not is_integer(triple[0])):
                    raise DataValidationError(
                        f"expected [exponent, re, im], got {triple!r}",
                        location=spot)
                terms.append((triple[0], parse_scalar(triple[1:], spot)))
            entries.append(LaurentPoly(tuple(terms)))
        parsed.append(entries)
    return LaurentMatrix.from_lists(parsed)


# ---------------------------------------------------------------------------
# canonical emission


def quantize(value: float) -> float:
    """The float denoted by the 15-significant-digit decimal of ``value``."""
    if not math.isfinite(value):
        raise NumericalError("report contains a non-finite number")
    return float(format(value, ".15g"))


def _coerce(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        raise NumericalError("reports carry log-scale reals, not complex values")
    return value


def _emit(value, depth: int) -> str:
    value = _coerce(value)
    pad = "  " * (depth + 1)
    close = "  " * depth
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(str(k) for k in value)
        if len(keys) != len(value):
            raise NumericalError("report keys collide after string coercion")
        items = {str(k): v for k, v in value.items()}
        body = ",\n".join(f"{pad}{json.dumps(k)}: {_emit(items[k], depth + 1)}"
                          for k in keys)
        return "{\n" + body + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(f"{pad}{_emit(x, depth + 1)}" for x in value)
        return "[\n" + body + "\n" + close + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(quantize(value), ".15g")
    if isinstance(value, str):
        return json.dumps(value)
    raise NumericalError(f"cannot serialize {type(value).__name__} in a report")


def canonical_json(report) -> str:
    """Serialize a report so that parse-then-emit is byte-identical."""
    return _emit(report, 0) + "\n"


def _format_value(value):
    value = _coerce(value)
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return format(quantize(value), ".15g")
    return str(value)


def _text_lines(value, indent: int, lines: list) -> None:
    pad = "  " * indent  # value is coerced; each item is coerced once, here
    if isinstance(value, dict):
        items = {str(k): _coerce(v) for k, v in value.items()}
        for key in sorted(str(k) for k in value):
            item = items[key]
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                _text_lines(item, indent + 1, lines)
            else:
                shown = "[]" if isinstance(item, (list, tuple)) else \
                    "{}" if isinstance(item, dict) else _format_value(item)
                lines.append(f"{pad}{key}: {shown}")
    elif isinstance(value, (list, tuple)):
        for item in map(_coerce, value):
            if isinstance(item, dict) and item and \
                    all(not isinstance(_coerce(v), (dict, list, tuple))
                        for v in item.values()):
                row = "  ".join(f"{k}={_format_value(v)}"
                                for k, v in sorted(item.items(),
                                                   key=lambda kv: str(kv[0])))
                lines.append(f"{pad}- {row}")
            elif isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _text_lines(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_format_value(item)}")
    else:
        lines.append(f"{pad}{_format_value(value)}")


def report_text(report) -> str:
    """Human-oriented rendering: one aligned key/value line per entry."""
    lines: list = []
    _text_lines(_coerce(report), 0, lines)
    return "\n".join(lines) + "\n"
