"""Exception types shared across the toolkit.

Every domain error raised by the library derives from LandauerError so the
CLI can map the whole family onto exit code 1 with a structured report.
json_field reads one field of a circuit or netlist document, so a missing
or ill-typed field is a MalformedInput rather than a KeyError; load_json
reads the document itself, so one nested too deeply to parse is a
MalformedInput rather than a RecursionError.
"""

from __future__ import annotations

import json


class LandauerError(Exception):
    """Base class for all domain errors."""


class WidthMismatch(LandauerError):
    """Input length does not match the circuit width / input count."""


class BadConstantLine(LandauerError):
    """A CONST_ONE line is not 1 or an ANCILLA_ZERO line is not 0."""


class DomainTooLarge(LandauerError):
    """An exhaustive sweep was requested beyond the width ceiling."""


class MalformedCode(LandauerError):
    """A self-delimiting header or codec bit stream cannot be parsed."""


class CodecNotInjective(LandauerError):
    """A codec failed the round-trip (injectivity) contract on its domain."""


class NotConservative(LandauerError):
    """A circuit required to preserve Hamming weight does not."""


class NonIntegralWeights(LandauerError):
    """w*n or (w+delta)*n is not an integer for the requested grid."""


class WidthTooSmall(LandauerError):
    """Circuit width is too small for the requested gate family."""


class GeneratorMismatch(LandauerError):
    """The generator circuit does not produce the expected string."""


class NonPositiveTemperature(LandauerError):
    """Joule conversion requires a finite temperature above 0 K."""


class StringTooShort(LandauerError):
    """A complexity rate was requested for a string below the minimum length."""


class InvariantViolated(LandauerError):
    """An internal invariant failed (catalyst changed, tape not left clean)."""


class UnreadableInput(LandauerError):
    """An input file cannot be opened or read."""


class MalformedInput(LandauerError):
    """A circuit or netlist document lacks a field or has one of the wrong type."""


class UnwritableOutput(LandauerError):
    """An output file cannot be created or written."""


def json_field(doc, key: str, kind: type, where: str, items: type | None = None):
    """doc[key] when it is a `kind` (a list of `items` when given).

    Raises MalformedInput when doc is not an object, lacks the key, or the
    value has another type; a bool never passes for an int.
    """
    if not isinstance(doc, dict):
        raise MalformedInput(f"{where} is not a JSON object")
    if key not in doc:
        raise MalformedInput(f"{where} has no {key!r}")
    value = doc[key]
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and items is not None:
        ok = all(isinstance(v, items) and not isinstance(v, bool) for v in value)
    if not ok:
        want = f"a list of {items.__name__}" if items is not None else kind.__name__
        raise MalformedInput(f"{where}: {key!r} must be {want}")
    return value


def load_json(path: str, what: str):
    """The JSON document in the file at path; nesting too deep for the
    parser raises MalformedInput."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedInput(f"{what} JSON is nested too deeply to parse") from None
