"""Exception types shared across the toolkit, and every file open.

Every refusal is a LandauerError, itself a ValueError, so the CLI maps
this family alone, with MemoryError, onto exit code 1 and a structured
report.  read_text raises UnreadableInput for a file that cannot be read
or is not UTF-8, and read_stdin, the one reader of sys.stdin, for a
closed or unreadable stdin or one that is not UTF-8; load_json, on top of
read_text, MalformedInput for text that is not JSON or is nested too
deeply to parse; save_json UnwritableOutput, and write_stdout, the one
writer of sys.stdout, UnwritableOutput for a closed or failing stdout.
json_field makes a missing or ill-typed document field a MalformedInput.
"""

from __future__ import annotations

import json
import os
import sys


class LandauerError(ValueError):
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


def read_text(path: str) -> str:
    """The UTF-8 text of the file at path; raises UnreadableInput."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_stdin() -> str:
    """All of standard input as text; raises UnreadableInput when stdin is
    closed (Python then sets sys.stdin to None), unreadable or not UTF-8."""
    if sys.stdin is None:
        raise UnreadableInput("cannot read stdin: it is closed")
    try:
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read stdin: {getattr(exc, 'strerror', None) or exc}") from None


def write_stdout(text: str) -> None:
    """Write text to standard output and flush it; raises UnwritableOutput
    when stdout is closed (Python sets sys.stdout to None when the shell
    closed it) or the write fails, as on a full device or a pipe whose
    reader has gone.  A failed write first points the stdout descriptor at
    os.devnull, so the interpreter's flush at exit finds nothing to fail on
    and prints no second error."""
    stream = sys.stdout
    if stream is None or stream.closed:
        raise UnwritableOutput("cannot write stdout: it is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise UnwritableOutput(f"cannot write stdout: {exc.strerror or exc}") from None


def load_json(path: str, what: str):
    """The JSON document in the file at path; text that is not JSON, or
    nesting too deep for the parser, raises MalformedInput."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise MalformedInput(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput(f"{what} JSON is nested too deeply to parse") from None


def save_json(doc, path: str) -> None:
    """Write doc to the file at path as indented JSON; raises UnwritableOutput."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path!r}: {exc.strerror or exc}") from exc
