"""Text format for pulse sequences.

One statement per line, ``#`` starts a comment.  Statements:

    init S:-1/2
    pulse optical <area> <S-level> <D-level> phase <phase>
    pulse rf <area> phase <phase>
    wait <duration>
    repeat <N> { ... }
    measure

Areas accept ``pi`` literals (``pi``, ``pi/2``, ``0.5pi``, ``2pi``) or
decimal radians.  Durations take ns/us/ms/s suffixes.  Inside a repeat
block, ``alt(a,b)`` alternates a phase per iteration.  ``$name`` marks a
scan variable bound at parse time through the ``variables`` mapping.

The format holds elements only: the parser returns a sequence with no
``n_echo``/``tau``, and the serializer writes one statement per element,
floats via repr, so its text parses back to the same elements.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, Overflow

from .atommodel import BASIS_LABELS, D_INDEX
from .errors import SequenceSemanticError, SequenceSyntaxError
from .sequence import Measure, OpticalPulse, PulseSequence, RFPulse, Wait

_TIME_SUFFIXES = {"ns": "1e-9", "us": "1e-6", "ms": "1e-3", "s": "1"}
_PI_RE = re.compile(r"^([+-]?)(\d+\.?\d*|\.\d+)?pi(?:/(\d+\.?\d*))?$")
_DURATION_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(ns|us|ms|s)$")
_D_LEVEL_M = {BASIS_LABELS[i]: m for m, i in D_INDEX.items()}


def _parse_number(token: str, variables, line_no: int,
                  duration: bool = False) -> float:
    """A $variable or a literal -> finite float.  Literals are decimal
    numbers plus, for a ``duration``, suffixed times (``250us``), and
    otherwise pi-literals (radians)."""
    if token.startswith("$"):
        name = token[1:]
        if variables is None or name not in variables:
            raise SequenceSemanticError(
                f"line {line_no}: unbound scan variable ${name}")
        value = float(variables[name])
    elif duration and (m := _DURATION_RE.match(token)):
        # decimal arithmetic keeps e.g. "250us" bit-identical to the literal 250e-6
        try:
            value = float(Decimal(m.group(1)) * Decimal(_TIME_SUFFIXES[m.group(2)]))
        except Overflow:        # past even Decimal's exponent range
            value = math.inf
    elif not duration and (m := _PI_RE.match(token)):
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        value = sign * coeff * math.pi / div if div else math.inf
    else:
        try:
            value = float(token)
        except ValueError:
            raise SequenceSyntaxError(
                f"bad duration {token!r} (use e.g. 250us, 1.5ms)" if duration
                else f"expected a number, pi-literal or $var, got {token!r}",
                line=line_no, column=1) from None
    if not math.isfinite(value):
        raise SequenceSemanticError(
            f"line {line_no}: {token!r} is not a finite number")
    return value


def _check_level(label: str, line_no: int, manifold: str | None = None) -> str:
    if label not in BASIS_LABELS:
        raise SequenceSemanticError(f"line {line_no}: unknown level label {label!r}")
    if manifold and not label.startswith(manifold):
        raise SequenceSemanticError(
            f"line {line_no}: expected a {manifold} level, got {label!r}")
    return label


def _parse_phase(token: str, variables, line_no: int, allow_alt: bool):
    """A phase, or the pair (a, b) of ``alt(a,b)``."""
    m = re.match(r"^alt\((.+),(.+)\)$", token)
    if m:
        if not allow_alt:
            raise SequenceSemanticError(
                f"line {line_no}: alt(...) is only valid inside a repeat block")
        return (_parse_number(m.group(1).strip(), variables, line_no),
                _parse_number(m.group(2).strip(), variables, line_no))
    return _parse_number(token, variables, line_no)


def _parse_area(token: str, variables, line_no: int) -> float:
    area = _parse_number(token, variables, line_no)
    if area < 0:
        raise SequenceSemanticError(f"line {line_no}: negative pulse area")
    return area


def _parse_statement(parts, variables, line_no, in_repeat):
    """One statement -> element, None for ``init``, or for an ``alt``
    RF pulse the pair of elements of even and odd iterations."""
    head = parts[0]
    if head == "measure":
        if len(parts) != 1:
            raise SequenceSyntaxError("measure takes no arguments", line=line_no, column=1)
        return Measure()
    if head == "wait":
        if len(parts) != 2:
            raise SequenceSyntaxError("usage: wait <duration>", line=line_no, column=1)
        tau = _parse_number(parts[1], variables, line_no, duration=True)
        if tau < 0:
            raise SequenceSemanticError(f"line {line_no}: negative wait duration")
        return Wait(tau)
    if head == "init":
        if len(parts) != 2:
            raise SequenceSyntaxError("usage: init <level>", line=line_no, column=1)
        _check_level(parts[1], line_no)
        return None  # declaration only; initial state is supplied at run time
    if head == "pulse":
        if len(parts) < 2:
            raise SequenceSyntaxError("usage: pulse optical|rf ...", line=line_no, column=1)
        kind = parts[1]
        if kind == "rf":
            # pulse rf <area> phase <phase>
            if len(parts) != 5 or parts[3] != "phase":
                raise SequenceSyntaxError("usage: pulse rf <area> phase <phase>",
                                          line=line_no, column=1)
            area = _parse_area(parts[2], variables, line_no)
            phase = _parse_phase(parts[4], variables, line_no, allow_alt=in_repeat)
            if isinstance(phase, tuple):
                return tuple(RFPulse(area=area, rf_phase=p) for p in phase)
            return RFPulse(area=area, rf_phase=phase)
        if kind == "optical":
            # pulse optical <area> <S-level> <D-level> phase <phase>
            if len(parts) != 7 or parts[5] != "phase":
                raise SequenceSyntaxError(
                    "usage: pulse optical <area> <S-level> <D-level> phase <phase>",
                    line=line_no, column=1)
            area = _parse_area(parts[2], variables, line_no)
            _check_level(parts[3], line_no, manifold="S")
            d_level = _check_level(parts[4], line_no, manifold="D")
            if parts[3] != "S:-1/2":
                raise SequenceSemanticError(
                    f"line {line_no}: optical pulses couple S:-1/2 only")
            phase = _parse_phase(parts[6], variables, line_no, allow_alt=False)
            return OpticalPulse(target_m=_D_LEVEL_M[d_level], area=area,
                                laser_phase=phase)
        raise SequenceSyntaxError(f"unknown pulse kind {kind!r}", line=line_no, column=7)
    raise SequenceSyntaxError(f"unknown statement {head!r}", line=line_no, column=1)


def parse_sequence_text(text: str, variables: dict | None = None) -> PulseSequence:
    """Parse DSL text into a PulseSequence.

    Raises SequenceSyntaxError (with line/column) on malformed input and
    SequenceSemanticError for unknown labels, odd repeat counts on
    alternating-phase echo blocks, unbound variables, numbers that are not
    finite, negative areas and negative durations.
    """
    elements: list = []
    block = None        # open repeat block: (header line, count, body)
    for line_no, line in enumerate(text.splitlines(), start=1):
        raw = line.split("#", 1)[0].strip()
        if not raw:
            continue
        parts = raw.replace("{", " { ").split()
        if block is None and parts[0] == "repeat":
            if len(parts) != 3 or parts[2] != "{":
                raise SequenceSyntaxError("usage: repeat <N> {", line=line_no, column=1)
            try:
                count = int(parts[1])
            except ValueError:
                raise SequenceSyntaxError(f"bad repeat count {parts[1]!r}",
                                          line=line_no, column=8) from None
            if count < 1:
                raise SequenceSemanticError(f"line {line_no}: repeat count must be >= 1")
            block = (line_no, count, [])
        elif block is not None and raw == "}":
            header, count, body = block
            block = None
            has_alt = any(isinstance(stmt, tuple) for stmt in body)
            if has_alt and count % 2 != 0:
                raise SequenceSemanticError(
                    f"line {header}: alternating-phase echo blocks must repeat "
                    f"an even number of times, got {count}")
            elements += [stmt[k % 2] if isinstance(stmt, tuple) else stmt
                         for k in range(count) for stmt in body]
        elif block is not None and raw.startswith("repeat"):
            raise SequenceSyntaxError("nested repeat is not supported",
                                      line=line_no, column=1)
        else:
            stmt = _parse_statement(parts, variables, line_no,
                                    in_repeat=block is not None)
            if stmt is not None:
                (elements if block is None else block[2]).append(stmt)
    if block is not None:
        raise SequenceSyntaxError("unterminated repeat block", line=block[0], column=1)
    if any(isinstance(e, Measure) for e in elements[:-1]):
        raise SequenceSemanticError("measure must be the final statement")
    return PulseSequence(tuple(elements))


def _format_area(area: float) -> str:
    for text, value in (("pi/2", math.pi / 2), ("pi", math.pi), ("2pi", 2 * math.pi),
                        ("3pi/2", 3 * math.pi / 2)):
        if area == value:
            return text
    return repr(area)


def _format_phase(phase: float) -> str:
    return _format_area(phase) if phase != 0.0 else "0"


def serialize_sequence(seq: PulseSequence) -> str:
    """Canonical DSL text, one statement per element; parsing it gives
    the same elements, and serializing those gives the same text."""
    out = ["init S:-1/2"]
    for e in seq.elements:
        if isinstance(e, OpticalPulse):
            out.append(f"pulse optical {_format_area(e.area)} S:-1/2 "
                       f"{BASIS_LABELS[D_INDEX[e.target_m]]} "
                       f"phase {_format_phase(e.laser_phase)}")
        elif isinstance(e, RFPulse):
            out.append(f"pulse rf {_format_area(e.area)} phase {_format_phase(e.rf_phase)}")
        elif isinstance(e, Wait):
            out.append(f"wait {repr(e.tau)}s")
        elif isinstance(e, Measure):
            out.append("measure")
        else:
            raise ValueError(f"cannot serialize element {e!r}")
    return "\n".join(out) + "\n"
