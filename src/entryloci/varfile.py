"""Plain-text variety files.

Format (one item per line, blank lines and '#' comments ignored):

    ring x0 x1 x2 x3 over Q         # or: over Fp:2147483659
    param s0 s1                     # optional parameter variables
    gen: x1^2 - x0*x2               # any number of ideal generators
    par: s0^3                       # r+1 parametrization forms, in order
    meta: name=rnc3 d=3 g=0 n=1     # optional metadata
"""

from __future__ import annotations

from .geometry import Parametrization, ProjectiveVariety
from .kernel.errors import CoefficientError, ParseError
from .kernel.fields import field_from_descriptor
from .kernel.ideals import Ideal
from .kernel.poly import RingContext


def read_variety(text: str) -> ProjectiveVariety:
    ring = None
    pring = None
    gens = []
    pars = []
    meta = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring "):
            body = line[5:]
            if " over " not in body:
                raise ParseError(f"line {lineno}: ring line needs 'over <field>'", 0)
            names_part, field_part = body.rsplit(" over ", 1)
            names = tuple(names_part.split())
            try:
                field = field_from_descriptor(field_part)
            except CoefficientError as err:
                raise ParseError(f"line {lineno}: {err}", 0) from None
            ring = RingContext(names, field)
        elif line.startswith("param "):
            if ring is None:
                raise ParseError(f"line {lineno}: param before ring", 0)
            pring = RingContext(tuple(line[6:].split()), ring.field)
        elif line.startswith("gen:"):
            if ring is None:
                raise ParseError(f"line {lineno}: gen before ring", 0)
            gens.append(ring.from_string(line[4:]))
        elif line.startswith("par:"):
            if pring is None:
                raise ParseError(f"line {lineno}: par before param", 0)
            pars.append(pring.from_string(line[4:]))
        elif line.startswith("meta:"):
            for chunk in line[5:].split():
                if "=" not in chunk:
                    continue
                key, value = chunk.split("=", 1)
                try:
                    meta[key] = int(value)
                except ValueError:
                    meta[key] = value
        else:
            raise ParseError(f"line {lineno}: unrecognized directive", 0)
    if ring is None:
        raise ParseError("missing ring line", 0)
    param = None
    if pars:
        if len(pars) != ring.nvars:
            raise ParseError(
                f"need {ring.nvars} parametrization forms, got {len(pars)}", 0
            )
        param = Parametrization(pring, tuple(pars))
    meta.setdefault("name", "file_variety")
    meta.setdefault("key", meta["name"])
    ideal = Ideal.of(ring, gens)
    return ProjectiveVariety(ring.nvars - 1, ideal, param, meta)


def read_variety_file(path: str) -> ProjectiveVariety:
    with open(path, "r", encoding="utf-8") as fh:
        return read_variety(fh.read())

