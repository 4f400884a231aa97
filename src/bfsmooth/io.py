"""CSV ingestion and plain-text model persistence.

Data files are delimited ASCII with d+1 numeric columns per row (the
last column is the dependent value).  Model files are a versioned text
format with every float written to 17 significant digits, which is
enough for an exact float64 round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, ParameterError, ParseError
from .interpolant import MODEL_KINDS, FittedModel, _check_model_rho
from .kernels import FAMILIES, KernelSpec
from .polyspace import PolyFrame

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DataTable:
    """Numeric scattered-data table: N points in R^d plus N values."""

    d: int
    X: np.ndarray
    y: np.ndarray


def _split_line(line: str, delimiter: str | None) -> list[str]:
    if delimiter is None:
        return line.split()
    return [f.strip() for f in line.split(delimiter)]


def _detect_delimiter(line: str) -> str | None:
    if "," in line:
        return ","
    if "\t" in line:
        return "\t"
    return None  # whitespace


def _check_rows(path: Path, lines, delimiter, arity: int | None):
    """Parse the data lines, (line number, text) pairs, one by one.

    The only source of ParseError messages and line numbers, and the
    reference that the vectorized pass must reproduce.
    """
    rows = []
    for lineno, text in lines:
        try:
            row = [float(f) for f in _split_line(text, delimiter)]
        except ValueError:
            raise ParseError(f"{path}: non-numeric field", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}: non-finite value", line=lineno)
        if arity is None:
            arity = len(row)
            if arity < 2:
                raise ParseError(f"{path}: need at least 2 columns", line=lineno)
        elif len(row) != arity:
            raise ParseError(
                f"{path}: expected {arity} fields, got {len(row)}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no numeric rows")
    return np.array(rows)


def _vectorized_rows(texts: list[str], delimiter, arity: int | None):
    """All data rows in one np.loadtxt pass, or None when `_check_rows`
    must decide: loadtxt failed, or the result is empty, non-finite, of
    the wrong arity or narrower than 2 columns.  loadtxt accepts a subset
    of what float() accepts (not `1_000`), so a result it does return is
    the row loop's result."""
    if not texts:
        return None
    try:
        data = np.loadtxt(texts, delimiter=delimiter, comments=None, ndmin=2)
    except (ValueError, TypeError):
        return None
    width = data.shape[1]
    if (width < 2 if arity is None else width != arity) or not np.isfinite(data).all():
        return None
    return data


def _read_text(path: Path) -> str:
    """A file's text, decoded as UTF-8, of which ASCII is a subset."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from None


def _read_rows(path: Path, arity: int | None):
    """Parse the numeric rows of a delimited file into an (n, arity) array.

    The delimiter (comma, tab or whitespace) is detected once, from the
    first non-blank line; a non-numeric first non-blank line is a header.
    Every row must hold `arity` finite fields; when `arity` is None the
    first data row sets it and must hold at least two.  Errors carry the
    1-based line number.
    """
    raw_lines = _read_text(path).splitlines()
    texts = [s for raw in raw_lines if (s := raw.strip())]
    if not texts:
        raise ParseError(f"{path}: no data rows")
    delimiter = _detect_delimiter(texts[0])
    try:
        [float(f) for f in _split_line(texts[0], delimiter)]
        skip = 0
    except ValueError:
        skip = 1  # header row
    data = _vectorized_rows(texts[skip:], delimiter, arity)
    if data is None:
        # numbered only for the row loop, whose errors carry line numbers
        numbers = [i for i, raw in enumerate(raw_lines, 1) if raw.strip()]
        data = _check_rows(path, list(zip(numbers, texts))[skip:], delimiter, arity)
    return data


def read_csv(path) -> DataTable:
    """Read a delimited numeric file into a DataTable.

    The delimiter (comma, tab or whitespace) is auto-detected from the
    first non-blank line.  A single non-numeric leading row is treated as
    a header.  The last column is y, the others are the coordinates.
    """
    data = _read_rows(Path(path), arity=None)
    return DataTable(d=data.shape[1] - 1, X=data[:, :-1], y=data[:, -1])


def read_points(path, d: int) -> np.ndarray:
    """Read a delimited file of bare coordinates (d columns per row)."""
    return _read_rows(Path(path), arity=d)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_model(model: FittedModel, path) -> None:
    """Write a model to the versioned plain-text format."""
    spec = model.spec
    lines = [
        f"version {MODEL_FORMAT_VERSION}",
        f"kind {model.kind}",
        f"family {spec.family}",
        f"s {'-' if spec.s is None else _fmt(spec.s)}",
        f"a {'-' if spec.a is None else _fmt(spec.a)}",
        f"theta {spec.theta}",
        f"d {spec.d}",
        f"rho {_fmt(model.rho)}",
        f"centers {len(model.centers)}",
    ]
    lines.extend(" ".join(_fmt(c) for c in point) for point in model.centers)
    lines.append(f"v {len(model.v)}")
    lines.extend(_fmt(c) for c in model.v)
    lines.append(f"beta {len(model.beta)}")
    lines.extend(_fmt(c) for c in model.beta)
    Path(path).write_text("\n".join(lines) + "\n")


class _ModelReader:
    def __init__(self, path):
        self.path = Path(path)
        self.lines = _read_text(self.path).splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ParseError(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def keyed(self, key: str) -> str:
        line = self.next()
        head, _, value = line.partition(" ")
        if head != key:
            raise ParseError(
                f"{self.path}: expected field {key!r}, found {head!r}", line=self.pos
            )
        return value.strip()

    def number(self, convert, text: str):
        """convert(text), as a ParseError at the line just read on failure."""
        try:
            return convert(text)
        except ValueError:
            raise ParseError(
                f"{self.path}: bad number {text!r}", line=self.pos
            ) from None

    def row(self, width: int) -> list[float]:
        fields = self.next().split()
        if len(fields) != width:
            raise ParseError(
                f"{self.path}: expected {width} fields, got {len(fields)}",
                line=self.pos,
            )
        return [self.number(float, f) for f in fields]


def load_model(path) -> FittedModel:
    """Read a model written by save_model.

    Every fault raises ParseError.  One confined to a field (a wrong field
    name, version, kind or kernel family, a bad number or count, a rho
    that does not fit the kind, a row of the wrong width) names its
    1-based line; fields that read but make no
    model together (e.g. an s for gauss, or v and centers counts that
    differ) name none, and nor does a v or beta entry that is not finite.
    """
    r = _ModelReader(path)
    version = r.keyed("version")
    if version != str(MODEL_FORMAT_VERSION):
        raise ParseError(f"{path}: unsupported model version {version!r}", line=r.pos)
    kind = r.keyed("kind")
    if kind not in MODEL_KINDS:
        raise ParseError(f"{path}: unknown model kind {kind!r}", line=r.pos)
    family = r.keyed("family")
    if family not in FAMILIES:
        raise ParseError(f"{path}: unknown kernel family {family!r}", line=r.pos)

    def opt_float(text: str) -> float | None:
        return None if text == "-" else r.number(float, text)

    s = opt_float(r.keyed("s"))
    a = opt_float(r.keyed("a"))
    theta = r.number(int, r.keyed("theta"))
    d = r.number(int, r.keyed("d"))
    rho = r.number(float, r.keyed("rho"))
    try:
        _check_model_rho(kind, rho)
    except ParameterError as exc:
        raise ParseError(f"{path}: {exc}", line=r.pos) from None

    def count(key: str) -> range:
        n = r.number(int, r.keyed(key))
        if n < 0:
            raise ParseError(f"{path}: negative count {key} {n}", line=r.pos)
        return range(n)

    try:
        spec = KernelSpec(family=family, theta=theta, d=d, s=s, a=a)  # checks d >= 1
        centers = np.array([r.row(d) for _ in count("centers")]).reshape(-1, d)
        v = np.array([r.number(float, r.next()) for _ in count("v")])
        beta = np.array([r.number(float, r.next()) for _ in count("beta")])
        return FittedModel(spec=spec, frame=PolyFrame(d=d, theta=theta),
                           centers=centers, v=v, beta=beta, kind=kind, rho=rho)
    except (InputError, ParameterError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
