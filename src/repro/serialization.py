"""JSON encoding of every value type the repository persists or sends.

A provider running reCloud as a service needs to persist and exchange
its artifacts: the plan handed to the scheduler, the reliability estimate
shown to the developer (service-quality auditing and compliance is one of
the paper's stated reasons for *quantitative* scores), risk reports, and
the service's own requests and responses, which cross the journal, the
result store, the fleet pipe, search checkpoints and HTTP.

One :func:`encode` and one :func:`decode` handle them all. Both walk
``dataclasses.fields`` and the field annotations; the per-class tables are
built once and cached. The rules:

* A dataclass is an object with one key per field, in field order. A
  tuple or list is a list, a nested dataclass recurses, and ``str``,
  ``int``, ``float``, ``bool`` and ``dict`` values are written as they are.
* A field holding ``None`` is omitted, except where its metadata sets
  ``json_null`` (written as ``null``, e.g. ``SearchSpec.desired_measure``).
  ``json_omit`` names another value to omit: ``ServiceResponse.replayed``
  is written only when true.
* Field metadata also renames (``json_name``: ``SearchState.current`` is
  ``current_assessment``) and excludes (``json_skip``: a skipped field
  decodes to its default, or to the result of the factory ``json_skip``
  names). ``json_codec`` is an ``(encode, decode)`` pair for a field whose
  JSON shape is not its type's: the ``{component, hosts|zones}`` lists of
  ``DeploymentPlan.placements`` and ``ZoneConstraints.pinned_zones``, the
  comma-separated ``AssessRequest.hosts`` that HTTP clients send. The
  pair's output is encoded again; its input is the raw JSON value.
* A class attribute ``json_properties`` names read-only properties that
  are written after the fields and ignored on decode
  (``RiskEntry.expected_loss``).
* A key absent from a document decodes to the field's dataclass default,
  so documents written before a field existed still decode. Unknown keys
  are ignored.
* An ``int`` in a ``float`` field decodes to a float (so a journaled
  request's fingerprint does not move). A ``bool`` is never accepted as an
  ``int`` or a ``float``.
* Every shape or type error is collected into one
  :class:`~repro.util.errors.ValidationError` naming dotted paths such as
  ``estimate.rounds``; a request's errors therefore carry its top-level
  field names. Semantic checks (known hosts, ranges, finiteness) stay in
  the types' own ``validate`` methods and constructors.
* Eight artifact kinds carry a ``{"format", "version"}`` envelope
  (:data:`_ARTIFACTS` plus the ``risk-report`` list built with
  :func:`artifact`), which :func:`decode` checks.

``ApplicationStructure`` is not a dataclass: its three fields are listed
by hand below. Numpy payloads (the per-round result lists) are excluded:
they are reproducible from the recorded seeds and would dominate the
artifact size.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Any, Callable, NamedTuple

from repro.app.structure import (
    ApplicationStructure,
    ComponentSpec,
    ReachabilityRequirement,
)
from repro.core.plan import DeploymentPlan
from repro.core.result import AssessmentResult, SearchResult
from repro.core.search import SearchSpec, SearchState
from repro.sampling.statistics import ReliabilityEstimate
from repro.util.errors import ConfigurationError, ValidationError

#: Format version stamped into every artifact.
FORMAT_VERSION = 1

#: Value types written as versioned artifacts, with their format names.
_ARTIFACTS: dict[type, str] = {
    DeploymentPlan: "deployment-plan",
    ApplicationStructure: "application-structure",
    ReliabilityEstimate: "reliability-estimate",
    AssessmentResult: "assessment-result",
    SearchResult: "search-result",
    SearchSpec: "search-spec",
    SearchState: "search-checkpoint",
}

#: The fields of ``ApplicationStructure``, which is not a dataclass.
_STRUCTURE_FIELDS = {
    "name": str,
    "components": tuple[ComponentSpec, ...],
    "requirements": tuple[ReachabilityRequirement, ...],
}


def artifact(kind: str, **payload) -> dict:
    """A versioned artifact document of ``kind`` around ``payload``."""
    return {"format": kind, "version": FORMAT_VERSION, **payload}


# ----------------------------------------------------------------------
# The field tables
# ----------------------------------------------------------------------

#: A decode step failed; its error is already recorded.
_BAD = object()

#: The omit value of a ``json_null`` field: nothing is ever omitted.
_KEEP = object()

_MISSING = dataclasses.MISSING


class _Field(NamedTuple):
    name: str  # attribute and constructor keyword
    key: str  # JSON key
    decode: Callable  # (value, path, errors) -> value or _BAD
    to_json: Callable | None
    omit: object  # a value that is not written
    required: bool


class _Record(NamedTuple):
    cls: type
    kind: str | None
    fields: tuple[_Field, ...]
    skipped: tuple[tuple[str, Callable], ...]  # (name, factory) on decode
    properties: tuple[str, ...]


def _record(cls: type) -> _Record:
    if cls is ApplicationStructure:
        fields = tuple(
            _Field(name, name, _decoder(annotation), None, None, True)
            for name, annotation in _STRUCTURE_FIELDS.items()
        )
        return _Record(cls, _ARTIFACTS[cls], fields, (), ())
    hints = typing.get_type_hints(cls)
    fields, skipped = [], []
    for f in dataclasses.fields(cls):
        meta = f.metadata
        skip = meta.get("json_skip")
        if skip:
            if callable(skip):
                skipped.append((f.name, skip))
            continue
        codec = meta.get("json_codec")
        fields.append(
            _Field(
                name=f.name,
                key=meta.get("json_name", f.name),
                decode=(
                    _decoder(hints[f.name]) if codec is None
                    else _codec_decoder(codec[1])
                ),
                to_json=None if codec is None else codec[0],
                omit=_KEEP if meta.get("json_null") else meta.get("json_omit"),
                required=f.default is _MISSING and f.default_factory is _MISSING,
            )
        )
    return _Record(
        cls,
        _ARTIFACTS.get(cls),
        tuple(fields),
        tuple(skipped),
        tuple(getattr(cls, "json_properties", ())),
    )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

_ENCODERS: dict[type, Callable[[Any], Any]] = {}


def encode(value) -> Any:
    """The JSON-ready form of ``value`` (rules in the module docstring)."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _ENCODERS[type(value)] = _encoder_for(type(value))
    return encoder(value)


def _identity(value):
    return value


def _encode_items(values) -> list:
    return [encode(item) for item in values]


def _encoder_for(cls: type) -> Callable[[Any], Any]:
    if issubclass(cls, (list, tuple)):
        return _encode_items
    if cls is type(None) or issubclass(cls, (str, int, float, dict)):
        return _identity
    if cls is ApplicationStructure or dataclasses.is_dataclass(cls):
        return _record_encoder(_record(cls))
    raise TypeError(f"no JSON encoding for {cls.__name__}")


#: Types written as they are, without a call to :func:`encode`.
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _record_encoder(record: _Record) -> Callable[[Any], dict]:
    kind, fields, properties = record.kind, record.fields, record.properties

    def encode_record(value) -> dict:
        document = {} if kind is None else artifact(kind)
        for name, key, _, to_json, omit, _ in fields:
            item = getattr(value, name)
            if item is omit:
                continue
            if to_json is not None:
                item = to_json(item)
            document[key] = item if type(item) in _PLAIN else encode(item)
        for name in properties:
            document[name] = encode(getattr(value, name))
        return document

    return encode_record


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

_DECODERS: dict[Any, Callable] = {}


def decode(cls, document) -> Any:
    """Rebuild a ``cls`` from its JSON form.

    ``cls`` is any annotation the codec handles: a value type, or e.g.
    ``tuple[RiskEntry, ...]``. Raises one :class:`ValidationError` naming
    every malformed path.
    """
    errors: list[tuple[str, str]] = []
    value = _decoder(cls)(document, "", errors)
    if errors:
        raise ValidationError(errors)
    return value


def _decoder(annotation) -> Callable:
    decoder = _DECODERS.get(annotation)
    if decoder is None:
        decoder = _DECODERS[annotation] = _decoder_for(annotation)
    return decoder


def _join(path: str, key) -> str:
    key = str(key)
    return f"{path}.{key}" if path and key else path or key


_JSON_TYPES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "a list", dict: "an object", type(None): "null",
}


def _reject(path: str, expected: str, value, errors: list) -> object:
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    errors.append((path, f"must be {expected}, got {got}"))
    return _BAD


def _decode_int(value, path, errors):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return _reject(path, "an integer", value, errors)


def _decode_float(value, path, errors):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return _reject(path, "a number", value, errors)


def _decode_str(value, path, errors):
    return value if isinstance(value, str) else _reject(path, "a string", value, errors)


def _decode_bool(value, path, errors):
    return value if isinstance(value, bool) else _reject(path, "a boolean", value, errors)


def _decode_object(value, path, errors):
    return value if isinstance(value, dict) else _reject(path, "an object", value, errors)


_SCALARS = {
    int: _decode_int,
    float: _decode_float,
    str: _decode_str,
    bool: _decode_bool,
    dict: _decode_object,
}


def _decoder_for(annotation) -> Callable:
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is types.UnionType:
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) != 1 or len(args) != 2:
            raise TypeError(f"no JSON decoding for {annotation}")
        decode_inner = _decoder(inner[0])
        return lambda value, path, errors: (
            None if value is None else decode_inner(value, path, errors)
        )
    if origin is dict:
        return _decode_object
    if origin in (tuple, list):
        return _sequence_decoder(origin, args)
    if annotation is ApplicationStructure or dataclasses.is_dataclass(annotation):
        return _record_decoder(_record(annotation))
    raise TypeError(f"no JSON decoding for {annotation}")


def _sequence_decoder(origin: type, args: tuple) -> Callable:
    variadic = origin is list or (len(args) == 2 and args[1] is Ellipsis)
    items = [_decoder(args[0])] if variadic else [_decoder(arg) for arg in args]

    def decode_sequence(value, path, errors):
        if not isinstance(value, (list, tuple)):
            return _reject(path, "a list", value, errors)
        if not variadic and len(value) != len(items):
            errors.append((path, f"must hold {len(items)} items, got {len(value)}"))
            return _BAD
        decoded = [
            (items[0] if variadic else items[index])(item, _join(path, index), errors)
            for index, item in enumerate(value)
        ]
        if any(item is _BAD for item in decoded):
            return _BAD
        return decoded if origin is list else tuple(decoded)

    return decode_sequence


def _codec_decoder(from_json: Callable) -> Callable:
    def decode_field(value, path, errors):
        try:
            return from_json(value)
        except ValidationError as exc:
            errors.extend((_join(path, field), message) for field, message in exc.errors)
        except KeyError as exc:
            errors.append((path, f"missing key {exc}"))
        except (ConfigurationError, TypeError, ValueError) as exc:
            errors.append((path, str(exc)))
        return _BAD

    return decode_field


def _envelope_ok(document: dict, kind: str, path: str, errors: list) -> bool:
    found = document.get("format")
    if found != kind:
        errors.append((_join(path, "format"), f"expected {kind!r}, got {found!r}"))
        return False
    version = document.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        errors.append(
            (_join(path, "version"), f"unsupported {kind} version {version!r}")
        )
        return False
    return True


def _record_decoder(record: _Record) -> Callable:
    cls, kind, fields, skipped = record.cls, record.kind, record.fields, record.skipped

    def decode_record(document, path, errors):
        if not isinstance(document, dict):
            return _reject(path or cls.__name__, "an object", document, errors)
        if kind is not None and not _envelope_ok(document, kind, path, errors):
            return _BAD
        values = {name: factory() for name, factory in skipped}
        failed = False
        for name, key, decode_field, _, _, required in fields:
            raw = document.get(key, _MISSING)
            if raw is _MISSING:
                if required:
                    errors.append((_join(path, key), "is required"))
                    failed = True
                continue
            value = decode_field(raw, _join(path, key), errors)
            if value is _BAD:
                failed = True
            else:
                values[name] = value
        if failed:
            return _BAD
        try:
            return cls(**values)
        except ValidationError as exc:
            errors.extend((_join(path, field), message) for field, message in exc.errors)
        except (ConfigurationError, TypeError, ValueError) as exc:
            errors.append((path or cls.__name__, str(exc)))
        return _BAD

    return decode_record


#: The encoder under the names callers outside the package import.
assessment_to_dict = estimate_to_dict = plan_to_dict = encode


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------


#: Key holding the integrity checksum inside a checksummed artifact.
CHECKSUM_KEY = "sha256"


def fsync_dir(directory) -> bool:
    """Flush a directory's entry table to disk; best-effort by design.

    ``os.replace`` makes a rename atomic but *not* durable — until the
    parent directory's metadata is fsync'd, a power loss can roll the
    rename back and resurrect the old file (or lose a newly created
    one). POSIX allows opening a directory read-only purely to fsync it;
    platforms where that fails (Windows, some network filesystems) raise,
    in which case this helper quietly reports ``False`` — the write is
    still atomic, just not power-loss durable, which is the best those
    platforms offer.
    """
    import os

    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def _payload_checksum(document: dict) -> str:
    """SHA-256 over the canonical encoding of everything but the checksum."""
    import hashlib

    payload = {k: v for k, v in document.items() if k != CHECKSUM_KEY}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dump(document: dict, path, checksum: bool = False) -> None:
    """Write any artifact dict as pretty JSON, atomically and durably.

    The document lands under a unique temporary name in the target
    directory, is fsynced, and is then renamed into place — a crash
    mid-write (the very scenario checkpoints exist for) can never leave
    a truncated or half-old artifact behind, and a concurrent dump to
    the same path cannot corrupt another dump's temp file. The parent
    directory is fsync'd after the rename (see :func:`fsync_dir`): the
    rename itself is atomic either way, but only the directory fsync
    makes it survive power loss.

    ``checksum=True`` embeds a SHA-256 of the canonical payload under
    ``"sha256"``; :func:`load` verifies it, so silent corruption of a
    checkpoint (bad disk, truncated copy, hand-edit) is detected at
    resume time instead of producing a subtly wrong search state.
    """
    import os
    import tempfile

    path = os.fspath(path)
    if checksum:
        document = dict(document)
        document[CHECKSUM_KEY] = _payload_checksum(document)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # One write, not ``json.dump``'s stream of small ones.
            handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load(path, verify: bool = True) -> Any:
    """Read a JSON artifact from disk, verifying any embedded checksum.

    A document carrying a ``"sha256"`` key (written via
    ``dump(..., checksum=True)``) is re-hashed; a mismatch raises
    :class:`ConfigurationError` — a corrupt checkpoint must fail loudly
    at load time, not resume into a silently wrong state. Artifacts
    without a checksum load as before. ``verify=False`` skips the check
    (for forensics on a corrupt file).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"artifact {path!r} is not valid JSON (corrupt or truncated): {exc}"
        ) from exc
    if isinstance(document, dict) and CHECKSUM_KEY in document:
        expected = document.pop(CHECKSUM_KEY)
        if verify:
            actual = _payload_checksum(document)
            if actual != expected:
                raise ConfigurationError(
                    f"artifact {path!r} failed checksum verification "
                    f"(expected {expected[:12]}..., got {actual[:12]}...); "
                    "the file is corrupt"
                )
    return document
