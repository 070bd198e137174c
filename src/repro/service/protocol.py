"""Wire protocol of the bandwidth-query service: queries and envelopes.

One JSON object in, one JSON envelope out.  Requests are parsed into the
frozen (hence hashable) :class:`Query` dataclass — the *same object* is
the canonical key of the result LRU and the in-flight coalescing map, so
two requests that normalize identically coalesce by construction.

Validation runs entirely through the library's typed error path:
structurally invalid parameters raise
:class:`~repro.exceptions.ConfigurationError`, invalid request-model
specs raise :class:`~repro.exceptions.ModelError`, and work beyond the
configured limits raises
:class:`~repro.exceptions.QueryTooLargeError` — the front-end maps each
type to a structured 4xx envelope (:func:`error_envelope`), never a
traceback.

The JSON schema (``/query``; ``/sweep`` replaces ``"B"`` with a list)::

    {
      "scheme": "full" | "single" | "partial" | "kclass" | "crossbar"
                | "custom",
      "N": 16, "M": 16, "B": 8, "r": 0.5,
      "model": "unif" | "hier",
      "hierarchy": {"clusters": 4, "fractions": [0.6, 0.3, 0.1]},
      "n_groups": 2,            # partial only
      "class_sizes": [8, 8],    # kclass only
      "generator": {"kind": "mesh_rowcol", "rows": 4, "cols": 4},
                                # custom only (repro.topology.generators)
      "classes": [0.25, 0.75],  # criticality class mix (any scheme)
      "tenure": 4,              # mean burst length L >= 1 (any scheme)
      "criticality": 0          # request criticality class (0 = highest)
    }

``classes`` and ``tenure`` thread through to the analytic priority
layer (:mod:`repro.core.priority`) as network kwargs; their degenerate
values (a single class, ``tenure == 1``) are normalized *away* at parse
time, so a query spelling them out hashes — and therefore caches and
coalesces — identically to one that omits them.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

from repro.core.hierarchy import paper_two_level_model
from repro.core.priority import validate_class_weights, validate_tenure
from repro.core.request_models import RequestModel, UniformRequestModel
from repro.exceptions import (
    AdmissionError,
    BreakerOpenError,
    ChaosError,
    ConfigurationError,
    DeadlineExceededError,
    ModelError,
    QueryTooLargeError,
    ReproError,
    ServiceStoppingError,
)

__all__ = [
    "SCHEMES",
    "ServiceLimits",
    "Query",
    "parse_query",
    "build_model",
    "status_for",
    "error_envelope",
]

SCHEMES = ("full", "single", "partial", "kclass", "crossbar", "custom")

_MODEL_ALIASES = {
    "unif": "unif",
    "uniform": "unif",
    "hier": "hier",
    "hierarchical": "hier",
}

#: Query fields that become network kwargs, with their target scheme.
#: ``generator`` (custom) is parsed separately: its canonical form is a
#: nested tuple carrying the whole structure spec.
_NETWORK_FIELDS = {"n_groups": "partial", "class_sizes": "kclass"}
_NETWORK_FIELD_ORDER = tuple(sorted(_NETWORK_FIELDS.items()))

#: Arbitration knobs accepted for every scheme; degenerate values are
#: normalized away so they never perturb cache keys.
_ARBITRATION_FIELDS = ("classes", "tenure")

#: Optional fields that become network kwargs; a query naming none of
#: them (and not ``custom``, which requires a generator) skips their
#: parsers altogether.
_KWARG_FIELDS = frozenset(
    {"generator"} | set(_NETWORK_FIELDS) | set(_ARBITRATION_FIELDS)
)

_KNOWN_FIELDS = frozenset(
    {"scheme", "N", "M", "B", "bus_counts", "r", "model", "hierarchy",
     "criticality"}
    | _KWARG_FIELDS
)

#: What an omitted ``hierarchy`` (or an omitted part of one) means.
_DEFAULT_CLUSTERS = 4
_DEFAULT_FRACTIONS = (0.6, 0.3, 0.1)

#: Largest accepted criticality class number (0 = most critical).
MAX_CRITICALITY = 15


@dataclasses.dataclass(frozen=True)
class ServiceLimits:
    """Hard ceilings the parser enforces before any work is admitted."""

    max_machine: int = 1024  #: largest accepted N or M
    max_sweep_cells: int = 512  #: largest accepted bus-count vector
    max_body_bytes: int = 1 << 20  #: largest accepted HTTP body


_DEFAULT_LIMITS = ServiceLimits()


@dataclasses.dataclass(frozen=True, eq=False)
class Query:
    """A normalized bandwidth query; hashable, so it *is* the cache key.

    ``bus_counts`` holds one entry for a single-cell query and the full
    vector for a sweep.  ``clusters`` / ``fractions`` describe the
    hierarchical request model and are ``None`` for the uniform model, so
    equivalent requests hash equal regardless of spelling.

    A hit looks the same query up in several LRUs, so the compared
    fields are packed into one tuple and hashed once at construction.
    The hash stays in the process that computed it: pickling (and
    :func:`copy.copy`) rebuild the query through ``__init__``, because
    string hashes differ between interpreters.
    """

    scheme: str
    n_processors: int
    n_memories: int
    bus_counts: tuple[int, ...]
    rate: float
    model: str
    clusters: int | None = None
    fractions: tuple[float, ...] | None = None
    network_kwargs: tuple[tuple[str, object], ...] = ()
    #: Criticality class of the *request* (0 = most critical; unlabeled
    #: requests default to 0 and are never brownout-shed).  Excluded
    #: from equality/hash so labeling cannot split cache keys or defeat
    #: coalescing — criticality routes the request, it does not change
    #: the answer.
    criticality: int = dataclasses.field(default=0, compare=False)

    def __post_init__(self) -> None:
        key = (
            self.scheme, self.n_processors, self.n_memories,
            self.bus_counts, self.rate, self.model, self.clusters,
            self.fractions, self.network_kwargs,
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __reduce__(self):
        return self.__class__, self._key + (self.criticality,)

    @property
    def is_sweep(self) -> bool:
        """True when the query spans more than one bus count."""
        return len(self.bus_counts) > 1

    def model_signature(self) -> tuple:
        """Key identifying the request model this query evaluates under.

        Queries sharing a signature reuse one
        :class:`~repro.core.request_models.RequestModel` instance inside
        the engine, which is what lets the micro-batcher group them into
        one grid call (see
        :meth:`repro.analysis.batch.GridCell.profile_signature`).
        """
        return (
            self.model, self.n_processors, self.n_memories, self.rate,
            self.clusters, self.fractions,
        )


def _require_int(payload: Mapping, field: str, minimum: int = 1) -> int:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"field {field!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ConfigurationError(
            f"field {field!r} must be >= {minimum}, got {value}"
        )
    return value


def _require_rate(payload: Mapping) -> float:
    value = payload.get("r", 1.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"field 'r' must be a number, got {value!r}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(
            f"field 'r' must be finite, got {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(
            f"request rate must be in [0, 1], got {value}"
        )
    return value


def _require_criticality(payload: Mapping) -> int:
    if "criticality" not in payload:
        return 0
    value = payload["criticality"]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"field 'criticality' must be an integer, got {value!r}"
        )
    if not 0 <= value <= MAX_CRITICALITY:
        raise ConfigurationError(
            f"field 'criticality' must be in [0, {MAX_CRITICALITY}], "
            f"got {value}"
        )
    return value


def _parse_bus_counts(
    payload: Mapping, sweep: bool, limits: ServiceLimits
) -> tuple[int, ...]:
    raw = payload["B"] if "B" in payload else payload.get("bus_counts")
    if raw is None:
        raise ConfigurationError("field 'B' is required")
    if not sweep:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigurationError(
                f"field 'B' must be an integer for /query, got {raw!r}"
            )
        if not 1 <= raw <= limits.max_machine:
            raise ConfigurationError(
                f"bus count must be in [1, {limits.max_machine}], got {raw}"
            )
        return (raw,)
    if isinstance(raw, bool) or isinstance(raw, int):
        raw = [raw]
    elif not isinstance(raw, (list, tuple)):
        raise ConfigurationError(
            f"field 'B' must be an integer or a list, got {raw!r}"
        )
    if len(raw) > limits.max_sweep_cells:
        raise QueryTooLargeError(
            f"sweep asks for {len(raw)} bus counts, limit is "
            f"{limits.max_sweep_cells}"
        )
    if not raw:
        raise ConfigurationError("field 'B' must not be empty")
    counts = []
    for b in raw:
        if isinstance(b, bool) or not isinstance(b, int):
            raise ConfigurationError(
                f"bus counts must be integers, got {b!r}"
            )
        if not 1 <= b <= limits.max_machine:
            raise ConfigurationError(
                f"bus count must be in [1, {limits.max_machine}], got {b}"
            )
        counts.append(b)
    return tuple(counts)


def _parse_hierarchy(
    payload: Mapping, n_processors: int, n_memories: int
) -> tuple[int, tuple[float, ...]]:
    spec = payload.get("hierarchy", {})
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"field 'hierarchy' must be an object, got {spec!r}"
        )
    unknown = set(spec) - {"clusters", "fractions"}
    if unknown:
        raise ConfigurationError(
            f"unknown hierarchy fields: {sorted(unknown)}"
        )
    if n_memories != n_processors:
        raise ConfigurationError(
            "the hierarchical model is N x N: M must equal N, got "
            f"N={n_processors} M={n_memories}"
        )
    return (
        _parse_clusters(spec) if "clusters" in spec else _DEFAULT_CLUSTERS,
        _parse_fractions(spec) if "fractions" in spec
        else _DEFAULT_FRACTIONS,
    )


def _parse_clusters(spec: Mapping) -> int:
    clusters = spec["clusters"]
    if isinstance(clusters, bool) or not isinstance(clusters, int):
        raise ConfigurationError(
            f"hierarchy 'clusters' must be an integer, got {clusters!r}"
        )
    if clusters < 1:
        raise ConfigurationError(
            f"hierarchy 'clusters' must be >= 1, got {clusters}"
        )
    return clusters


def _parse_fractions(spec: Mapping) -> tuple[float, ...]:
    fractions = spec["fractions"]
    if not isinstance(fractions, (list, tuple)):
        raise ConfigurationError(
            f"hierarchy 'fractions' must be a list, got {fractions!r}"
        )
    cleaned = []
    for value in fractions:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"hierarchy fractions must be numbers, got {value!r}"
            )
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ConfigurationError(
                "hierarchy fractions must be finite and non-negative, "
                f"got {value!r}"
            )
        cleaned.append(value)
    return tuple(cleaned)


def _parse_network_kwargs(
    payload: Mapping, scheme: str, n_memories: int, limits: ServiceLimits
) -> tuple[tuple[str, object], ...]:
    kwargs: list[tuple[str, object]] = []
    for field, target_scheme in _NETWORK_FIELD_ORDER:
        if field not in payload:
            continue
        if scheme != target_scheme:
            raise ConfigurationError(
                f"field {field!r} only applies to scheme "
                f"{target_scheme!r}, not {scheme!r}"
            )
        value = payload[field]
        if field == "n_groups":
            kwargs.append((field, _require_int(payload, field)))
        else:  # class_sizes
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(
                    f"field 'class_sizes' must be a non-empty list, "
                    f"got {value!r}"
                )
            if len(value) > limits.max_machine:
                raise QueryTooLargeError(
                    f"class_sizes lists {len(value)} classes, limit is "
                    f"{limits.max_machine}"
                )
            sizes = []
            for s in value:
                if isinstance(s, bool) or not isinstance(s, int):
                    raise ConfigurationError(
                        f"class sizes must be integers, got {s!r}"
                    )
                if s < 0:
                    raise ConfigurationError(
                        f"class sizes must be non-negative, got {s}"
                    )
                sizes.append(s)
            if sum(sizes) != n_memories:
                raise ConfigurationError(
                    f"class sizes {sizes} sum to {sum(sizes)}, expected "
                    f"M={n_memories}"
                )
            kwargs.append((field, tuple(sizes)))
    return tuple(kwargs)


def _parse_generator_kwargs(
    payload: Mapping, scheme: str, limits: ServiceLimits
) -> tuple[tuple[str, object], ...]:
    """Validate the ``generator`` spec of a ``custom`` query.

    The spec is normalized to its canonical tuple form (defaults filled,
    fields sorted, lists frozen), so two spellings of the same generator
    hash — and therefore cache and coalesce — identically, and the
    structure content participates in the cache key (the matrix kind
    embeds the full incidence matrix; the seeded kinds embed seed and
    dimensions, which determine the structure).
    """
    if "generator" not in payload:
        if scheme == "custom":
            raise ConfigurationError(
                "scheme 'custom' requires a 'generator' spec"
            )
        return ()
    if scheme != "custom":
        raise ConfigurationError(
            f"field 'generator' only applies to scheme 'custom', not {scheme!r}"
        )
    spec = payload["generator"]
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"field 'generator' must be an object, got {type(spec).__name__}"
        )
    matrix = spec.get("memory_bus")
    if isinstance(matrix, (list, tuple)):
        if len(matrix) > limits.max_machine:
            raise QueryTooLargeError(
                f"generator memory_bus lists {len(matrix)} rows, limit is "
                f"{limits.max_machine}"
            )
        widths = [len(row) for row in matrix if isinstance(row, (list, tuple))]
        if widths and max(widths) > limits.max_machine:
            raise QueryTooLargeError(
                f"generator memory_bus rows list up to {max(widths)} buses, "
                f"limit is {limits.max_machine}"
            )
    from repro.topology.generators import canonical_generator_spec

    return (("generator", canonical_generator_spec(spec)),)


def _parse_arbitration_kwargs(
    payload: Mapping, n_processors: int
) -> tuple[tuple[str, object], ...]:
    """Validate the ``classes`` / ``tenure`` knobs into network kwargs.

    Rejections ride the usual typed path
    (:class:`~repro.exceptions.ConfigurationError`), so a malformed knob
    can never reach — let alone poison — the engine's canonical-key
    cache or coalescing map.  Degenerate values (one class, unit
    tenure) are dropped so equivalent queries hash equal.
    """
    kwargs: list[tuple[str, object]] = []
    if "classes" in payload:
        weights = validate_class_weights(payload["classes"])
        if len(weights) > n_processors:
            raise ConfigurationError(
                f"field 'classes' lists {len(weights)} criticality "
                f"classes for N={n_processors} processors"
            )
        if len(weights) > 1:
            kwargs.append(("class_weights", weights))
    if "tenure" in payload:
        tenure = validate_tenure(payload["tenure"], "geometric")
        if tenure != 1.0:
            kwargs.append(("tenure", tenure))
    return tuple(kwargs)


def parse_query(
    payload: object,
    sweep: bool = False,
    limits: ServiceLimits | None = None,
) -> Query:
    """Validate a decoded JSON payload into a normalized :class:`Query`.

    ``sweep`` selects the ``/sweep`` shape (``"B"`` may be a list);
    ``/query`` requires a single integer ``"B"``.  Every rejection is a
    typed library error (:class:`~repro.exceptions.ConfigurationError`,
    :class:`~repro.exceptions.ModelError` or
    :class:`~repro.exceptions.QueryTooLargeError`) so the front-end can
    map it to a structured 4xx envelope.
    """
    if limits is None:
        limits = _DEFAULT_LIMITS
    # ``json.loads`` hands over a dict; only other mappings pay for the
    # ABC check.
    if payload.__class__ is not dict and not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    if not _KNOWN_FIELDS.issuperset(payload):
        unknown = set(payload) - _KNOWN_FIELDS
        raise ConfigurationError(f"unknown fields: {sorted(unknown)}")

    scheme = payload.get("scheme")
    if scheme not in SCHEMES:
        raise ConfigurationError(
            f"field 'scheme' must be one of {list(SCHEMES)}, got {scheme!r}"
        )
    n_processors = _require_int(payload, "N")
    n_memories = (
        _require_int(payload, "M") if "M" in payload else n_processors
    )
    for name, value in (("N", n_processors), ("M", n_memories)):
        if value > limits.max_machine:
            raise QueryTooLargeError(
                f"field {name!r} is {value}, limit is {limits.max_machine}"
            )
    bus_counts = _parse_bus_counts(payload, sweep, limits)
    rate = _require_rate(payload)

    model = payload.get("model", "unif")
    if not isinstance(model, str) or model not in _MODEL_ALIASES:
        raise ConfigurationError(
            f"field 'model' must be one of {sorted(_MODEL_ALIASES)}, "
            f"got {model!r}"
        )
    model = _MODEL_ALIASES[model]
    clusters: int | None = None
    fractions: tuple[float, ...] | None = None
    if model == "hier":
        clusters, fractions = _parse_hierarchy(
            payload, n_processors, n_memories
        )
    elif "hierarchy" in payload:
        raise ConfigurationError(
            "field 'hierarchy' only applies when model is 'hier'"
        )

    network_kwargs: tuple[tuple[str, object], ...] = ()
    if scheme == "custom" or not _KWARG_FIELDS.isdisjoint(payload):
        network_kwargs = tuple(
            sorted(
                _parse_network_kwargs(payload, scheme, n_memories, limits)
                + _parse_generator_kwargs(payload, scheme, limits)
                + _parse_arbitration_kwargs(payload, n_processors)
            )
        )
    return Query(
        scheme=scheme,
        n_processors=n_processors,
        n_memories=n_memories,
        bus_counts=bus_counts,
        rate=rate,
        model=model,
        clusters=clusters,
        fractions=fractions,
        network_kwargs=network_kwargs,
        criticality=_require_criticality(payload),
    )


def build_model(query: Query) -> RequestModel:
    """Construct the request model a query evaluates under.

    Raises :class:`~repro.exceptions.ModelError` for hierarchy specs the
    model constructors reject (cluster count not dividing ``N``,
    fractions that do not normalize, ...), keeping model validation on
    the same typed path as the constructors themselves.
    """
    if query.model == "hier":
        return paper_two_level_model(
            query.n_processors,
            rate=query.rate,
            clusters=query.clusters,
            aggregate_fractions=query.fractions,
        )
    return UniformRequestModel(
        query.n_processors, query.n_memories, rate=query.rate
    )


def status_for(exc: BaseException) -> int:
    """HTTP status a failure maps to (500 for non-library errors)."""
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, (BreakerOpenError, ServiceStoppingError)):
        return 503
    if isinstance(exc, AdmissionError):
        return 429
    if isinstance(exc, QueryTooLargeError):
        return 413
    if isinstance(exc, ChaosError):
        return 500
    if isinstance(exc, (ConfigurationError, ModelError)):
        return 400
    if isinstance(exc, ReproError):
        return 400
    return 500


def error_envelope(exc: BaseException) -> tuple[int, dict]:
    """``(status, body)`` of the structured error envelope for ``exc``.

    The body never carries a traceback — only the exception type, its
    message and, for shed/tripped requests, the deterministic
    retry-after hint.  Deadline expiries (504) name the site that
    observed them; breaker rejections (503) name the tripped breaker.
    """
    status = status_for(exc)
    error: dict[str, object] = {
        "status": status,
        "type": type(exc).__name__,
        "message": str(exc) if status != 500 else "internal error",
    }
    if isinstance(exc, AdmissionError):
        error["retry_after_s"] = round(exc.retry_after_seconds, 6)
        error["reason"] = exc.reason
    elif isinstance(exc, BreakerOpenError):
        error["retry_after_s"] = round(exc.retry_after_seconds, 6)
        error["breaker"] = exc.name
    elif isinstance(exc, DeadlineExceededError):
        error["site"] = exc.site
        if exc.budget_ms is not None:
            error["budget_ms"] = exc.budget_ms
    return status, {"ok": False, "error": error}
