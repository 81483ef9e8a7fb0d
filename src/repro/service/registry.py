"""Declarative registry of QUBO solver backends with string-spec construction.

The registry is the public seam between "I want a solver" and the backend
classes: every backend registers once (canonical name, aliases, solver class,
config class) and callers construct solvers from *specs* instead of importing
config dataclasses:

>>> make_solver("sa", num_sweeps=2000)
>>> make_solver("tabu?tenure=16&num_steps=300")
>>> make_solver("da")

The spec grammar is URL-style: ``name`` or ``name?key=value&key=value`` where
``name`` is a canonical backend name or alias (case-insensitive) and values
parse as int, float, bool (``true``/``false``/``yes``/``no``), ``none``/
``null`` or fall back to strings.  Nested config dataclasses are addressed
with dotted keys (``qbsolv?subsolver_config.num_steps=80``).  Keyword
arguments passed alongside a spec override the spec's own options.

Composite backends need richer string values: list-valued options are plain
comma-joined strings (``portfolio?members=sa,tabu``), and a *nested spec*
inside such a list URL-escapes its reserved ``?``/``&``/``=`` characters
(``portfolio?members=sa,pt%3Fnum_replicas%3D8`` carries the member
``pt?num_replicas=8``).  ``parse_value`` unquotes percent-escaped strings on
the way in and :meth:`SolverRegistry.spec_for` re-quotes them on the way out,
so composite specs round-trip like flat ones.

Two solvers built from the same spec share a ``config_fingerprint()`` — the
stable hash cache layers key on — so a spec round-trips: parse it twice, or
construct the config dataclass by hand, and the fingerprints agree.  The
inverse direction, :meth:`SolverRegistry.spec_for`, turns a live solver back
into a spec string; it is how the distributed execution backends ship solver
identity across process boundaries without pickling solver objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type
from urllib.parse import quote, unquote

from repro.solvers.base import QUBOSolver
from repro.solvers.digital_annealer import DigitalAnnealerConfig, DigitalAnnealerSolver
from repro.solvers.parallel_tempering import (
    ParallelTemperingConfig,
    ParallelTemperingSolver,
)
from repro.solvers.qbsolv import QbsolvConfig, QbsolvSolver
from repro.solvers.quantum_annealer import QuantumAnnealerConfig, QuantumAnnealerSolver
from repro.solvers.random_solver import RandomSolver
from repro.solvers.simulated_annealing import SimulatedAnnealingConfig, SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSearchConfig, TabuSearchSolver


class SpecSerializationError(ValueError):
    """A solver's configuration cannot be expressed as a spec string.

    Raised by :meth:`SolverRegistry.spec_for` for configs holding values the
    flat ``key=value`` grammar cannot carry (e.g. a custom temperature
    schedule object) or for solver classes no registry backend claims.
    Callers that need a graceful degradation (the out-of-process execution
    backends) catch this and fall back to running the solver in-process.
    """


@dataclass(frozen=True)
class RegisteredBackend:
    """One solver backend known to a :class:`SolverRegistry`."""

    name: str
    solver_cls: Type[QUBOSolver]
    config_cls: Optional[type]
    aliases: Tuple[str, ...] = ()
    description: str = ""

    def option_names(self) -> Tuple[str, ...]:
        """Names of the config fields a spec may set (empty for config-less)."""
        if self.config_cls is None:
            return ()
        return tuple(f.name for f in dataclass_fields(self.config_cls))

    def create(self, config: Any = None, **options: Any) -> QUBOSolver:
        """Instantiate the backend from a ready config object or flat options.

        Dotted option names address fields of nested config dataclasses:
        ``subsolver_config.num_steps=80`` builds the nested dataclass from its
        own defaults plus the dotted overrides.
        """
        if config is not None:
            if options:
                raise ValueError(
                    f"backend {self.name!r}: pass either a config object or "
                    f"keyword options, not both"
                )
            return self.solver_cls(config)
        if self.config_cls is None:
            if options:
                raise ValueError(
                    f"backend {self.name!r} takes no options, got {sorted(options)}"
                )
            return self.solver_cls()
        flat, nested = _split_dotted_options(options)
        known = set(self.option_names())
        unknown = sorted((set(flat) | set(nested)) - known)
        if unknown:
            raise ValueError(
                f"unknown option(s) {unknown} for backend {self.name!r}; "
                f"valid options: {sorted(known)}"
            )
        for field_name, overrides in nested.items():
            if field_name in flat:
                raise ValueError(
                    f"option {field_name!r} for backend {self.name!r} given both "
                    f"flat and dotted"
                )
            flat[field_name] = _build_nested_config(
                self.config_cls, field_name, overrides
            )
        return self.solver_cls(self.config_cls(**flat))


class _hybridmethod:
    """Descriptor: on an instance, bind to it; on the class, bind to the
    default registry — so ``SolverRegistry.from_spec("sa")`` works without
    first fetching :meth:`SolverRegistry.default`."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, obj, objtype=None):
        target = obj if obj is not None else objtype.default()
        return self.func.__get__(target, type(target))


class SolverRegistry:
    """Name -> backend mapping with spec parsing and construction.

    Most code uses the process-wide default registry (every bundled backend
    pre-registered); private registries are useful for tests and plugins.
    The construction entry points (:meth:`from_spec`, :meth:`create`, ...)
    are hybrid: calling them on the *class* operates on the default registry.
    """

    _default: Optional["SolverRegistry"] = None

    def __init__(self) -> None:
        self._backends: Dict[str, RegisteredBackend] = {}
        self._by_alias: Dict[str, str] = {}

    # -------------------------------------------------------------- registration
    def register(
        self,
        name: str,
        solver_cls: Type[QUBOSolver],
        config_cls: Optional[type] = None,
        aliases: Iterable[str] = (),
        description: str = "",
    ) -> RegisteredBackend:
        """Register a backend under ``name`` (plus case-insensitive aliases)."""
        key = name.strip().lower()
        if key in self._backends:
            raise ValueError(f"backend {key!r} is already registered")
        backend = RegisteredBackend(
            name=key,
            solver_cls=solver_cls,
            config_cls=config_cls,
            aliases=tuple(a.strip().lower() for a in aliases),
            description=description,
        )
        labels = (key, *backend.aliases)
        # Validate every label before mutating, so a conflict cannot leave the
        # registry half-registered.
        for label in labels:
            existing = self._by_alias.get(label)
            if existing is not None and existing != key:
                raise ValueError(
                    f"name {label!r} already registered for backend {existing!r}"
                )
        for label in labels:
            self._by_alias[label] = key
        self._backends[key] = backend
        return backend

    @classmethod
    def default(cls) -> "SolverRegistry":
        """The process-wide registry with every bundled backend registered."""
        if cls._default is None:
            cls._default = _build_default_registry()
        return cls._default

    # ------------------------------------------------------------------- lookup
    @_hybridmethod
    def names(self) -> Tuple[str, ...]:
        """Canonical backend names, sorted."""
        return tuple(sorted(self._backends))

    @_hybridmethod
    def backends(self) -> Tuple[RegisteredBackend, ...]:
        """All registered backends, sorted by canonical name."""
        return tuple(self._backends[name] for name in sorted(self._backends))

    @_hybridmethod
    def canonical_name(self, name: str) -> str:
        """Resolve a name or alias to the canonical backend name."""
        key = name.strip().lower()
        try:
            return self._by_alias[key]
        except KeyError:
            raise ValueError(
                f"unknown solver backend {name!r}; known backends: "
                f"{', '.join(sorted(self._by_alias))}"
            ) from None

    @_hybridmethod
    def backend(self, name: str) -> RegisteredBackend:
        """The :class:`RegisteredBackend` for a name or alias."""
        return self._backends[self.canonical_name(name)]

    def __contains__(self, name: str) -> bool:
        return name.strip().lower() in self._by_alias

    @_hybridmethod
    def describe(self) -> str:
        """Human-readable table of backends, aliases and options."""
        lines = []
        for backend in self.backends():
            aliases = f" (aliases: {', '.join(backend.aliases)})" if backend.aliases else ""
            options = ", ".join(backend.option_names()) or "-"
            lines.append(f"{backend.name}{aliases}: {backend.description}")
            lines.append(f"    options: {options}")
        return "\n".join(lines)

    # ------------------------------------------------------------- construction
    @_hybridmethod
    def create(self, name: str, config: Any = None, **options: Any) -> QUBOSolver:
        """Construct a backend by name from a config object or flat options."""
        return self.backend(name).create(config=config, **options)

    @_hybridmethod
    def from_spec(self, spec: "str | QUBOSolver", **overrides: Any) -> QUBOSolver:
        """Construct a solver from a spec string (``"tabu?tenure=16"``).

        An existing :class:`QUBOSolver` instance passes straight through
        (no overrides allowed), which lets APIs accept "spec or solver"
        uniformly.
        """
        if isinstance(spec, QUBOSolver):
            if overrides:
                raise ValueError(
                    "options cannot be applied to an already-constructed solver"
                )
            return spec
        name, options = parse_spec(spec)
        options.update(overrides)
        return self.create(name, **options)

    @_hybridmethod
    def spec_for(self, solver: "str | QUBOSolver") -> str:
        """The spec string reconstructing ``solver`` (inverse of :meth:`from_spec`).

        Only non-default config fields are emitted, nested config dataclasses
        become dotted options, and the result is *verified*: the spec is parsed
        back and must reproduce the solver's ``config_fingerprint()`` exactly,
        so a spec shipped to another process resolves to a byte-identical
        solver.  Raises :class:`SpecSerializationError` for solvers the flat
        grammar cannot express (unregistered classes, non-scalar config values
        such as custom schedule objects).
        """
        if isinstance(solver, str):
            # Validate and normalise a caller-supplied spec.
            self.from_spec(solver)
            return solver
        backend = None
        for candidate in self._backends.values():
            if candidate.solver_cls is type(solver):
                backend = candidate
                break
        if backend is None:
            raise SpecSerializationError(
                f"no registered backend constructs {type(solver).__qualname__}; "
                f"register it (or pass a spec string) to run it on a "
                f"distributed execution backend"
            )
        if backend.config_cls is None:
            spec = backend.name
        else:
            config = getattr(solver, "config", None)
            if not (dataclasses.is_dataclass(config) and not isinstance(config, type)):
                raise SpecSerializationError(
                    f"backend {backend.name!r}: solver has no config dataclass to serialise"
                )
            pairs = _emit_config_options(backend.config_cls, config)
            query = "&".join(f"{key}={raw}" for key, raw in pairs)
            spec = f"{backend.name}?{query}" if query else backend.name
        try:
            rebuilt = self.from_spec(spec)
        except SpecSerializationError:
            raise
        except (ValueError, TypeError) as exc:
            # E.g. an emitted dotted option addressing a field whose default
            # is not a dataclass (Optional nested configs).  Callers rely on
            # SpecSerializationError as the "fall back in-process" signal, so
            # every not-expressible shape must surface as it.
            raise SpecSerializationError(
                f"spec {spec!r} emitted for {type(solver).__qualname__} does "
                f"not parse back: {exc}"
            ) from exc
        if rebuilt.config_fingerprint() != solver.config_fingerprint():
            raise SpecSerializationError(
                f"spec {spec!r} does not round-trip the configuration of "
                f"{type(solver).__qualname__} (fingerprint mismatch); the config "
                f"holds state the spec grammar cannot express"
            )
        return spec


_MISSING = object()


def _field_default(field: "dataclasses.Field") -> Any:
    """The default value of a dataclass field (``_MISSING`` when required)."""
    if field.default is not dataclasses.MISSING:
        return field.default
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return field.default_factory()  # type: ignore[misc]
    return _MISSING


def _split_dotted_options(
    options: Dict[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Separate ``{"a": 1, "b.c": 2}`` into flat and one-level nested groups."""
    flat: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    for key, value in options.items():
        if "." not in key:
            flat[key] = value
            continue
        head, _, rest = key.partition(".")
        if not head or not rest or "." in rest:
            raise ValueError(
                f"malformed dotted option {key!r}; one level of nesting "
                f"(field.subfield) is supported"
            )
        nested.setdefault(head, {})[rest] = value
    return flat, nested


def _build_nested_config(config_cls: type, field_name: str, overrides: Dict[str, Any]) -> Any:
    """Construct the nested config dataclass a dotted option group addresses.

    The nested class is taken from the field's default (or default factory)
    value, so only fields that default to a config dataclass accept dotted
    options; the instance is built from the nested class's own defaults plus
    the overrides — matching how :func:`_emit_config_options` emits them.
    """
    field = next(
        (f for f in dataclass_fields(config_cls) if f.name == field_name), None
    )
    if field is None:  # pragma: no cover - caller validated the name
        raise ValueError(f"unknown option {field_name!r}")
    default = _field_default(field)
    if not (dataclasses.is_dataclass(default) and not isinstance(default, type)):
        raise ValueError(
            f"option {field_name!r} does not default to a config dataclass; "
            f"dotted options cannot address it"
        )
    nested_cls = type(default)
    valid = {f.name for f in dataclass_fields(nested_cls)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ValueError(
            f"unknown nested option(s) {unknown} for {field_name!r}; "
            f"valid options: {sorted(valid)}"
        )
    return nested_cls(**overrides)


def _format_option_value(key: str, value: Any) -> str:
    """Render one option value into the spec grammar, verifying it parses back."""
    import numpy as _np

    if isinstance(value, (_np.integer, _np.floating, _np.bool_)):
        value = value.item()
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        raw = repr(value)
    elif isinstance(value, str):
        # Strings get a second chance through the URL-escape layer: nested
        # specs inside list-valued options (portfolio members) carry the
        # reserved ?/&/= characters, which percent-encoding smuggles through
        # the flat grammar.  Whichever form is tried must parse back exactly.
        for candidate in (value, quote(value, safe=",")):
            if not any(ch in candidate for ch in "?&=") and parse_value(candidate) == value:
                return candidate
        raise SpecSerializationError(
            f"option {key!r} value {value!r} does not survive the spec grammar"
        )
    else:
        raise SpecSerializationError(
            f"option {key!r} holds a {type(value).__name__} value; only "
            f"scalars (and one level of nested config dataclasses) are "
            f"spec-serialisable"
        )
    if any(ch in raw for ch in "?&=") or parse_value(raw) != value:
        raise SpecSerializationError(
            f"option {key!r} value {value!r} does not survive the spec grammar"
        )
    return raw


def _emit_config_options(config_cls: type, config: Any) -> List[Tuple[str, str]]:
    """``(key, raw)`` pairs reconstructing ``config`` from its class defaults.

    Fields equal to their default are omitted (reconstruction falls back to
    the default / default factory).  A nested dataclass value that differs
    from its field default is emitted as dotted options covering every nested
    field that differs from the *nested class's* own defaults — exactly what
    :func:`_build_nested_config` re-applies on top of those defaults.
    """
    pairs: List[Tuple[str, str]] = []
    for field in dataclass_fields(config_cls):
        value = getattr(config, field.name)
        default = _field_default(field)
        if default is not _MISSING and value == default:
            continue
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            nested_cls = type(value)
            nested_pairs: List[Tuple[str, str]] = []
            for sub in dataclass_fields(nested_cls):
                sub_value = getattr(value, sub.name)
                sub_default = _field_default(sub)
                if sub_default is not _MISSING and sub_value == sub_default:
                    continue
                if dataclasses.is_dataclass(sub_value) and not isinstance(sub_value, type):
                    raise SpecSerializationError(
                        f"option {field.name}.{sub.name} nests a second config "
                        f"dataclass; only one level of nesting is spec-serialisable"
                    )
                key = f"{field.name}.{sub.name}"
                nested_pairs.append((key, _format_option_value(key, sub_value)))
            if not nested_pairs:
                # The value differs from the field's default-*factory* result
                # while matching the nested class's own defaults (e.g. a plain
                # TabuSearchConfig() where the factory customises steps).  An
                # empty group would rebuild via the factory, so emit one field
                # explicitly to force construction from the class defaults.
                subs = dataclass_fields(nested_cls)
                if not subs:
                    raise SpecSerializationError(
                        f"option {field.name!r} holds a field-less dataclass "
                        f"differing from its default; not spec-serialisable"
                    )
                key = f"{field.name}.{subs[0].name}"
                nested_pairs.append(
                    (key, _format_option_value(key, getattr(value, subs[0].name)))
                )
            pairs.extend(nested_pairs)
        else:
            pairs.append((field.name, _format_option_value(field.name, value)))
    return pairs


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name?key=value&..."`` into ``(name, {key: parsed_value})``."""
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"solver spec must be a non-empty string, got {spec!r}")
    name, _, query = spec.partition("?")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"solver spec {spec!r} has no backend name")
    options: Dict[str, Any] = {}
    if query:
        for item in query.split("&"):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed option {item!r} in spec {spec!r}; expected key=value"
                )
            options[key] = parse_value(raw.strip())
    return name, options


def parse_value(raw: str) -> Any:
    """Parse a spec option value: int, float, bool, none, else string."""
    lowered = raw.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "%" in raw:
        return unquote(raw)
    return raw


def _build_default_registry() -> SolverRegistry:
    registry = SolverRegistry()
    registry.register(
        "sa",
        SimulatedAnnealingSolver,
        SimulatedAnnealingConfig,
        aliases=("simulated-annealing",),
        description="blocked single-flip Metropolis simulated annealing (CPU)",
    )
    registry.register(
        "da",
        DigitalAnnealerSolver,
        DigitalAnnealerConfig,
        aliases=("digital-annealer",),
        description="Digital-Annealer-style parallel-trial annealer with dynamic offset",
    )
    registry.register(
        "pt",
        ParallelTemperingSolver,
        ParallelTemperingConfig,
        aliases=("parallel-tempering", "replica-exchange"),
        description="replica-exchange Monte Carlo over a geometric temperature ladder",
    )
    registry.register(
        "tabu",
        TabuSearchSolver,
        TabuSearchConfig,
        aliases=("tabu-search",),
        description="best-improvement single-flip tabu search, batched over replicas",
    )
    registry.register(
        "qbsolv",
        QbsolvSolver,
        QbsolvConfig,
        description="qbsolv-style decomposing hybrid with tabu sub-solver",
    )
    registry.register(
        "qa",
        QuantumAnnealerSolver,
        QuantumAnnealerConfig,
        aliases=("quantum-annealer",),
        description="annealer with analog control error and quantised coefficients",
    )
    registry.register(
        "random",
        RandomSolver,
        None,
        description="uniform random sampling baseline",
    )
    # Imported here, not at module top: the portfolio package builds on the
    # service layer, which imports this module.
    from repro.portfolio.solver import PortfolioConfig, PortfolioSolver

    registry.register(
        "portfolio",
        PortfolioSolver,
        PortfolioConfig,
        aliases=("algorithm-portfolio",),
        description="budget-aware per-instance scheduling over member solver specs",
    )
    return registry


def make_solver(spec: "str | QUBOSolver", **options: Any) -> QUBOSolver:
    """Construct a solver from a spec against the default registry.

    ``make_solver("sa", num_sweeps=2000)`` and
    ``make_solver("tabu?tenure=16")`` are equivalent entry points; an existing
    solver instance passes through unchanged.
    """
    return SolverRegistry.default().from_spec(spec, **options)
