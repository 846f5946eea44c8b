"""The service wire protocol: typed, versioned JSON dataclasses.

Clients of the job server (:mod:`repro.service.server`) speak HTTP and
WebSocket only and never import simulator internals — the contract of
the phiacta extension protocol.  Everything that crosses the wire is
one of the dataclasses below, serialized as JSON with a ``v`` protocol
version field.  Decoding is *tolerant of unknown fields* (a newer
client talking to an older server, or vice versa, degrades instead of
exploding) and rejects only messages from a newer protocol major
version.

The canonical identity of a submission is not the request object but
the :class:`~repro.parallel.jobs.SimJob` digest it canonicalizes to
(:meth:`JobRequest.to_sim_job`): two requests that differ only in
field order, float spelling, or unknown extras coalesce to the same
execution and the same cache entry.

Results travel as JSON too, through the ``__nd__`` codec that
:mod:`repro.results` defines next to :class:`~repro.results.CommResult`
(re-exported here): :func:`encode_result` flattens a result and
:func:`decode_result` rebuilds it bit-identically, so a decoded result
compares bitwise equal to the direct ``simulate()`` path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.config import FeatureFlags, NetSparseConfig
from repro.results import (
    CommResult,
    ProtocolError,
    decode_result,
    decode_value,
    dumps,
    encode_result,
    encode_value,
    loads,
)

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_STATES",
    "ProtocolError",
    "JobRequest",
    "SweepRequest",
    "JobStatus",
    "JobResult",
    "config_from_overrides",
    "encode_result",
    "decode_result",
    "encode_value",
    "decode_value",
    "dumps",
    "loads",
]

#: Bump on incompatible message-shape changes.  Decoders accept any
#: message at or below their own version (unknown fields are dropped).
PROTOCOL_VERSION = 1

#: Job lifecycle states, in order of progression.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def _check_version(data: Dict[str, Any], what: str) -> None:
    v = data.get("v", PROTOCOL_VERSION)
    if not isinstance(v, int) or v < 1:
        raise ProtocolError(f"{what}: bad protocol version {v!r}",
                            code="bad_version")
    if v > PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what}: protocol version {v} is newer than this "
            f"server's {PROTOCOL_VERSION}", code="bad_version")


def _known_fields(cls, data: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``data`` naming actual fields — unknown-field
    tolerance in one place."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in data.items() if k in names}


def config_from_overrides(overrides: Optional[Dict[str, Any]]) -> NetSparseConfig:
    """Build a :class:`NetSparseConfig` from a sparse override dict.

    ``{"n_nodes": 64, "features": {"property_cache": false}}`` →
    defaults with those fields replaced.  Unknown keys are an error
    (a typo here would silently simulate the wrong system)."""
    overrides = dict(overrides or {})
    feature_over = overrides.pop("features", None)
    cfg_names = {f.name for f in fields(NetSparseConfig)}
    unknown = sorted(set(overrides) - cfg_names)
    if unknown:
        raise ProtocolError(f"unknown config fields: {unknown}",
                            code="bad_config")
    if feature_over is not None:
        flag_names = {f.name for f in fields(FeatureFlags)}
        bad = sorted(set(feature_over) - flag_names)
        if bad:
            raise ProtocolError(f"unknown feature flags: {bad}",
                                code="bad_config")
        overrides["features"] = FeatureFlags(**feature_over)
    try:
        return NetSparseConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config overrides: {exc}",
                            code="bad_config")


@dataclass
class JobRequest:
    """One simulation submission — the JSON body of ``POST /v1/jobs``.

    Mirrors :class:`~repro.parallel.jobs.SimJob` field-for-field, with
    ``config`` as a sparse override dict instead of a full
    :class:`NetSparseConfig` (clients shouldn't need to spell out all
    of Table 5 to change one knob).
    """

    scheme: str
    matrix: str
    k: int
    v: int = PROTOCOL_VERSION
    scale_name: str = "small"
    seed: int = 7
    rig_batch: Optional[int] = None
    scale: Optional[float] = None
    topology: Optional[List] = None
    partition: str = "rows"
    faults: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRequest":
        if not isinstance(data, dict):
            raise ProtocolError("job request must be a JSON object")
        _check_version(data, "job request")
        for req in ("scheme", "matrix", "k"):
            if req not in data:
                raise ProtocolError(f"job request missing field {req!r}",
                                    code="missing_field")
        return cls(**_known_fields(cls, data))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_sim_job(self):
        """Canonicalize to the digestable execution-engine job.

        The service answers with a :class:`CommResult`, so it refuses
        ``compute`` jobs (their result is the compute model's inputs)."""
        from repro.parallel.jobs import SimJob

        if self.scheme == "compute":
            raise ProtocolError("the service runs communication schemes; "
                                "'compute' jobs are not served",
                                code="bad_job")
        try:
            return SimJob(
                scheme=self.scheme,
                matrix=self.matrix,
                k=int(self.k),
                config=config_from_overrides(self.config),
                scale_name=self.scale_name,
                seed=int(self.seed),
                rig_batch=None if self.rig_batch is None else int(self.rig_batch),
                scale=None if self.scale is None else float(self.scale),
                topology=None if self.topology is None else tuple(self.topology),
                partition=self.partition,
                faults=self.faults,
            )
        except ProtocolError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(str(exc), code="bad_job")


@dataclass
class SweepRequest:
    """A cross-product of jobs — the JSON body of ``POST /v1/sweeps``.

    Expands ``schemes x matrices x ks`` over the shared knobs into
    individual :class:`JobRequest` records.  Duplicate combinations
    collapse before admission, and duplicates across concurrent sweeps
    coalesce server-side by job digest.
    """

    schemes: List[str]
    matrices: List[str]
    ks: List[int]
    v: int = PROTOCOL_VERSION
    scale_name: str = "small"
    seed: int = 7
    partition: str = "rows"
    faults: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepRequest":
        if not isinstance(data, dict):
            raise ProtocolError("sweep request must be a JSON object")
        _check_version(data, "sweep request")
        for req in ("schemes", "matrices", "ks"):
            if not data.get(req):
                raise ProtocolError(
                    f"sweep request needs a non-empty {req!r} list",
                    code="missing_field")
        return cls(**_known_fields(cls, data))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def expand(self) -> List[JobRequest]:
        out, seen = [], set()
        for scheme in self.schemes:
            for matrix in self.matrices:
                for k in self.ks:
                    key = (scheme, matrix, k)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(JobRequest(
                        scheme=scheme, matrix=matrix, k=int(k),
                        scale_name=self.scale_name, seed=self.seed,
                        partition=self.partition, faults=self.faults,
                        config=dict(self.config),
                    ))
        return out


@dataclass
class JobStatus:
    """Lifecycle snapshot of one submitted job (``GET /v1/jobs/<id>``)."""

    job_id: str
    digest: str
    state: str
    v: int = PROTOCOL_VERSION
    source: Optional[str] = None       # executed | cache | memo | coalesced
    coalesced: bool = False            # this submission joined an in-flight job
    error: Optional[str] = None
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    describe: Dict[str, Any] = field(default_factory=dict)
    sweep_id: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobStatus":
        if not isinstance(data, dict):
            raise ProtocolError("job status must be a JSON object")
        _check_version(data, "job status")
        for req in ("job_id", "digest", "state"):
            if req not in data:
                raise ProtocolError(f"job status missing field {req!r}",
                                    code="missing_field")
        return cls(**_known_fields(cls, data))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


@dataclass
class JobResult:
    """A finished job's payload (``GET /v1/jobs/<id>/result``)."""

    job_id: str
    digest: str
    elapsed: float
    result: Dict[str, Any]
    v: int = PROTOCOL_VERSION
    source: Optional[str] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        if not isinstance(data, dict):
            raise ProtocolError("job result must be a JSON object")
        _check_version(data, "job result")
        for req in ("job_id", "digest", "result"):
            if req not in data:
                raise ProtocolError(f"job result missing field {req!r}",
                                    code="missing_field")
        return cls(**_known_fields(cls, data))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def comm_result(self) -> CommResult:
        return decode_result(self.result)
