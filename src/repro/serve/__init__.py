"""Batch optimization service: parallel multi-query driving + plan cache.

The paper optimizes one query at a time; a served deployment faces
*streams* of queries, many of them repeated or parametric. This
subpackage provides the batch layer on top of any
:class:`repro.api.Optimizer`:

* :mod:`repro.serve.fingerprint` — structural plan fingerprints
  (topology + operator kinds + quantized cardinality buckets), the
  cache key;
* :mod:`repro.serve.cache` — the fingerprint-keyed LRU
  :class:`PlanCache`, and the store (LRU, counters, JSON persistence)
  both cache tiers build on;
* :mod:`repro.serve.template` — the second cache tier:
  :class:`TemplateCache`, keyed by cardinality-*stripped* template
  fingerprints, holding per-template candidate sets that are re-costed
  with the live model at every lookup (the cheapest is served; a
  template with several optima only near a cardinality where one was
  observed), so parametric workloads whose cardinalities never repeat
  still reuse plans safely;
* :mod:`repro.serve.batch` — :class:`BatchOptimizationService`:
  warm-worker process-pool parallelism (CPU-affinity-aware sizing,
  workers initialized once and reused across batches), per-job timeouts,
  graceful serial fallback, within-batch deduplication and
  tail-latency percentiles;
* :mod:`repro.serve.protocol` — the versioned wire schema
  (``OptimizeRequest``/``OptimizeResponse``/``ErrorResponse`` frames,
  strict parsing with unknown-field tolerance) shared by the daemon,
  the client and the CLI's JSONL job rows;
* :mod:`repro.serve.daemon` — :class:`OptimizationDaemon`: the
  persistent asyncio front door (unix socket + TCP) with bounded-queue
  admission control, cross-client fingerprint coalescing, per-request
  deadline budgets and graceful drain;
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  client with pipelined bursts;
* :mod:`repro.serve.testing` — picklable deterministic doubles for the
  differential and concurrency suites.

CLI: ``repro optimize-batch --jobs jobs.jsonl --model model.pkl``
(add ``--server unix:/run/repro.sock`` to go through a daemon started
with ``repro serve``). See ``docs/serving.md`` for the batch API,
fingerprint scheme, cache semantics and the daemon wire protocol.
"""

from repro.serve.batch import (
    BatchJob,
    BatchOptimizationService,
    BatchReport,
    JobOutcome,
    available_cpus,
    resilient_robopt_factory,
    robopt_factory,
)
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.client import ServeClient, parse_address
from repro.serve.daemon import DaemonConfig, OptimizationDaemon
from repro.serve.feedback import FeedbackController
from repro.serve.fingerprint import cardinality_bucket, plan_fingerprint
from repro.serve.template import (
    TemplateCache,
    TemplateCacheStats,
    TemplateCandidate,
    template_fingerprint,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    OptimizeRequest,
    OptimizeResponse,
    ProtocolError,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
    job_row_to_request,
    load_jobs_jsonl,
    parse_request,
    parse_response,
    request_to_job,
)

__all__ = [
    "BatchJob",
    "BatchOptimizationService",
    "BatchReport",
    "JobOutcome",
    "available_cpus",
    "robopt_factory",
    "resilient_robopt_factory",
    "PlanCache",
    "CacheStats",
    "plan_fingerprint",
    "cardinality_bucket",
    "TemplateCache",
    "TemplateCacheStats",
    "TemplateCandidate",
    "template_fingerprint",
    # wire protocol
    "PROTOCOL_VERSION",
    "ProtocolError",
    "OptimizeRequest",
    "OptimizeResponse",
    "ErrorResponse",
    "StatsRequest",
    "StatsResponse",
    "ShutdownRequest",
    "ShutdownResponse",
    "parse_request",
    "parse_response",
    "job_row_to_request",
    "request_to_job",
    "load_jobs_jsonl",
    # daemon + client
    "OptimizationDaemon",
    "DaemonConfig",
    "ServeClient",
    "parse_address",
    # feedback / drift
    "FeedbackController",
]
