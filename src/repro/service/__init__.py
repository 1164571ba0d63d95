"""Synthesis-as-a-service: the ``k2 serve`` daemon (ROADMAP item 1).

The package turns the one-shot search pipeline into a long-lived local
service:

* :mod:`repro.service.protocol` — versioned, typed newline-delimited JSON
  over a local socket (``AF_UNIX`` where available, loopback TCP
  elsewhere);
* :mod:`repro.service.jobs` — job specs, states, priorities and the
  journaled queue that survives daemon restarts;
* :mod:`repro.service.daemon` — :class:`K2Daemon`: the concurrent
  scheduler (per-job worker grants from a daemon-wide budget), the
  request server, the event broker behind ``watch`` streams, the shard
  coordinator, worker supervision and graceful shutdown;
* :mod:`repro.service.shards` — chain sharding: split a job's chains
  across peer daemons and merge the results bit-identically;
* :mod:`repro.service.client` — :class:`DaemonClient`: what the
  ``k2 submit|status|result|cancel`` subcommands talk through, including
  the event-driven :meth:`~repro.service.client.DaemonClient.watch` /
  :meth:`~repro.service.client.DaemonClient.wait` pair.

Fault tolerance is layered on the checkpointed controller
(:mod:`repro.synthesis.checkpoint`): every job runs with
``checkpoint_key=job id`` against the daemon's shared verdict store, so a
SIGKILL'd worker costs one generation retry, a killed daemon resumes every
in-flight job from its last generation boundary on restart, and both paths
produce results bit-identical to an uninterrupted run.
"""

from .client import DaemonClient, DaemonUnavailable
from .daemon import EventBroker, K2Daemon
from .jobs import Job, JobQueue, JobSpec, JOB_STATES
from .protocol import CAPABILITIES, PROTO_VERSION
from .shards import merge_shard_payloads, plan_shards, run_shard

__all__ = ["DaemonClient", "DaemonUnavailable", "EventBroker", "K2Daemon",
           "Job", "JobQueue", "JobSpec", "JOB_STATES",
           "CAPABILITIES", "PROTO_VERSION",
           "merge_shard_payloads", "plan_shards", "run_shard"]
