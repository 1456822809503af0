"""Planted RL5 violations: set iteration and unsorted JSON inside the
hash closure (``shard_key`` -> ``_payload``).  ``unrelated`` is outside
the closure, so its unsorted dump must stay silent."""

import hashlib
import json


def _payload(params):
    return {key: params[key] for key in set(params)}  # planted: RL501


def shard_key(spec):
    doc = json.dumps(_payload(spec), indent=2)  # planted: RL502
    return hashlib.sha256(doc.encode()).hexdigest()


def unrelated(params):
    return json.dumps(params)
