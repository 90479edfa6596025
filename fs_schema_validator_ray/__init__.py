"""Ray-Data-native schema + constraint validation engine.

A from-scratch rebuild of the validation semantics of
``nablaflow/fs-schema-validator`` (reference at ``/root/reference``) as a
streaming Ray Data pipeline over Arrow tables of audio clip + transcript
pairs:

* declarative YAML rule specs with bindings, ``{...}`` template expansion
  and ``if:`` conditional rules (reference ``fs_schema_validator/__init__.py:46-69``),
* per-(row x rule) pass/fail producing violation rows
  ``(partition_id, clip_id, rule_id, reason)`` (reference ``report.py:10-14``),
* payload decode validation in fused per-row tasks (reference ``schemas/image.py``,
  ``schemas/gltf.py``, ``schemas/zip.py``),
* mergeable sketches (HLL / t-digest / Bloom / KS-PSI) as the distributed
  generalization of the reference's mergeable ``ValidationReport``
  (``report.py:44-48``),
* resumable per-partition checkpoints.

Nothing in this package calls ``ray.init()``; the driver owns the session.
"""

from fs_schema_validator_ray.report import Violation, ViolationReport

__all__ = ["Violation", "ViolationReport"]
