"""Every seed-7 certification report of the benchmark's workloads must hash
to the digest recorded in ``perfbench/digests.json``, so a change that moves
a float bit or a report byte fails here, not only in a benchmark run.

The jobs are built by ``perfbench/run.py``'s own ``build_inputs`` on the
package already imported by this suite (no re-import).
"""

import hashlib
import json

import pytest

import reflekt
import reflekt.serialize
import reflekt.verify
from test_perfbench_spans import load_run

RUN = load_run()
DIGESTS = json.loads(RUN.DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_seed7_reports_match_recorded_digests(name):
    mismatched = []
    for job, ef, vertices in RUN.build_inputs(reflekt, RUN.WORKLOADS[name]):
        report = reflekt.verify.verify_projection_equality(
            ef, vertices, n_objectives=job.objectives, seed=RUN.DIGEST_SEED, tol=job.tol
        )
        got = hashlib.sha256(report.to_json().encode()).hexdigest()
        if got != DIGESTS[job.key]:
            mismatched.append(job.key)
    assert mismatched == []
