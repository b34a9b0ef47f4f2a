"""The per-stage timing script (`tools/stages.py`) end to end, at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_record(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [
        sys.executable, str(ROOT / "tools" / "stages.py"), "--out", str(out),
        "--parent", str(ROOT), "--repeats", "1", "--chain", "50", "--reach", "8", "--meta-chain", "10",
    ]
    subprocess.run(argv, check=True, capture_output=True, timeout=300)
    record = json.loads(out.read_text())
    assert {"python", "nproc", "trees", "bytecode"} <= set(record)
    assert "PYTHONPYCACHEPREFIX" in record["bytecode"]
    assert set(record["trees"]) == {"parent", "change"}
    workloads = record["workloads"]
    assert set(workloads) == {
        "chain-50", "families-chain-seed1", "families-circle-seed1",
        "families-teams-seed1", "reach-seed1", "reach-8", "meta-chain-10", "models-seed1",
    }
    # 50 links and 5 overruled attackers; both signs of p0 ... p50
    assert workloads["chain-50"]["sizes"]["rules"] == 55
    assert workloads["chain-50"]["sizes"]["base"] == 102
    # +d p50 rests on +D p0, +d p0 ... p50 and -D ~p1 ... ~p50
    assert workloads["chain-50"]["sizes"]["derivation_steps"] == 102
    assert workloads["models-seed1"]["sizes"]["theories"] == 199
    stages = {"import_s", "parse_s", "ground_s", "validate_s", "derive_s", "render_s", "total_s"}
    meta = {"translate_s", "fixpoint_s"}
    explained = {"explain_s", "check_s"}
    for name, workload in workloads.items():
        if name.startswith("models"):
            expected = stages - {"render_s"} | meta | {"consequences_s"}
        elif name.startswith(("chain", "families")):
            expected = stages | explained
            assert workload["sizes"]["derivation_steps"] > 0
        else:
            expected = stages | (meta if name.startswith("meta") else set())
        for tree in ("parent", "change"):
            assert set(workload["median_s"][tree]) == expected
            assert set(workload["median_scaled_s"][tree]) == set(workload["median_s"][tree])
            assert len(workload["runs_s"][tree]) == 1
            assert len(workload["scales"][tree]) == 1 and workload["scales"][tree][0] > 0
            # numpy is only for the model oracle, and no run has reached it after derive
            assert workload["numpy_loaded"][tree] == [False]
