"""Write reference.json: the sha256 of every CLI job's --machine output.

usage: python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right; the
benchmark then fails any job whose output differs from these digests.
"""

import hashlib
import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, basis_jobs, check_basis, child_env


def main() -> int:
    digests = {}
    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for job in basis_jobs():
            proc = subprocess.run(
                [sys.executable, str(HERE / "cli_job.py"), str(workdir / "report"), "0",
                 *job.argv], env=child_env(), cwd=ROOT, capture_output=True, check=True)
            problem = check_basis(json.loads(proc.stdout))
            if problem:
                raise SystemExit(f"{job.id}: {problem}")
            digests[job.id] = hashlib.sha256(proc.stdout).hexdigest()
            print(job.id, digests[job.id])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
