"""One digest line per CLI command, for checking that two trees write the same outputs.

    python tools/artifact_digest.py [SRC] [--reverse]

Runs a fixed set of commands through the ``degenmfg.cli.main`` of the source
tree SRC (default: the tree this script sits in), all in this one process:
the seed-1 commands of the convergence, stability and carleman benchmark
workloads (SRC's ``bench/workloads.run_commands``) and every
``configs/*.json`` of SRC.  For each command it prints a tag, the exit code
and the SHA-256 over the command's artifacts (each file's name, size and
bytes, in name order), with result.json's timestamp line dropped.

Two trees that write the same outputs print identical lines, so

    python tools/artifact_digest.py OLD > old.txt
    python tools/artifact_digest.py NEW > new.txt
    diff old.txt new.txt

checks a "same outputs" claim, and two runs on one tree check that the
outputs do not depend on the process.  ``--reverse`` runs the same commands
last to first, so

    python tools/artifact_digest.py | sort > forward.txt
    python tools/artifact_digest.py --reverse | sort > reverse.txt
    diff forward.txt reverse.txt

checks that no command's outputs depend on the commands run before it in
the process: on any state a command leaves in the process (a module-level
cache, a changed global setting) for the next one to find.
A command that raises prints
``raised:<exception type>`` in place of its exit code, and its traceback on
stderr; the script then exits 1 after the last command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

SEED = 1
# result.json is written with indent=2: its top-level keys sit at two spaces
TIMESTAMP = b'  "timestamp": '


def commands(src: Path):
    """(tag, command, config) of every digested command, in a fixed order."""
    from workloads import WORKLOADS, run_commands

    for workload in WORKLOADS:
        for i, (command, cfg) in enumerate(run_commands(workload, SEED)):
            case = f".{cfg['case']}" if "case" in cfg else ""
            yield f"{workload}.{i:02d}.{command}{case}", command, cfg
    for path in sorted((src / "configs").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        yield f"configs.{path.stem}", cfg["command"], cfg


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        if f.name == "result.json":
            lines = data.splitlines(keepends=True)
            data = b"".join(line for line in lines if not line.startswith(TIMESTAMP))
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="root of the source tree to run (default: this script's tree)")
    parser.add_argument("--reverse", action="store_true", help="run the commands last to first")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    from degenmfg import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"degenmfg imported from {cli.__file__}, not from {src}")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        runs = list(commands(src))
        for tag, command, cfg in reversed(runs) if args.reverse else runs:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            try:
                code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            except Exception as exc:  # a traceback from the program: report it, go on
                traceback.print_exc()
                code, failed = f"raised:{type(exc).__name__}", True
            print(tag, code, digest(out), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
