"""Everything around the server process: build the index it serves,
launch and stop the real ``python -m repro serve``, and read what it
exposes from outside — ``/metrics``, ``/healthz`` and ``/proc``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from wire import HOST, one_shot

__all__ = ["REPO_ROOT", "SRC", "child_env", "preflight", "base_corpus", "ingest_corpus",
           "build_index", "merge_index", "free_port", "Server",
           "parse_metrics", "directory_stats"]

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

NARRATIONS_PER_MATCH = 118     # the paper's 1182 narrations / 10 matches
SEGMENT_SIZE = 1
INGEST_START_DATE = "2012-01-03"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    return env


def preflight() -> None:
    """Import every ``repro`` module in a throwaway child, untimed, so
    bytecode compilation and page-cache fills never land in
    ``setup_s``."""
    script = ("import importlib, pkgutil, repro\n"
              "for module in pkgutil.walk_packages(repro.__path__, "
              "'repro.'):\n"
              "    importlib.import_module(module.name)\n")
    subprocess.run([sys.executable, "-c", script], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)


def base_corpus(matches: int):
    """The corpus every run serves: ``matches`` round-robin fixtures at
    the paper's narration density, under the repository's standard
    corpus seed.  The same for every ``--seed`` — the seed draws the
    traffic, not the database, so ``rss_mb``, ``disk_kb_per_doc`` and
    the cost of a query do not wander with it."""
    from repro.soccer.corpus import standard_corpus
    from repro.soccer.names import round_robin_fixtures
    return standard_corpus(
        fixtures=round_robin_fixtures(matches),
        total_narrations=NARRATIONS_PER_MATCH * matches)


def ingest_corpus(seed: int, matches: int):
    """``matches`` never-seen fixtures for ``/ingest``, drawn from
    ``seed`` and dated after every base fixture so no match id
    (teams + date) collides."""
    from repro.soccer.corpus import standard_corpus
    from repro.soccer.names import round_robin_fixtures
    return standard_corpus(
        seed=seed,
        fixtures=round_robin_fixtures(matches,
                                      start_date=INGEST_START_DATE),
        total_narrations=NARRATIONS_PER_MATCH * matches)


def build_index(crawled, directory: Path) -> Dict[str, float]:
    """The batch path: steps 2–8 sealed into segments.  Returns the
    stage seconds ``SegmentedPipelineResult`` reports."""
    from repro.core.pipeline import SemanticRetrievalPipeline
    started = time.perf_counter()
    result = SemanticRetrievalPipeline().run_segmented(
        crawled, directory, workers=1, segment_size=SEGMENT_SIZE)
    try:
        return {
            "wall_s": time.perf_counter() - started,
            "build_s": sum(result.chunk_build_seconds),
            "seal_s": sum(result.chunk_seal_seconds),
            "infer_s": sum(result.inference_seconds),
            "chunk_s": [build + seal for build, seal in zip(
                result.chunk_build_seconds, result.chunk_seal_seconds)],
        }
    finally:
        result.close()


def merge_index(directory: Path) -> float:
    """``repro merge --force --vacuum``: one segment per index, so
    background maintenance has nothing left to do.  Forced, because
    the tiered policy alone is seed-dependent — whether a run of
    segments merges hinges on which side of a size-tier boundary each
    falls, and a served index of 1 or of 12 segments are different
    workloads.  Returns wall seconds."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "merge", "-d", str(directory),
         "--force", "--vacuum"],
        env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text → ``{'name{labels}': value}``."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class Server:
    """The real ``python -m repro serve`` as a child process."""

    def __init__(self, directory: Path, log: Path,
                 maintenance_interval: Optional[float] = None) -> None:
        self.port = free_port()
        self._log_path = log
        self._log = open(log, "wb")
        command = [sys.executable, "-m", "repro", "serve",
                   "-d", str(directory), "-p", str(self.port)]
        if maintenance_interval is not None:
            command += ["--maintenance-interval",
                        str(maintenance_interval)]
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=self._log,
            stderr=subprocess.STDOUT)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                status, _ = one_shot(self.port, "GET", "/healthz",
                                     timeout=2.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(
            f"server not healthy within {timeout:.0f}s (exit code "
            f"{self.process.poll()}); its output:\n{self.output()}")

    def output(self) -> str:
        self._log.flush()
        return self._log_path.read_text(errors="replace")

    def healthz(self) -> dict:
        status, body = one_shot(self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)

    def metrics(self) -> Dict[str, float]:
        status, body = one_shot(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    # -- /proc ---------------------------------------------------------

    def cpu_seconds(self) -> float:
        """CPU consumed by every thread of the server: nanosecond
        ``schedstat`` run time summed over tasks, else utime+stime."""
        total = 0
        try:
            for task in os.listdir(f"/proc/{self.pid}/task"):
                with open(f"/proc/{self.pid}/task/{task}/schedstat") \
                        as handle:
                    total += int(handle.read().split()[0])
            if total:
                return total / 1e9
        except (OSError, ValueError, IndexError):
            pass
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return ((int(fields[11]) + int(fields[12]))
                / os.sysconf("SC_CLK_TCK"))

    def memory_kb(self) -> Tuple[float, float]:
        """``(VmHWM, VmRSS)`` in kB."""
        wanted = {"VmHWM": 0.0, "VmRSS": 0.0}
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name in wanted:
                    wanted[name] = float(rest.split()[0])
        return wanted["VmHWM"], wanted["VmRSS"]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=20.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


def directory_stats(directory: Path) -> Dict[str, float]:
    """Bytes on disk, Σ ``doc_count`` and segment counts, read off the
    committed manifests of every index under ``directory``."""
    from repro.search.index.directory import list_indexes
    from repro.search.index.segments import IndexDirectory
    size = sum(path.stat().st_size
               for path in directory.rglob("*") if path.is_file())
    docs: Dict[str, int] = {}
    segments: Dict[str, int] = {}
    for name in list_indexes(directory):
        manifest = IndexDirectory(directory / f"{name}.segd",
                                  name=name).manifest()
        docs[name] = manifest.doc_count
        segments[name] = len(manifest.segments)
    return {"bytes": float(size), "docs": docs, "segments": segments}
