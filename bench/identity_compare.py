#!/usr/bin/env python3
r"""Byte-identity harness: runs two builds of cssamec and cssamed over the
identity corpus and compares everything they print.

    python3 bench/identity_compare.py --base BUILD_A --test BUILD_B \
        [--slice full|ctest] [--work DIR]

BUILD_A and BUILD_B are CMake build directories; the harness runs their
examples/cssamec and examples/cssamed, up to four at a time. The corpus
is written once, by BUILD_B's bench/identity_corpus
(bench/identity_corpus.cc), so both sides read the same bytes. Every program runs under every mode of MODES,
plus --explore and --fix where the corpus manifest tags it `small`;
--dump-pfg is skipped where it is tagged `huge-pfg`. Every program also
goes, as analyze, vrange, explore and fix frames (FRAMES), to one
cssamed --stdio per side.

Stdout, stderr and exit code (for cssamed, each response envelope) must
match exactly once the times of `phase:` lines are masked: the --stats
phase table is the only timing either tool prints, and its phase names
and order are still compared. The harness prints the run count and the
first differing (program, mode) pairs with a diff. It exits 1 on any
difference or timeout, 2 on a usage or setup error, 0 otherwise.

Comparing a build with itself tests the harness, and catches output that
depends on hash-map order or on timing (the `identity_harness_test`
ctest does so on the ctest slice).
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The cssamec modes every program runs in.
MODES = [
    ["--csan"],
    ["--races", "--stats"],
    ["--points-to", "--stats"],
    ["--csan", "--points-to"],
    ["--vrange", "--tso"],
    ["--vrange", "--stats"],
    ["--json"],
    ["--sarif"],
    ["--dump-form"],
    ["--no-cssame", "--dump-form"],
    ["--dump-pfg"],
    ["--opt"],
    ["--opt", "--no-cssame"],
    ["--opt", "--stats"],
]
SMALL_MODES = [["--explore"], ["--fix"]]

# The cssamed frames every program is sent, as (method, options). The
# first analyze misses; most later frames answer from the compilation
# tier, so the cached-compilation paths are compared too.
FRAMES = [
    ("analyze", {"csan": True, "stats": True}),
    ("analyze", {"dumpPfg": True}),
    ("analyze", {"pointsTo": True, "stats": True}),
    ("vrange", {"stats": True}),
    ("vrange", {"tso": True}),
    ("analyze", {"opt": True}),
]
SMALL_FRAMES = [("explore", {}), ("fix", {"fix": "all"})]

TIMEOUT_S = 300
JOBS = max(1, min(4, os.cpu_count() or 1))
SHOWN = 5  # differences printed with their diff
PHASE = re.compile(r"^(phase:\s+\S+)\s+[0-9.]+ ms$", re.M)


def mask(text):
    """Masks the time of every `phase:` line, keeping its name."""
    return PHASE.sub(r"\1 <ms>", text)


def read_manifest(corpus):
    programs = []
    for line in (corpus / "manifest.tsv").read_text().splitlines():
        name, _, tags = line.partition("\t")
        programs.append((name, set(filter(None, tags.split(",")))))
    return programs


def cli_runs(programs):
    runs = []
    for name, tags in programs:
        for mode in MODES + (SMALL_MODES if "small" in tags else []):
            if mode == ["--dump-pfg"] and "huge-pfg" in tags:
                continue
            runs.append((name, mode))
    return runs


def run_cli(cssamec, corpus, name, mode):
    """One cssamec run, masked; None when it timed out."""
    try:
        proc = subprocess.run([str(cssamec)] + mode + [name], cwd=corpus,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return (mask(proc.stdout.decode("utf-8", "replace")),
            mask(proc.stderr.decode("utf-8", "replace")),
            proc.returncode)


def frame(obj):
    payload = json.dumps(obj).encode()
    return b"csaJ" + struct.pack("<I", len(payload)) + payload


def run_daemon(cssamed, corpus, chunk):
    """Sends every frame of `chunk` to one cssamed --stdio; returns the
    masked, canonically serialized responses, or None on a timeout."""
    requests = []
    for name, tags in chunk:
        source = (corpus / name).read_text()
        frames = FRAMES + (SMALL_FRAMES if "small" in tags else [])
        for method, options in frames:
            if options.get("dumpPfg") and "huge-pfg" in tags:
                continue
            requests.append({"id": len(requests), "method": method,
                             "file": name, "source": source,
                             "options": options})
    try:
        proc = subprocess.run(
            [str(cssamed), "--stdio"], capture_output=True, timeout=TIMEOUT_S,
            input=b"".join(frame(r) for r in requests))
    except subprocess.TimeoutExpired:
        return None
    out, at, responses = proc.stdout, 0, []
    while at < len(out):
        if out[at:at + 4] != b"csaJ":
            responses.append("<bad frame>")
            break
        (size,) = struct.unpack("<I", out[at + 4:at + 8])
        body = json.loads(out[at + 8:at + 8 + size])
        at += 8 + size
        result = body.get("result")
        if isinstance(result, dict):
            for key in ("out", "err"):
                if isinstance(result.get(key), str):
                    result[key] = mask(result[key])
        responses.append(json.dumps(body, sort_keys=True, indent=1))
    labels = ["%s %s %s" % (r["file"], r["method"],
                            json.dumps(r["options"], sort_keys=True))
              for r in requests]
    return labels, responses, proc.returncode


def diff_text(a, b):
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                      "base", "test", lineterm="", n=2))
    if len(lines) > 40:
        lines = lines[:40] + ["... (%d more diff lines)" % (len(lines) - 40)]
    return "\n".join(lines)


def compare_cli(base, test, corpus, name, mode):
    a = run_cli(base, corpus, name, mode)
    b = run_cli(test, corpus, name, mode)
    label = "%s %s" % (name, " ".join(mode))
    if a is None or b is None:
        return [(label, "timed out after %d s" % TIMEOUT_S)]
    diffs = []
    for what, x, y in (("stdout", a[0], b[0]), ("stderr", a[1], b[1])):
        if x != y:
            diffs.append((label, what + ":\n" + diff_text(x, y)))
    if a[2] != b[2]:
        diffs.append((label, "exit code %d vs %d" % (a[2], b[2])))
    return diffs


def compare_daemon(base, test, corpus, chunk):
    a = run_daemon(base, corpus, chunk)
    b = run_daemon(test, corpus, chunk)
    if a is None or b is None:
        return 0, [("cssamed chunk", "timed out after %d s" % TIMEOUT_S)]
    labels, ra, code_a = a
    _, rb, code_b = b
    diffs = []
    if len(ra) != len(labels) or len(rb) != len(labels):
        diffs.append(("cssamed chunk", "%d requests, %d vs %d responses"
                      % (len(labels), len(ra), len(rb))))
    for label, x, y in zip(labels, ra, rb):
        if x != y:
            diffs.append(("cssamed " + label, diff_text(x, y)))
    if code_a != code_b:
        diffs.append(("cssamed chunk", "exit code %d vs %d" % (code_a, code_b)))
    return len(labels), diffs


def tool(build, rel):
    path = Path(build) / rel
    if not path.is_file():
        sys.exit("identity_compare: no %s" % path)
    return path.resolve()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="build directory A")
    parser.add_argument("--test", required=True, help="build directory B")
    parser.add_argument("--slice", choices=["full", "ctest"], default="full")
    parser.add_argument("--work", help="scratch directory (default: a "
                        "temporary one, removed afterwards)")
    args = parser.parse_args()

    base_c = tool(args.base, "examples/cssamec")
    test_c = tool(args.test, "examples/cssamec")
    base_d = tool(args.base, "examples/cssamed")
    test_d = tool(args.test, "examples/cssamed")
    writer = tool(args.test, "bench/identity_corpus")

    work = Path(args.work) if args.work else Path(tempfile.mkdtemp())
    corpus = work / "corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    cmd = [str(writer), str(corpus), str(REPO / "examples" / "programs")]
    if args.slice == "ctest":
        cmd.append("--slice=ctest")
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit(2)
    programs = read_manifest(corpus)

    runs = cli_runs(programs)
    chunks = [programs[i::JOBS] for i in range(JOBS)]
    diffs, responses = [], 0
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        cli = [pool.submit(compare_cli, base_c, test_c, corpus, n, m)
               for n, m in runs]
        daemon = [pool.submit(compare_daemon, base_d, test_d, corpus, c)
                  for c in chunks if c]
        for f in cli:
            diffs += f.result()
        for f in daemon:
            count, found = f.result()
            responses += count
            diffs += found
    if not args.work:
        shutil.rmtree(work, ignore_errors=True)

    print("identity: %d programs, %d cssamec runs and %d cssamed responses "
          "per side, %d difference(s)"
          % (len(programs), len(runs), responses, len(diffs)))
    for label, detail in diffs[:SHOWN]:
        print("--- %s\n%s" % (label, detail))
    for label, _ in diffs[SHOWN:SHOWN + 20]:
        print("--- %s (diff not shown)" % label)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
