#!/usr/bin/env python3
"""Drive the msplog CLI over the artifacts the test binaries export.

Usage:  check_msplog_cli.py <msplog-binary> <artifact-dir>

<artifact-dir> holds what chain_test and flight_recorder_test wrote:
msplog_chain_log_image.bin and msplog_outage_{bundle.json,report.json,
log_image.bin}. Checks, by exit status and output:
  * --self-check --stats --json on the chain image exits 0 and prints a
    JSON report with records and per-session stats;
  * --self-check --bundle --report on the outage image exits 0 with the
    live-vs-offline fate cross-check agreeing;
  * a copy of the outage image with ten bytes flipped inside an early
    record (a mid-log tear) makes the same command exit 1 and name the tear;
  * bad usage exits 2.
Registered in CTest as msplog_cli, after the exporting tests.
"""
import json
import os
import subprocess
import sys
import tempfile


def run(argv):
    p = subprocess.run(argv, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def expect(cond, what, output=""):
    if not cond:
        sys.exit(f"FAIL: {what}\n{output}")
    print(f"ok: {what}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    tool, art = sys.argv[1], sys.argv[2]
    chain = os.path.join(art, "msplog_chain_log_image.bin")
    bundle = os.path.join(art, "msplog_outage_bundle.json")
    report = os.path.join(art, "msplog_outage_report.json")
    outage = os.path.join(art, "msplog_outage_log_image.bin")

    rc, out = run([tool, "--self-check", "--stats", "--json", chain])
    expect(rc == 0, "chain image passes --self-check", out)
    doc = json.loads(out.splitlines()[0])
    expect(doc["records"] > 0 and doc["invariant_violations"] == [] and
           doc["session_stats"], "chain --json report has records and stats",
           out)

    postmortem = [tool, "--self-check", "--bundle", bundle, "--report",
                  report]
    rc, out = run(postmortem + [outage])
    expect(rc == 0 and "cross-check OK" in out and "invariants: OK" in out,
           "outage post-mortem agrees with the live report", out)

    # Tear the image ten bytes into a record a quarter of the way in.
    rc, out = run([tool, "--records", outage])
    lsns = [int(line.split()[0]) for line in out.splitlines()
            if line.endswith("crc=ok")]
    expect(rc == 0 and len(lsns) > 8, "outage image lists its records", out)
    with open(outage, "rb") as f:
        image = bytearray(f.read())
    lsn = lsns[len(lsns) // 4]
    for i in range(lsn + 12, lsn + 22):
        image[i] ^= 0xFF
    with tempfile.TemporaryDirectory() as tmp:
        torn = os.path.join(tmp, "torn.bin")
        with open(torn, "wb") as f:
            f.write(image)
        rc, out = run(postmortem + [torn])
    expect(rc == 1 and f"mid-log tear at lsn {lsn}" in out and
           "normal after a crash" not in out and "cross-check OK" not in out,
           f"mid-log tear at {lsn} fails the post-mortem", out)

    rc, out = run([tool, "--report", report, outage])
    expect(rc == 2, "--report without --bundle is a usage error", out)
    rc, out = run([tool])
    expect(rc == 2, "a missing image is a usage error", out)


if __name__ == "__main__":
    main()
