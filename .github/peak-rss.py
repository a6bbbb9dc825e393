"""Run one command and fail if its peak resident set size is over a ceiling.

    python .github/peak-rss.py CEILING_MB LABEL -- COMMAND [ARG ...]

Prints "LABEL: peak RSS N MB, ceiling CEILING_MB MB". Exits non-zero if the
command fails or its peak (ru_maxrss of the waited-for child, kB on Linux) is
over CEILING_MB.
"""

import resource
import subprocess
import sys

if len(sys.argv) < 5 or sys.argv[3] != "--":
    sys.exit(__doc__)
ceiling_mb, label, command = float(sys.argv[1]), sys.argv[2], sys.argv[4:]
subprocess.run(command, check=True)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{label}: peak RSS {peak_mb:.0f} MB, ceiling {ceiling_mb:g} MB")
if peak_mb > ceiling_mb:
    sys.exit(f"{label} exceeds its {ceiling_mb:g} MB peak-RSS ceiling")
