"""Run a command and write the largest peak RSS, in KiB, of its processes.

Usage: python peak.py OUT COMMAND [ARG ...]

The peak is ru_maxrss over the waited-for descendants, so the command and
the pool workers it joins all count.  Exits with the command's exit code.
"""

import resource
import subprocess
import sys

if __name__ == "__main__":
    code = subprocess.run(sys.argv[2:]).returncode
    with open(sys.argv[1], "w") as fh:
        print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=fh)
    sys.exit(code)
