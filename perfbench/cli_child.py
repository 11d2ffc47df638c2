"""Run one ``ahgnn`` CLI command in this process and report its peak memory.

    python3 perfbench/cli_child.py SRC COMMAND [ARGS ...]

Imports the program from SRC, runs ``ahgnn COMMAND ARGS`` through
``ahgnn.cli.dispatch`` and exits with its code.  The last line on stderr
is the peak resident set of this process in kB.  That is read from
``VmHWM``, because ``ru_maxrss`` of a process started by fork and exec
also counts the memory its parent held when it forked.
"""

import resource
import sys


def peak_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from ahgnn.cli import dispatch
    code = dispatch(sys.argv[2:])
    print(peak_kb(), file=sys.stderr)
    sys.exit(code)
