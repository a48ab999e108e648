"""The in-process command-line harness shared by the CLI tests."""

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from subsystem_codes.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str                       # stdout and stderr as interleaved
    exception: Optional[BaseException]   # None on exit 0

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class _Tee(io.StringIO):
    """A stream that also copies what it is given to ``mixed``."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


def invoke(args: List[str], env: Optional[Dict[str, str]] = None) -> Result:
    """Run ``subsys <args>`` in this process with ``env`` added to the
    environment.  A refusal exits through ``SystemExit``, which becomes the
    exit code and the exception; any other exception is caught and kept
    with exit code 1, so a test can tell a clean refusal from a crash."""
    mixed = io.StringIO()
    out, err = _Tee(mixed), _Tee(mixed)
    saved = {name: os.environ.get(name) for name in env or {}}
    os.environ.update(env or {})
    exit_code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(args), prog_name="subsys")
    except SystemExit as exc:
        exit_code = (exc.code if isinstance(exc.code, int)
                     else int(exc.code is not None))
        exception = exc if exit_code else None
    except Exception as exc:          # a crash, not a refusal
        exit_code, exception = 1, exc
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(),
                  exception)
