"""A violation carrying an inline waiver — must produce no findings."""

import time

STARTED = time.time()  # repro-lint: disable=RL203 -- fixture: exercises the waiver path
