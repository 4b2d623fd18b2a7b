#!/bin/sh
# Regenerates tests/golden/ from a configured, built tree (default
# build/): reruns every `golden` ctest with CHAMELEON_UPDATE_GOLDENS=1,
# which rewrites the committed files instead of diffing them. Review
# the `git diff` and list every changed cell, with its reason, in
# CHANGES.md.
#   tools/update_goldens.sh [build-dir]
set -e
# The goldens record the default (incremental) solver's counters.
unset CHAMELEON_SIM_REFERENCE_SOLVER
CHAMELEON_UPDATE_GOLDENS=1 ctest --test-dir "${1:-build}" -L golden \
    --output-on-failure
