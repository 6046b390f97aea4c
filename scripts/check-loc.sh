#!/bin/sh
# Size gate for ROADMAP aim 2 ("net non-test LOC trends down"): fail
# when `make loc` — non-test Go lines outside bench/ — exceeds the number
# committed in scripts/loc-budget. A PR that needs more code raises the
# budget in its own diff, where review sees it; a PR that shrinks the
# tree lowers it to its result.
#
# Run as `make loc-check` (part of `make verify`).
set -eu
cd "$(dirname "$0")/.."
budget=$(cat scripts/loc-budget)
loc=$(make -s loc)
if [ "$loc" -gt "$budget" ]; then
    echo "loc gate: $loc non-test Go lines, budget $budget (scripts/loc-budget): shrink the change or raise the budget in this diff"
    exit 1
fi
echo "loc gate: OK ($loc lines, budget $budget)"
