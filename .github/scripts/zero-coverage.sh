#!/usr/bin/env bash
# Coverage ratchet for the protocol-stack packages (core, nic, retrans,
# mapping, fabric, workload): lists every function no test executes under
# -short (0% statements, measured across all internal packages) and
# compares the list with the committed allowlist, which may only shrink.
# Run from the repository root:
#
#	bash .github/scripts/zero-coverage.sh          # check
#	bash .github/scripts/zero-coverage.sh -update  # rewrite the allowlist
set -euo pipefail

allow=.github/zero-coverage.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! go test -short -count=1 -coverpkg=./internal/... -coverprofile="$tmp/cover.out" ./... >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi
go tool cover -func="$tmp/cover.out" |
	awk '$NF == "0.0%" && $1 ~ /^sanft\/internal\/(core|nic|retrans|mapping|fabric|workload)\// {
		sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	LC_ALL=C sort >"$tmp/zero.txt"

if [ "${1:-}" = -update ]; then
	cp "$tmp/zero.txt" "$allow"
	echo "$(wc -l <"$allow") functions at 0% written to $allow"
	exit 0
fi

added=$(LC_ALL=C comm -13 "$allow" "$tmp/zero.txt")
covered=$(LC_ALL=C comm -23 "$allow" "$tmp/zero.txt")
status=0
if [ -n "$added" ]; then
	echo "functions no test executes (cover them; the allowlist may only shrink):"
	echo "$added"
	status=1
fi
if [ -n "$covered" ]; then
	echo "functions now covered (drop them from $allow, or run with -update):"
	echo "$covered"
	status=1
fi
[ "$status" -eq 0 ] && echo "zero-coverage list matches $allow ($(wc -l <"$allow") functions)"
exit "$status"
