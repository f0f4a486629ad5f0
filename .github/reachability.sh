#!/usr/bin/env bash
# Reachability: which code does no end-to-end suite run?
#
# Runs the root, internal/service and internal/baselines test suites with
# -coverpkg=./..., merges their profiles (a block counts as reached when
# any suite reaches it) and lists every non-test function outside cmd/ and
# examples/ that stays at 0 %. Each must appear in the accepted list,
# .github/reachability-accepted.txt, one per line as
#
#   <file> <Receiver.Function or Function> <reason>: <why>
#
# with <reason> one of the tags in $reasons (that file says what each
# means). The step fails on an unexplained entry and on an entry with an
# unknown reason. An accepted entry that the run reaches is printed as
# stale but does not fail, so a timing-dependent path that only some runs
# reach cannot fail the step.
#
# Run from the repository root: bash .github/reachability.sh
set -euo pipefail

reasons='bench-shell marker stringer test-oracle open'
accepted=.github/reachability-accepted.txt
mod=$(go list -m)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

n=0
for pkg in . ./internal/service/ ./internal/baselines/; do
	n=$((n + 1))
	go test -count=1 -coverpkg=./... -coverprofile="$dir/$n.out" "$pkg" >/dev/null
done
awk 'FNR == 1 { next }
	{ k = $1 " " $2; if ($3 > 0) c[k] = 1; else if (!(k in c)) c[k] = 0 }
	END { print "mode: set"; for (k in c) print k, c[k] }' "$dir"/*.out >"$dir/merged.out"
go tool cover -func="$dir/merged.out" >"$dir/func.txt"

# "<module>/<file>:<line>:<tabs><name><tabs>0.0%" -> "<file> <Receiver.name>",
# the receiver read off the declaration line.
awk -F'\t+' -v mod="$mod/" '$NF == "0.0%" {
	split($1, loc, ":"); f = loc[1]; sub("^" mod, "", f)
	if (f ~ /^(cmd|examples)\//) next
	recv = ""
	line = 0
	while ((getline src < f) > 0)
		if (++line == loc[2]) {
			if (match(src, /^func \([^)]*\)/)) {
				n = split(substr(src, 7, RLENGTH - 7), w, " ")
				recv = w[n]; gsub(/[*]|\[.*/, "", recv); recv = recv "."
			}
			break
		}
	close(f)
	print f, recv $2
}' "$dir/func.txt" | sort -u >"$dir/zero.txt"

bad=0
awk '!/^[[:space:]]*(#|$)/' "$accepted" >"$dir/entries.txt"
while read -r file fn reason _; do
	case " $reasons " in
	*" ${reason%:} "*) ;;
	*) echo "accepted entry $file $fn: unknown reason '$reason'" >&2 && bad=1 ;;
	esac
done <"$dir/entries.txt"
awk '{ print $1, $2 }' "$dir/entries.txt" | sort -u >"$dir/accepted.txt"

echo "Functions no end-to-end suite reaches ($(wc -l <"$dir/zero.txt")):"
sed 's/^/  /' "$dir/zero.txt"
stale=$(comm -13 "$dir/zero.txt" "$dir/accepted.txt")
if [ -n "$stale" ]; then
	echo "Accepted but reached in this run (stale or timing-dependent):"
	echo "$stale" | sed 's/^/  /'
fi
unexplained=$(comm -23 "$dir/zero.txt" "$dir/accepted.txt")
if [ -n "$unexplained" ]; then
	echo "Unexplained: reach each with a test query, delete it, or accept it in $accepted:" >&2
	echo "$unexplained" | sed 's/^/  /' >&2
	bad=1
fi
exit "$bad"
