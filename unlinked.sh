#!/usr/bin/env bash
# Lists the non-test functions of the arbods module that no binary links.
#
# Every main package (commands and examples) and the benchmark binary
# under benchmark/ are built with inlining off (-gcflags=all=-l), so no
# call hides in a caller; their `go tool nm` symbols, with generic
# brackets and closure suffixes stripped, are the linked set. Every
# non-test `func` declaration outside benchmark/ that is not in it is
# printed as pkg.Name or pkg.(*Recv).Name (a value-receiver method counts
# as linked when its pointer wrapper is). Exits 1 when a printed name is
# not one of the KEEP names below, which stay on purpose.
#
# Usage: bash unlinked.sh   (or: make unlinked)
set -euo pipefail
cd "$(dirname "$0")"

# Unlinked on purpose: README's quickstart API, the chaos harness's arming
# API and the engine-level orientation run that tests in several packages
# share.
KEEP='arbods.Path
arbods.CheckPacking
arbods.PartialDominatingSet
arbods/internal/faultinject.New
arbods/internal/faultinject.(*Registry).Arm
arbods/internal/faultinject.(*Registry).Hits
arbods/internal/faultinject.(*Registry).Chance
arbods/internal/faultinject.(*Transport).RoundTrip
arbods/internal/graph.(*Graph).HasEdge
arbods/internal/orient.Run
arbods/internal/orient.(*runProc).Step
arbods/internal/orient.(*runProc).Output'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Linked symbols: a main package's "main." prefix becomes its import path.
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	go tool nm "$tmp/bin" | sed -E "s/^ *[0-9a-f]* +[A-Za-z] +//; s#^main\.#$pkg.#" >>"$tmp/syms"
done
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin" .)
go tool nm "$tmp/bin" | sed -E 's/^ *[0-9a-f]* +[A-Za-z] +//' >>"$tmp/syms"
# Generic brackets nest ([go.shape.struct { … }]), so strip innermost first;
# then closure, go/defer wrapper and method-value suffixes, and the index
# the compiler gives each func init.
sed -E ':a; s/\[[^][]*\]//g; ta; s/(\.(func|gowrap|deferwrap)[0-9]+)+(\.[0-9]+)*$//; s/-(fm|range[0-9]+)$//; s/\.init\.[0-9]+$/.init/' \
	"$tmp/syms" | sort -u >"$tmp/linked"

# Declarations, one "name<TAB>pointer-wrapper-name" line each.
for pkg in $(go list ./...); do
	dir=${pkg#arbods}
	dir=.${dir:-/}
	for f in "$dir"/*.go; do
		case $f in *_test.go) continue ;; esac
		awk -v p="$pkg" '/^func / && !/^func _\(/ {
			s = substr($0, 6)
			if (s !~ /^\(/) { sub(/[[(].*/, "", s); print p "." s "\t" p "." s; next }
			r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
			sub(/\[.*/, "", r); sub(/.* /, "", r); sub(/[[(].*/, "", s)
			if (r ~ /^\*/) { n = p ".(" r ")." s; print n "\t" n }
			else print p "." r "." s "\t" p ".(*" r ")." s
		}' "$f"
	done
done | sort -u >"$tmp/decls"

awk -F'\t' 'NR == FNR { linked[$0] = 1; next } !($1 in linked) && !($2 in linked) { print $1 }' \
	"$tmp/linked" "$tmp/decls" >"$tmp/unlinked"
cat "$tmp/unlinked"
extra=$(grep -vxF -f <(printf '%s\n' "$KEEP") "$tmp/unlinked" || true)
if [ -n "$extra" ]; then
	echo "unlinked.sh: linked by no binary and not kept on purpose:" >&2
	echo "$extra" >&2
	exit 1
fi
