#!/bin/sh
# apicheck.sh — the public-API compatibility gate.
#
# Compares the current exported surface of package pvr against the
# checked-in snapshot (api/pvr.txt). A PR that changes the exported
# surface must regenerate the snapshot with `make api` (which runs this
# script with --update) — making every API break (or addition) an
# explicit, reviewable diff instead of a silent drift.
#
# It also fails when package pvr depends on the simulation packages
# (pvr/internal/netsim, pvr/internal/topology): the experiment drivers
# are not part of the product's public surface.
set -eu
cd "$(dirname "$0")/.."

snapshot=api/pvr.txt

# generate writes the current surface to $1, one exported identifier per
# line: every constant, variable, function, type, method, struct field,
# and interface method, with its declaration. It reads `go doc -all`,
# which prints each declaration in full — grouped const/var blocks and
# struct bodies included — where plain `go doc` collapses a group to its
# first name plus "...". Doc comments are dropped: the gate is about the
# API shape, not the prose.
generate() {
    go doc -all pvr | awk '
        # decl strips a trailing comment and collapses gofmt alignment, so
        # a neighbour that realigns a block does not read as a change.
        function decl(s) { sub(/[ \t]*\/\/.*$/, "", s); sub(/^\t/, "", s); gsub(/[ \t]+/, " ", s); return s }
        # Grouped const/var/type blocks: one line per exported name.
        /^(const|var|type) \($/ { group = $1; next }
        group != "" && /^\)/ { group = ""; next }
        group != "" && /^\t[A-Z]/ { print group " " decl($0); next }
        group != "" { next }
        # Struct and interface bodies: one line per exported member,
        # qualified by the type that owns it.
        /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ {
            owner = $2; kind = ($3 == "struct") ? "field" : "method"
            print "type " owner " " $3
            next
        }
        owner != "" && /^\}/ { owner = ""; next }
        owner != "" && /^\t[A-Z]/ {
            line = decl($0)
            if (kind == "field" && match(line, /^[A-Za-z0-9_]+(, [A-Za-z0-9_]+)* /)) {
                n = split(substr(line, 1, RLENGTH - 1), names, ", ")
                for (i = 1; i <= n; i++)
                    if (names[i] ~ /^[A-Z]/) print kind " " owner "." names[i] " " substr(line, RLENGTH + 1)
            } else {
                print kind " " owner "." line
            }
            next
        }
        owner != "" { next }
        # Everything else declared at column 0 is one declaration per line.
        /^(const|var|func|type) / { print decl($0) }
    ' > "$1"
}

deps="$(go list -deps pvr | grep -E '^pvr/internal/(netsim|topology)$' || true)"
if [ -n "$deps" ]; then
    echo "apicheck: package pvr depends on simulation packages:" >&2
    echo "$deps" | sed 's/^/apicheck:   /' >&2
    echo "apicheck: experiment drivers belong in cmd/pvrbench, not the public API" >&2
    exit 1
fi

if [ "${1:-}" = "--update" ]; then
    generate "$snapshot"
    echo "apicheck: regenerated $snapshot"
    exit 0
fi

current="$(mktemp)"
trap 'rm -f "$current"' EXIT
generate "$current"

if ! diff -u "$snapshot" "$current"; then
    echo >&2
    echo "apicheck: public pvr API surface changed." >&2
    echo "apicheck: if intentional, regenerate the snapshot with: make api" >&2
    exit 1
fi
echo "apicheck: public API surface matches $snapshot"
