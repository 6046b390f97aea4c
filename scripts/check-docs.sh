#!/bin/sh
# Docs gate: fail CI when README.md or ARCHITECTURE.md reference flags,
# endpoints, make targets or identifiers that no longer exist in the
# source, or when a command grows a flag README.md never mentions. Three
# checks run in the docs -> source direction (stale documentation is the
# failure mode):
#
#  1. every /api/v1/* endpoint and /metrics mentioned in the docs must
#     be registered — a "GET <endpoint>" mux pattern — by a non-test Go
#     source outside bench/ (a mention in a comment does not count);
#  2. every `<command> -flag` pair in the docs, plus the flag manifest
#     below (the flags the docs describe in prose or tables), must be
#     defined by that command's flag set;
#  3. every `make target` the docs quote or list at the start of a line
#     must be a Makefile target.
#
# one in the source -> docs direction (an undocumented flag):
#
#  4. every flag a command's flag set defines, the shared ones
#     included, must appear in README.md as `-flag`;
#
# one that does both for the -config file's <options> attributes:
#
#  5. every attribute README's Configuration section names — in its
#     <options ...> example, or as `attr=` in its precedence paragraph —
#     must be a row of config.Options (internal/config/flags.go), and
#     every row must be named there;
#
# and one over every identifier the docs quote:
#
#  6. every backticked name in the docs of the form ident(.ident)* must
#     have its last dotted part occur as a whole word in some .go file
#     (tests and bench/ count), so a renamed or deleted function leaves
#     no doc pointing at it. Words that are not Go go in ident_allow.
#
# Run as `make docs` (part of `make verify`).
set -eu
cd "$(dirname "$0")/.."
fail=0

docs="README.md ARCHITECTURE.md"

# --- 1. endpoints -----------------------------------------------------
for ep in $(grep -ohE '/api/v1/[a-z]+|/metrics' $docs | sort -u); do
    if ! grep -rqF --include='*.go' --exclude='*_test.go' --exclude-dir=bench "\"GET $ep" .; then
        echo "docs gate: endpoint $ep is documented but not served by any source file"
        fail=1
    fi
done

# --- 2. flags ---------------------------------------------------------
# flag_files CMD -> the non-test sources that define cmd/CMD's flags: its
# own and — tiptop and tiptopd — the shared set in internal/config/flags.go.
flag_files() {
    ls "cmd/$1"/*.go | grep -v '_test\.go$'
    [ "$1" = tipbench ] || echo internal/config/flags.go
}

# flag_defined CMD FLAG -> 0 when one of them defines the flag.
flag_defined() {
    grep -qE "fs\.[A-Za-z0-9]+\((&[A-Za-z.]+, )?\"$2\"" $(flag_files "$1")
}

# 2a. `cmd -flag` adjacencies found in the docs. The leading character
# class keeps path suffixes like /var/lib/tiptop from matching the
# command name.
for cmd in tiptop tiptopd tipbench; do
    for flag in $(grep -ohE "(^|[^[:alnum:]/._-])$cmd +-[a-z][a-z-]*" $docs | grep -oE -- '-[a-z][a-z-]*$' | sed 's/^-//' | sort -u); do
        if ! flag_defined "$cmd" "$flag"; then
            echo "docs gate: docs show '$cmd -$flag' but cmd/$cmd defines no -$flag flag"
            fail=1
        fi
    done
done

# 2b. The manifest: every flag the docs describe, one cmd:flag per word.
manifest="
tiptop:b tiptop:d tiptop:n tiptop:screen tiptop:sort tiptop:rows
tiptop:u tiptop:o tiptop:record tiptop:connect tiptop:sim
tiptop:scale tiptop:list tiptop:list-events tiptop:dump-config
tiptop:config tiptop:system-wide tiptop:counters tiptop:wire
tiptop:fsync tiptop:store tiptop:retention tiptop:budget
tiptopd:addr tiptopd:d tiptopd:n tiptopd:history tiptopd:window
tiptopd:sim tiptopd:config tiptopd:join tiptopd:store
tiptopd:retention tiptopd:budget tiptopd:system-wide tiptopd:counters
tiptopd:fsync tiptopd:compact tiptopd:wire
tipbench:run tipbench:scale tipbench:out tipbench:list
tipbench:validate
"

# 2c. Named scenarios the docs mention as `-sim NAME` must exist in
# ScenarioNames() (scenario.go) — a renamed scenario otherwise leaves
# the README's walkthroughs pointing at the unknown-scenario error.
for name in $(grep -ohE -- '-sim +[a-z][a-z-]*' $docs | awk '{print $2}' | sort -u); do
    if ! grep -qE "\"$name\"" scenario.go; then
        echo "docs gate: docs show '-sim $name' but scenario.go names no \"$name\" scenario"
        fail=1
    fi
done
for entry in $manifest; do
    cmd=${entry%%:*}
    flag=${entry#*:}
    if ! flag_defined "$cmd" "$flag"; then
        echo "docs gate: manifest names $cmd -$flag but cmd/$cmd defines no -$flag flag"
        fail=1
    fi
done

# --- 3. make targets --------------------------------------------------
for target in $(grep -ohE '(^|`)make +[a-z][a-z-]*' $docs | awk '{print $NF}' | sort -u); do
    if ! grep -qE "^$target:" Makefile; then
        echo "docs gate: docs show 'make $target' but the Makefile has no such target"
        fail=1
    fi
done

# --- 4. source -> docs: every defined flag is documented --------------
for cmd in tiptop tiptopd tipbench; do
    for flag in $(grep -ohE 'fs\.[A-Za-z0-9]+\((&[A-Za-z.]+, )?"[a-z][a-z-]*"' $(flag_files "$cmd") | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u); do
        if ! grep -qE -- "(^|[^[:alnum:]-])-$flag([^[:alnum:]-]|\$)" README.md; then
            echo "docs gate: cmd/$cmd defines -$flag but README.md never shows it"
            fail=1
        fi
    done
done

# --- 5. <options> attributes: README <-> the config.Options table ----
rows=$(grep -oE 'Attr: +"[a-z_]+"' internal/config/flags.go | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
section=$(sed -n '/^## Configuration/,/^### /p' README.md)
named=$({
    printf '%s\n' "$section" | sed -n '/<options /,/\/>/p' | grep -oE '[a-z_]+="'
    printf '%s\n' "$section" | grep -oE '`[a-z_]+=`'
} | tr -d '`="' | sort -u)
for attr in $named; do
    if ! printf '%s\n' "$rows" | grep -qx "$attr"; then
        echo "docs gate: README names the <options> attribute $attr= but config.Options has no such row"
        fail=1
    fi
done
for attr in $rows; do
    if ! printf '%s\n' "$named" | grep -qx "$attr"; then
        echo "docs gate: config.Options maps $attr= but README's Configuration section never names it"
        fail=1
    fi
done

# --- 6. backticked identifiers exist in the source --------------------
ident_allow="curl"
words=$(find . -name '*.go' -exec cat {} + | grep -oE '[A-Za-z0-9_]+' | sort -u)
for name in $(grep -ohE '`[^`]*`' $docs | tr -d '`' | grep -xE '[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*' | sort -u); do
    last=${name##*.}
    case " $ident_allow " in *" $last "*) continue ;; esac
    if ! printf '%s\n' "$words" | grep -qxF "$last"; then
        echo "docs gate: docs quote \`$name\` but no .go file has the word $last"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs gate: FAILED (update README.md/ARCHITECTURE.md or the manifest in scripts/check-docs.sh)"
    exit 1
fi
echo "docs gate: OK"
