#!/bin/sh
# check_docs.sh — documentation lint for CI and local runs.
#
# 1. Every library package (root + internal/...) must carry a
#    `// Package <name>` doc comment; every command under cmd/ a
#    `// Command <name>` one; every example program some leading
#    comment before `package main`.
# 2. Every relative markdown link or bare file reference in the
#    top-level documents must point at a file that exists.
# 3. Every NAME.md cited in a Go comment must exist, at the repo root
#    or next to the citing file.
#
# Exits non-zero with a list of violations.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- package comments -------------------------------------------------
for dir in $(go list -f '{{.Dir}}' ./...); do
    rel=${dir#"$(pwd)"/}
    case "$rel" in
    "$(pwd)") rel="." ;;
    esac
    case "$rel" in
    cmd/*)
        pattern='^// Command ' ;;
    examples/*)
        pattern='^//' ;;
    *)
        pattern='^// Package ' ;;
    esac
    if ! grep -lq "$pattern" "$dir"/*.go 2>/dev/null; then
        echo "missing doc comment ($pattern) in package $rel"
        fail=1
    fi
done

# --- markdown links ---------------------------------------------------
for doc in README.md DESIGN.md ROADMAP.md CHANGES.md; do
    [ -f "$doc" ] || { echo "missing top-level document $doc"; fail=1; continue; }
    # Relative links in [text](target) form; external URLs and
    # intra-page anchors are skipped.
    for target in $(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://*|https://*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$path" ]; then
            echo "$doc: broken link -> $target"
            fail=1
        fi
    done
done

# --- documents cited in Go comments -----------------------------------
# Hidden directories (.git, build caches) are skipped.
for f in $(find . -name '.?*' -prune -o -name '*.go' -print | sort); do
    dir=$(dirname "$f")
    for ref in $(grep -oE '//.*' "$f" | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' | sort -u); do
        if [ ! -e "$ref" ] && [ ! -e "$dir/$ref" ]; then
            echo "${f#./}: comment cites missing $ref"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs check failed"
    exit 1
fi
echo "docs check ok"
