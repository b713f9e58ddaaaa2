#!/bin/sh
# The golden and update passes of tests/test_golden_artifacts.py, run by the
# installed `vet` outside the checkout and compared byte for byte with the
# pinned artifacts. Every vet command must exit with its expected code and
# write nothing to stderr.
#
# usage: sh tests/installed_vet_pass.sh PASS WORKDIR
#   PASS is one of
#     golden            the golden pass on a copy of the golden workspace;
#                       its first trace run is run again last, on the log
#                       rewritten in reverse line order with one escaped
#                       character, which leaves the log of both runs as it was
#     golden-symlink    the same pass with the workspace spelled through a
#                       symlink: origins are paths under the workspace as
#                       spelled, so the artifacts match the same pins
#     golden-unstamped  the golden trace runs without scan: with no stamped
#                       bom.json, trace run first builds the BOM, whose
#                       inventory parses each body once (after scan it
#                       reads bom.json); either way it parses and binds each
#                       body when a test first enters it, and its artifacts
#                       match the same pins
#     golden-stale      reach static, the golden trace runs and reach
#                       combined without scan: the call graph and the BOM
#                       are built from source in scan's one pass, each
#                       body parsed once, and no bom.json is written; the
#                       artifacts match the same pins
#     update            the update pass: the library index, its version
#                       screening and the mitigation ranking; mitigate
#                       runs again without .vet/kb-index.json, so it
#                       reads every record, and ranks the same; and once
#                       more without bom.json and graph.json, so it builds
#                       both in scan's one pass over the bodies, writes no
#                       bom.json, and ranks the same
#   WORKDIR is an existing directory outside the checkout; vet runs there.
set -eu
tests=$(cd "$(dirname "$0")" && pwd)
work=$2
cd "$work"

step() {  # the exit code, and nothing on stderr
    want=$1; shift; got=0
    vet --workspace "$ws" "$@" 2>"$ws.err" || got=$?
    cat "$ws.err" >&2
    test "$got" -eq "$want"
    test ! -s "$ws.err"
}

golden() {  # the golden pass on the workspace $ws
    step 0 kb import-fix --id VULN-J1 --before "$fx/fixes/j1/before" --after "$fx/fixes/j1/after"
    step 0 kb import-fix --id VULN-J2 --before "$fx/fixes/j2/before" --after "$fx/fixes/j2/after"
    for name in VULN-J1.json VULN-J2.json; do
        cmp "$ws/kb/vulns/$name" "$fx/expected/kb/vulns/$name"
    done
    step 1 scan
    cmp "$ws/.vet/graph.json" "$fx/expected/graph.json"
    cmp "$ws/.vet/bom.json" "$fx/expected/bom.json"
    step 0 reach static
    step 0 trace run --pattern test
    step 0 trace run --pattern itest
    # a log that vet did not write reads as the one it did: its lines in
    # reverse order, one character as a \u00XX escape, which only json reads
    log="$ws/.vet/traces.jsonl"
    awk '{ line[NR] = $0 } END { for (i = NR; i > 0; i--) print line[i] }' "$log" |
        sed '1s/"test": "a/"test": "\\u0061/' > "$ws.log"
    grep -q '"test": "\\u0061' "$ws.log"
    mv "$ws.log" "$log"
    # a re-run replaces its tests' events: read back, the log of both stays
    step 0 trace run --pattern test
    step 0 reach combined
    step 2 report
    for name in findings.json report.json traces.jsonl trace-summary.json \
                reach-static.json reach-combined.json; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
}

case $1 in
golden)
    fx="$tests/fixtures/golden"
    ws="$work/golden"
    cp -R "$fx/workspace" "$ws"
    golden
    ;;
golden-symlink)
    fx="$tests/fixtures/golden"
    cp -R "$fx/workspace" "$work/golden-target"
    ws="$work/golden-link"
    ln -s "$work/golden-target" "$ws"
    golden
    ;;
golden-unstamped)
    fx="$tests/fixtures/golden"
    ws="$work/golden-unstamped"
    cp -R "$fx/workspace" "$ws"
    step 0 trace run --pattern test
    step 0 trace run --pattern itest
    test ! -e "$ws/.vet/bom.json"
    for name in traces.jsonl trace-summary.json; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
    ;;
golden-stale)
    fx="$tests/fixtures/golden"
    ws="$work/golden-stale"
    cp -R "$fx/workspace" "$ws"
    step 0 reach static
    for name in graph.json reach-static.json; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
    step 0 trace run --pattern test
    step 0 trace run --pattern itest
    step 0 reach combined
    cmp "$ws/.vet/reach-combined.json" "$fx/expected/reach-combined.json"
    test ! -e "$ws/.vet/bom.json"
    ;;
update)
    fx="$tests/fixtures/update"
    ws="$work/update"
    cp -R "$fx/workspace" "$ws"
    step 0 kb index-lib --name libA --root "1.0=$ws/libs/libA/1.0/src" --root "2.0=$fx/versions/2.0"
    step 0 scan
    step 0 reach static
    step 0 mitigate --lib libA
    step 0 report
    for name in mitigation-libA.json mitigation-libA.csv report.json; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
    rm "$ws/.vet/kb-index.json"
    step 0 mitigate --lib libA
    for name in mitigation-libA.json mitigation-libA.csv; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
    rm "$ws/.vet/bom.json" "$ws/.vet/graph.json"
    step 0 mitigate --lib libA
    for name in mitigation-libA.json mitigation-libA.csv; do
        cmp "$ws/.vet/$name" "$fx/expected/$name"
    done
    test ! -e "$ws/.vet/bom.json"
    ;;
*)
    echo "usage: sh tests/installed_vet_pass.sh golden|golden-symlink|golden-unstamped|golden-stale|update WORKDIR" >&2
    exit 64
    ;;
esac
