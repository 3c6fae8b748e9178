#!/usr/bin/env bash
# End-to-end drive of the installed CLI in fresh subprocesses.
# Exercises every subcommand, both entry points, JSON mode, the cap, and
# every exit code against golden expectations. Independent of pytest.
# Without an installed `farey`, it runs the package in src/ through a
# temporary `farey` shim: bash scripts/e2e.sh from a checkout.
#
# A check is one line: `check` pins a command's exit code and stdout,
# `check_err` its exit code, an empty stdout and its stderr. Both compare
# the whole text after trailing newlines are cut; `*` matches any text and
# no other character is special. Checks that share a description count as
# one, so a loop of them is one check.
set -u

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
if ! command -v farey >/dev/null; then
    src="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
    export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
    printf '#!/bin/sh\nexec python3 -m farey "$@"\n' > "$tmp/farey"
    chmod +x "$tmp/farey"
    export PATH="$tmp:$PATH"
fi

declare -A seen=() failed=()

# run CMD...: run CMD without FAREY_CAP; set cmd, code, out and err.
run() {
    cmd="$*"
    out="$(env -u FAREY_CAP "$@" 2>"$tmp/err")"
    code=$?
    err="$(<"$tmp/err")"
}

# verdict DESC WANT GOT: record whether GOT matches the pattern WANT.
verdict() {
    local pattern="${2//\[/\\[}"
    seen[$1]=1
    [[ $3 == ${pattern//\?/\\?} ]] && return
    failed[$1]=1
    printf 'E2E FAIL: %s\n  cmd:  %s\n  want: %s\n  got:  %s\n' "$1" "${cmd:0:200}" "$2" "${3:0:300}"
}

# check DESC CODE STDOUT CMD...
check() {
    run "${@:4}"
    verdict "$1" "exit $2, stdout: $3" "exit $code, stdout: $out"
}

# check_err DESC CODE STDERR CMD...
check_err() {
    run "${@:4}"
    verdict "$1" "exit $2, stdout: '', stderr: $3" "exit $code, stdout: '$out', stderr: $err"
}

check "list golden row"        0 "0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1" farey list 5
check "list json bytes"        0 '{"count":11,"order":5,"terms":["0/1","1/5","1/4","1/3","2/5","1/2","3/5","2/3","3/4","4/5","1/1"]}' farey --json list 5
check "triple via inverse"     0 "1/8 5/39 4/31"                farey triple 5 39
check "triple via chain"       0 "1/8 5/39 4/31"                farey triple 5 39 --method chain
check "triple via cf"          0 "5/14 9/25 4/11"               farey triple 9 25 --method cf
check "triple via oracle"      0 "5/14 9/25 4/11"               farey triple 9 25 --method oracle
check "triple json bytes"      0 '{"center":"5/39","left":"1/8","order":39,"right":"4/31"}' farey --json triple 5 39
check "next with steps"        0 "31/86 (l=3)"                  farey next 9/25 100
check "next at own order"      0 "4/11 (l=0)"                   farey next 9/25 25
check "prev"                   0 "5/14"                         farey prev 9/25 25
check "cf expansion"           0 "[0,2,1,3,2]"                  farey cf 9/25
check "cf of zero"             0 "[0]"                          farey cf 0/1
check "chain"                  0 "rho=[7,1] terminal=4 k=2"     farey chain 5/39
check "module entry"           0 "31/86 (l=3)"                  python3 -m farey next 9/25 100
check "verify to 120"          0 "OK: 119 orders, 4,385 triples, 0 mismatches" farey verify 120
check "reducible rejected"     1 ""                             farey triple 2 4
check "last term has no next"  1 ""                             farey next 1/1 10
check "cap at exact length"    0 "0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1" farey --cap 11 list 5
check "cap exceeded"           2 ""                             farey --cap 10 list 5
check "cap refuses oracle walk" 2 ""                            farey --cap 100 triple 9 25 --method oracle
check "cap env honored"        2 ""                             env FAREY_CAP=10 farey list 5
check "bad cap env unread by cf" 0 "[0,2,1,3,2]"                env FAREY_CAP=lots farey cf 9/25
check "bad cap env stops list" 1 ""                             env FAREY_CAP=lots farey list 5
check "unknown method"         1 ""                             farey triple 5 39 --method nope
# Argvs the command-table parse declines, answered by argparse's parse.
check "abbreviated flag"       0 "1/8 5/39 4/31"                farey triple 5 39 --meth chain
check "flag=value"             0 "1/8 5/39 4/31"                farey triple 5 39 --method=cf
check "abbreviated json flag"  0 '{"center":"5/39","left":"1/8","order":39,"right":"4/31"}' farey --js triple 5 39
check "-- before a positional" 0 "1/8 5/39 4/31"                farey triple 5 -- 39
check "bench at 10^12 skips oracle" 0 '*"oracle":"skipped"*'    farey bench 10^12 --reps 3 --json

# Error lines cut a huge value, and a long line of short words as a whole.
printf -v nines '%*s' 4000 ''
printf -v words '%*s' 5000 ''
words="${words// /a }"
check_err "a huge order is cut in the error line" 1 "error: order must be >= 1, got -999999999999999...9999999999999999" \
    farey list "-${nines// /9}"
check_err "a long line of short words is cut as a whole" 1 \
    "usage error: unrecognized arguments: ${words:0:76}...${words: -60}" farey list 3 "$words"

# Every route refuses a huge reducible center with one cut line, and the
# oracle's walk refuses a reducible center with the same line.
for method in inverse chain cf; do
    check_err "a huge reducible center gets one error line on every route" 1 \
        "error: 6/10000000000000...0000000000000000 not irreducible" farey triple 6 10^100 --method "$method"
done
check_err "the oracle refuses 6/10" 1 "error: 6/10 not irreducible" farey triple 6 10 --method oracle

# bench names why an order in its list did not parse, as list does.
check_err "bench names the digit limit" 1 \
    "error: cannot parse order list from '10^5000': integer '10^5000' has more than 4300 digits" farey bench 10^5000

# A max order past the first order over the cap is refused before any order
# is walked, with the line the walk would give at that order, on both paths.
for jobs in 1 2; do
    check_err "verify 10^100 refuses at once" 2 "error: F_5736 exceeds the cap of 10000000 terms" \
        timeout 10 farey verify 10^100 --jobs "$jobs"
done

# Help and usage errors go through argparse, which a plain query never
# imports; then a closed or full stdout or stderr.
check "--help prints the usage line" 0 $'usage: farey [-h] [--json] [--cap TERMS] command ...\n*' farey --help
check_err "a missing argument is a usage error" 1 "usage error: the following arguments are required: order" \
    farey triple 5
check_err "a negative fraction is a value, not a flag" 1 \
    "usage error: argument fraction: numerator must be >= 0, got -1" farey cf -1/2
check_err "a full stdout gets one error line" 1 "error: cannot write output: [Errno 28] No space left on device" \
    sh -c 'farey triple 5 39 >/dev/full'
check_err "--help to a closed stdout is an error" 1 "error: cannot write output: stdout is closed" sh -c 'farey --help >&-'
check "a closed stderr keeps errors off stdout" 2 "" sh -c 'farey --json --cap 10 list 5 2>&-'
check "a full stderr keeps the exit code"     2 ""  sh -c 'farey --cap 10 list 5 2>/dev/full'
check_err "cli.py run as a script is refused" 1 'error: run the command line as `python -m farey` or `farey`' \
    python3 -m farey.cli triple 5

echo "e2e: $((${#seen[@]} - ${#failed[@]})) passed, ${#failed[@]} failed"
[[ ${#failed[@]} == 0 ]]
