#!/usr/bin/env bash
# End-to-end drive of the installed CLI in fresh subprocesses.
# Exercises every subcommand, both entry points, JSON mode, the cap, and
# every exit code against golden expectations. Independent of pytest.
# Without an installed `farey`, it runs the package in src/ through a
# temporary `farey` shim: bash scripts/e2e.sh from a checkout.
set -u

if ! command -v farey >/dev/null; then
    src="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
    export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
    shim="$(mktemp -d)"
    trap 'rm -rf "$shim"' EXIT
    printf '#!/bin/sh\nexec python3 -m farey "$@"\n' > "$shim/farey"
    chmod +x "$shim/farey"
    export PATH="$shim:$PATH"
fi

pass=0
fail=0

check() {
    local desc="$1" want_code="$2" want_out="$3"
    shift 3
    local out code
    out="$(env -u FAREY_CAP "$@" 2>/dev/null)"
    code=$?
    if [[ "$code" == "$want_code" && "$out" == "$want_out" ]]; then
        pass=$((pass + 1))
    else
        fail=$((fail + 1))
        echo "E2E FAIL: $desc"
        echo "  cmd:  $*"
        echo "  want: exit $want_code, '$want_out'"
        echo "  got:  exit $code, '$out'"
    fi
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

out="$(env -u FAREY_CAP farey bench 10^12 --reps 3 --json 2>/dev/null)"
if [[ $? == 0 && "$out" == *'"oracle":"skipped"'* ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: bench at 10^12 skips oracle; got: $out"
fi

printf -v nines '%*s' 4000 ''
err="$(env -u FAREY_CAP farey list "-${nines// /9}" 2>&1 >/dev/null)"
if [[ $? == 1 && ${#err} -lt 200 ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: a huge order is cut in the error line; got ${#err} bytes: ${err:0:200}"
fi

printf -v words '%*s' 5000 ''
err="$(env -u FAREY_CAP farey list 3 "${words// /a }" 2>&1 >/dev/null)"
if [[ $? == 1 && ${#err} -lt 300 ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: a long line of short words is cut as a whole; got ${#err} bytes: ${err:0:200}"
fi

# One check: every route refuses a huge reducible center with one cut line.
want="error: 6/10000000000000...0000000000000000 not irreducible"
bad=""
for method in inverse chain cf; do
    err="$(env -u FAREY_CAP farey triple 6 10^100 --method "$method" 2>&1 >/dev/null)"
    [[ $? == 1 && "$err" == "$want" ]] || bad+=" $method: ${err:0:200};"
done
if [[ -z "$bad" ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: a huge reducible center gets one error line on every route;$bad"
fi

# The oracle's walk refuses a reducible center with the same line.
err="$(env -u FAREY_CAP farey triple 6 10 --method oracle 2>&1 >/dev/null)"
if [[ $? == 1 && "$err" == "error: 6/10 not irreducible" ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: the oracle refuses 6/10; got: ${err:0:200}"
fi

# bench names why an order in its list did not parse, as list does.
err_file="$(mktemp)"
out="$(env -u FAREY_CAP farey bench 10^5000 2>"$err_file")"
code=$?
err="$(cat "$err_file")"
rm -f "$err_file"
want="error: cannot parse order list from '10^5000': integer '10^5000' has more than 4300 digits"
if [[ $code == 1 && -z "$out" && "$err" == "$want" ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: bench names the digit limit; got: exit $code, '${out:0:100}', '${err:0:200}'"
fi

# A max order past the first order over the cap is refused before any order
# is walked, with the line the walk would give at that order, on both paths.
want="error: F_5736 exceeds the cap of 10000000 terms"
bad=""
err_file="$(mktemp)"
for jobs in 1 2; do
    out="$(env -u FAREY_CAP timeout 10 farey verify 10^100 --jobs "$jobs" 2>"$err_file")"
    code=$?
    err="$(cat "$err_file")"
    [[ $code == 2 && -z "$out" && "$err" == "$want" ]] || bad+=" --jobs $jobs: exit $code, '${out:0:100}', '${err:0:200}';"
done
rm -f "$err_file"
if [[ -z "$bad" ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: verify 10^100 refuses at once;$bad"
fi

# Help, usage errors and write failures run the code a plain query never loads.
out="$(env -u FAREY_CAP farey --help 2>/dev/null)"
if [[ $? == 0 && "${out%%$'\n'*}" == "usage: farey [-h] [--json] [--cap TERMS] command ..." ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: --help prints the usage line; got: ${out:0:200}"
fi

err="$(env -u FAREY_CAP farey triple 5 2>&1 >/dev/null)"
if [[ $? == 1 && "$err" == "usage error: the following arguments are required: order" ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: a missing argument is a usage error; got: ${err:0:200}"
fi

err="$(env -u FAREY_CAP farey triple 5 39 2>&1 >/dev/full)"
if [[ $? == 1 && "$err" == "error: cannot write output: "* && "$err" != *$'\n'* ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: a full stdout gets one error line; got: ${err:0:200}"
fi

echo "e2e: $pass passed, $fail failed"
[[ "$fail" == 0 ]]
