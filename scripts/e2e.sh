#!/usr/bin/env bash
# End-to-end drive of the installed CLI in fresh subprocesses.
# Exercises every subcommand, both entry points, JSON mode, the cap, and
# every exit code against golden expectations. Independent of pytest.
set -u

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
check "cap exceeded"           2 ""                             farey --cap 10 list 5
check "cap env honored"        2 ""                             env FAREY_CAP=10 farey list 5

out="$(env -u FAREY_CAP farey bench 10^12 --reps 3 --json 2>/dev/null)"
if [[ $? == 0 && "$out" == *'"oracle":"skipped"'* ]]; then
    pass=$((pass + 1))
else
    fail=$((fail + 1))
    echo "E2E FAIL: bench at 10^12 skips oracle; got: $out"
fi

echo "e2e: $pass passed, $fail failed"
[[ "$fail" == 0 ]]
