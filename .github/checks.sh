# The pins of .github/workflows/tests.yml, one function per kind.  A run: block
# sources this file (`. .github/checks.sh`); a failed pin prints its command and
# what it got, each cut at 400 characters, and returns 1, which ends the block.

# refused WANT CMD...: CMD exits 2, and its stdout and stderr together are exactly WANT
refused() {
  local want="$1" out rc=0
  shift
  out="$("$@" 2>&1)" || rc=$?
  test "$rc:$out" = "2:$want" || _failed "$*" "$rc" "$out" "exit 2 and '$want'"
}

# prints WANT CMD...: CMD exits 0, and its standard output is exactly WANT
prints() {
  local want="$1" out rc=0
  shift
  out="$("$@")" || rc=$?
  test "$rc:$out" = "0:$want" || _failed "$*" "$rc" "$out" "exit 0 and '$want'"
}

_failed() {
  local cmd="$1" out="$3"
  echo "${cmd:0:400} exited $2, printed '${out:0:400}', expected $4"
  return 1
}

# edited SRC DST CODE: DST holds the JSON of SRC after the Python CODE has changed doc
edited() {
  python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
exec(sys.argv[3])
json.dump(doc, open(sys.argv[2], "w"))' "$@"
}
