# lib.sh is the part every smoke script used to carry its own copy of. Source
# it right after `set -eu`, with SMOKE set to the name that prefixes the
# script's messages:
#
#   SMOKE=obs-smoke
#   . "$(dirname "$0")/lib.sh"
#
# It moves to the repository root, creates the scratch directory $TMP, and on
# EXIT kills and reaps every pid listed in $PIDS (append "$!" after each
# background start) and removes $TMP. It defines:
#
#   build <cmd>...   compile ./cmd/<cmd> into $BIN/<cmd>
#   fetch <url>      GET to stdout with curl or wget, failing on HTTP errors
#   wait_for <url> <what> <logfile> [<out>]
#                    poll <url> for 5 s, keeping the body in <out> if given;
#                    on timeout print <logfile> and exit 1
#
# $BIN is $TMP unless SMOKE_BIN names a directory that outlives the script:
# ci.sh sets it, so eight scripts build each binary once between them.

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; for p in $PIDS; do wait "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

BIN="${SMOKE_BIN:-$TMP}"

build() {
    for c in "$@"; do
        [ -x "$BIN/$c" ] || go build -o "$BIN/$c" "./cmd/$c"
    done
}

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "$1"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO- "$1"
    else
        echo "$SMOKE: need curl or wget" >&2
        exit 1
    fi
}

wait_for() {
    i=0
    until fetch "$1" >"${4:-/dev/null}" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "$SMOKE: $2 never came up" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}
