#!/usr/bin/env bash
# Sanitizer ctest lane: address | thread | undefined.
#
# Configures a dedicated build tree with -DHERON_SANITIZE=<kind>, builds
# every test target and runs the full ctest suite under the sanitizer.
# What each lane is for:
#   thread    — the reactor handoff (EventLoop wakeup, ipc::Channel
#               TrySend/TryRecv across threads with a bound Wakeup), the
#               back-pressure throttle, the pooled-loop teardown
#               (EventLoop::Finish/Halt retiring a loop from its pool), and
#               the failure-recovery monitor (container hard-kill racing
#               live traffic). Run after any change to src/runtime,
#               src/ipc or src/smgr.
#   address   — heap-use-after-free across the kill path: Container::Fail
#               tears processes down mid-stream while survivors still hold
#               endpoints; ASan proves nothing dangles.
#   undefined — integer/shift/alignment UB in the serde and XOR-tracker
#               hot paths, plus float-cast-overflow (which GCC leaves out
#               of -fsanitize=undefined) for decoded doubles.
#
# Usage:
#   scripts/san_lane.sh <address|thread|undefined> [build-dir] \
#       [--transport <in-process|socket|shm>] \
#       [--execution <thread|cooperative>] [-- ctest args]
# Examples:
#   scripts/san_lane.sh thread                     # build-tsan, full suite
#   scripts/san_lane.sh address build-ci-asan      # CI's ASan lane
#   scripts/san_lane.sh thread build-tsan -- -R smgr
#   scripts/san_lane.sh thread --transport socket  # wire fabric under TSan
#   scripts/san_lane.sh thread --execution cooperative -- \
#       -R "event_loop|step_mode|local_cluster"    # tasklet pool under TSan
#
# --transport exports HERON_TRANSPORT_MODE so every LocalCluster in the
# suite rides the chosen ipc::Fabric — the pump thread, writev spill and
# ring wrap paths only exist in the wire modes, so TSan/ASan only see them
# when a lane opts in. --execution exports HERON_EXECUTION_MODE the same
# way: `cooperative` puts every instance and SMGR loop on the tasklet
# pool, so the worker drive loop, wakeup chaining and the Retire fence
# run under the sanitizer.
#
# Every `|`-separated alternative of a -R filter must select at least one
# test, and the run must select some: a filter naming a deleted test
# exits 2 instead of leaving the lane green.

set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <address|thread|undefined> [build-dir] [-- ctest args]" >&2
  exit 2
fi

SAN="$1"
shift
case "${SAN}" in
  address) DEFAULT_DIR="build-asan" ;;
  thread) DEFAULT_DIR="build-tsan" ;;
  undefined) DEFAULT_DIR="build-ubsan" ;;
  *)
    echo "unknown sanitizer '${SAN}' (want address, thread or undefined)" >&2
    exit 2
    ;;
esac

BUILD_DIR="${DEFAULT_DIR}"
TRANSPORT=""
EXECUTION=""
while [[ $# -gt 0 && "$1" != "--" ]]; do
  case "$1" in
    --transport)
      if [[ $# -lt 2 ]]; then
        echo "--transport needs a mode (in-process, socket or shm)" >&2
        exit 2
      fi
      TRANSPORT="$2"
      shift 2
      ;;
    --execution)
      if [[ $# -lt 2 ]]; then
        echo "--execution needs a mode (thread or cooperative)" >&2
        exit 2
      fi
      EXECUTION="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done
if [[ $# -gt 0 && "$1" == "--" ]]; then
  shift
fi

case "${TRANSPORT}" in
  "" | in-process | inprocess | socket | shm) ;;
  *)
    echo "unknown transport '${TRANSPORT}' (want in-process, socket or shm)" >&2
    exit 2
    ;;
esac
if [[ -n "${TRANSPORT}" ]]; then
  export HERON_TRANSPORT_MODE="${TRANSPORT}"
fi

case "${EXECUTION}" in
  "" | thread | cooperative) ;;
  *)
    echo "unknown execution mode '${EXECUTION}' (want thread or cooperative)" >&2
    exit 2
    ;;
esac
if [[ -n "${EXECUTION}" ]]; then
  export HERON_EXECUTION_MODE="${EXECUTION}"
fi

GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" -S . "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHERON_SANITIZE="${SAN}"
cmake --build "${BUILD_DIR}" --parallel

case "${SAN}" in
  thread)
    # second_deadlock_stack: the reactor parks on a futex; richer reports
    # when a test deadlocks under the sanitizer's scheduler perturbation.
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
    ;;
  address)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=0}"
    ;;
  undefined)
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
    ;;
esac

# ctest exits 0 when -R matches nothing, so check each alternative alone.
ARGS=("$@")
for ((i = 0; i < ${#ARGS[@]}; i++)); do
  if [[ "${ARGS[i]}" == "-R" || "${ARGS[i]}" == "--tests-regex" ]]; then
    IFS='|' read -r -a TOKENS <<< "${ARGS[i + 1]:-}"
    for token in "${TOKENS[@]}"; do
      LISTING="$(ctest --test-dir "${BUILD_DIR}" -N -R "${token}")"
      if [[ "${LISTING}" == *"Total Tests: 0"* ]]; then
        echo "ctest filter alternative '${token}' matches no test" >&2
        exit 2
      fi
    done
  fi
done

exec ctest --test-dir "${BUILD_DIR}" --no-tests=error --output-on-failure "$@"
