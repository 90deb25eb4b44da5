#!/usr/bin/env bash
# Sanitizer pass: rebuild under a sanitizer and run the runtime- and
# exec-focused tests — the code that switches stacks (fibers), runs real
# threads (ThreadRuntime), and fans trials out across the worker pool.
# Wired into CTest under the "sanitize" / "tsan" labels:
#     ctest -L sanitize        # ASan+UBSan
#     ctest -L tsan            # ThreadSanitizer
#
# Modes (MM_SANITIZE env, mirroring the CMake cache var):
#   address (default)  ASan+UBSan in build-sanitize. Fibers participate in
#                      ASan's fake-stack bookkeeping through the
#                      __sanitizer_*_switch_fiber hooks (fiber.cpp), so
#                      stack switching is fully instrumented, not suppressed.
#   thread             TSan in build-tsan. Fibers register with the
#                      __tsan_*_fiber API (fiber.cpp), so their stack
#                      switches keep TSan's shadow state coherent; the worker
#                      pool and ThreadRuntime are checked for real data races.
#
# Env:
#   MM_SANITIZE   address (default) | thread
#   BUILD_DIR     sanitizer build tree (default: build-sanitize / build-tsan)
#   GTEST_FILTER  override the test filter (default: runtime/exec suites)
set -euo pipefail

cd "$(dirname "$0")/.."
MODE=${MM_SANITIZE:-address}
case "$MODE" in
  thread)
    BUILD_DIR=${BUILD_DIR:-build-tsan}
    # Runtime + concurrency surface only: TSan's ~10x slowdown makes the full
    # suite impractical, and the single-threaded analysis passes add nothing.
    # Every test that runs ThreadRuntime is in: its own suite, the paper
    # algorithms on real threads, and the shm, mutex and register-history
    # tests that contend on it.
    # The explorer suites are in because their walkers switch between fibers
    # on recycled stacks, which TSan's fiber annotations must follow; the
    # walk pins drive the state cache's arenas through long walks.
    FILTER=${GTEST_FILTER:-'Fiber*:TrajectoryPins.*:SimRuntime.*:SimEnv.*:Jobs.*:ParallelMap.*:TrialEngine.*:ThreadRuntime.*:ThreadAlgorithms.*:ConsensusObject.ThreadRuntimeContention:Mutex.ThreadRuntimeMutualExclusion:LinCheck.ThreadRegisterHistoryIsAtomic:Explore.*:Dpor.*:DporFaults.*:DporWalkPins.*'}
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
    ;;
  address|ON|on)
    MODE=address
    BUILD_DIR=${BUILD_DIR:-build-sanitize}
    # The fault suites are in because every engine-driven send and register
    # write goes through FaultInjector::on_send / on_reg_write, which rewrite
    # messages and values in place on the data path.
    FILTER=${GTEST_FILTER:-'Fiber*:TrajectoryPins.*:TupleVec.*:SlabPool.*:AllocInvariant.*:SimRuntime.*:SimEnv.*:SimConfigValidate.*:Jobs.*:ParallelMap.*:TrialEngine.*:SweepTermination.*:ThreadRuntime.*:ThreadAlgorithms.*:ConsensusObject.ThreadRuntimeContention:Mutex.ThreadRuntimeMutualExclusion:LinCheck.ThreadRegisterHistoryIsAtomic:FaultEngine.*:FaultJson.*:ChaosCampaign.*:ChaosShrink.*:ChaosBridge.*:ByzAdversary.*:ByzChaos.*:ByzCampaign.*:ByzRegister.*:BrachaFaultGrid.*:HboMemoryFailure.*:OmegaMemoryFailure.*:Explore.*:FootprintClasses.*:Dpor.*:DporFaults.*:DporWalkPins.*'}
    # Leak checking needs ptrace, which containers often deny; the point here
    # is stack/UB instrumentation, so default it off (overridable).
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
    ;;
  *)
    echo "unknown MM_SANITIZE mode: $MODE (want address or thread)" >&2
    exit 2
    ;;
esac

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DMM_SANITIZE=$MODE"
fi
# One compile per CPU: an uncapped -j runs every ASan/TSan compile at once
# and can exhaust memory.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target mm_tests

"$BUILD_DIR/tests/mm_tests" --gtest_filter="$FILTER" --gtest_brief=1

echo "sanitize ($MODE) OK"
