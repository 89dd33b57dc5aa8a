# Sanitizer wiring for the whole build.
#
# Usage:  cmake -B build-tsan -S . -DSUPMR_SANITIZE=thread
#         cmake -B build-asan -S . -DSUPMR_SANITIZE=address,undefined
#
# The flags are applied at directory scope from the top-level CMakeLists
# *before* any add_subdirectory(), so every target under src/, tests/,
# tools/, bench/ and examples/ is compiled and linked instrumented —
# mixing instrumented and uninstrumented TUs produces false negatives
# (TSan misses races in uninstrumented code entirely).
#
# Valid values: thread | address | undefined, comma-separated to combine.
# thread+address is rejected (the runtimes are mutually exclusive).
# Suppression files live in tools/sanitizers/; see docs/concurrency.md for
# how to run the labeled test subsets under each sanitizer.

set(SUPMR_SANITIZE "" CACHE STRING
    "Sanitizers to build with: thread | address | undefined (comma-separated)")

if(SUPMR_SANITIZE)
  string(REPLACE "," ";" _supmr_san_list "${SUPMR_SANITIZE}")

  if("thread" IN_LIST _supmr_san_list AND "address" IN_LIST _supmr_san_list)
    message(FATAL_ERROR
        "SUPMR_SANITIZE: 'thread' and 'address' cannot be combined "
        "(incompatible runtimes); build them separately")
  endif()

  set(_supmr_san_flags "")
  foreach(_san IN LISTS _supmr_san_list)
    if(_san STREQUAL "thread")
      list(APPEND _supmr_san_flags -fsanitize=thread)
    elseif(_san STREQUAL "address")
      list(APPEND _supmr_san_flags -fsanitize=address)
    elseif(_san STREQUAL "undefined")
      # Abort on UB instead of printing and continuing, so ctest fails.
      list(APPEND _supmr_san_flags -fsanitize=undefined
           -fno-sanitize-recover=undefined)
    else()
      message(FATAL_ERROR
          "SUPMR_SANITIZE: unknown sanitizer '${_san}' "
          "(expected thread, address, or undefined)")
    endif()
  endforeach()

  # Frame pointers keep sanitizer stack traces usable at -O1/-O2; a little
  # optimization keeps the instrumented stress tests fast enough to matter.
  add_compile_options(${_supmr_san_flags} -fno-omit-frame-pointer -g)
  add_link_options(${_supmr_san_flags})
  if(NOT CMAKE_BUILD_TYPE STREQUAL "Debug")
    # Non-Debug builds define NDEBUG, which would compile out the debug
    # assertions the runtime uses to state its invariants (e.g. the
    # containers' bounds and initialization checks). Sanitizer runs are
    # exactly when we want those asserts live.
    add_compile_options(-UNDEBUG)
  endif()
  message(STATUS "SupMR: sanitizers enabled: ${_supmr_san_flags}")
endif()
