// The sequential reference runtime: the conformance oracle.
//
// RefJob runs any core::Application through the most boring schedule that
// satisfies the Application contract — one mapper thread, chunks strictly
// in plan order, one reduce partition, the pairwise merge plan with a
// single-thread pool. No ingest pipeline, no spill pressure, no p-way
// splitting: every subsystem the SupMR runtime adds on top of
// Phoenix-style MapReduce (PAPER.md §III–IV) is absent, so its
// canonical_output() is what the optimized lattice cells must reproduce
// byte-for-byte (tests/harness/). It doubles as the honest floor for bench
// comparisons (bench/ref_baseline.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "core/application.hpp"
#include "ingest/source.hpp"

namespace supmr::ref {

struct RefResult {
  std::string canonical;         // Application::canonical_output()
  std::uint64_t result_count = 0;
  std::uint64_t chunks = 0;
};

// Runs `app` to completion over `source`. The app must be freshly
// constructed (init has not been called). Callers that want the oracle to
// see the whole input as one round pass a source with chunk_bytes = 0 /
// files_per_chunk = 0; any chunking is accepted — the reference result is
// chunking-independent by the metamorphic properties the harness asserts.
StatusOr<RefResult> run_ref(core::Application& app,
                            const ingest::IngestSource& source);

}  // namespace supmr::ref
