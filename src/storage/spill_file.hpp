// Spill files: the one way the runtime creates a file for its own temporary
// bytes — the budgeted word count's runs and a job graph's spilled edges.
//
// Each file is created with mkstemp in the caller's directory, so its name
// is unique there: spill writers that share a directory (two objects, a
// forked child and its parent, or two processes whose objects sit at the
// same addresses) never write or reopen each other's runs.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "common/status.hpp"

namespace supmr::storage {

// Creates `<dir>/<stem>-XXXXXX`, lets `write` fill it and closes it; returns
// the path. `write` returns false on a short write. On any failure the file
// is removed and the IoError names it.
StatusOr<std::string> write_spill_file(
    const std::string& dir, const std::string& stem,
    const std::function<bool(std::FILE*)>& write);

}  // namespace supmr::storage
